import pytest

from ruleforge import build_evidence, make_oracle, make_reference_fixture, odd_spec


@pytest.fixture(scope="session")
def fixture42():
    return make_reference_fixture(42)


@pytest.fixture(scope="session")
def evidence27(fixture42):
    """The reference fixture's 27 counterfactual pairs."""
    return build_evidence(fixture42.baseline_rule, fixture42.dataset,
                          make_oracle(fixture42.config), fixture42.config.odd,
                          dataset_ref="dataset.csv")


@pytest.fixture(scope="session")
def odd():
    return odd_spec([
        ("ego_speed", 0.0, 30.0, 0.5),
        ("dist_front", 0.0, 50.0, 0.2),
        ("lane_offset", -2.0, 2.0, 0.1),
    ])


@pytest.fixture(scope="session")
def arg_odd():
    return odd_spec([("ARG1", 0.0, 10.0, 1.0), ("ARG2", 0.0, 20.0, 1.0)])
