import pickle
import random
from enum import Enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleforge import (DecisivenessReport, EmptyDataset, LabeledRun, Outcome, PolarizedRule,
                       Polarity, UnboundVariable, decisiveness, evaluate, odd_spec, parse_rule,
                       print_rule, random_rule, semantics)
from ruleforge.grammar import Const, RelOp, Var, direct_bound, print_relation
from ruleforge.semantics import EPS_EQ

X1 = {"ego_speed": 8.0, "dist_front": 4.2, "lane_offset": 0.1}
R1 = parse_rule("(dist_front < 5.0) and (ego_speed > 0)")
R1_STAR = parse_rule("(dist_front < 4.1) and (ego_speed > 0)")


class TestEvaluate:
    def test_running_example_holds(self):
        assert evaluate(R1, X1) is True

    def test_refined_rule_excludes_failing_input(self):
        assert evaluate(R1_STAR, X1) is False

    def test_division_by_zero_is_false_with_diagnostic(self):
        diagnostics = []
        ast = parse_rule("(ARG1 / ARG2 > 1)")
        assert evaluate(ast, {"ARG1": 3.0, "ARG2": 0.0}, diagnostics=diagnostics) is False
        assert diagnostics and "division by zero" in diagnostics[0]
        # one diagnostic per relation reached, in rule order
        diagnostics = []
        ast = parse_rule("(a / b > 0) or (c / b < 0) and (a > 5) or (a / c > 0)")
        assert evaluate(ast, {"a": 1.0, "b": 0.0, "c": 0.0}, diagnostics=diagnostics) is False
        assert diagnostics == ["division by zero in (a / b > 0)",
                               "division by zero in (c / b < 0)",
                               "division by zero in (a / c > 0)"]

    def test_unbound_variable(self):
        with pytest.raises(UnboundVariable) as info:
            evaluate(R1, {"dist_front": 4.2})
        assert info.value.name == "ego_speed"
        # dist_front < 5.0 fails first, so ego_speed is never read
        assert evaluate(R1, {"dist_front": 6.0}) is False

    def test_unbound_variable_names_the_variable(self):
        assert str(UnboundVariable("v")) == "variable 'v' is not bound by the input vector"

    def test_eq_tolerance(self):
        ast = parse_rule("x == 1")
        assert evaluate(ast, {"x": 1.0 + 5e-10})
        assert not evaluate(ast, {"x": 1.0 + 1e-6})

    def test_ne_negates_eq(self):
        ast = parse_rule("x != 1")
        assert not evaluate(ast, {"x": 1.0})
        assert evaluate(ast, {"x": 1.5})


HOLD = parse_rule("v > 0")


def _run(holds: bool, y: Outcome) -> LabeledRun:
    return LabeledRun(x={"v": 1.0 if holds else -1.0}, y=y)


class Consistency(Enum):
    """What one run is to a rule: decisiveness counts it a mismatch when
    Inconsistent, and a rule Inconclusive on every run is fully inconclusive."""
    CONSISTENT = "Consistent"
    INCONSISTENT = "Inconsistent"
    INCONCLUSIVE = "Inconclusive"


class TestLabeledRun:
    """A run is a named (x, y) pair: built by position or keyword, read by
    name, immutable, picklable, and equal to the plain tuple."""

    def test_a_named_pair(self):
        run = LabeledRun(x={"v": 1.0}, y=Outcome.PASS)
        assert (run.x, run.y) == ({"v": 1.0}, Outcome.PASS)
        assert run == LabeledRun({"v": 1.0}, Outcome.PASS) == ({"v": 1.0}, Outcome.PASS)
        assert run != LabeledRun({"v": 1.0}, Outcome.FAIL)
        assert repr(run) == f"LabeledRun(x={{'v': 1.0}}, y={Outcome.PASS!r})"
        with pytest.raises(AttributeError):
            run.y = Outcome.FAIL
        assert pickle.loads(pickle.dumps(run)) == run
        assert type(pickle.loads(pickle.dumps(run))) is LabeledRun


class TestClassifyConsistency:
    @pytest.mark.parametrize("polarity,holds,y,expected", [
        (Polarity.PASS_RULE, True, Outcome.PASS, Consistency.CONSISTENT),
        (Polarity.FAIL_RULE, True, Outcome.PASS, Consistency.INCONSISTENT),
        (Polarity.PASS_RULE, True, Outcome.FAIL, Consistency.INCONSISTENT),
        (Polarity.FAIL_RULE, True, Outcome.FAIL, Consistency.CONSISTENT),
        (Polarity.PASS_RULE, False, Outcome.PASS, Consistency.INCONCLUSIVE),
        (Polarity.PASS_RULE, False, Outcome.FAIL, Consistency.INCONCLUSIVE),
        (Polarity.FAIL_RULE, False, Outcome.PASS, Consistency.INCONCLUSIVE),
        (Polarity.FAIL_RULE, False, Outcome.FAIL, Consistency.INCONCLUSIVE),
    ])
    def test_all_cases(self, polarity, holds, y, expected):
        report = decisiveness(PolarizedRule("r", polarity, HOLD), [_run(holds, y)])
        assert (report.n_mismatch == 1) is (expected is Consistency.INCONSISTENT)
        assert report.fully_inconclusive is (expected is Consistency.INCONCLUSIVE)

    def test_inconclusive_iff_not_holding(self):
        rule = PolarizedRule("r", Polarity.PASS_RULE, HOLD)
        for holds in (True, False):
            for y in Outcome:
                assert decisiveness(rule, [_run(holds, y)]).fully_inconclusive is (not holds)


class TestDecisiveness:
    def test_fixture_counts(self, fixture42):
        report = decisiveness(fixture42.baseline_rule, fixture42.dataset)
        assert (report.n, report.n_mismatch) == (198, 27)
        assert round(report.dg, 4) == 0.8636

    def test_zero_mismatch_is_one(self):
        rule = PolarizedRule("r", Polarity.PASS_RULE, HOLD)
        data = [_run(True, Outcome.PASS), _run(False, Outcome.FAIL)]
        report = decisiveness(rule, data)
        assert report.dg == 1.0 and report.mismatches == ()

    def test_vacuous_rule_flagged(self):
        rule = PolarizedRule("r", Polarity.PASS_RULE, parse_rule("v > 100"))
        data = [LabeledRun({"v": 1.0}, Outcome.FAIL), LabeledRun({"v": 2.0}, Outcome.PASS)]
        report = decisiveness(rule, data)
        assert report.n_mismatch == 0 and report.dg == 1.0
        assert report.fully_inconclusive

    def test_empty_dataset(self):
        with pytest.raises(EmptyDataset):
            decisiveness(PolarizedRule("r", Polarity.PASS_RULE, HOLD), [])

    def test_mismatch_indices_in_order(self):
        rule = PolarizedRule("r", Polarity.PASS_RULE, HOLD)
        data = [_run(True, Outcome.FAIL), _run(True, Outcome.PASS), _run(True, Outcome.FAIL)]
        report = decisiveness(rule, data)
        assert report.mismatches == (0, 2)
        assert report.dg == 1.0 - 2 / 3

    def test_determinism(self, fixture42):
        a = decisiveness(fixture42.baseline_rule, fixture42.dataset)
        b = decisiveness(fixture42.baseline_rule, fixture42.dataset)
        assert a == b

    @given(st.integers(min_value=0, max_value=500), st.integers(min_value=0, max_value=500))
    @settings(max_examples=100, deadline=None)
    def test_dg_bounds(self, rule_seed, data_seed):
        import random

        from ruleforge import odd_spec
        domain = odd_spec([("a", 0.0, 10.0, 1.0), ("b", 0.0, 10.0, 1.0)])
        rule = PolarizedRule("r", Polarity.PASS_RULE, random_rule(rule_seed, domain, 2, 2))
        rng = random.Random(data_seed)
        data = [LabeledRun({"a": float(rng.randint(0, 10)), "b": float(rng.randint(0, 10))},
                           rng.choice(list(Outcome))) for _ in range(20)]
        report = decisiveness(rule, data)
        assert 0.0 <= report.dg <= 1.0
        assert (report.dg == 1.0) == (report.mismatches == ())


class TestMonotonicTightening:
    def test_implied_rule_has_subset_of_inconsistencies(self):
        # ast_tight = ast + extra conjunct, so ast_tight implies ast; verify the
        # implication by grid enumeration, then the inconsistency subset claim.
        import random
        base = parse_rule("(a < 7)")
        tight = parse_rule("(a < 7) and (b > 3)")
        grid = [float(v) for v in range(11)]
        for a in grid:
            for b in grid:
                x = {"a": a, "b": b}
                assert not evaluate(tight, x) or evaluate(base, x)
        rng = random.Random(7)
        data = [LabeledRun({"a": float(rng.randint(0, 10)), "b": float(rng.randint(0, 10))},
                           rng.choice(list(Outcome))) for _ in range(60)]
        loose_rule = PolarizedRule("r", Polarity.PASS_RULE, base)
        tight_rule = PolarizedRule("r", Polarity.PASS_RULE, tight)
        loose_bad = set(decisiveness(loose_rule, data).mismatches)
        tight_bad = set(decisiveness(tight_rule, data).mismatches)
        assert tight_bad <= loose_bad


# ---------------------------------------------------------------------------
# The compiled evaluator against the scalar tree walk it replaced, kept here
# as the reference only.
# ---------------------------------------------------------------------------


def _ref_expr(expr, x):
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        try:
            return x[expr.name]
        except KeyError:
            raise UnboundVariable(expr.name) from None
    left = _ref_expr(expr.left, x)
    right = _ref_expr(expr.right, x)
    op = expr.op.value
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if right == 0:
        raise ZeroDivisionError
    return left / right


def _ref_relation(rel, x, diagnostics):
    try:
        lhs = _ref_expr(rel.lhs, x)
        rhs = _ref_expr(rel.rhs, x)
    except ZeroDivisionError:
        if diagnostics is not None:
            diagnostics.append(f"division by zero in {print_relation(rel)}")
        return False
    if rel.op is RelOp.LT:
        return lhs < rhs
    if rel.op is RelOp.LE:
        return lhs <= rhs
    if rel.op is RelOp.GT:
        return lhs > rhs
    if rel.op is RelOp.GE:
        return lhs >= rhs
    if rel.op is RelOp.EQ:
        return abs(lhs - rhs) <= EPS_EQ
    return abs(lhs - rhs) > EPS_EQ


def _ref_evaluate(ast, x, diagnostics=None):
    return any(all(_ref_relation(rel, x, diagnostics) for rel in conj.relations)
               for conj in ast.disjuncts)


def _ref_decisiveness(rule, dataset):
    diagnostics, mismatches, definitive = [], [], 0
    for idx, run in enumerate(dataset):
        if _ref_evaluate(rule.ast, run.x, diagnostics):
            definitive += 1
            if rule.polarity.verdict is not run.y:
                mismatches.append(idx)
    n = len(dataset)
    return DecisivenessReport(dg=1.0 - len(mismatches) / n, n=n, n_mismatch=len(mismatches),
                              mismatches=tuple(mismatches), fully_inconclusive=definitive == 0,
                              diagnostics=tuple(diagnostics))


def _outcome(fn, ast, x):
    """(truth, diagnostics) of one evaluation, or the unbound variable's name."""
    diagnostics = []
    try:
        return fn(ast, x, diagnostics), diagnostics
    except UnboundVariable as exc:
        return ("unbound", exc.name), diagnostics


DIV_DOMAIN = odd_spec([("a", -2.0, 2.0, 0.5), ("b", -1.0, 1.0, 0.25), ("c", 0.0, 3.0, 1.0)])
DIV_RULES = [
    "(a / b > 1)",
    "(a / (b - 1) <= 2) and (a - (b + c) == 1)",
    "(a != 1 / b * c) or (c < 2)",
    "(a / b / c < 1) or (b == a / c) or (c - a / b >= 0.5)",
    "(1 / (a - b) > 0) and (c / b != 2) or (a * b - c <= -1)",
    "(a - b - c < 0) and (a - (b - c) > 0)",
    "(a * (b + c) == a * b + a * c)",
]
def _probe_points(ast, odd, rng):
    """Random grid points, points that zero each variable (a divisor), and
    points at c +- EPS_EQ and c +- 2 EPS_EQ of every direct bound."""
    def grid_point():
        return {v.name: v.grid_value(rng.randrange(v.grid_count)) for v in odd.variables}
    points = [grid_point() for _ in range(6)]
    for name in odd.names:
        points.append({**grid_point(), name: 0.0})
    for _, rel in ast.relations():
        bound = direct_bound(rel)
        if bound is not None:
            name, _, c = bound
            points += [{**grid_point(), name: c + k * EPS_EQ} for k in (-2, -1, 0, 1, 2)]
    return points


class TestCompiledEvaluator:
    def test_matches_the_tree_walk(self):
        rng = random.Random(31)
        asts = ([random_rule(seed, DIV_DOMAIN, 3, 3) for seed in range(500)]
                + [parse_rule(text) for text in DIV_RULES])
        divisions = 0
        for ast in asts:
            for x in _probe_points(ast, DIV_DOMAIN, rng):
                expected = _outcome(_ref_evaluate, ast, x)
                got = _outcome(evaluate, ast, x)
                assert got == expected, (print_rule(ast), x)
                if isinstance(expected[0], bool):
                    assert got[0] is expected[0]  # a real bool, never a truthy operand
                divisions += bool(expected[1])
                # one variable missing: the same name is unbound, or the
                # short-circuit never reads it in either evaluator
                drop = rng.choice(DIV_DOMAIN.names)
                partial = {k: v for k, v in x.items() if k != drop}
                assert (_outcome(evaluate, ast, partial)
                        == _outcome(_ref_evaluate, ast, partial))
        assert divisions > 100

    def test_decisiveness_reports_match(self):
        rng = random.Random(5)
        data = [LabeledRun({v.name: v.grid_value(rng.randrange(v.grid_count))
                            for v in DIV_DOMAIN.variables}, rng.choice(list(Outcome)))
                for _ in range(120)]
        asts = ([random_rule(seed, DIV_DOMAIN, 2, 3) for seed in range(100)]
                + [parse_rule(text) for text in DIV_RULES])
        for i, ast in enumerate(asts):
            rule = PolarizedRule("r", list(Polarity)[i % 2], ast)
            assert decisiveness(rule, data) == _ref_decisiveness(rule, data)

    def test_each_ast_is_compiled_once(self, monkeypatch):
        built = []
        real_build = semantics._build

        def counting_build(ast):
            built.append(ast)
            return real_build(ast)

        monkeypatch.setattr(semantics, "_build", counting_build)
        ast = parse_rule("(a < 1) and (b / a > 0)")
        twin = parse_rule("(a < 1) and (b / a > 0)")
        data = [LabeledRun({"a": 0.5, "b": 1.0}, Outcome.PASS)] * 10
        for _ in range(5):
            evaluate(ast, {"a": 0.5, "b": 1.0})
            decisiveness(PolarizedRule("r", Polarity.PASS_RULE, ast), data)
            decisiveness(PolarizedRule("r", Polarity.FAIL_RULE, ast), data[:1])
        assert built == [ast] and built[0] is ast
        evaluate(twin, {"a": 0.5, "b": 1.0})  # an equal AST is a separate object
        assert len(built) == 2 and built[1] is twin

    def test_compiled_ast_still_pickles(self):
        ast = parse_rule("(a < 1) and (b / a > 0)")
        assert evaluate(ast, {"a": 0.5, "b": 1.0}) is True
        copy = pickle.loads(pickle.dumps(ast))
        assert copy == ast
        assert evaluate(copy, {"a": 0.5, "b": 1.0}) is True
