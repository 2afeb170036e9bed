from ruleforge import (change_minimality, grammar_compliance, parse_rule, print_rule,
                       random_rule, semantic_validity)

TUPLE_TEXT = "[[('greater_than_func','ARG1','0')]]"


class TestSemanticValidity:
    def test_refined_rule_fully_valid(self, odd):
        report = semantic_validity(parse_rule("(dist_front < 4.1) and (ego_speed > 0)"), odd)
        assert report.sv == 1.0
        assert (report.n_invalid, report.n_pred) == (0, 2)

    def test_unknown_variable_halves_score(self, arg_odd):
        report = semantic_validity(parse_rule("(ARG1 > 0) and (ARG3 < 5)"), arg_odd)
        assert report.sv == 0.5
        assert report.n_invalid == 1 and report.n_pred == 2
        assert report.invalid_predicates == ("(ARG3 < 5)",)

    def test_in_range_tightening_stays_valid(self, arg_odd):
        # range-grounding is what is automated; an unjustified-but-in-range
        # bound is still sv-valid and surfaces through the CM band instead
        report = semantic_validity(parse_rule("1 < ARG1 < 2"), arg_odd)
        assert report.sv == 1.0

    def test_out_of_range_bound_invalid(self, odd):
        report = semantic_validity(parse_rule("(dist_front < 120)"), odd)
        assert report.sv == 0.0 and report.n_invalid == 1

    def test_removing_invalid_predicate_never_lowers_sv(self, arg_odd):
        with_bad = parse_rule("(ARG1 > 0) and (ARG2 < 5) and (ARG3 > 1)")
        without = parse_rule("(ARG1 > 0) and (ARG2 < 5)")
        assert semantic_validity(without, arg_odd).sv >= semantic_validity(with_bad, arg_odd).sv

    def test_score_recomputable_from_counts(self, arg_odd):
        report = semantic_validity(parse_rule("(ARG1 > 0) and (ARG3 < 5)"), arg_odd)
        assert report.sv == 1.0 - report.n_invalid / report.n_pred


class TestGrammarCompliance:
    def test_canonical_text_fully_compliant(self, odd):
        for seed in range(30):
            printed = print_rule(random_rule(seed, odd, 3, 3))
            report = grammar_compliance(printed)
            assert report.gc == 1.0 and report.n_viol == 0

    def test_tuple_list_text_noncompliant(self):
        report = grammar_compliance(TUPLE_TEXT)
        assert report.gc < 1.0
        assert report.n_viol > 0

    def test_doubled_and_discards_exactly_one_token(self):
        report = grammar_compliance("(ARG1 > 0) and and (ARG2 > 3)")
        assert report.n_viol == 1
        assert report.n_tok == 12  # hand count per the lexical rules
        assert report.gc == 1.0 - 1 / 12

    def test_empty_input_flagged(self):
        report = grammar_compliance("")
        assert report.gc == 0.0 and report.n_tok == 0

    def test_score_recomputable_from_counts(self):
        report = grammar_compliance("(ARG1 > 0) and and (ARG2 > 3)")
        assert report.gc == 1.0 - report.n_viol / report.n_tok

    def test_all_garbage_line(self):
        report = grammar_compliance("???!!!")
        assert report.gc == 0.0 or report.n_viol == report.n_tok


class TestChangeMinimality:
    def test_redundancy_pruning_is_optimal(self):
        report = change_minimality(parse_rule("ARG2 > 3 and ARG2 > 5"),
                                   parse_rule("ARG2 > 5"))
        assert report.band == "Optimal"
        assert report.cm == 1.0
        assert report.edit_stats["removed_redundant"] == 1
        assert report.edit_stats["unchanged"] == 1

    def test_added_upper_bound_is_conservative(self):
        report = change_minimality(parse_rule("ARG2 > 5"),
                                   parse_rule("5 < ARG2 and ARG2 < 9"))
        assert report.band == "Conservative"
        assert 0.7 <= report.cm <= 0.8
        assert report.edit_stats["added_existing_vars"] == 1

    def test_two_sided_narrowing_is_over_constrained(self):
        report = change_minimality(parse_rule("ARG1 > 0"),
                                   parse_rule("1 < ARG1 and ARG1 < 2"))
        assert report.band == "OverConstrained"
        assert 0.4 <= report.cm <= 0.5

    def test_identity_is_optimal_one(self, odd):
        for seed in range(20):
            ast = random_rule(seed, odd, 2, 3)
            report = change_minimality(ast, ast)
            assert report.band == "Optimal" and report.cm == 1.0

    def test_new_variable_is_low(self, arg_odd):
        report = change_minimality(parse_rule("ARG1 > 0"),
                                   parse_rule("(ARG1 > 0) and (ARG9 < 2)"))
        assert report.band == "Low"
        assert report.edit_stats["added_new_vars"] == 1

    def test_total_rewrite_is_low(self):
        report = change_minimality(parse_rule("(ARG1 > 0) and (ARG2 < 5)"),
                                   parse_rule("(ARG3 < 1) and (ARG4 > 2)"))
        assert report.band == "Low"
        assert report.cm <= 0.3

    def test_chained_input_normalizes_before_alignment(self):
        # "1 < ARG1 < 2" and "(ARG1 > 1) and (ARG1 < 2)" are the same predicates
        a = change_minimality(parse_rule("ARG1 > 0"), parse_rule("1 < ARG1 < 2"))
        b = change_minimality(parse_rule("ARG1 > 0"),
                              parse_rule("(ARG1 > 1) and (ARG1 < 2)"))
        assert a.band == b.band == "OverConstrained"

    def test_scores_within_unit_interval(self, odd):
        for seed in range(40):
            original = random_rule(seed, odd, 2, 3)
            refined = random_rule(seed + 999, odd, 2, 3)
            report = change_minimality(original, refined)
            assert 0.0 <= report.cm <= 1.0
            assert report.band in ("Optimal", "Conservative", "OverConstrained", "Low")


class TestMetricsReport:
    def test_build_and_render(self, fixture42):
        from ruleforge import PolarizedRule, Polarity, build_metrics_report, decisiveness
        refined_ast = parse_rule("(dist_front < 4.1) and (ego_speed > 0)")
        refined = PolarizedRule("r", Polarity.PASS_RULE, refined_ast)
        report = build_metrics_report(
            before=decisiveness(fixture42.baseline_rule, fixture42.dataset),
            after=decisiveness(refined, fixture42.dataset),
            refined=refined_ast, original=fixture42.baseline_rule.ast,
            odd=fixture42.config.odd, raw_text=print_rule(refined_ast))
        assert round(report.dg_gain, 4) == 0.1364
        assert report.sv.sv == 1.0 and report.gc.gc == 1.0
        from ruleforge.metrics import metrics_table
        table = metrics_table(report)
        assert "GC" in table and "n/a" in table and report.cm.band in table
