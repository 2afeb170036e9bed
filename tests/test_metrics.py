from ruleforge import (EditKind, change_minimality, diff_rules, grammar_compliance, parse_rule,
                       print_rule, random_rule, semantic_validity)
from ruleforge.generation import _adjust_threshold
from ruleforge.grammar import MIRROR, Conjunct, Relation, RuleAst, direct_bound, parse_relation

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

    def test_bound_orientation_does_not_change_the_report(self, odd):
        """5 < x and x > 5 are one bound: turning every direct relation of
        either rule the other way round leaves the report as it was."""
        for seed in range(200):
            original = random_rule(seed, odd, 2, 3)
            other = random_rule(seed + 999, odd, 2, 3)
            for refined in (original, other, RuleAst((original.disjuncts[0], *other.disjuncts))):
                report = change_minimality(original, refined)
                for a, b in ((_turned(original), refined), (original, _turned(refined)),
                             (_turned(original), _turned(refined))):
                    assert change_minimality(a, b) == report, (print_rule(a), print_rule(b))

    def test_reversed_operator_is_an_operator_change(self):
        report = change_minimality(parse_rule("(ARG2 > 5)"), parse_rule("(5 > ARG2)"))
        assert report.edit_stats["operator_changed"] == 1
        assert report.edit_stats["unchanged"] == 0

    def test_an_untouched_disjunct_stays_unchanged(self):
        # a greedy match over the whole rule paired the first disjunct's
        # changes with the second disjunct's bounds, two threshold shifts there
        kept = "((lane_offset <= 1.4) and (ego_speed != 13.5) and (ego_speed != 0))"
        report = change_minimality(
            parse_rule(f"((lane_offset != ego_speed) and (lane_offset <= -0.6)) or {kept}"),
            parse_rule(f"((ego_speed != 22) and (lane_offset != 2)) or {kept}"))
        assert report.edit_stats["unchanged"] == 3
        assert report.edit_stats["threshold_shifted"] == 0
        assert report.band == "Conservative"

    def test_reordered_conjuncts_and_disjuncts_are_unchanged(self):
        for original, refined in (
                ("(dist_front < 5) and (ego_speed > 0)", "(ego_speed > 0) and (dist_front < 5)"),
                ("(dist_front < 5) or (ego_speed > 0)", "(ego_speed > 0) or (dist_front < 5)")):
            report = change_minimality(parse_rule(original), parse_rule(refined))
            assert (report.band, report.cm) == ("Optimal", 1.0)
            assert report.edit_stats["unchanged"] == report.edit_stats["n_refined"] == 2

    def test_a_reorder_with_a_threshold_move_is_one_shift(self):
        report = change_minimality(parse_rule("(dist_front < 5) and (ego_speed > 0)"),
                                   parse_rule("(ego_speed > 0) and (dist_front < 4.1)"))
        assert report.edit_stats["threshold_shifted"] == 1
        assert report.edit_stats["unchanged"] == 1
        assert report.edit_stats["rewritten"] == 0

    def test_scores_within_unit_interval(self, odd):
        for seed in range(40):
            original = random_rule(seed, odd, 2, 3)
            refined = random_rule(seed + 999, odd, 2, 3)
            report = change_minimality(original, refined)
            assert 0.0 <= report.cm <= 1.0
            assert report.band in ("Optimal", "Conservative", "OverConstrained", "Low")


def _pairs(seed, odd):
    """An original random rule and four refinements of it: an unrelated rule,
    its first disjunct followed by that rule's, that rule's first disjunct
    in place of its own, and both rules' disjuncts."""
    original = random_rule(seed, odd, 3, 3)
    other = random_rule(seed + 999, odd, 3, 3)
    for refined in (other, RuleAst((original.disjuncts[0], *other.disjuncts)),
                    RuleAst((other.disjuncts[0], *original.disjuncts[1:])),
                    RuleAst(original.disjuncts + other.disjuncts)):
        yield original, refined


def _respelled(edit):
    return (edit.kind is EditKind.THRESHOLD_ADJUST
            and direct_bound(parse_relation(edit.before)) == direct_bound(parse_relation(edit.after)))


class TestOneAlignment:
    """Change minimality counts the edits of the alignment that diff_rules
    logs, run on the two rules put in a common order. Where no part of
    either rule moved, those are the edits of the log itself."""

    def test_changed_relations_are_the_ones_the_log_writes(self, odd):
        for seed in range(300):
            for original, refined in _pairs(seed, odd):
                stats = change_minimality(original, refined).edit_stats
                written = sum(len(list(parse_rule(edit.after).relations()))
                              for edit in diff_rules(original, refined)
                              if edit.after and not _respelled(edit))
                assert stats["n_refined"] - stats["unchanged"] == written, (
                    print_rule(original), print_rule(refined))

    def test_no_log_removes_and_adds_the_same_text(self, odd):
        for seed in range(300):
            for original, refined in _pairs(seed, odd):
                edits = diff_rules(original, refined)
                for removal, addition in ((EditKind.REMOVE_DISJUNCT, EditKind.ADD_DISJUNCT),
                                          (EditKind.REMOVE_CONJUNCT, EditKind.ADD_CONJUNCT)):
                    removed = {edit.before for edit in edits if edit.kind is removal}
                    added = {edit.after for edit in edits if edit.kind is addition}
                    assert not removed & added, (print_rule(original), print_rule(refined))

    def test_a_respelled_rule_is_logged_as_respellings_and_reads_optimal(self, odd):
        for seed in range(300):
            original = random_rule(seed, odd, 3, 3)
            turned = _turned(original)
            assert all(_respelled(edit) for edit in diff_rules(original, turned))
            report = change_minimality(original, turned)
            assert (report.band, report.cm) == ("Optimal", 1.0)

    def test_a_reordered_rule_reads_optimal(self, odd):
        for seed in range(300):
            original = random_rule(seed, odd, 3, 3)
            report = change_minimality(original, _reordered(original))
            assert (report.band, report.cm) == ("Optimal", 1.0), print_rule(original)
            assert report.edit_stats["unchanged"] == report.edit_stats["n_refined"]

    def test_a_reordered_rule_with_a_moved_threshold_reads_one_shift(self, odd):
        for seed in range(300):
            original = random_rule(seed, odd, 3, 3)
            if not any(direct_bound(rel) for _, rel in original.relations()):
                continue
            moved = _reordered(_moved(original))
            stats = change_minimality(original, moved).edit_stats
            assert stats["threshold_shifted"] == 1, (print_rule(original), print_rule(moved))
            assert stats["unchanged"] == stats["n_refined"] - 1

    def test_the_order_of_relations_changes_nothing(self, odd):
        for seed in range(300):
            for original, refined in _pairs(seed, odd):
                turned = RuleAst(tuple(Conjunct(conj.relations[::-1])
                                       for conj in refined.disjuncts))
                assert change_minimality(original, turned) == change_minimality(original,
                                                                                 refined)



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


def _turned(ast: RuleAst) -> RuleAst:
    """ast with every variable-against-constant relation written the other
    way round: x > 5 as 5 < x, and 5 < x as x > 5."""
    return RuleAst(tuple(
        Conjunct(tuple(Relation(rel.rhs, MIRROR[rel.op], rel.lhs) if direct_bound(rel) else rel
                       for rel in conj.relations))
        for conj in ast.disjuncts))


def _reordered(ast: RuleAst) -> RuleAst:
    """ast with its disjuncts, and the relations of each, in reverse order."""
    return RuleAst(tuple(Conjunct(conj.relations[::-1]) for conj in reversed(ast.disjuncts)))


def _moved(ast: RuleAst) -> RuleAst:
    """ast with the threshold of its first variable-against-constant relation
    moved to one that no relation of ast uses."""
    (d, j), rel = next((at, rel) for at, rel in ast.relations() if direct_bound(rel))
    used = {direct_bound(other)[2] for _, other in ast.relations() if direct_bound(other)}
    moved = _adjust_threshold(rel, max(used) + 1)
    conj = ast.disjuncts[d]
    return RuleAst(ast.disjuncts[:d]
                   + (Conjunct(conj.relations[:j] + (moved,) + conj.relations[j + 1:]),)
                   + ast.disjuncts[d + 1:])
