import pytest

from segkit.clustering import Lcg
from segkit.errors import (
    BadKnots,
    DuplicateFeatureInRule,
    EmptyRuleBase,
    MissingFeature,
    PreconditionError,
    RuleSyntaxError,
)
from segkit.predict import (
    FuzzyRule,
    RuleBase,
    Trapezoid,
    parse_rulebase,
    predict_label,
    rule_activation,
    serialize_rulebase,
    trapezoid_membership,
)


def rule(label, *antecedents):
    return FuzzyRule(label=label, antecedents=tuple(antecedents))


class TestTrapezoidMembership:
    def test_plateau(self):
        t = Trapezoid(0, 10, 20, 30)
        for v in (10, 15, 20):
            assert trapezoid_membership(v, t) == 1.0

    def test_ramp_midpoint(self):
        t = Trapezoid(0, 10, 20, 30)
        assert trapezoid_membership(5, t) == 0.5
        assert trapezoid_membership(25, t) == 0.5

    def test_outside_support(self):
        t = Trapezoid(0, 10, 20, 30)
        assert trapezoid_membership(-1, t) == 0.0
        assert trapezoid_membership(31, t) == 0.0

    def test_step_edges(self):
        t = Trapezoid(5, 5, 8, 8)  # crisp interval
        assert trapezoid_membership(5, t) == 1.0
        assert trapezoid_membership(8, t) == 1.0
        assert trapezoid_membership(4.999, t) == 0.0
        assert trapezoid_membership(8.001, t) == 0.0

    def test_triangle(self):
        t = Trapezoid(0, 5, 5, 10)
        assert trapezoid_membership(5, t) == 1.0
        assert trapezoid_membership(2.5, t) == 0.5

    def test_bad_knots_rejected(self):
        with pytest.raises(BadKnots):
            Trapezoid(5, 2, 8, 9)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("knots", [(0, 1, 2, 3), (0, 1, 5, 5)])
    def test_non_finite_value_rejected(self, value, knots):
        # nan once kept min(degree, nan) at 1.0, or divided by d - c = 0
        with pytest.raises(PreconditionError):
            trapezoid_membership(value, Trapezoid(*knots))

    @pytest.mark.parametrize("knots, value, degree", [
        ((0, 1, 2, float("inf")), 5.0, 1.0),
        ((0, 1, 2, float("inf")), 0.5, 0.5),
        ((float("-inf"), 0, 1, 2), -5.0, 1.0),
        ((float("-inf"), 0, 1, 2), 1.5, 0.5),
    ])
    def test_an_infinite_ramp_is_a_shoulder(self, knots, value, degree):
        # inf / inf once made the degree nan
        assert trapezoid_membership(value, Trapezoid(*knots)) == degree


class TestRuleActivation:
    def test_all_memberships_one(self):
        r = rule("x", ("a", Trapezoid(0, 0, 10, 10)), ("b", Trapezoid(0, 0, 10, 10)))
        assert rule_activation(r, {"a": 5, "b": 5}) == 1.0

    def test_any_zero_kills_activation(self):
        r = rule("x", ("a", Trapezoid(0, 0, 10, 10)), ("b", Trapezoid(20, 21, 22, 23)))
        assert rule_activation(r, {"a": 5, "b": 5}) == 0.0

    def test_min_conjunction(self):
        r = rule(
            "x",
            ("a", Trapezoid(0, 10, 10, 20)),  # 0.7 at v=7
            ("b", Trapezoid(0, 10, 10, 20)),  # 0.4 at v=4
        )
        assert rule_activation(r, {"a": 7, "b": 4}) == pytest.approx(0.4)

    def test_missing_feature_named(self):
        r = rule("x", ("brightness", Trapezoid(0, 1, 2, 3)))
        with pytest.raises(MissingFeature, match="brightness"):
            rule_activation(r, {"other": 1.0})

    def test_monotone_in_memberships(self):
        # moving a value toward the plateau never lowers the activation
        rng = Lcg(808)
        for _ in range(200):
            knots = sorted(rng.next_u32() % 100 for _ in range(4))
            t = Trapezoid(*[float(k) for k in knots])
            v = (rng.next_u32() % 2000) / 10.0 - 50.0
            plateau_mid = (t.b + t.c) / 2
            closer = v + 0.25 * (plateau_mid - v)
            assert trapezoid_membership(closer, t) >= trapezoid_membership(v, t)


class TestPredictLabel:
    def test_nan_feature_is_no_full_membership(self):
        rb = parse_rulebase("RULE a : x IN (0,1,2,3)\nRULE b : y IN (0,1,2,3)\n")
        with pytest.raises(PreconditionError, match="finite"):
            predict_label(rb, {"x": float("nan"), "y": 1.5})

    def test_single_rule_full_activation(self):
        rb = RuleBase((rule("bright", ("mean", Trapezoid(0, 0, 255, 255))),))
        p = predict_label(rb, {"mean": 100})
        assert p.label == "bright" and p.confidence == 1.0

    def test_all_zero_reports_first_rule(self):
        rb = RuleBase(
            (
                rule("a", ("x", Trapezoid(0, 1, 2, 3))),
                rule("b", ("x", Trapezoid(10, 11, 12, 13))),
            )
        )
        p = predict_label(rb, {"x": 100})
        assert p.label == "a" and p.confidence == 0.0

    def test_argmax(self):
        rb = RuleBase(
            (
                rule("a", ("x", Trapezoid(0, 10, 10, 20))),  # 0.3 at x=3
                rule("b", ("x", Trapezoid(-10, 0, 0, 10))),  # 0.7 at x=3
            )
        )
        p = predict_label(rb, {"x": 3})
        assert p.label == "b" and p.confidence == pytest.approx(0.7)
        assert p.activations == (pytest.approx(0.3), pytest.approx(0.7))

    def test_appending_weaker_rules_keeps_argmax(self):
        strong = rule("win", ("x", Trapezoid(0, 0, 10, 10)))
        weak = rule("lose", ("x", Trapezoid(0, 20, 20, 40)))
        p1 = predict_label(RuleBase((strong,)), {"x": 5})
        p2 = predict_label(RuleBase((strong, weak)), {"x": 5})
        assert p1.label == p2.label == "win"


class TestFuzzyRule:
    @pytest.mark.parametrize("antecedents", [
        [("x", Trapezoid(0, 1, 2, 3), 3)],
        [("x",)],
        [3],
        [("x", "notatrap")],
        [(3, Trapezoid(0, 1, 2, 3))],
    ])
    def test_an_antecedent_is_a_name_and_a_trapezoid(self, antecedents):
        with pytest.raises(PreconditionError, match=r"rule 'r': each antecedent must be a \(str, Trapezoid\) pair"):
            FuzzyRule("r", antecedents)


class TestParseRulebase:
    def test_single_rule(self):
        rb = parse_rulebase("RULE bright : mean IN (100,150,255,255)\n")
        assert len(rb.rules) == 1
        assert rb.rules[0].label == "bright"
        assert rb.rules[0].antecedents[0][0] == "mean"

    def test_conjunction_and_comments(self):
        text = (
            "# thresholds tuned by hand\n"
            "\n"
            "RULE flat : variance IN (0,0,20,40) AND region_count IN (1,1,2,3)\n"
        )
        rb = parse_rulebase(text)
        assert len(rb.rules[0].antecedents) == 2

    def test_bad_knots(self):
        with pytest.raises(BadKnots):
            parse_rulebase("RULE x : a IN (5,2,8,9)\n")

    def test_comment_only_file(self):
        with pytest.raises(EmptyRuleBase):
            parse_rulebase("# nothing here\n\n")

    def test_syntax_error_reports_line(self):
        with pytest.raises(RuleSyntaxError, match="line 2"):
            parse_rulebase("RULE ok : a IN (1,2,3,4)\nRULE broken a IN (1,2,3,4)\n")

    def test_duplicate_feature(self):
        with pytest.raises(DuplicateFeatureInRule):
            parse_rulebase("RULE x : a IN (1,2,3,4) AND a IN (0,1,2,3)\n")

    def test_rule_order_preserved(self):
        rb = parse_rulebase("RULE one : a IN (0,1,2,3)\nRULE two : a IN (0,1,2,3)\n")
        assert [r.label for r in rb.rules] == ["one", "two"]

    def test_serialize_parse_fixed_point(self):
        text = "RULE  bright :  mean IN ( 100 , 150.5 ,255, 255 ) AND  size_fraction IN (0.5,0.6,1,1)\n"
        rb = parse_rulebase(text)
        canonical = serialize_rulebase(rb)
        again = parse_rulebase(canonical)
        assert serialize_rulebase(again) == canonical
        assert again == rb
