"""Fuzzy rule base over image/region features.

Rules are conjunctions of trapezoidal membership tests on named features;
a rule's activation is the minimum of its memberships and the prediction
is the label of the most activated rule (earliest rule wins ties). An
all-zero activation still yields the first rule's label with confidence
0, which callers read as "no match".

Rule files use one rule per line:

    RULE <label> : <name> IN (a,b,c,d) [ AND <name> IN (a,b,c,d) ]*

with '#' comments and blank lines ignored, and knots a <= b <= c <= d.
"""

from __future__ import annotations

import math
import re

from .errors import (
    BadKnots,
    DuplicateFeatureInRule,
    EmptyRuleBase,
    MissingFeature,
    PreconditionError,
    RuleSyntaxError,
)
from .raster import frozen, require_real


@frozen
class Trapezoid:
    """Membership shape with knots a <= b <= c <= d: zero outside [a, d],
    one on [b, c], linear in between. Equal knots collapse a ramp into a
    step, so crisp intervals (a=b, c=d) and triangles (b=c) are special
    cases. A knot that is not a real number (require_real) raises
    PreconditionError."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a <= self.b <= self.c <= self.d):
            raise BadKnots(f"knots must satisfy a <= b <= c <= d, got {self}")


@frozen
class FuzzyRule:
    label: str
    antecedents: tuple[tuple[str, Trapezoid], ...]

    def __post_init__(self):
        try:
            pairs = tuple((name, shape) for name, shape in self.antecedents)
        except (TypeError, ValueError):  # an antecedent that is no pair
            pairs = None
        if pairs is None or not all(isinstance(name, str) and isinstance(shape, Trapezoid) for name, shape in pairs):
            raise PreconditionError(f"rule {self.label!r}: each antecedent must be a (str, Trapezoid) pair")
        object.__setattr__(self, "antecedents", pairs)
        if not self.antecedents:
            raise PreconditionError("a rule needs at least one antecedent")
        names = [name for name, _ in self.antecedents]
        if len(set(names)) != len(names):
            raise DuplicateFeatureInRule(f"duplicate feature in rule {self.label!r}")


@frozen
class RuleBase:
    rules: tuple[FuzzyRule, ...]

    def __post_init__(self):
        if not self.rules:
            raise EmptyRuleBase("a rule base needs at least one rule")


@frozen
class Prediction:
    label: str
    confidence: float
    activations: tuple[float, ...]


def trapezoid_membership(value: float, t: Trapezoid) -> float:
    """Degree in [0, 1] of value under the trapezoid; PreconditionError for
    a value that is not a real number (require_real) or not finite, which
    has no degree. An infinite a or d makes its ramp a shoulder of degree 1,
    the ramp's limit."""
    if not math.isfinite(require_real(value, "feature value")):
        raise PreconditionError(f"feature value must be finite, got {value!r}")
    if value < t.a or value > t.d:
        return 0.0
    if t.b <= value <= t.c:
        return 1.0
    if value < t.b:
        # a < b here: value >= a and value < b rule out a == b
        return 1.0 if t.a == -math.inf else (value - t.a) / (t.b - t.a)
    return 1.0 if t.d == math.inf else (t.d - value) / (t.d - t.c)


def rule_activation(rule: FuzzyRule, features: dict[str, float]) -> float:
    """Minimum membership across the rule's antecedents."""
    degree = 1.0
    for name, shape in rule.antecedents:
        if name not in features:
            raise MissingFeature(f"feature {name!r} not present")
        degree = min(degree, trapezoid_membership(features[name], shape))
    return degree


def predict_label(rulebase: RuleBase, features: dict[str, float]) -> Prediction:
    """Evaluate every rule; the maximal activation names the label.

    Ties go to the earliest rule, so an all-zero evaluation reports the
    first rule's label with confidence 0.
    """
    activations = tuple(rule_activation(r, features) for r in rulebase.rules)
    best = 0
    for i, a in enumerate(activations):
        if a > activations[best]:
            best = i
    return Prediction(
        label=rulebase.rules[best].label,
        confidence=activations[best],
        activations=activations,
    )


_ANTECEDENT_RE = re.compile(
    r"^(?P<name>\S+)\s+IN\s+\(\s*(?P<a>[^,()\s]+)\s*,\s*(?P<b>[^,()\s]+)\s*,"
    r"\s*(?P<c>[^,()\s]+)\s*,\s*(?P<d>[^,()\s]+)\s*\)$"
)


def _parse_knot(token: str, lineno: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise RuleSyntaxError(f"line {lineno}: bad knot {token!r}") from None


def parse_rulebase(text: str) -> RuleBase:
    """Parse rule lines into a RuleBase, preserving rule order.

    Raises RuleSyntaxError (with line number), BadKnots,
    DuplicateFeatureInRule, or EmptyRuleBase.
    """
    rules: list[FuzzyRule] = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if parts[0] != "RULE" or len(parts) < 2:
            raise RuleSyntaxError(f"line {lineno}: expected 'RULE <label> : ...'")
        rest = parts[1]
        if ":" not in rest:
            raise RuleSyntaxError(f"line {lineno}: missing ':' after label")
        label, body = rest.split(":", 1)
        label = label.strip()
        if not label or any(ch.isspace() for ch in label):
            raise RuleSyntaxError(f"line {lineno}: label must be a single token")
        antecedents = []
        try:
            for clause in re.split(r"\s+AND\s+", body.strip()):
                m = _ANTECEDENT_RE.match(clause.strip())
                if not m:
                    raise RuleSyntaxError(f"line {lineno}: bad antecedent {clause.strip()!r}")
                knots = [_parse_knot(m.group(g), lineno) for g in "abcd"]
                antecedents.append((m.group("name"), Trapezoid(*knots)))
            rules.append(FuzzyRule(label=label, antecedents=antecedents))
        except (BadKnots, DuplicateFeatureInRule) as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    if not rules:
        raise EmptyRuleBase("no rules found")
    return RuleBase(rules)


def serialize_rulebase(rulebase: RuleBase) -> str:
    """Canonical text form: single spaces, repr knots; a fixed point of
    parse -> serialize -> parse."""
    lines = []
    for rule in rulebase.rules:
        clauses = " AND ".join(
            f"{name} IN ({t.a!r},{t.b!r},{t.c!r},{t.d!r})" for name, t in rule.antecedents
        )
        lines.append(f"RULE {rule.label} : {clauses}")
    return "\n".join(lines) + "\n"
