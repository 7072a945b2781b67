"""Gap evaluation and exact error-term certificates for a family of
conditional information inequalities over four variables A, B, X, Y.

Inequality ids and their reading (gap = right side minus left side, so a
nonnegative gap certifies the inequality):

  ingleton          I(A:B) <= I(A:B|X) + I(A:B|Y) + I(X:Y)
  reduced-ingleton  I(A:B) <= I(A:B|X) + I(A:B|Y)
  entropy-split     H(A|B,X) + H(A|B,Y) <= H(A|B)

The reduced form drops the I(X:Y) term of the Ingleton expression and the
entropy-split form is its conditional-entropy counterpart; neither holds
unconditionally, which is what the error terms quantify.  Each error term
is the base-2 log of an exact rational power sum computed over the
quadruples (a, b, x, y) with p(a,b,x) > 0 and p(a,b,y) > 0:

  gamma        sum of p(b,x) p(b,y) / p(b)
  delta        sum of p(a,x) p(a,y) p(b,x) p(b,y) / (p(a) p(x) p(y) p(b))
  delta-prime  max over support cells (a, x, y) of
               p(a,x) p(a,y) p(x,y) / (p(a) p(x) p(y) p(a,x,y))

Within one (a, b) fibre the gamma and delta summands are a product of a
factor in x and a factor in y, so each fibre contributes
(sum over x) * (sum over y), exactly.  The sums run on the integer counts
of the marginal tables: each reciprocal 1/p is carried as an integer over
the lcm of its table's counts, the constant denominators are factored out,
and the power sum becomes a Fraction, in lowest terms, only at the end.  A
missing B column reads as a constant variable throughout (see
``JointDistribution._table``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .conditions import (
    PointwiseProductReport,
    check_pointwise_product,
    check_support_saturation,
    check_unique_common_value,
)
from .distributions import Counts, JointDistribution, Outcome
from .errors import FAIL, NOT_APPLICABLE, PASS, LabError, Verdict, _at_least, _record_json


def _inverses(counts: Counts) -> tuple[dict[Outcome, int], int]:
    """``(L // n for each cell, L)`` with L the lcm of the counts: the
    reciprocals 1/n of a table's counts as integers over one denominator."""
    lcm = math.lcm(*counts.values())
    return {key: lcm // n for key, n in counts.items()}, lcm


def log2_fraction(q: Fraction) -> float:
    """log2 of a positive rational whose float sign agrees with the exact
    comparison of q against 1 (big numerators and denominators are taken
    through integer log2 to dodge overflow)."""
    if q == 1:
        return 0.0
    bits = math.log2(q.numerator) - math.log2(q.denominator)
    if q > 1:
        return max(bits, math.ulp(0.0))
    return min(bits, -math.ulp(0.0))


class GapReport(NamedTuple):
    """Right side minus left side of one inequality, with the individual
    terms in bits; ``holds`` allows the float slack."""

    inequality: str
    gap: float
    terms: dict[str, float]

    @property
    def holds(self) -> bool:
        return _at_least(self.gap)

    to_json_dict = _record_json


class ErrorTermCertificate(NamedTuple):
    """An error term together with the exact rational it is the log of.

    The float ``bits`` is derived from ``power_sum`` through a sign-faithful
    log, so bits <= 0 exactly when power_sum <= 1.
    """

    kind: str
    power_sum: Fraction
    bits: float

    @property
    def at_most_one(self) -> bool:
        return self.power_sum <= 1

    to_json_dict = _record_json


def _certificate(kind: str, power_sum: Fraction) -> ErrorTermCertificate:
    if power_sum <= 0:
        raise LabError("BAD_PARAM", f"{kind} power sum {power_sum} must be positive")
    return ErrorTermCertificate(kind, power_sum, log2_fraction(power_sum))


def ingleton_gap(d: JointDistribution) -> GapReport:
    """Gap of I(A:B) <= I(A:B|X) + I(A:B|Y) + I(X:Y)."""
    terms = {
        "I(A:B|X)": d.mutual_info("A", "B", "X"),
        "I(A:B|Y)": d.mutual_info("A", "B", "Y"),
        "I(X:Y)": d.mutual_info("X", "Y"),
        "I(A:B)": d.mutual_info("A", "B"),
    }
    gap = terms["I(A:B|X)"] + terms["I(A:B|Y)"] + terms["I(X:Y)"] - terms["I(A:B)"]
    return GapReport("ingleton", gap, terms)


def reduced_ingleton_gap(d: JointDistribution) -> GapReport:
    """Gap of I(A:B) <= I(A:B|X) + I(A:B|Y)."""
    terms = {
        "I(A:B|X)": d.mutual_info("A", "B", "X"),
        "I(A:B|Y)": d.mutual_info("A", "B", "Y"),
        "I(A:B)": d.mutual_info("A", "B"),
    }
    gap = terms["I(A:B|X)"] + terms["I(A:B|Y)"] - terms["I(A:B)"]
    return GapReport("reduced-ingleton", gap, terms)


def entropy_split_gap(d: JointDistribution) -> GapReport:
    """Gap of H(A|B,X) + H(A|B,Y) <= H(A|B)."""
    terms = {
        "H(A|B)": d.cond_entropy("A", "B"),
        "H(A|B,X)": d.cond_entropy("A", ("B", "X")),
        "H(A|B,Y)": d.cond_entropy("A", ("B", "Y")),
    }
    gap = terms["H(A|B)"] - terms["H(A|B,X)"] - terms["H(A|B,Y)"]
    return GapReport("entropy-split", gap, terms)


def gamma_term(d: JointDistribution) -> ErrorTermCertificate:
    """Exact certificate for the entropy-split error term."""
    tb, den_b = d._table("B")
    tbx, den_bx = d._table(("B", "X"))
    tby, den_by = d._table(("B", "Y"))
    inv_b, lcm_b = _inverses(tb)
    # p(b,x) p(b,y) / p(b) = n(b,x) n(b,y) (lcm_b / n(b)) * den_b / (den_bx den_by lcm_b)
    total = 0
    for (_, b), xs, ys in d.cells(("A", "B")):
        sum_x = sum(tbx[(b, x)] for (x,) in xs)
        sum_y = sum(tby[(b, y)] for (y,) in ys)
        total += sum_x * sum_y * inv_b[(b,)]
    return _certificate("gamma", Fraction(total * den_b, den_bx * den_by * lcm_b))


def delta_term(d: JointDistribution) -> ErrorTermCertificate:
    """Exact certificate for the reduced-Ingleton error term."""
    ta, den_a = d._table("A")
    tb, den_b = d._table("B")
    tx, den_x = d._table("X")
    ty, den_y = d._table("Y")
    tax, den_ax = d._table(("A", "X"))
    tay, den_ay = d._table(("A", "Y"))
    tbx, den_bx = d._table(("B", "X"))
    tby, den_by = d._table(("B", "Y"))
    inv_a, lcm_a = _inverses(ta)
    inv_b, lcm_b = _inverses(tb)
    inv_x, lcm_x = _inverses(tx)
    inv_y, lcm_y = _inverses(ty)
    total = 0
    for (a, b), xs, ys in d.cells(("A", "B")):
        sum_x = sum(tax[(a, x)] * tbx[(b, x)] * inv_x[(x,)] for (x,) in xs)
        sum_y = sum(tay[(a, y)] * tby[(b, y)] * inv_y[(y,)] for (y,) in ys)
        total += sum_x * sum_y * inv_a[(a,)] * inv_b[(b,)]
    num = total * den_a * den_b * den_x * den_y
    den = den_ax * den_bx * lcm_x * den_ay * den_by * lcm_y * lcm_a * lcm_b
    return _certificate("delta", Fraction(num, den))


def _delta_prime(saturated: Verdict, pointwise: PointwiseProductReport):
    # The delta-prime certificate from one distribution's cond-2-B verdict
    # and pointwise report.  cond-2-B keeps the ratio's denominator positive
    # wherever its numerator is; without it the report is not read.
    saturated.require()
    return _certificate("delta-prime", pointwise.max_ratio)


# ---------------------------------------------------------------------------
# verifiers


class Lemma2Certificate(NamedTuple):
    """Unconditional guarantees, each as a slack (gap + bits) >= 0 within tolerance:
    the entropy-split gap is at least -gamma, the reduced-Ingleton gap at least -delta."""

    status: str
    entropy_split: GapReport
    reduced_ingleton: GapReport
    gamma: ErrorTermCertificate
    delta: ErrorTermCertificate
    entropy_split_slack: float
    reduced_ingleton_slack: float

    to_json_dict = _record_json


def verify_lemma2(d: JointDistribution) -> Lemma2Certificate:
    """Check both error-term bounds on an arbitrary distribution."""
    split, reduced = entropy_split_gap(d), reduced_ingleton_gap(d)
    gamma, delta = gamma_term(d), delta_term(d)
    slacks = (split.gap + gamma.bits, reduced.gap + delta.bits)
    status = PASS if all(map(_at_least, slacks)) else FAIL
    return Lemma2Certificate(status, split, reduced, gamma, delta, *slacks)


class Theorem1Certificate(NamedTuple):
    """Entropy-split inequality under cond-2-C.

    When the condition holds the verifier asserts the numeric gap and that
    the gamma power sum is at most 1 exactly.
    """

    status: str
    condition: Verdict
    gap: GapReport | None = None
    gamma: ErrorTermCertificate | None = None
    power_sum_at_most_one: bool | None = None

    to_json_dict = _record_json


def verify_theorem1(d: JointDistribution) -> Theorem1Certificate:
    """Entropy-split inequality for distributions satisfying cond-2-C."""
    condition = check_unique_common_value(d)
    if not condition.holds:
        return Theorem1Certificate(NOT_APPLICABLE, condition)
    gap = entropy_split_gap(d)
    gamma = gamma_term(d)
    ok = gap.holds and gamma.at_most_one
    return Theorem1Certificate(PASS if ok else FAIL, condition, gap, gamma, gamma.at_most_one)


class Theorem2Certificate(NamedTuple):
    """Reduced-Ingleton inequality with the pointwise error term under
    cond-2-B; when the pointwise product inequality additionally holds at
    every cell, the plain bound follows and the product comparison must be
    an exact equality cell by cell."""

    status: str
    condition: Verdict
    gap: GapReport | None = None
    delta_prime: ErrorTermCertificate | None = None
    pointwise: PointwiseProductReport | None = None
    bound_slack: float | None = None
    plain_bound_holds: bool | None = None

    to_json_dict = _record_json


def verify_theorem2(d: JointDistribution) -> Theorem2Certificate:
    """Reduced-Ingleton bound for distributions satisfying cond-2-B."""
    condition = check_support_saturation(d)
    if not condition.holds:
        return Theorem2Certificate(NOT_APPLICABLE, condition)
    pointwise = check_pointwise_product(d)
    delta_prime = _delta_prime(condition, pointwise)
    gap = reduced_ingleton_gap(d)
    slack = gap.gap + delta_prime.bits
    ok = _at_least(slack)
    plain = None
    if pointwise.holds:
        # the product inequality everywhere forces equality everywhere, and
        # the reduced bound holds without any error term
        plain = gap.holds
        ok = ok and plain and pointwise.equality
    return Theorem2Certificate(
        PASS if ok else FAIL, condition, gap, delta_prime, pointwise, slack, plain
    )
