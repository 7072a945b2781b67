"""Witness-producing checkers for support and product conditions on joint
distributions, plus an audit of the implications among them.

Every check reads the paper's roles: A is the common variable, X and Y
are the two sides, and a role a distribution lacks is a constant column.
All checks are decided exactly on the integer counts of the marginal
tables, each over its own denominator, by cross-multiplication; no verdict
in this module depends on floating point.  A failed check always carries the
lexicographically smallest violating tuple as its witness.

Condition ids used in verdicts and by the CLI:

  independence               p(x, y) = p(x) * p(y) at every cell
  conditional-independence   p(a,x) * p(a,y) = p(a,x,y) * p(a) at every cell
  functional                 each (x, y) cell in the support carries one a
  cond-2-B                   p(a,x) > 0 and p(a,y) > 0 imply p(a,x,y) > 0
  cond-2-C                   no a != a2 share both a row x and a column y
  pointwise-product          p(a,x) p(a,y) p(x,y) <= p(a) p(x) p(y) p(a,x,y)

Lemma 1 reads on S = {(a, x, y) : p(a,x) > 0 and p(a,y) > 0}, the cells of
``d.cells("A")``, which hold supp(A,X,Y): functional means that
(a, x, y) -> (x, y) is one-to-one on supp(A,X,Y), cond-2-B that S equals
supp(A,X,Y), and cond-2-C that the map is one-to-one on all of S.  These
are the implications ``audit_lemma1`` checks.

Lemma 3: cond-2-C survives conditioning on any event of positive mass.  It
reads only the (A, X) and (A, Y) supports, and conditioning can only shrink
them, so one check of ``check_unique_common_value`` decides it for every
event.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .distributions import JointDistribution
from .errors import FAIL, PASS, Verdict, _mass_text

COND_INDEPENDENCE = "independence"
COND_CI_GIVEN = "conditional-independence"
COND_FUNCTIONAL = "functional"
COND_SUPPORT_SATURATION = "cond-2-B"
COND_UNIQUE_COMMON_VALUE = "cond-2-C"
COND_POINTWISE_PRODUCT = "pointwise-product"


def check_independence(d: JointDistribution) -> Verdict:
    """Exact independence of X and Y, zero cells included: conditional
    independence given no variable."""
    return _check_ci(COND_INDEPENDENCE, d, ())


def check_ci_given(d: JointDistribution) -> Verdict:
    """Conditional independence of X and Y given A, decided through the exact
    cross-multiplied form p(a,x) p(a,y) = p(a,x,y) p(a)."""
    return _check_ci(COND_CI_GIVEN, d, ("A",))


def _check_ci(condition: str, d: JointDistribution, given: tuple[str, ...]) -> Verdict:
    ta, den_a = d._table(given)
    tax, den_ax = d._table(given + ("X",))
    tay, den_ay = d._table(given + ("Y",))
    taxy, den_axy = d._table(given + ("X", "Y"))
    # Over integer counts both sides carry the other side's denominators:
    # n(a,x) n(a,y) den_axy den_a = n(a,x,y) n(a) den_ax den_ay.
    left = den_axy * den_a
    right = den_ax * den_ay
    # Cells with p(a,x) = 0 or p(a,y) = 0 make both sides vanish (the right
    # side because p(a,x,y) <= p(a,x)), so only the joined support matters.
    # With nothing given, the one group cell () walks every x cell times
    # every y cell, zero cells of the joint table included.
    for ca, xs, ys in d.cells(given):
        na = ta[ca] * right
        for cx in xs:
            nx = tax[ca + cx] * left
            for cy in ys:
                lhs = nx * tay[ca + cy]
                rhs = taxy.get(ca + cx + cy, 0) * na
                if lhs != rhs:
                    return Verdict(condition, dict(zip(given + ("X", "Y"), ca + cx + cy)))
    return Verdict(condition)


def check_functional(d: JointDistribution) -> Verdict:
    """Support-level functional dependence: every (x, y) cell inside the
    support determines exactly one a.  Decided by counting first: it holds
    exactly when the (A, X, Y) table has as many cells as the (X, Y) table;
    only a failure sorts, for the smallest witness."""
    counted = d._table(("A", "X", "Y"))[0]
    if len(counted) == len(d._table(("X", "Y"))[0]):
        return Verdict(COND_FUNCTIONAL)
    # sorted by (x, y, a), the first neighbours sharing an (x, y) cell are the witness
    cells = sorted((x, y, a) for a, x, y in counted)
    (x, y, a), (_, _, a2) = next(pair for pair in zip(cells, cells[1:])
                                 if pair[0][:2] == pair[1][:2])
    return Verdict(COND_FUNCTIONAL, {"X": x, "Y": y, "a": a, "a2": a2})


def check_support_saturation(d: JointDistribution) -> Verdict:
    """cond-2-B: whenever a is possible with x and possible with y, the triple
    (a, x, y) itself has positive mass.  Decided by counting first: it holds
    exactly when the (A, X, Y) table has sum over a of |xs| |ys| cells, over
    the fibres of ``d.cells("A")``; only a failure scans them, in
    sorted order, for the smallest witness."""
    taxy = d._table(("A", "X", "Y"))[0]
    if sum(len(xs) * len(ys) for _, xs, ys in d.cells("A")) == len(taxy):
        return Verdict(COND_SUPPORT_SATURATION)
    a, x, y = next(
        (a, x, y)
        for (a,), xs, ys in d.cells("A")
        for (x,) in xs
        for (y,) in ys
        if (a, x, y) not in taxy
    )
    return Verdict(COND_SUPPORT_SATURATION, {"a": a, "x": x, "y": y})


def check_unique_common_value(d: JointDistribution) -> Verdict:
    """cond-2-C: no two distinct values of A are both possible with some x and
    both possible with some y, for any (x, y), p(x, y) = 0 included.  One walk
    over the cells (a, x, y) of ``d.cells("A")`` meets each a in sorted
    order, so the first a seen at an (x, y) is its smallest, and the smallest
    clash of the walk is the witness."""
    first = {}
    best = min(
        ((seen, a, x, y)
         for (a,), xs, ys in d.cells("A")
         for (x,) in xs
         for (y,) in ys
         if (seen := first.setdefault((x, y), a)) != a),
        default=None,
    )
    if best is None:
        return Verdict(COND_UNIQUE_COMMON_VALUE)
    a, a2, x, y = best
    return Verdict(COND_UNIQUE_COMMON_VALUE, {"a": a, "a2": a2, "x": x, "y": y})


class PointwiseProductReport(NamedTuple):
    """Verdict of the pointwise product inequality together with its exact
    extremal ratio.

    ``max_ratio`` is the largest value of
    p(a,x) p(a,y) p(x,y) / (p(a) p(x) p(y) p(a,x,y)) over cells with a
    positive denominator; ``equality`` records whether the two sides agree
    exactly at every cell of the alphabet cube.
    """

    verdict: Verdict
    equality: bool
    max_ratio: Fraction
    argmax: dict | None

    @property
    def holds(self) -> bool:
        return self.verdict.holds

    def to_json_dict(self) -> dict:
        doc = self.verdict.to_json_dict()
        doc["equality"] = self.equality
        doc["max_ratio"] = _mass_text(self.max_ratio.numerator, self.max_ratio.denominator)
        doc["argmax"] = self.argmax
        return doc


def check_pointwise_product(d: JointDistribution) -> PointwiseProductReport:
    """Exact check of p(a,x) p(a,y) p(x,y) <= p(a) p(x) p(y) p(a,x,y) over the
    whole alphabet cube (absent masses read as zero)."""
    ta, den_a = d._table(("A",))
    tx, den_x = d._table(("X",))
    ty, den_y = d._table(("Y",))
    tax, den_ax = d._table(("A", "X"))
    tay, den_ay = d._table(("A", "Y"))
    txy, den_xy = d._table(("X", "Y"))
    taxy, den_axy = d._table(("A", "X", "Y"))
    # Over integer counts each side carries the other side's denominators:
    # lhs = n(a,x) n(a,y) n(x,y) * left, rhs = n(a) n(x) n(y) n(a,x,y) * right.
    left = den_a * den_x * den_y * den_axy
    right = den_ax * den_ay * den_xy
    # Outside cells with p(a,x) > 0 and p(a,y) > 0 both sides vanish, so
    # scanning those cells, in lexicographic order, decides the inequality
    # and the equality claim.  The largest ratio is kept as the pair
    # (best_lhs, best_rhs) and compared by cross-multiplication.
    equality = True
    worst = None
    best_lhs, best_rhs = 0, 1
    argmax = None
    for (a,), xs, ys in d.cells("A"):
        na = ta[(a,)] * right
        for (x,) in xs:
            lx = tax[(a, x)] * left
            rx = na * tx[(x,)]
            for (y,) in ys:
                lhs = lx * tay[(a, y)] * txy.get((x, y), 0)
                rhs = rx * ty[(y,)] * taxy.get((a, x, y), 0)
                if lhs != rhs:
                    equality = False
                    if lhs > rhs and worst is None:
                        worst = (a, x, y)
                if rhs and lhs * best_rhs > best_lhs * rhs:
                    best_lhs, best_rhs = lhs, rhs
                    argmax = {"a": a, "x": x, "y": y}
    max_ratio = Fraction(best_lhs, best_rhs)
    if worst is None:
        verdict = Verdict(COND_POINTWISE_PRODUCT)
    else:
        a, x, y = worst
        verdict = Verdict(COND_POINTWISE_PRODUCT, {"a": a, "x": x, "y": y},
                          "left product exceeds right product at this cell")
    return PointwiseProductReport(verdict, equality, max_ratio, argmax)


# ---------------------------------------------------------------------------
# audits


class Lemma1Audit(NamedTuple):
    """The four condition verdicts on one distribution and any violated
    implications among them.

    The audited implications: conditional independence of X and Y given A
    implies cond-2-B; functional plus cond-2-B imply cond-2-C; cond-2-C
    implies functional.
    """

    conditional_independence: Verdict
    functional: Verdict
    support_saturation: Verdict
    unique_common_value: Verdict
    violations: tuple[str, ...]

    @property
    def status(self) -> str:
        return FAIL if self.violations else PASS

    def to_json_dict(self) -> dict:
        return {
            "verdicts": {
                v.condition: v.to_json_dict()
                for v in (
                    self.conditional_independence,
                    self.functional,
                    self.support_saturation,
                    self.unique_common_value,
                )
            },
            "violations": list(self.violations),
            "ok": not self.violations,
        }


def audit_lemma1(d: JointDistribution) -> Lemma1Audit:
    """Evaluate all four conditions on (A, X, Y) and cross-check the
    implication structure between them."""
    ci = check_ci_given(d)
    fn = check_functional(d)
    sat = check_support_saturation(d)
    ucv = check_unique_common_value(d)
    violations = []
    if ci.holds and not sat.holds:
        violations.append("conditional-independence->cond-2-B")
    if fn.holds and sat.holds and not ucv.holds:
        violations.append("functional+cond-2-B->cond-2-C")
    if ucv.holds and not fn.holds:
        violations.append("cond-2-C->functional")
    return Lemma1Audit(ci, fn, sat, ucv, tuple(violations))

