"""The integer-count checks against the definitions, computed with Fractions.

Every marginal here is summed from ``d.atoms`` as Fractions, and every
quantity is evaluated term by term over the full alphabet cube, exactly as
the module docstrings of ``conditions`` and ``inequalities`` define it, with
no factoring and no common denominators.  The inputs carry large
denominators that differ from one marginal table to the next: seeded
samples extended by a random B column, sparse conditioned samples, and a
recorded field-lines input whose B column was split atom by atom over
each atom's own weight sum, so that its B marginal needs over 700 bits.
"""

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from entroplab.conditions import check_ci_given, check_independence, check_pointwise_product
from entroplab.distributions import JointDistribution, load_distribution
from entroplab.families import extend_with_random_B, sample_random_distribution
from entroplab.inequalities import delta_term, gamma_term


def fraction_table(d, names):
    cols = [d.variables.index(n) for n in names]
    out = {}
    for outcome, p in d.atoms.items():
        key = tuple(outcome[c] for c in cols)
        out[key] = out.get(key, Fraction(0)) + p
    return out


class Reference:
    """p(...) of any group of the roles A, B, X, Y, absent cells reading 0."""

    def __init__(self, d):
        self.alphabet = {v: sorted({o[i] for o in d.atoms}) for i, v in enumerate(d.variables)}
        self.tables = {}
        self.d = d

    def p(self, **cell):
        names = tuple(sorted(cell))
        if names not in self.tables:
            self.tables[names] = fraction_table(self.d, names)
        return self.tables[names].get(tuple(cell[n] for n in names), Fraction(0))

    def cube(self, *names):
        return itertools.product(*(self.alphabet[n] for n in names))


def reference_gamma_delta(d):
    r = Reference(d)
    gamma = delta = Fraction(0)
    for a, b, x, y in r.cube("A", "B", "X", "Y"):
        if r.p(A=a, B=b, X=x) > 0 and r.p(A=a, B=b, Y=y) > 0:
            gamma += r.p(B=b, X=x) * r.p(B=b, Y=y) / r.p(B=b)
            delta += (
                r.p(A=a, X=x) * r.p(A=a, Y=y) * r.p(B=b, X=x) * r.p(B=b, Y=y)
                / (r.p(A=a) * r.p(X=x) * r.p(Y=y) * r.p(B=b))
            )
    return gamma, delta


def reference_pointwise(d):
    r = Reference(d)
    holds = equality = True
    witness = None
    max_ratio, argmax = Fraction(0), None
    for a, x, y in r.cube("A", "X", "Y"):
        lhs = r.p(A=a, X=x) * r.p(A=a, Y=y) * r.p(X=x, Y=y)
        rhs = r.p(A=a) * r.p(X=x) * r.p(Y=y) * r.p(A=a, X=x, Y=y)
        equality = equality and lhs == rhs
        if lhs > rhs and holds:
            holds, witness = False, {"a": a, "x": x, "y": y}
        if rhs > 0 and lhs / rhs > max_ratio:
            max_ratio, argmax = lhs / rhs, {"a": a, "x": x, "y": y}
    return holds, witness, equality, max_ratio, argmax


def reference_ci(d):
    r = Reference(d)
    for a, x, y in r.cube("A", "X", "Y"):
        if r.p(A=a, X=x) * r.p(A=a, Y=y) != r.p(A=a, X=x, Y=y) * r.p(A=a):
            return {"A": a, "X": x, "Y": y}
    return None


def reference_independence(d):
    """The smallest cell (x, y), in sorted order over the product of the
    supports of X and Y, with p(x, y) != p(x) p(y); None when there is none.
    A role the distribution lacks reads as the constant "*"."""

    def marginal_of(names):
        out = {}
        for outcome, p in d.atoms.items():
            values = dict(zip(d.variables, outcome))
            key = tuple(values.get(n, "*") for n in names)
            out[key] = out.get(key, Fraction(0)) + p
        return out

    px, py, pxy = marginal_of(("X",)), marginal_of(("Y",)), marginal_of(("X", "Y"))
    for cx, cy in itertools.product(sorted(px), sorted(py)):
        if pxy.get(cx + cy, Fraction(0)) != px[cx] * py[cy]:
            return dict(zip(("X", "Y"), cx + cy))
    return None


def extended_samples():
    rng = random.Random(4417)
    for _ in range(12):
        sizes = tuple(rng.randint(1, 3) for _ in range(3))
        base = sample_random_distribution(("A", "X", "Y"), sizes, rng.randrange(2**32))
        yield extend_with_random_B(base, rng.randint(2, 3), rng.randrange(2**32))


def conditioned_samples():
    rng = random.Random(4418)
    for _ in range(12):
        sizes = tuple(rng.randint(1, 3) for _ in range(4))
        d = sample_random_distribution(("A", "B", "X", "Y"), sizes, rng.randrange(2**32))
        outcomes = sorted(d.atoms)
        yield d.condition(rng.sample(outcomes, rng.randint(1, len(outcomes))))


RECORDED = Path(__file__).parent / "golden" / "inputs" / "field-lines-4-b2.json"

SAMPLES = [*extended_samples(), *conditioned_samples(),
           load_distribution(RECORDED.read_text(encoding="utf-8"))]


def test_samples_reach_large_denominators_and_every_verdict():
    bits = [max(p.denominator for p in fraction_table(d, ("B",)).values()).bit_length()
            for d in SAMPLES]
    assert max(bits) > 200
    reports = [check_pointwise_product(d) for d in SAMPLES]
    assert {r.holds for r in reports} == {True, False}
    assert {r.equality for r in reports} == {True, False}
    assert {check_ci_given(d).holds for d in SAMPLES} == {True, False}


@pytest.mark.parametrize("index", range(len(SAMPLES)))
def test_gamma_and_delta_match_the_definition(index):
    d = SAMPLES[index]
    gamma, delta = reference_gamma_delta(d)
    assert gamma_term(d).power_sum == gamma
    assert delta_term(d).power_sum == delta


@pytest.mark.parametrize("index", range(len(SAMPLES)))
def test_pointwise_product_matches_the_definition(index):
    d = SAMPLES[index]
    holds, witness, equality, max_ratio, argmax = reference_pointwise(d)
    report = check_pointwise_product(d)
    assert report.holds is holds
    assert report.verdict.witness == witness
    assert report.equality is equality
    assert report.max_ratio == max_ratio
    assert report.argmax == argmax


@pytest.mark.parametrize("index", range(len(SAMPLES)))
def test_ci_verdict_matches_the_definition(index):
    d = SAMPLES[index]
    witness = reference_ci(d)
    verdict = check_ci_given(d)
    assert verdict.holds is (witness is None)
    assert verdict.witness == witness


def assert_independence_matches(d):
    witness = reference_independence(d)
    verdict = check_independence(d)
    assert verdict.holds is (witness is None)
    assert verdict.witness == witness
    return verdict


@pytest.mark.parametrize("index", range(len(SAMPLES)))
def test_independence_verdict_matches_the_definition(index):
    d = SAMPLES[index]
    assert_independence_matches(d)
    # B is a missing role once it is marginalized away
    assert_independence_matches(JointDistribution(("A", "X", "Y"), *d._table(("A", "X", "Y"))))


def test_independence_holds_on_a_product_distribution():
    weights = {"A": [1, 2], "X": [3, 1, 2], "Y": [5, 1]}
    counts = {
        (str(a), str(x), str(y)): wa * wx * wy
        for a, wa in enumerate(weights["A"])
        for x, wx in enumerate(weights["X"])
        for y, wy in enumerate(weights["Y"])
    }
    d = JointDistribution(("A", "X", "Y"), counts, 3 * 6 * 6)
    assert assert_independence_matches(d).holds
    # the seeded samples reach both verdicts
    assert {check_independence(d).holds for d in SAMPLES} == {True, False}
