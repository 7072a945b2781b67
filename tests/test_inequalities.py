import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroplab.conditions import check_pointwise_product
from entroplab.distributions import JointDistribution
from entroplab.errors import FAIL, NOT_APPLICABLE, PASS, LabError, PreconditionFailed
from entroplab.inequalities import (
    _certificate,
    _delta_prime,
    delta_term,
    entropy_split_gap,
    gamma_term,
    ingleton_gap,
    reduced_ingleton_gap,
    verify_lemma2,
    verify_theorem1,
    verify_theorem2,
)

from conftest import (
    copied_bit,
    independent_bits,
    pairs_triple,
    random_support_distribution,
    sparse_triples,
    xor_triple,
)

TOL = 1e-9


def copied_bit_with_b():
    # A = B = X = Y, one shared uniform bit
    atoms = {(b, b, b, b): 1 for b in ("0", "1")}
    return JointDistribution(("A", "B", "X", "Y"), atoms, 2)


# ---------------------------------------------------------------------------
# gaps


def test_xor_gaps():
    d = xor_triple()
    assert ingleton_gap(d).gap == pytest.approx(0.0, abs=TOL)
    assert reduced_ingleton_gap(d).gap == pytest.approx(0.0, abs=TOL)
    assert entropy_split_gap(d).gap == pytest.approx(-1.0, abs=TOL)


def test_copied_bit_with_b_reduced_gap_is_minus_one():
    d = copied_bit_with_b()
    r = reduced_ingleton_gap(d)
    assert r.gap == pytest.approx(-1.0, abs=TOL)
    assert not r.holds
    assert ingleton_gap(d).gap == pytest.approx(0.0, abs=TOL)


def test_pairs_triple_entropy_split_gap():
    gap = entropy_split_gap(pairs_triple(5))
    expected = math.log2(10) - 2 * math.log2(4)
    assert gap.gap == pytest.approx(expected, abs=TOL)
    assert gap.gap == pytest.approx(-0.678072, abs=1e-5)


def test_gap_reports_recompute_from_their_terms():
    for d in (xor_triple(), copied_bit_with_b(), pairs_triple(4)):
        g = ingleton_gap(d)
        recomputed = (
            g.terms["I(A:B|X)"] + g.terms["I(A:B|Y)"] + g.terms["I(X:Y)"] - g.terms["I(A:B)"]
        )
        assert g.gap == pytest.approx(recomputed, abs=TOL)
        s = entropy_split_gap(d)
        assert s.gap == pytest.approx(
            s.terms["H(A|B)"] - s.terms["H(A|B,X)"] - s.terms["H(A|B,Y)"], abs=TOL
        )


def test_reduced_gap_is_ingleton_gap_minus_mutual_information():
    rng = random.Random(17)
    for _ in range(100):
        d = random_support_distribution(rng, ("A", "B", "X", "Y"), max_size=3)
        full = ingleton_gap(d).gap
        reduced = reduced_ingleton_gap(d).gap
        assert reduced == pytest.approx(full - d.mutual_info("X", "Y"), abs=TOL)


def test_entropy_split_relates_to_triple_information_without_b():
    rng = random.Random(19)
    for _ in range(100):
        d = random_support_distribution(rng, ("A", "X", "Y"), max_size=3)
        gap = entropy_split_gap(d).gap
        identity = d.triple_mutual_info("X", "Y", "A") - d.cond_entropy("A", ("X", "Y"))
        assert gap == pytest.approx(identity, abs=TOL)


# ---------------------------------------------------------------------------
# error terms


def test_xor_gamma_is_one_bit_exactly():
    cert = gamma_term(xor_triple())
    assert cert.power_sum == Fraction(2)
    assert cert.bits == pytest.approx(1.0, abs=TOL)
    assert not cert.at_most_one


def test_xor_delta_is_zero_bits_exactly():
    cert = delta_term(xor_triple())
    assert cert.power_sum == Fraction(1)
    assert cert.bits == 0.0
    assert cert.at_most_one


def test_independent_bits_delta_power_sum_is_one():
    cert = delta_term(independent_bits())
    assert cert.power_sum == Fraction(1)


def test_pairs_triple_gamma_closed_form():
    # the power sum is 2(n-1)/n: each unordered pair contributes four
    # quadruples of weight 1/n^2, and there are n(n-1)/2 pairs
    for n in (3, 5, 7):
        cert = gamma_term(pairs_triple(n))
        assert cert.power_sum == Fraction(2 * (n - 1), n)


def test_gamma_counts_terms_once_per_a_value():
    # two values of A on the same (x, y) cell double the power sum
    atoms = {
        ("a1", "x1", "y1"): 1,
        ("a2", "x1", "y1"): 1,
    }
    d = JointDistribution(("A", "X", "Y"), atoms, 2)
    cert = gamma_term(d)
    assert cert.power_sum == Fraction(2)


def test_copied_bit_gamma_below_one():
    cert = gamma_term(copied_bit())
    assert cert.power_sum == Fraction(1, 2)
    assert cert.bits == pytest.approx(-1.0, abs=TOL)
    assert cert.at_most_one


def test_delta_prime_requires_support_saturation():
    cert = verify_theorem2(pairs_triple(3))
    assert cert.status == NOT_APPLICABLE
    assert cert.delta_prime is None and cert.pointwise is None
    assert cert.condition.witness == {"a": "{1,2}", "x": "1", "y": "1"}
    with pytest.raises(PreconditionFailed) as err:
        _delta_prime(cert.condition, check_pointwise_product(pairs_triple(3)))
    assert err.value.witness == cert.condition.witness


def test_copied_bit_delta_prime_is_one_bit():
    cert = verify_theorem2(copied_bit()).delta_prime
    assert cert.power_sum == Fraction(2)
    assert cert.bits == pytest.approx(1.0, abs=TOL)


def test_delta_prime_never_below_zero_under_saturation():
    rng = random.Random(23)
    found = 0
    for _ in range(400):
        d = random_support_distribution(rng, ("A", "X", "Y"), max_size=3)
        cert = verify_theorem2(d)
        if cert.status == NOT_APPLICABLE:
            continue
        found += 1
        assert cert.delta_prime.power_sum >= 1
    assert found > 20


# ---------------------------------------------------------------------------
# lemma 2 verifier


def test_lemma2_on_xor_is_tight():
    cert = verify_lemma2(xor_triple())
    assert cert.status == PASS
    assert cert.entropy_split_slack == pytest.approx(0.0, abs=TOL)
    assert cert.reduced_ingleton_slack == pytest.approx(0.0, abs=TOL)


def test_lemma2_pairs_triple_slack_is_zero():
    cert = verify_lemma2(pairs_triple(5))
    assert cert.status == PASS
    assert cert.entropy_split_slack == pytest.approx(0.0, abs=TOL)


def test_lemma2_holds_on_fuzzed_distributions():
    rng = random.Random(29)
    for _ in range(300):
        d = random_support_distribution(rng, ("A", "B", "X", "Y"), max_size=3)
        cert = verify_lemma2(d)
        assert cert.status == PASS
        assert cert.entropy_split_slack >= -TOL
        assert cert.reduced_ingleton_slack >= -TOL


# ---------------------------------------------------------------------------
# theorem 1 verifier


def test_theorem1_not_applicable_on_xor():
    cert = verify_theorem1(xor_triple())
    assert cert.status == NOT_APPLICABLE
    assert cert.condition.witness == {"a": "0", "a2": "1", "x": "0", "y": "0"}
    assert cert.gap is None


def test_theorem1_passes_on_copied_bit():
    cert = verify_theorem1(copied_bit())
    assert cert.status == PASS
    assert cert.gap.gap == pytest.approx(1.0, abs=TOL)
    assert cert.gamma.power_sum == Fraction(1, 2)
    assert cert.power_sum_at_most_one


@settings(max_examples=200, deadline=None)
@given(sparse_triples())
def test_theorem1_never_fails(d):
    cert = verify_theorem1(d)
    assert cert.status in (PASS, NOT_APPLICABLE)
    if cert.status == PASS:
        assert cert.gap.gap >= -TOL
        assert cert.gamma.power_sum <= 1


# ---------------------------------------------------------------------------
# theorem 2 verifier


def test_theorem2_not_applicable_on_pairs_triple():
    cert = verify_theorem2(pairs_triple(3))
    assert cert.status == NOT_APPLICABLE
    assert cert.condition.witness == {"a": "{1,2}", "x": "1", "y": "1"}


def test_theorem2_tight_on_copied_bit_with_b():
    cert = verify_theorem2(copied_bit_with_b())
    assert cert.status == PASS
    assert cert.gap.gap == pytest.approx(-1.0, abs=TOL)
    assert cert.delta_prime.bits == pytest.approx(1.0, abs=TOL)
    assert cert.bound_slack == pytest.approx(0.0, abs=TOL)
    assert cert.plain_bound_holds is None


def test_theorem2_plain_bound_on_independent_bits():
    cert = verify_theorem2(independent_bits(("A", "X", "Y")))
    assert cert.status == PASS
    assert cert.pointwise.holds
    assert cert.pointwise.equality
    assert cert.plain_bound_holds
    assert cert.delta_prime.power_sum == Fraction(1)


@settings(max_examples=200, deadline=None)
@given(sparse_triples())
def test_theorem2_never_fails(d):
    cert = verify_theorem2(d)
    assert cert.status in (PASS, NOT_APPLICABLE)
    if cert.status == PASS:
        assert cert.bound_slack >= -TOL
        # product inequality everywhere forces exact equality everywhere
        if cert.pointwise.holds:
            assert cert.pointwise.equality
            assert cert.gap.gap >= -TOL


@pytest.mark.parametrize("kind", ["gamma", "delta", "delta-prime"])
@pytest.mark.parametrize("power_sum", [Fraction(0), Fraction(-1)])
def test_certificate_refuses_a_non_positive_power_sum(kind, power_sum):
    """The one refusal of a power sum with no log names the error term."""
    with pytest.raises(LabError) as err:
        _certificate(kind, power_sum)
    assert err.value.code == "BAD_PARAM"
    assert str(err.value) == f"{kind} power sum {power_sum} must be positive"


def test_certificates_serialize():
    cert = verify_theorem1(copied_bit())
    doc = cert.to_json_dict()
    assert doc["status"] == PASS
    assert doc["gamma"]["power_sum"] == "1/2"
    lemma = verify_lemma2(xor_triple()).to_json_dict()
    assert lemma["gamma"]["power_sum"] == "2"
    assert lemma["status"] == PASS
