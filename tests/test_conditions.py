import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from entroplab.conditions import (
    Lemma3Audit,
    audit_lemma1,
    audit_lemma3,
    check_ci_given,
    check_functional,
    check_independence,
    check_pointwise_product,
    check_support_saturation,
    check_unique_common_value,
)
from entroplab.distributions import JointDistribution, build_markov_fork
from entroplab.errors import LabError, PreconditionFailed, Verdict

from conftest import (
    copied_bit,
    independent_bits,
    pairs_triple,
    random_support_distribution,
    sparse_triples,
    xor_triple,
)


def dist(variables, rows):
    return JointDistribution(
        variables, {tuple(r[:-1]): r[-1] for r in rows}, sum(r[-1] for r in rows)
    )


# ---------------------------------------------------------------------------
# independence and conditional independence


def test_xor_marginal_pairs_are_independent():
    d = xor_triple()
    assert check_independence(d, "X", "Y").holds
    assert check_independence(d, "X", "A").holds
    assert check_independence(d, "Y", "A").holds


def test_xor_joint_pair_is_dependent_on_a():
    v = check_independence(xor_triple(), ("X", "Y"), "A")
    assert not v.holds
    assert v.witness == {"X": "0", "Y": "0", "A": "0"}


def test_independence_detects_zero_cell_dependence():
    # support misses the (x2, y2) cell entirely
    d = dist(("X", "Y"), [("x1", "y1", 1), ("x1", "y2", 1), ("x2", "y1", 1)])
    v = check_independence(d, "X", "Y")
    assert not v.holds
    assert v.witness == {"X": "x1", "Y": "y1"}


def test_independence_overlap_rejected():
    with pytest.raises(LabError) as err:
        check_independence(xor_triple(), ("A", "X"), "X")
    assert err.value.code == "OVERLAPPING_SETS"


def test_xor_fails_ci_given_a_with_smallest_witness():
    v = check_ci_given(xor_triple(), "X", "Y", "A")
    assert not v.holds
    assert v.witness == {"A": "0", "X": "0", "Y": "0"}


def test_fork_output_satisfies_ci_given_group():
    rng = random.Random(3)
    for _ in range(25):
        d = random_support_distribution(rng, ("A", "X", "Y"), max_size=3)
        f = build_markov_fork(d)
        assert check_ci_given(f, "X", "Y", "A").holds


def test_independent_bits_satisfy_ci():
    assert check_ci_given(independent_bits(("A", "X", "Y")), "X", "Y", "A").holds


# ---------------------------------------------------------------------------
# functional dependence


def test_xor_is_functional():
    assert check_functional(xor_triple(), "A", ("X", "Y")).holds


def test_two_values_on_one_cell_yield_witness():
    d = dist(
        ("A", "X", "Y"),
        [("a1", "x1", "y1", 1), ("a2", "x1", "y1", 1), ("a1", "x2", "y2", 2)],
    )
    v = check_functional(d, "A", ("X", "Y"))
    assert not v.holds
    assert v.witness == {"X": "x1", "Y": "y1", "a": "a1", "a2": "a2"}


# ---------------------------------------------------------------------------
# cond-2-B: support saturation


def test_pairs_triple_violates_support_saturation():
    v = check_support_saturation(pairs_triple(3))
    assert not v.holds
    # the unordered pair {1,2} is possible with x = 1 and with y = 1, yet the
    # diagonal cell (1, 1) carries no mass
    assert v.witness == {"a": "{1,2}", "x": "1", "y": "1"}


def test_xor_violates_support_saturation():
    v = check_support_saturation(xor_triple())
    assert not v.holds
    assert v.witness == {"a": "0", "x": "0", "y": "1"}


def test_full_support_always_saturates():
    assert check_support_saturation(independent_bits(("A", "X", "Y"))).holds


def test_copied_bit_saturates():
    assert check_support_saturation(copied_bit()).holds


# ---------------------------------------------------------------------------
# cond-2-C: unique common value


def test_xor_fails_unique_common_value():
    v = check_unique_common_value(xor_triple())
    assert not v.holds
    assert v.witness == {"a": "0", "a2": "1", "x": "0", "y": "0"}


def test_copied_bit_and_diagonal_satisfy_unique_common_value():
    assert check_unique_common_value(copied_bit()).holds
    diagonal = dist(
        ("A", "X", "Y"),
        [("a%d" % i, "x%d" % i, "y%d" % i, 1) for i in range(1, 4)],
    )
    assert check_unique_common_value(diagonal).holds


def test_unique_common_value_sees_incompatible_cells():
    # the clash happens at the cell (x1, y1), which itself has zero mass
    d = dist(
        ("A", "X", "Y"),
        [
            ("a", "x1", "y2", 1),
            ("a", "x2", "y1", 1),
            ("b", "x1", "y3", 1),
            ("b", "x3", "y1", 1),
        ],
    )
    v = check_unique_common_value(d)
    assert not v.holds
    assert v.witness == {"a": "a", "a2": "b", "x": "x1", "y": "y1"}


def test_pairs_triple_fails_unique_common_value():
    assert not check_unique_common_value(pairs_triple(5)).holds


# ---------------------------------------------------------------------------
# pointwise product


def test_copied_bit_pointwise_ratio_is_two():
    r = check_pointwise_product(copied_bit())
    assert not r.holds
    assert r.max_ratio == Fraction(2)
    assert r.verdict.witness == {"a": "0", "x": "0", "y": "0"}
    assert not r.equality


def test_independent_bits_pointwise_equality():
    r = check_pointwise_product(independent_bits(("A", "X", "Y")))
    assert r.holds
    assert r.equality
    assert r.max_ratio == Fraction(1)


def test_xor_pointwise_fails_off_support():
    r = check_pointwise_product(xor_triple())
    assert not r.holds
    assert r.verdict.witness == {"a": "0", "x": "0", "y": "1"}


# ---------------------------------------------------------------------------
# support-only dependence of the support conditions


def test_support_conditions_ignore_masses():
    rng = random.Random(5)
    for _ in range(200):
        d = random_support_distribution(rng, ("A", "X", "Y"), max_size=3)
        support = sorted(d.atoms)
        nums = [rng.randint(1, 999) for _ in support]
        other = JointDistribution(d.variables, dict(zip(support, nums)), sum(nums))
        assert (
            check_support_saturation(d).holds
            == check_support_saturation(other).holds
        )
        assert (
            check_unique_common_value(d).holds
            == check_unique_common_value(other).holds
        )
        assert (
            check_functional(d, "A", ("X", "Y")).holds
            == check_functional(other, "A", ("X", "Y")).holds
        )


# ---------------------------------------------------------------------------
# audits


def test_lemma1_audit_on_xor():
    audit = audit_lemma1(xor_triple())
    assert not audit.conditional_independence.holds
    assert audit.functional.holds
    assert not audit.support_saturation.holds
    assert not audit.unique_common_value.holds
    assert audit.ok


def test_lemma1_audit_on_copied_bit():
    audit = audit_lemma1(copied_bit())
    assert audit.conditional_independence.holds
    assert audit.support_saturation.holds
    assert audit.unique_common_value.holds
    assert audit.functional.holds
    assert audit.ok


def test_lemma1_audit_finds_no_violation_on_fuzzed_distributions():
    rng = random.Random(41)
    for _ in range(1000):
        d = random_support_distribution(rng, ("A", "X", "Y"), max_size=3)
        audit = audit_lemma1(d)
        assert audit.ok, audit.to_json_dict()


@settings(max_examples=150, deadline=None)
@given(sparse_triples())
def test_lemma1_implications_hold_under_hypothesis(d):
    assert audit_lemma1(d).ok


def test_lemma3_requires_the_condition():
    with pytest.raises(PreconditionFailed):
        audit_lemma3(xor_triple(), trials=3, seed=1)


def test_lemma3_conditioning_preserves_the_condition():
    d = dist(
        ("A", "B", "X", "Y"),
        [
            ("a", "b1", "x1", "y1", 2),
            ("a", "b2", "x1", "y2", 1),
            ("b", "b1", "x2", "y3", 3),
            ("c", "b2", "x3", "y1", 1),
            ("c", "b1", "x3", "y3", 1),
        ],
    )
    assert check_unique_common_value(d).holds
    audit = audit_lemma3(d, trials=100, seed=9)
    assert audit.ok
    assert audit.trials == 100


def test_lemma3_is_deterministic_for_a_seed():
    d = copied_bit()
    first = audit_lemma3(d, trials=20, seed=5)
    second = audit_lemma3(d, trials=20, seed=5)
    assert first == second


# ---------------------------------------------------------------------------
# verdicts and result records


def test_verdict_carries_a_witness_exactly_when_it_fails():
    for holds, witness in ((True, {"a": "0"}), (False, None)):
        with pytest.raises(LabError) as err:
            Verdict("independence", holds, witness)
        assert err.value.code == "BAD_PARAM"
    v = Verdict("independence", False, {"a": "0"}, detail="why")
    assert v == Verdict("independence", False, {"a": "0"}, "why")
    assert v != Verdict("independence", False, {"a": "1"}, "why")
    assert repr(v) == (
        "Verdict(condition='independence', holds=False, witness={'a': '0'}, detail='why')"
    )
    assert hash(Verdict("functional", True)) == hash(Verdict("functional", True))


def test_result_records_are_immutable():
    verdict = check_independence(xor_triple(), "X", "Y")
    report = check_pointwise_product(xor_triple())
    audit = audit_lemma3(copied_bit(), trials=2, seed=1)
    for record, name in ((verdict, "holds"), (report, "equality"), (audit, "failures")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del verdict.witness
    assert Lemma3Audit(4).failures == ()
    assert Lemma3Audit(4).ok
