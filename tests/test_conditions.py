import random
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import given, settings

from entroplab.cli import _conditions
from entroplab.conditions import (
    COND_FUNCTIONAL,
    COND_SUPPORT_SATURATION,
    COND_UNIQUE_COMMON_VALUE,
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
from entroplab.distributions import JointDistribution, load_distribution
from entroplab.errors import LabError, PreconditionFailed, Verdict
from entroplab.families import gen_field_lines

from conftest import (
    copied_bit,
    independent_bits,
    markov_fork,
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
        f = markov_fork(d)
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
    # walking a, b, c, d meets the (b, c) clash first, but (a, d) is smaller
    d = dist(
        ("A", "X", "Y"),
        [
            ("a", "x2", "y2", 1),
            ("d", "x2", "y2", 1),
            ("b", "x1", "y1", 1),
            ("c", "x1", "y1", 1),
        ],
    )
    v = check_unique_common_value(d)
    assert not v.holds
    assert v.witness == {"a": "a", "a2": "d", "x": "x2", "y": "y2"}


def test_pairs_triple_fails_unique_common_value():
    assert not check_unique_common_value(pairs_triple(5)).holds


# ---------------------------------------------------------------------------
# counting first: the support checks against plain sorted scans
#
# The scans below group every table themselves and test each cell, as the
# checks did before they decided a passing case by counting table cells.


def _scan_fibres(d, group, rest):
    width = len(group)
    keys = sorted(d._table(group + rest)[0])
    return {cell: [key[width:] for key in run]
            for cell, run in groupby(keys, itemgetter(slice(width)))}


def scan_functional(d, target=("A",), given=("X", "Y")):
    for cell, values in _scan_fibres(d, given, target).items():
        if len(values) > 1:
            witness = dict(zip(given, cell))
            for key, value in zip(("a", "a2"), values):
                witness[key] = value[0] if len(value) == 1 else list(value)
            return Verdict(COND_FUNCTIONAL, False, witness)
    return Verdict(COND_FUNCTIONAL, True)


def scan_support_saturation(d):
    taxy = d._table(("A", "X", "Y"))[0]
    ys_by_a = _scan_fibres(d, ("A",), ("Y",))
    for (a,), xs in _scan_fibres(d, ("A",), ("X",)).items():
        for (x,) in xs:
            for (y,) in ys_by_a[(a,)]:
                if (a, x, y) not in taxy:
                    return Verdict(COND_SUPPORT_SATURATION, False, {"a": a, "x": x, "y": y})
    return Verdict(COND_SUPPORT_SATURATION, True)


def scan_unique_common_value(d):
    by_x = {x: {a for (a,) in cells} for (x,), cells in _scan_fibres(d, ("X",), ("A",)).items()}
    by_y = {y: {a for (a,) in cells} for (y,), cells in _scan_fibres(d, ("Y",), ("A",)).items()}
    best = None
    for x in by_x:
        for y in by_y:
            common = sorted(by_x[x] & by_y[y])
            if len(common) > 1 and (best is None or (*common[:2], x, y) < best):
                best = (*common[:2], x, y)
    if best is None:
        return Verdict(COND_UNIQUE_COMMON_VALUE, True)
    a, a2, x, y = best
    return Verdict(COND_UNIQUE_COMMON_VALUE, False, {"a": a, "a2": a2, "x": x, "y": y})


SCANNED_CHECKS = [
    ("functional", check_functional, scan_functional),
    ("functional of (A, B) given X",
     lambda d: check_functional(d, ("A", "B"), "X"),
     lambda d: scan_functional(d, ("A", "B"), ("X",))),
    ("cond-2-B", check_support_saturation, scan_support_saturation),
    ("cond-2-C", check_unique_common_value, scan_unique_common_value),
]


def _seeded_supports():
    # (trial, d, warm): random supports over every role set the checks read
    # (a missing B or Y is a constant column), dense and conditioned down to
    # a few atoms, and a copy whose (A, X, Y) table is already cached, as
    # `check --all` leaves it
    role_sets = [("A", "B", "X", "Y"), ("A", "X", "Y"), ("A", "X"), ("X", "A", "B")]
    rng = random.Random(16)
    for trial in range(400):
        d = random_support_distribution(rng, role_sets[trial % 4], max_size=3)
        if trial % 3 == 0:
            kept = rng.sample(sorted(d.counts), rng.randint(1, len(d.counts)))
            d = d.condition(kept)
        warm = JointDistribution(d.variables, d.counts, d.denominator)
        check_ci_given(warm, "X", "Y", "A")
        yield trial, d, warm


def test_counting_checks_match_the_sorted_scans():
    """Same holds, witness and detail as the plain scans, on random supports
    over every role set the checks read, dense and conditioned down to a few
    atoms; both on a fresh distribution and on one whose (A, X, Y) table is
    already cached."""
    outcomes = set()
    for trial, d, warm in _seeded_supports():
        for name, check, scan in SCANNED_CHECKS:
            expected = scan(d)
            for fresh in (JointDistribution(d.variables, d.counts, d.denominator), warm):
                assert check(fresh) == expected, (name, trial)  # condition, holds, witness, detail
            outcomes.add((name, expected.holds))
    assert len(outcomes) == 2 * len(SCANNED_CHECKS)  # each check both held and failed


def test_every_check_groups_each_table_once():
    """After every check of `check --all` on a loaded field-lines q=8 input,
    no (X, A) or (Y, A) table and no second table over {A, X, Y} exists,
    and a second fibre request returns the cached map."""
    d = load_distribution(gen_field_lines(3, "1/2").dumps())
    verdicts = {name: check(d) for name, check in _conditions().items()}
    assert verdicts["functional"].holds and verdicts["cond-2-B"].holds
    assert ("X", "A") not in d._tables and ("Y", "A") not in d._tables
    assert [names for names in d._tables if set(names) == {"A", "X", "Y"}] == [("A", "X", "Y")]
    assert d.fibres("A", "X") is d.fibres(("A",), ("X",))
    assert d.fibres(("A", "B"), "Y") is d.fibres(("A", "B"), "Y")


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
