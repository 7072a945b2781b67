import random
from fractions import Fraction
from itertools import groupby
from operator import itemgetter
from pathlib import Path

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
from entroplab.distributions import JointDistribution, info_report, load_distribution
from entroplab.errors import PASS, PreconditionFailed, Verdict
from entroplab.families import gen_field_lines
from entroplab.inequalities import (
    delta_term,
    entropy_split_gap,
    gamma_term,
    ingleton_gap,
    reduced_ingleton_gap,
)

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
    assert check_independence(d).holds


def test_independence_detects_zero_cell_dependence():
    # support misses the (x2, y2) cell entirely
    d = dist(("X", "Y"), [("x1", "y1", 1), ("x1", "y2", 1), ("x2", "y1", 1)])
    v = check_independence(d)
    assert not v.holds
    assert v.witness == {"X": "x1", "Y": "y1"}


def test_xor_fails_ci_given_a_with_smallest_witness():
    v = check_ci_given(xor_triple())
    assert not v.holds
    assert v.witness == {"A": "0", "X": "0", "Y": "0"}


def test_fork_output_satisfies_ci_given_group():
    rng = random.Random(3)
    for _ in range(25):
        d = random_support_distribution(rng, ("A", "X", "Y"), max_size=3)
        f = markov_fork(d)
        assert check_ci_given(f).holds


def test_independent_bits_satisfy_ci():
    assert check_ci_given(independent_bits(("A", "X", "Y"))).holds


# ---------------------------------------------------------------------------
# functional dependence


def test_xor_is_functional():
    assert check_functional(xor_triple()).holds


def test_two_values_on_one_cell_yield_witness():
    d = dist(
        ("A", "X", "Y"),
        [("a1", "x1", "y1", 1), ("a2", "x1", "y1", 1), ("a1", "x2", "y2", 2)],
    )
    v = check_functional(d)
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


def scan_functional(d):
    for (x, y), values in _scan_fibres(d, ("X", "Y"), ("A",)).items():
        if len(values) > 1:
            (a,), (a2,) = values[:2]
            return Verdict(COND_FUNCTIONAL, {"X": x, "Y": y, "a": a, "a2": a2})
    return Verdict(COND_FUNCTIONAL)


def scan_support_saturation(d):
    taxy = d._table(("A", "X", "Y"))[0]
    ys_by_a = _scan_fibres(d, ("A",), ("Y",))
    for (a,), xs in _scan_fibres(d, ("A",), ("X",)).items():
        for (x,) in xs:
            for (y,) in ys_by_a[(a,)]:
                if (a, x, y) not in taxy:
                    return Verdict(COND_SUPPORT_SATURATION, {"a": a, "x": x, "y": y})
    return Verdict(COND_SUPPORT_SATURATION)


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
        return Verdict(COND_UNIQUE_COMMON_VALUE)
    a, a2, x, y = best
    return Verdict(COND_UNIQUE_COMMON_VALUE, {"a": a, "a2": a2, "x": x, "y": y})


SCANNED_CHECKS = [
    ("functional", check_functional, scan_functional),
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
        check_ci_given(warm)
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
    no (X, A) or (Y, A) table and no second table over {A, X, Y} exists."""
    d = load_distribution(gen_field_lines(3, "1/2").dumps())
    verdicts = {name: check(d) for name, check in _conditions().items()}
    assert verdicts["functional"].holds and verdicts["cond-2-B"].holds
    assert ("X", "A") not in d._tables and ("Y", "A") not in d._tables
    assert [names for names in d._tables if set(names) == {"A", "X", "Y"}] == [("A", "X", "Y")]


def test_cells_match_the_sorted_scans():
    """`cells(group)` splits the group + X and group + Y supports as the
    plain scans do, for no group, for A and for (A, B), a missing B read as
    the constant column; a second call returns the same cached list."""
    missing_b = 0
    for trial, d, _ in _seeded_supports():
        missing_b += "B" not in d.variables
        for group in ((), ("A",), ("A", "B")):
            xs = _scan_fibres(d, group, ("X",))
            ys = _scan_fibres(d, group, ("Y",))
            assert d.cells(group) == [(g, xs[g], ys[g]) for g in xs], (group, trial)
            assert d.cells(group) is d.cells(group)
        assert d.cells("A") is d.cells(("A",))
    assert missing_b


def test_failing_functional_check_reads_the_table_it_counted():
    """A failing `check_functional` takes its witness from the (A, X, Y) table
    it counted: no second table over {A, X, Y} is built."""
    path = Path(__file__).parent / "golden" / "inputs" / "random-ax.json"
    d = load_distribution(path.read_text(encoding="utf-8"))
    verdict = check_functional(d)
    assert verdict.witness == {"X": "0", "Y": "*", "a": "0", "a2": "1"}
    assert [names for names in d._tables if set(names) == {"A", "X", "Y"}] == [("A", "X", "Y")]


def test_info_report_and_lemma2_terms_build_one_table_per_variable_set():
    """`info report`'s measures, the three gaps and both error terms on the
    field-lines q=4 input with a B column leave no two cached tables over
    the same variables: H(X,A) reads the (A, X) table's entropy, bit for
    bit what an (X, A) table gives on a fresh copy."""
    path = Path(__file__).parent / "golden" / "inputs" / "field-lines-4-b2.json"
    d = load_distribution(path.read_text(encoding="utf-8"))
    info_report(d)
    for term in (ingleton_gap, reduced_ingleton_gap, entropy_split_gap, gamma_term, delta_term):
        term(d)
    variable_sets = [frozenset(names) for names in d._tables]
    assert len(variable_sets) == len(set(variable_sets))
    for names in (("X", "A"), ("Y", "A"), ("X", "Y", "A")):
        fresh = JointDistribution(d.variables, d.counts, d.denominator)
        assert fresh.entropy(names) == d.entropy(names)
        assert names in fresh._tables and names not in d._tables


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
            check_functional(d).holds
            == check_functional(other).holds
        )


# ---------------------------------------------------------------------------
# audits


def test_lemma1_audit_on_xor():
    audit = audit_lemma1(xor_triple())
    assert not audit.conditional_independence.holds
    assert audit.functional.holds
    assert not audit.support_saturation.holds
    assert not audit.unique_common_value.holds
    assert audit.status == PASS


def test_lemma1_audit_on_copied_bit():
    audit = audit_lemma1(copied_bit())
    assert audit.conditional_independence.holds
    assert audit.support_saturation.holds
    assert audit.unique_common_value.holds
    assert audit.functional.holds
    assert audit.status == PASS


def test_lemma1_audit_finds_no_violation_on_fuzzed_distributions():
    rng = random.Random(41)
    for _ in range(1000):
        d = random_support_distribution(rng, ("A", "X", "Y"), max_size=3)
        audit = audit_lemma1(d)
        assert audit.status == PASS, audit.to_json_dict()


@settings(max_examples=150, deadline=None)
@given(sparse_triples())
def test_lemma1_implications_hold_under_hypothesis(d):
    assert audit_lemma1(d).status == PASS


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
    assert audit.status == PASS
    assert audit.trials == 100


def test_lemma3_is_deterministic_for_a_seed():
    d = copied_bit()
    first = audit_lemma3(d, trials=20, seed=5)
    second = audit_lemma3(d, trials=20, seed=5)
    assert first == second


# ---------------------------------------------------------------------------
# verdicts and result records


def test_verdict_holds_exactly_when_it_has_no_witness():
    passed = Verdict("functional")
    assert passed.holds and passed.witness is None
    assert passed.require() is None
    assert passed.to_json_dict() == {"condition": "functional", "holds": True, "witness": None}
    v = Verdict("independence", {"a": "0"}, detail="why")
    assert not v.holds
    with pytest.raises(PreconditionFailed) as err:
        v.require()
    assert (err.value.code, err.value.witness) == ("PRECONDITION_FAILED", {"a": "0"})
    assert str(err.value) == "independence fails: why"
    with pytest.raises(PreconditionFailed, match=r"^independence fails$"):
        Verdict("independence", {"a": "0"}).require()
    assert v == Verdict("independence", {"a": "0"}, "why")
    assert v != Verdict("independence", {"a": "1"}, "why")
    assert repr(v) == "Verdict(condition='independence', witness={'a': '0'}, detail='why')"
    assert hash(Verdict("functional")) == hash(Verdict("functional", None, ""))


def test_result_records_are_immutable():
    verdict = check_independence(xor_triple())
    report = check_pointwise_product(xor_triple())
    audit = audit_lemma3(copied_bit(), trials=2, seed=1)
    for record, name in ((verdict, "witness"), (report, "equality"), (audit, "failures")):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        del verdict.witness
    assert Lemma3Audit(4).failures == ()
    assert Lemma3Audit(4).status == PASS
