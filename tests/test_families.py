import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroplab.conditions import (
    check_independence,
    check_pointwise_product,
    check_support_saturation,
    check_unique_common_value,
)
from entroplab.cli import run
from entroplab.distributions import JointDistribution, load_distribution
from entroplab.errors import LabError, TooLarge
from entroplab.families import (
    ATOM_BUDGET,
    _gf_mul,
    extend_with_random_B,
    gen_disjoint_sets,
    gen_distinct_pairs,
    gen_field_lines,
    sample_cond2c,
    sample_random_distribution,
)
from entroplab.inequalities import entropy_split_gap, verify_theorem1, verify_theorem2

from conftest import disjoint_sets_split_gap, pairs_triple

TOL = 1e-9


# ---------------------------------------------------------------------------
# distinct pairs


def test_distinct_pairs_matches_hand_built_oracle():
    for n in (2, 3, 5):
        assert gen_distinct_pairs(n) == pairs_triple(n)


def test_distinct_pairs_shape():
    d = gen_distinct_pairs(3)
    assert len(d.atoms) == 6
    assert len(d.alphabet("A")) == 3
    assert d.entropy("A") == pytest.approx(math.log2(3), abs=TOL)


def test_distinct_pairs_degenerate():
    d = gen_distinct_pairs(2)
    assert len(d.atoms) == 2
    assert d.entropy("A") == 0.0
    assert entropy_split_gap(d).gap == pytest.approx(0.0, abs=TOL)


@pytest.mark.parametrize("bad", [1, 0, -3, "5"])
def test_distinct_pairs_rejects_bad_n(bad):
    with pytest.raises(LabError) as err:
        gen_distinct_pairs(bad)
    assert err.value.code == "BAD_PARAM"


def test_distinct_pairs_keeps_the_atom_budget(monkeypatch):
    monkeypatch.setattr("entroplab.families.ATOM_BUDGET", 5)
    assert len(gen_distinct_pairs(2).counts) == 2
    with pytest.raises(TooLarge):
        gen_distinct_pairs(3)


# ---------------------------------------------------------------------------
# disjoint sets


def test_disjoint_sets_reduces_to_distinct_pairs_at_k_one():
    for n in (2, 3, 4, 6):
        ds, pairs = gen_disjoint_sets(n, 1), gen_distinct_pairs(n)
        strip = {"{%d}" % i: str(i) for i in range(1, n + 1)}
        relabelled = {(a, strip[x], strip[y]): c for (a, x, y), c in ds.counts.items()}
        assert (ds.variables, ds.denominator) == (pairs.variables, pairs.denominator)
        assert relabelled == pairs.counts


def test_disjoint_sets_entropies_match_closed_forms():
    for n, k in ((4, 1), (6, 2), (9, 3), (20, 2)):
        d = gen_disjoint_sets(n, k)
        assert len(d.atoms) == math.comb(n, k) * math.comb(n - k, k)
        assert d.entropy("A") == pytest.approx(math.log2(math.comb(n, 2 * k)), abs=TOL)
        assert d.cond_entropy("A", "X") == pytest.approx(
            math.log2(math.comb(n - k, k)), abs=TOL
        )
        assert d.cond_entropy("A", "Y") == pytest.approx(
            math.log2(math.comb(n - k, k)), abs=TOL
        )


def test_disjoint_sets_uniform_masses():
    d = gen_disjoint_sets(6, 2)
    assert set(d.atoms.values()) == {Fraction(1, 90)}
    assert len(d.alphabet("A")) == 15


def test_disjoint_sets_gap_matches_enumeration():
    for n, k in ((5, 2), (8, 2), (20, 2)):
        d = gen_disjoint_sets(n, k)
        assert entropy_split_gap(d).gap == pytest.approx(disjoint_sets_split_gap(n, k), abs=TOL)


def test_disjoint_sets_gap_limit():
    # the violation approaches log2 C(2k,k) from below as n grows
    assert disjoint_sets_split_gap(20, 2) == pytest.approx(-2.2724947350828604, abs=1e-9)
    assert abs(disjoint_sets_split_gap(200, 2)) == pytest.approx(math.log2(6), abs=0.05)
    assert abs(disjoint_sets_split_gap(200, 2)) < math.log2(6)


def test_disjoint_sets_refuses_huge_enumerations():
    with pytest.raises(TooLarge):
        gen_disjoint_sets(200, 2)


@pytest.mark.parametrize("n,k", [(3, 2), (4, 0), (5, 3), (2, 2), (6.5, 2), ("6", 2)])
def test_disjoint_sets_rejects_bad_params(n, k):
    with pytest.raises(LabError) as err:
        gen_disjoint_sets(n, k)
    assert err.value.code == "BAD_PARAM"


# ---------------------------------------------------------------------------
# field lines


def test_gf_multiplication_table_for_four_elements():
    # x^2 + x + 1: (x)*(x) = x+1, (x)*(x+1) = 1, (x+1)*(x+1) = x
    assert _gf_mul(2, 2, 2) == 3
    assert _gf_mul(2, 3, 2) == 1
    assert _gf_mul(3, 3, 2) == 2
    assert _gf_mul(0, 3, 2) == 0
    assert _gf_mul(1, 3, 2) == 3


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 8), st.data())
def test_gf_field_axioms(k_exp, data):
    q = 1 << k_exp
    a = data.draw(st.integers(0, q - 1))
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1))
    assert _gf_mul(a, b, k_exp) == _gf_mul(b, a, k_exp)
    assert _gf_mul(a, _gf_mul(b, c, k_exp), k_exp) == _gf_mul(_gf_mul(a, b, k_exp), c, k_exp)
    assert _gf_mul(a, b ^ c, k_exp) == _gf_mul(a, b, k_exp) ^ _gf_mul(a, c, k_exp)
    if a and b:
        assert _gf_mul(a, b, k_exp) != 0
    assert _gf_mul(a, 1, k_exp) == a


def test_field_lines_exact_marginals_q4():
    d = gen_field_lines(2, Fraction(1, 2))
    # a uniform table of m cells is m counts of 1 over m
    for names, cells in ((("A",), 16), (("A", "X"), 32), (("A", "Y"), 32), (("X",), 8),
                         (("Y",), 8)):
        counts, den = d._table(names)
        assert (set(counts.values()), den) == ({1}, cells), names


def test_field_lines_marginals_hold_for_any_parameters():
    for k_exp, delta in ((2, 0), (2, Fraction(-1, 3)), (3, Fraction(1, 2)), (3, Fraction(7, 8))):
        d = gen_field_lines(k_exp, delta)
        q = 1 << k_exp
        for names, cells in ((("A", "X"), q**3 // 2), (("X",), q**2 // 2), (("A",), q**2)):
            counts, den = d._table(names)
            assert (set(counts.values()), den) == ({1}, cells), (k_exp, delta, names)


def test_field_lines_support_saturation_and_product_equality():
    d = gen_field_lines(2, Fraction(1, 2))
    assert check_support_saturation(d).holds
    report = check_pointwise_product(d)
    assert report.holds
    assert report.equality
    assert report.max_ratio == 1


def test_field_lines_correlation_is_tunable():
    coupled = gen_field_lines(2, Fraction(1, 2))
    assert coupled.mutual_info("X", "Y") == pytest.approx(0.18872187554086717, abs=TOL)
    flat = gen_field_lines(2, 0)
    assert check_independence(flat).holds
    assert flat.mutual_info("X", "Y") == pytest.approx(0.0, abs=TOL)


def test_field_lines_uniform_coupling_masses():
    flat = gen_field_lines(2, 0)
    assert set(flat.atoms.values()) == {Fraction(1, 64)}
    counts, den = flat._table(("X", "Y"))
    assert (set(counts.values()), den) == ({1}, 64)


def test_field_lines_satisfy_unique_common_value():
    # the abscissa halves are disjoint, so exactly one line passes through
    # any (x, y) grid pair; the split is tight: H(A|X)+H(A|Y) = H(A)
    for delta in (0, Fraction(1, 2)):
        d = gen_field_lines(2, delta)
        assert check_unique_common_value(d).holds
        cert = verify_theorem1(d)
        assert cert.status == "PASS"
        assert cert.gap.gap == pytest.approx(0.0, abs=TOL)


@pytest.mark.parametrize("k_exp,delta", [(1, 0), (0, 0), (2, 1), (2, -1), (2, "3/2")])
def test_field_lines_rejects_bad_params(k_exp, delta):
    with pytest.raises(LabError) as err:
        gen_field_lines(k_exp, delta)
    assert err.value.code == "BAD_PARAM"


def test_field_lines_refuses_huge_fields():
    with pytest.raises(TooLarge):
        gen_field_lines(6, 0)


# ---------------------------------------------------------------------------
# samplers


def test_sample_random_distribution_is_deterministic():
    a = sample_random_distribution(("A", "B", "X", "Y"), (2, 2, 2, 2), seed=7)
    b = sample_random_distribution(("A", "B", "X", "Y"), (2, 2, 2, 2), seed=7)
    assert a == b
    assert a.fingerprint() == b.fingerprint()
    assert len(a.atoms) == 16
    assert a != sample_random_distribution(("A", "B", "X", "Y"), (2, 2, 2, 2), seed=8)


def test_sample_random_distribution_single_atom():
    d = sample_random_distribution(("A", "B", "X", "Y"), (1, 1, 1, 1), seed=1)
    assert d.atoms == {("0", "0", "0", "0"): Fraction(1)}


def test_sample_random_distribution_round_trips():
    for seed in range(100):
        d = sample_random_distribution(("A", "X", "Y"), (3, 2, 2), seed=seed)
        assert load_distribution(d.dumps()) == d


def test_sample_random_distribution_rejects_bad_sizes():
    with pytest.raises(LabError):
        sample_random_distribution(("A", "B"), (2,), seed=0)
    with pytest.raises(LabError):
        sample_random_distribution(("A",), (0,), seed=0)
    with pytest.raises(LabError):
        sample_random_distribution(("A", "B"), (1000, 1000), seed=0)


def test_sample_cond2c_support_is_admissible():
    for seed in range(200):
        d = sample_cond2c(seed, (4, 2, 4, 4))
        assert check_unique_common_value(d).holds


def test_sample_cond2c_feeds_theorem1():
    for seed in range(50):
        cert = verify_theorem1(sample_cond2c(seed, (3, 2, 3, 3)))
        assert cert.status == "PASS"


def test_sample_cond2c_deterministic():
    assert sample_cond2c(11, (4, 2, 4, 4)) == sample_cond2c(11, (4, 2, 4, 4))


def test_sample_cond2c_single_color_is_trivially_admissible():
    d = sample_cond2c(3, (1, 2, 3, 3))
    assert check_unique_common_value(d).holds
    assert d.alphabet("A") == ["0"]


def test_extend_with_random_b_preserves_marginal():
    base = gen_field_lines(2, Fraction(1, 2))
    ext = extend_with_random_B(base, 3, seed=5)
    assert ext.variables == ("A", "B", "X", "Y")
    assert ext._table(("A", "X", "Y")) == (base.counts, base.denominator)
    assert extend_with_random_B(base, 3, seed=5) == ext


@pytest.mark.parametrize("b_size", [1, 2, 5])
def test_extend_with_random_b_shares_one_denominator(b_size):
    random_base = sample_random_distribution(("A", "X", "Y"), (2, 3, 2), seed=4)
    for base in (gen_field_lines(3, Fraction(1, 3)), random_base):
        ext = extend_with_random_B(base, b_size, seed=b_size)
        assert base.denominator * 2**20 % ext.denominator == 0
        # every B cell is positive: no atom dropped as a zero count
        assert len(ext.counts) == len(base.counts) * b_size
        assert min(ext.counts.values()) > 0
        assert ext._table(("A", "X", "Y")) == (base.counts, base.denominator)


def test_extend_with_random_b_is_a_pure_function_of_the_seed():
    one = JointDistribution(("A", "X", "Y"), {("a", "x", "y"): 1}, 1)
    ext = extend_with_random_B(one, 3, seed=0)
    assert extend_with_random_B(one, 3, seed=0) == ext
    assert extend_with_random_B(one, 3, seed=1) != ext
    # the cut points 403959 < 885441 of 2^20, the same on every supported Python
    assert ext.counts == {("a", "0", "x", "y"): 403959, ("a", "1", "x", "y"): 481482,
                          ("a", "2", "x", "y"): 163135}
    assert ext.denominator == 2**20


def test_extend_with_random_b_at_the_atom_budget():
    # 2^20 - 1 possible cut points leave room for any b_size the budget admits
    one = JointDistribution(("A", "X", "Y"), {("a", "x", "y"): 1}, 1)
    ext = extend_with_random_B(one, ATOM_BUDGET, seed=2)
    assert len(ext.counts) == ATOM_BUDGET
    assert 2**20 % ext.denominator == 0


def test_catalog_b_column_adds_at_most_twenty_bits():
    base_bits = gen_field_lines(4, Fraction(1, 2)).denominator.bit_length()
    outcome = run(["catalog", "gen", "--family", "field-lines", "--q-exp", "4", "--delta=1/2",
                   "--b-size", "2", "--seed", "1"])
    assert outcome.exit_code == 0
    atoms = json.loads(outcome.text)["atoms"]
    assert len(atoms) == 2 * 16**4 // 4
    common = math.lcm(*(Fraction(atom["p"]).denominator for atom in atoms))
    assert common.bit_length() <= base_bits + 20


def test_extend_with_constant_b():
    base = gen_distinct_pairs(3)
    ext = extend_with_random_B(base, 1, seed=0)
    assert ext.alphabet("B") == ["0"]
    assert ext._table(("A", "X", "Y")) == (base.counts, base.denominator)


def test_extend_with_random_b_rejects_existing_b():
    d = sample_random_distribution(("A", "B", "X"), (2, 2, 2), seed=0)
    with pytest.raises(LabError):
        extend_with_random_B(d, 2, seed=0)
    with pytest.raises(LabError):
        extend_with_random_B(gen_distinct_pairs(2), 0, seed=0)


def test_field_lines_extensions_pass_theorem2():
    base = gen_field_lines(2, Fraction(1, 2))
    for seed in range(20):
        cert = verify_theorem2(extend_with_random_B(base, 2, seed=seed))
        assert cert.status == "PASS"
        assert cert.gap.gap >= -TOL
