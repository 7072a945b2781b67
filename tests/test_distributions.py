import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from entroplab.distributions import JointDistribution, info_report, load_distribution
from entroplab.errors import LabError, _ratio
from entroplab.families import extend_with_random_B, sample_random_distribution
from entroplab.inequalities import log2_fraction

from conftest import (
    GOLDEN_DISTRIBUTIONS,
    copied_bit,
    independent_bits,
    markov_fork,
    pairs_triple,
    random_support_distribution,
    reference_dumps,
    xor_triple,
)

TOL = 1e-9


# ---------------------------------------------------------------------------
# parsing and validation


def doc_of(d):
    return json.loads(d.dumps())


def test_load_round_trip_is_fixed_point():
    d = xor_triple()
    text = d.dumps()
    again = load_distribution(text)
    assert again == d
    assert again.dumps() == text


def test_load_accepts_integer_and_string_probabilities():
    doc = {
        "variables": ["A"],
        "atoms": [
            {"values": {"A": "a"}, "p": "1/2"},
            {"values": {"A": "b"}, "p": "2/4"},
        ],
    }
    d = load_distribution(json.dumps(doc))
    assert d.atoms[("a",)] == Fraction(1, 2)
    single = load_distribution({"variables": ["A"], "atoms": [{"values": {"A": "a"}, "p": 1}]})
    assert single.atoms[("a",)] == 1


def test_load_rejects_bad_sum():
    doc = {"variables": ["A"], "atoms": [{"values": {"A": "a"}, "p": "1/3"}]}
    with pytest.raises(LabError) as err:
        load_distribution(doc)
    assert err.value.code == "SUM_NOT_ONE"


def test_load_rejects_duplicate_atom():
    doc = {
        "variables": ["A"],
        "atoms": [
            {"values": {"A": "a"}, "p": "1/2"},
            {"values": {"A": "a"}, "p": "1/2"},
        ],
    }
    with pytest.raises(LabError) as err:
        load_distribution(doc)
    assert err.value.code == "DUPLICATE_ATOM"


def test_load_rejects_negative_mass():
    doc = {
        "variables": ["A"],
        "atoms": [
            {"values": {"A": "a"}, "p": "3/2"},
            {"values": {"A": "b"}, "p": "-1/2"},
        ],
    }
    with pytest.raises(LabError) as err:
        load_distribution(doc)
    assert err.value.code == "NEGATIVE_PROB"


def test_load_drops_zero_atoms_with_warning():
    doc = {
        "variables": ["A"],
        "atoms": [
            {"values": {"A": "a"}, "p": "1"},
            {"values": {"A": "b"}, "p": 0},
        ],
    }
    with pytest.warns(UserWarning, match="dropped 1 zero-mass"):
        d = load_distribution(doc)
    assert set(d.atoms) == {("a",)}


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all {",
        {"variables": ["A"]},
        {"variables": ["A"], "atoms": [{"values": {"B": "b"}, "p": 1}]},
        {"variables": ["A"], "atoms": [{"values": {"A": "a"}, "p": 0.5}]},
        {"variables": ["A"], "atoms": [{"values": {"A": "a"}, "p": 1}], "extra": 1},
        {"variables": ["A", "A"], "atoms": [{"values": {"A": "a"}, "p": 1}]},
        {"variables": [["A"]], "atoms": [{"values": {}, "p": 1}]},
        b"\xff not UTF-8",
    ],
)
def test_load_rejects_malformed_documents(doc):
    with pytest.raises(LabError) as err:
        load_distribution(doc)
    assert err.value.code in {"SCHEMA_ERROR"}


def _atoms(*masses):
    return {"variables": ["A"],
            "atoms": [{"values": {"A": f"a{i}"}, "p": p} for i, p in enumerate(masses)]}


def test_load_parses_a_run_of_equal_masses_once_with_the_same_errors():
    """A run of equal mass strings is parsed once: a bad string repeated
    still fails as it does alone, a float is refused after an equal string
    or integer mass, and equal strings after a different one still load."""
    for bad in ("x/y", "1/0", "1e-99999"):
        with pytest.raises(LabError) as alone:
            load_distribution(_atoms(bad, "1"))
        with pytest.raises(LabError) as repeated:
            load_distribution(_atoms(bad, bad, bad))
        assert (repeated.value.code, str(repeated.value)) == ("SCHEMA_ERROR", str(alone.value))
    for masses in (("1/2", 0.5), ("1/2", "1/2", 0.5), (1, 1.0), ("0", 0.0, "1")):
        with pytest.raises(LabError) as err:
            load_distribution(_atoms(*masses))
        assert (err.value.code, str(err.value)) == (
            "SCHEMA_ERROR", "probabilities must be strings or integers")
    d = load_distribution(_atoms("1/4", "1/4", "1/8", "1/4", "1/8"))
    assert [d.atoms[(f"a{i}",)] for i in range(5)] == [Fraction(1, 4)] * 2 + [
        Fraction(1, 8), Fraction(1, 4), Fraction(1, 8)]


MASS_STRINGS = [
    "1/2", " 1/2 ", "+1/2", "0.5", "5e-1", "1_0/20", "\u0663/4", "1/ 2", "1/0",
    "-1/2", "1//2", "", "nan", "0x1/2",
]


@pytest.mark.parametrize("text", MASS_STRINGS)
def test_mass_strings_parse_exactly_as_fraction_does(text):
    """Plain n/d strings skip Fraction in `_ratio`; the accepted strings,
    their values and the error codes must still be Fraction's on this
    interpreter, except that "_" digit separators, which Fraction takes only
    from Python 3.11 on, are refused on every version."""
    try:
        expected = None if "_" in text else Fraction(text)
    except (ValueError, ZeroDivisionError):
        expected = None
    if expected is None:
        with pytest.raises(LabError) as err:
            _ratio(text)
        assert err.value.code == "SCHEMA_ERROR"
    else:
        assert _ratio(text) == (expected.numerator, expected.denominator)
    rest = Fraction(1, 2) if expected is None else 1 - expected
    doc = {
        "variables": ["A"],
        "atoms": [{"values": {"A": "a"}, "p": text}, {"values": {"A": "b"}, "p": str(rest)}],
    }
    if expected is not None and expected > 0:
        assert load_distribution(doc).atoms[("a",)] == expected
    else:
        with pytest.raises(LabError) as err:
            load_distribution(doc)
        assert err.value.code == ("SCHEMA_ERROR" if expected is None else "NEGATIVE_PROB")


@pytest.mark.parametrize(
    "d",
    [
        JointDistribution((), {(): 1}, 1),
        JointDistribution(
            ("A", 'q"\\%s', "\u00e9\u2603"),
            {
                ('"', "\\", "\n\t\x00\x1f\x7f"): 2,
                ("\u00fc", "\u2603", "\U0001d11e"): 1,
                ("%s", "%%", "%(x)s"): 3,
            },
            6,
        ),
        extend_with_random_B(
            sample_random_distribution(("A", "X", "Y"), (3, 2, 2), seed=5), 3, seed=6
        ),
        JointDistribution(("%", "%%s", "100%(x)s"), {("a", "b", "c"): 1}, 1),
        JointDistribution(("A", "X"), {("\u00e9", "\u2603"): 1, ("\u03b1", "\U0001d11e"): 1}, 2),
        JointDistribution(("A", "X"), {("a", "0"): 3, ("b", "1"): 0}, 3),
        *(load_distribution(path.read_text(encoding="utf-8")) for path in GOLDEN_DISTRIBUTIONS),
    ],
    ids=["no-variables", "escaped-symbols", "large-denominators", "percent-names",
         "non-ascii-symbols", "denominator-one",
         *(f"golden-{path.stem}" for path in GOLDEN_DISTRIBUTIONS)],
)
def test_emission_has_the_bytes_of_json_dumps(d):
    assert d.dumps() == reference_dumps(d)
    assert load_distribution(d.dumps()) == d


def test_emission_is_canonical_and_sorted():
    atoms = {("b", "1"): 2, ("a", "2"): 2}
    d = JointDistribution(("A", "X"), atoms, 4)
    doc = doc_of(d)
    assert [r["values"]["A"] for r in doc["atoms"]] == ["a", "b"]
    assert doc["atoms"][0]["p"] == "1/2"


# ---------------------------------------------------------------------------
# marginal tables / condition


def test_marginal_merges_atoms_exactly():
    d = pairs_triple(3)
    assert d._table("A") == ({("{1,2}",): 1, ("{1,3}",): 1, ("{2,3}",): 1}, 3)


def test_marginal_of_all_variables_is_identity():
    d = xor_triple()
    assert d._table(("A", "X", "Y")) == (d.counts, d.denominator)


def test_marginal_respects_requested_order():
    d = xor_triple()
    counts, den = d._table(("X", "A"))
    assert list(counts) == [(x, a) for a, x, _ in d.counts]
    assert Fraction(counts[("0", "0")], den) == Fraction(1, 4)


def _lowest_terms_cases():
    # a reduced map whose one-column tables reduce, a reducible small map,
    # and 7,500-bit counts sharing a 3,000-bit factor
    cube = [(a, x, y) for a in "01" for x in "012" for y in "012"]
    yield dict.fromkeys(cube[:4], 1), 4
    yield {("0", "0", "0"): 2, ("0", "1", "1"): 4, ("1", "1", "0"): 6}, 12
    rng = random.Random(19)
    shared = rng.getrandbits(3000) | 1 << 2999 | 1
    counts = {cell: shared * (rng.getrandbits(4500) | 1 << 4499) for cell in cube}
    yield counts, sum(counts.values())


def test_counts_and_tables_are_in_lowest_terms():
    """The constructor and every `_table` divide out the gcd of the counts and
    the denominator, and keep the masses that Fraction arithmetic gives."""
    for counts, den in _lowest_terms_cases():
        masses = {cell: Fraction(n, den) for cell, n in counts.items()}
        d = JointDistribution(("A", "X", "Y"), counts, den)
        assert math.gcd(d.denominator, *d.counts.values()) == 1
        assert dict(d.atoms) == masses
        for names in [("A", "X", "Y"), ("A", "X"), ("X", "Y"), ("A",), ("Y",)]:
            cols = [d.variables.index(name) for name in names]
            expected = {}
            for cell, p in masses.items():
                key = tuple(cell[c] for c in cols)
                expected[key] = expected.get(key, 0) + p
            table, table_den = d._table(names)
            assert math.gcd(table_den, *table.values()) == 1, names
            assert {key: Fraction(n, table_den) for key, n in table.items()} == expected, names
    assert d.denominator.bit_length() < den.bit_length() - 2990  # the shared factor is gone


def test_marginal_unknown_variable():
    with pytest.raises(LabError) as err:
        xor_triple()._table("Q")
    assert err.value.code == "UNKNOWN_VARIABLE"


def test_condition_on_constraint_renormalizes():
    d = pairs_triple(3)
    c = d.condition({"X": "1"})
    assert sum(c.atoms.values()) == 1
    assert c.atoms[("{1,2}", "1", "2")] == Fraction(1, 2)
    assert c.atoms[("{1,3}", "1", "3")] == Fraction(1, 2)


def test_condition_on_atom_set_and_whole_space():
    d = xor_triple()
    assert d.condition(set(d.atoms)) == d
    half = d.condition([("0", "0", "0"), ("0", "1", "1")])
    assert half.atoms[("0", "0", "0")] == Fraction(1, 2)


def test_condition_zero_mass_event():
    with pytest.raises(LabError) as err:
        xor_triple().condition({"X": "7"})
    assert err.value.code == "ZERO_MASS_EVENT"


# ---------------------------------------------------------------------------
# entropies and mutual information


def test_xor_entropies():
    d = xor_triple()
    assert d.entropy("A") == pytest.approx(1.0, abs=TOL)
    assert d.entropy(("X", "Y")) == pytest.approx(2.0, abs=TOL)
    assert d.entropy(("A", "X", "Y")) == pytest.approx(2.0, abs=TOL)
    assert d.entropy(()) == 0.0
    assert d.cond_entropy("A", ("X", "Y")) == pytest.approx(0.0, abs=TOL)
    assert d.cond_entropy("A", "X") == pytest.approx(1.0, abs=TOL)


def test_pairs_triple_entropies_match_closed_forms():
    for n in (3, 5):
        d = pairs_triple(n)
        assert d.entropy("A") == pytest.approx(math.log2(math.comb(n, 2)), abs=TOL)
        assert d.cond_entropy("A", "X") == pytest.approx(math.log2(n - 1), abs=TOL)


def test_xor_mutual_informations():
    d = xor_triple()
    assert d.mutual_info("X", "Y") == pytest.approx(0.0, abs=TOL)
    assert d.mutual_info("X", "Y", "A") == pytest.approx(1.0, abs=TOL)
    assert d.mutual_info(("X", "Y"), "A") == pytest.approx(1.0, abs=TOL)
    assert d.triple_mutual_info("X", "Y", "A") == pytest.approx(-1.0, abs=TOL)


def test_copied_bit_triple_information_is_positive():
    d = copied_bit()
    assert d.triple_mutual_info("X", "Y", "A") == pytest.approx(1.0, abs=TOL)


def test_overlapping_sets_rejected():
    d = xor_triple()
    with pytest.raises(LabError) as err:
        d.cond_entropy("A", ("A", "X"))
    assert err.value.code == "OVERLAPPING_SETS"
    with pytest.raises(LabError):
        d.mutual_info(("A", "X"), "X")


def test_entropy_of_deterministic_variable_is_zero():
    d = JointDistribution(("A",), {("a",): 1}, 1)
    assert d.entropy("A") == 0.0


def test_triple_information_expressions_agree_on_fuzzed_distributions():
    rng = random.Random(7)
    for _ in range(1000):
        d = random_support_distribution(rng, ("A", "X", "Y"), max_size=3)
        i1 = d.mutual_info("X", "Y") - d.mutual_info("X", "Y", "A")
        i2 = d.mutual_info("A", "X") - d.mutual_info("A", "X", "Y")
        i3 = d.mutual_info("A", "Y") - d.mutual_info("A", "Y", "X")
        i4 = (
            d.entropy("A")
            + d.entropy("X")
            + d.entropy("Y")
            - d.entropy(("A", "X"))
            - d.entropy(("A", "Y"))
            - d.entropy(("X", "Y"))
            + d.entropy(("A", "X", "Y"))
        )
        reference = d.triple_mutual_info("X", "Y", "A")
        for other in (i1, i2, i3, i4):
            assert other == pytest.approx(reference, abs=TOL)


@st.composite
def small_distributions(draw):
    sizes = draw(st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)))
    cells = [
        (str(a), str(x), str(y))
        for a in range(sizes[0])
        for x in range(sizes[1])
        for y in range(sizes[2])
    ]
    support = draw(st.sets(st.sampled_from(cells), min_size=1))
    nums = draw(
        st.lists(st.integers(1, 50), min_size=len(support), max_size=len(support))
    )
    return JointDistribution(("A", "X", "Y"), dict(zip(sorted(support), nums)), sum(nums))


@settings(max_examples=100, deadline=None)
@given(small_distributions())
def test_conditioning_reduces_entropy_on_average(d):
    assert d.cond_entropy("A", ("X", "Y")) <= d.entropy("A") + TOL
    assert d.mutual_info("A", ("X", "Y")) >= -TOL


@settings(max_examples=100, deadline=None)
@given(small_distributions())
def test_marginal_masses_stay_exact(d):
    for variables in (("A",), ("A", "X"), ("X", "Y")):
        counts, den = d._table(variables)
        assert sum(counts.values()) == den
        assert all(n > 0 for n in counts.values())


# ---------------------------------------------------------------------------
# Markov fork


def test_fork_of_xor_fills_the_cube():
    f = markov_fork(xor_triple())
    assert len(f.atoms) == 8
    assert all(mass == Fraction(1, 8) for mass in f.atoms.values())


def test_fork_preserves_group_marginals_exactly():
    rng = random.Random(11)
    for _ in range(50):
        d = random_support_distribution(rng, ("A", "B", "X", "Y"), max_size=3)
        f = markov_fork(d)
        assert f._table(("A", "B", "X")) == d._table(("A", "B", "X"))
        assert f._table(("A", "B", "Y")) == d._table(("A", "B", "Y"))
        assert set(d.atoms) <= set(f.atoms)


def test_fork_is_idempotent_and_fixes_conditionally_independent_inputs():
    rng = random.Random(12)
    for _ in range(25):
        d = random_support_distribution(rng, ("A", "X", "Y"), max_size=3)
        f = markov_fork(d)
        assert markov_fork(f) == f


def test_fork_makes_x_y_independent_given_group():
    d = xor_triple()
    f = markov_fork(d)
    assert f.mutual_info("X", "Y", "A") == pytest.approx(0.0, abs=TOL)


# ---------------------------------------------------------------------------
# info report


def test_info_report_for_xor():
    r = info_report(xor_triple())
    assert r["I(X:Y)"] == pytest.approx(0.0, abs=TOL)
    assert r["I(X:Y|A)"] == pytest.approx(1.0, abs=TOL)
    assert r["I(X:Y:A)"] == pytest.approx(-1.0, abs=TOL)
    assert r["H(B)"] == 0.0
    assert r["I(A:B)"] == pytest.approx(0.0, abs=TOL)


def test_info_report_single_atom_is_all_zero():
    d = JointDistribution(("A", "X", "Y"), {("a", "x", "y"): 1}, 1)
    r = info_report(d)
    assert all(abs(v) <= TOL for v in r.values())


def test_independent_bits_report():
    r = info_report(independent_bits())
    assert r["H(A)"] == pytest.approx(1.0, abs=TOL)
    assert r["I(A:B|X)"] == pytest.approx(0.0, abs=TOL)


# ---------------------------------------------------------------------------
# misc


def test_log2_fraction_sign_matches_exact_comparison():
    assert log2_fraction(Fraction(1)) == 0.0
    assert log2_fraction(Fraction(2)) == 1.0
    assert log2_fraction(Fraction(1, 2)) == -1.0
    huge = Fraction(2**200 + 1, 2**200)
    assert log2_fraction(huge) > 0.0
    tiny = Fraction(2**200, 2**200 + 1)
    assert log2_fraction(tiny) < 0.0


def test_fingerprint_depends_on_content():
    assert xor_triple().fingerprint() == xor_triple().fingerprint()
    assert xor_triple().fingerprint() != copied_bit().fingerprint()


def test_immutability_guard():
    d = xor_triple()
    with pytest.raises(AttributeError):
        d.variables = ("Z",)


def test_missing_role_reads_as_constant_column():
    d = xor_triple()
    abx = d._table(("A", "B", "X"))[0]
    assert list(abx) == [(a, "*", x) for a, x in d._table(("A", "X"))[0]]
    assert d._table("B") == ({("*",): 1}, 1)
    assert d.entropy("B") == 0.0
    assert d.cond_entropy("A", ("B", "X")) == d.cond_entropy("A", "X")
    with pytest.raises(LabError) as err:
        d._table(("A", "Q"))
    assert err.value.code == "UNKNOWN_VARIABLE"
    # a missing role is accepted, so the refusal names the unknown name itself
    for names in (("B", "Q"), ("Z", "A", "Q")):
        with pytest.raises(LabError) as err:
            d.entropy(names)
        assert err.value.code == "UNKNOWN_VARIABLE"
        assert str(err.value).startswith("variable 'Q' not among")
    # with tables already cached, a missing role marginalizes the smallest
    # one that holds the known columns: any table at all when none is known
    warm = xor_triple()
    warm._table(("A", "X", "Y"))
    warm._table(("X",))
    assert warm._table(("B",)) == ({("*",): 1}, 1)
    assert warm._table(("Z", "B")) == ({("*", "*"): 1}, 1)
    assert list(warm._table(("A", "B", "X"))[0]) == list(abx)
