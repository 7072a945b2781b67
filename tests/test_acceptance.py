"""Acceptance suite: one test per shipped guarantee.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line
per criterion.  Each test also enforces the documented runtime budget.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from entroplab.cli import _sparse_sample, run
from entroplab.conditions import (
    audit_lemma1,
    check_pointwise_product,
    check_support_saturation,
    check_unique_common_value,
)
from entroplab.distributions import load_distribution
from entroplab.families import (
    extend_with_random_B,
    gen_disjoint_sets,
    gen_distinct_pairs,
    gen_field_lines,
    sample_cond2c,
)
from entroplab.graphs import (
    ColoredBipartiteGraph,
    Edge,
    bcc_color_bound,
    bcc_dual_entropy_bound,
    bcc_entropy_bound,
    extend_with_cover_index,
    gen_gnk,
    min_biclique_cover,
    min_valid_matching_partition,
    verify_matching_partition,
)
from entroplab.inequalities import (
    entropy_split_gap,
    gamma_term,
    verify_lemma2,
    verify_theorem1,
    verify_theorem2,
)

from conftest import disjoint_sets_split_gap, min_degrees, valid_matching_partitions

TOL = 1e-9


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime budget exceeded: {elapsed:.1f}s >= {seconds}s"


def test_criterion_01_theorem1_fuzz_1000_seeds():
    with budget(60):
        for seed in range(1, 1001):
            rng = random.Random(seed)
            sizes = tuple(rng.randint(1, 4) for _ in range(4))
            d = sample_cond2c(seed, sizes)
            cert = verify_theorem1(d)
            assert cert.status == "PASS", (seed, cert)
            assert cert.gap.gap >= -TOL, (seed, cert.gap)
            assert cert.gamma.power_sum <= 1, (seed, cert.gamma)


def test_criterion_02_lemma2_fuzz_1000_distributions():
    with budget(60):
        rng = random.Random(20260815)
        for trial in range(1000):
            d = _sparse_sample(rng)
            cert = verify_lemma2(d)
            assert cert.status == "PASS", (trial, cert)
            assert cert.entropy_split_slack >= -TOL, (trial, cert)
            assert cert.reduced_ingleton_slack >= -TOL, (trial, cert)


def test_criterion_03_lemma1_and_lemma3_audits():
    with budget(30):
        rng = random.Random(77)
        for trial in range(1000):
            audit = audit_lemma1(_sparse_sample(rng))
            assert audit.status == "PASS", (trial, audit.violations)


def test_criterion_04_distinct_pairs_n5():
    with budget(1):
        d = gen_distinct_pairs(5)
        assert d.entropy("A") == pytest.approx(math.log2(10), abs=TOL)
        assert d.cond_entropy("A", "X") == pytest.approx(2.0, abs=TOL)
        assert entropy_split_gap(d).gap == pytest.approx(-0.678072, abs=1e-5)
        saturation = check_support_saturation(d)
        unique = check_unique_common_value(d)
        assert not saturation.holds and saturation.witness is not None
        assert not unique.holds and unique.witness is not None
        print(f"cond-2-B witness: {saturation.witness}")
        print(f"cond-2-C witness: {unique.witness}")


def test_criterion_05_disjoint_sets_20_2_and_limit():
    with budget(5):
        d = gen_disjoint_sets(20, 2)
        assert d.entropy("A") == pytest.approx(math.log2(math.comb(20, 4)), abs=TOL)
        assert d.cond_entropy("A", "X") == pytest.approx(math.log2(math.comb(18, 2)), abs=TOL)
        gap = entropy_split_gap(d).gap
        closed_form = -math.log2(math.comb(18, 2) ** 2 / math.comb(20, 4))
        assert gap == pytest.approx(closed_form, abs=TOL)
        assert gap == pytest.approx(-2.2725, abs=1e-4)
        # n >> k: |gap| approaches log2 C(2k, k)
        assert abs(abs(disjoint_sets_split_gap(200, 2)) - math.log2(math.comb(4, 2))) < 0.05


def test_criterion_06_field_lines_q4():
    with budget(10):
        d = gen_field_lines(2, Fraction(1, 2))
        assert check_support_saturation(d).holds
        product = check_pointwise_product(d)
        assert product.holds and product.equality
        assert d.mutual_info("X", "Y") >= 0.01
        uniform = gen_field_lines(2, 0)
        for names, cell, mass in ((("A",), ("(0,0)",), Fraction(1, 16)),
                                  (("A", "X"), ("(0,0)", "(0,0)"), Fraction(1, 32)),
                                  (("X",), ("(0,0)",), Fraction(1, 8))):
            counts, den = uniform._table(names)
            assert Fraction(counts[cell], den) == mass, names
        for seed in range(100):
            ext = extend_with_random_B(d, 1 + seed % 3, seed)
            cert = verify_theorem2(ext)
            assert cert.status == "PASS", (seed, cert)
            assert cert.gap.gap >= -TOL, (seed, cert.gap)


def _random_graph(rng):
    lefts = [f"x{i}" for i in range(1, rng.randint(2, 4) + 1)]
    rights = [f"y{i}" for i in range(1, rng.randint(2, 4) + 1)]
    cells = [(x, y) for x in lefts for y in rights]
    rng.shuffle(cells)
    edges = [Edge(x, y, rng.choice("abc")) for x, y in cells[: rng.randint(1, 10)]]
    return ColoredBipartiteGraph(lefts, rights, edges)


def test_criterion_07_matching_partition_product_bound():
    with budget(120):
        k22 = ColoredBipartiteGraph(
            ("x1", "x2"),
            ("y1", "y2"),
            [
                Edge("x1", "y1", "a"),
                Edge("x1", "y2", "b"),
                Edge("x2", "y1", "c"),
                Edge("x2", "y2", "d"),
            ],
        )
        assert min_valid_matching_partition(k22) == 4 == 2 * 2
        rng = random.Random(424242)
        checked = 0
        for _ in range(50):
            g = _random_graph(rng)
            for partition in valid_matching_partitions(g):
                assert verify_matching_partition(g, partition).holds
                left_min, right_min = min_degrees(g)
                assert len(partition) >= left_min * right_min, (
                    g.to_json_dict(),
                    partition,
                )
                checked += 1
        assert checked > 50


def test_criterion_08_biclique_bounds():
    with budget(60):
        g41 = gen_gnk(4, 1)
        entropy = bcc_entropy_bound(g41)
        dual = bcc_dual_entropy_bound(g41)
        color = bcc_color_bound(g41)
        assert entropy.value == pytest.approx(1.2247, abs=1e-3)
        assert entropy.integer_bound == 2
        assert dual.value == pytest.approx(2.0, abs=TOL)
        assert color.integer_bound == 2
        exact = len(min_biclique_cover(g41))
        assert exact >= max(entropy.integer_bound, dual.integer_bound, color.integer_bound)
        assert exact == 4
        g62 = gen_gnk(6, 2)
        assert bcc_dual_entropy_bound(g62).exact == Fraction(6)


def test_criterion_09_z_extension_split():
    with budget(5):
        g41 = gen_gnk(4, 1)
        cover = min_biclique_cover(g41)
        _, report = extend_with_cover_index(g41, cover)
        assert report.split_slack >= -TOL
        assert report.cover_size >= report.size_floor - TOL


def test_criterion_10_determinism_and_round_trip():
    with budget(10):
        seeded = [
            ("catalog", "gen", "--family", "random-cond2c", "--sizes", "3,2,3,2", "--seed", "8"),
            ("catalog", "gen", "--family", "random-support", "--sizes", "2,2,2",
             "--seed", "3", "--b-size", "2"),
            ("fuzz", "--target", "theorem1", "--trials", "10", "--seed", "5", "--csv"),
            ("fuzz", "--target", "lemma2", "--trials", "10", "--seed", "5"),
        ]
        for argv in seeded:
            first = run(list(argv))
            second = run(list(argv))
            assert first.exit_code == second.exit_code == 0, argv
            assert first.text == second.text, argv
        families = [
            ("catalog", "gen", "--family", "distinct-pairs", "--n", "4"),
            ("catalog", "gen", "--family", "disjoint-sets", "--n", "6", "--k", "2"),
            ("catalog", "gen", "--family", "field-lines", "--q-exp", "2", "--delta", "1/3"),
            ("catalog", "gen", "--family", "random-cond2c", "--sizes", "2,2,2,2", "--seed", "1"),
        ]
        for argv in families:
            emitted = run(list(argv)).text
            assert load_distribution(emitted).dumps() == emitted, argv
            assert json.loads(emitted)
