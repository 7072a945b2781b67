import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entroplab.conditions import check_unique_common_value
from entroplab.distributions import load_distribution
from entroplab.errors import LabError, PreconditionFailed, TooLarge
from entroplab.families import gen_disjoint_sets
from entroplab.graphs import (
    Biclique,
    ColoredBipartiteGraph,
    Edge,
    bcc_color_bound,
    bcc_dual_entropy_bound,
    bcc_entropy_bound,
    check_property_doublestar,
    check_property_star,
    corollary_bound_check,
    dump_cover,
    dump_partition,
    edge_distribution,
    extend_with_cover_index,
    gen_gnk,
    iter_valid_matching_partitions,
    load_cover,
    load_graph,
    load_partition,
    maximal_bicliques,
    min_biclique_cover,
    min_valid_matching_partition,
    verify_biclique_cover,
    verify_matching_partition,
)
from entroplab.graphs import _cover_masks, _packing_prunes, _root_lower_bound, _walk

TOL = 1e-9


def k22(colors=("c0", "c1", "c2", "c3")):
    edges = [
        Edge("x1", "y1", colors[0]),
        Edge("x1", "y2", colors[1]),
        Edge("x2", "y1", colors[2]),
        Edge("x2", "y2", colors[3]),
    ]
    return ColoredBipartiteGraph(("x1", "x2"), ("y1", "y2"), edges)


def random_graph(rng, max_side=4, max_edges=8, palette=None):
    nl = rng.randint(1, max_side)
    nr = rng.randint(1, max_side)
    left = [f"x{i}" for i in range(nl)]
    right = [f"y{i}" for i in range(nr)]
    cells = [(x, y) for x in left for y in right]
    chosen = rng.sample(cells, rng.randint(1, min(max_edges, len(cells))))
    edges = []
    for i, (x, y) in enumerate(chosen):
        color = str(i) if palette is None else rng.choice(palette)
        edges.append(Edge(x, y, color))
    return ColoredBipartiteGraph(left, right, edges)


@st.composite
def star_colored_graphs(draw):
    """A graph of up to 4x4 vertices whose coloring has the star property by
    construction: each edge takes a color none of whose edges shares a
    biclique with it, or a new color while fewer than ``palette`` are in use
    or when no old one fits.  Edges are weighted or not."""
    palette = draw(st.integers(1, 4))
    left = [f"x{i}" for i in range(draw(st.integers(1, 4)))]
    right = [f"y{i}" for i in range(draw(st.integers(1, 4)))]
    cells = [(x, y) for x in left for y in right]
    keep = draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
    chosen = [cell for cell, kept in zip(cells, keep) if kept] or cells[:1]
    present = set(chosen)
    classes = []
    edges = []
    for x, y in chosen:
        allowed = [c for c, members in enumerate(classes)
                   if all(x != x2 and y != y2 and not ((x, y2) in present and (x2, y) in present)
                          for x2, y2 in members)]
        if len(classes) < palette or not allowed:
            allowed.append(len(classes))
        c = draw(st.sampled_from(allowed))
        if c == len(classes):
            classes.append([])
        classes[c].append((x, y))
        edges.append((x, y, str(c)))
    weights = draw(st.none() | st.lists(st.integers(1, 9), min_size=len(edges),
                                         max_size=len(edges)))
    if weights is not None:
        edges = [(*e, Fraction(w, sum(weights))) for e, w in zip(edges, weights)]
    return ColoredBipartiteGraph(left, right, edges)


# ---------------------------------------------------------------------------
# graph type and JSON


def test_edges_from_plain_tuples_and_immutable_records():
    g = ColoredBipartiteGraph(("x1",), ("y1", "y2"), [("x1", "y1", "a"), ("x1", "y2", "b", None)])
    assert g.edges == (Edge("x1", "y1", "a"), Edge("x1", "y2", "b"))
    records = ((g.edges[0], "color"), (maximal_bicliques(g)[0], "left"),
               (bcc_color_bound(g), "value"), (verify_matching_partition(g, []), "valid"))
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_graph_round_trip():
    g = k22()
    assert load_graph(g.dumps()) == g


def test_weighted_graph_round_trip():
    edges = [
        Edge("x1", "y1", "a", Fraction(1, 2)),
        Edge("x1", "y2", "b", Fraction(1, 4)),
        Edge("x2", "y1", "c", Fraction(1, 4)),
    ]
    g = ColoredBipartiteGraph(("x1", "x2"), ("y1", "y2"), edges)
    assert [row["w"] for row in g.to_json_dict()["edges"]] == ["1/2", "1/4", "1/4"]
    assert load_graph(g.dumps()) == g
    d = edge_distribution(g)
    assert d.marginal("X").atoms[("x1",)] == Fraction(3, 4)


@pytest.mark.parametrize(
    "edges,code",
    [
        ([Edge("x9", "y1", "a")], "UNKNOWN_VERTEX"),
        ([Edge("x1", "y9", "a")], "UNKNOWN_VERTEX"),
        ([Edge("x1", "y1", "a"), Edge("x1", "y1", "b")], "PARALLEL_EDGE"),
        ([Edge("x1", "y1", "a", Fraction(1, 2)), Edge("x2", "y1", "b")], "SCHEMA_ERROR"),
        ([Edge("x1", "y1", "a", Fraction(1, 2))], "SUM_NOT_ONE"),
    ],
)
def test_graph_validation(edges, code):
    with pytest.raises(LabError) as err:
        ColoredBipartiteGraph(("x1", "x2"), ("y1", "y2"), edges)
    assert err.value.code == code


def test_cover_and_partition_round_trips():
    cover = [Biclique(("x1",), ("y1", "y2")), Biclique(("x2",), ("y1",))]
    assert load_cover(dump_cover(cover)) == cover
    partition = [[("x1", "y1"), ("x2", "y2")], [("x1", "y2")]]
    assert load_partition(dump_partition(partition)) == partition


# ---------------------------------------------------------------------------
# disjointness graphs and the edge distribution


def test_gnk_shapes():
    g = gen_gnk(4, 1)
    assert (len(g.left), len(g.right), len(g.edges)) == (4, 4, 12)
    classes = g.color_classes()
    assert len(classes) == 6
    assert {len(v) for v in classes.values()} == {2}
    g2 = gen_gnk(6, 2)
    assert (len(g2.left), len(g2.edges), len(g2.color_classes())) == (15, 90, 15)
    assert {len(v) for v in g2.color_classes().values()} == {6}
    tiny = gen_gnk(2, 1)
    assert (len(tiny.edges), len(tiny.color_classes())) == (2, 1)


def test_gnk_rejects_bad_params():
    for n, k in ((3, 2), (1, 1), (4, 0), (1001, 1)):
        with pytest.raises(LabError):
            gen_gnk(n, k)


def test_edge_distribution_matches_disjoint_sets_family():
    assert edge_distribution(gen_gnk(4, 1)) == gen_disjoint_sets(4, 1)
    assert edge_distribution(gen_gnk(6, 2)) == gen_disjoint_sets(6, 2)


def test_edge_distribution_entropies():
    d = edge_distribution(gen_gnk(4, 1))
    assert set(d.atoms.values()) == {Fraction(1, 12)}
    assert d.entropy("A") == pytest.approx(math.log2(6), abs=TOL)
    assert d.cond_entropy("A", "X") == pytest.approx(math.log2(3), abs=TOL)
    assert d.cond_entropy("A", ("X", "Y")) == 0.0


def test_edge_distribution_single_edge():
    g = ColoredBipartiteGraph(("x",), ("y",), [Edge("x", "y", "a")])
    d = edge_distribution(g)
    assert d.entropy(("A", "X", "Y")) == 0.0


def test_edge_distribution_requires_edges():
    with pytest.raises(LabError) as err:
        edge_distribution(ColoredBipartiteGraph(("x",), ("y",), []))
    assert err.value.code == "EMPTY_GRAPH"


# ---------------------------------------------------------------------------
# matching partitions


def test_singletons_are_always_valid():
    g = k22()
    singletons = [[e.pair()] for e in g.edges]
    report = verify_matching_partition(g, singletons)
    assert report.valid
    assert (report.K, report.L, report.R) == (4, 2, 2)


def test_two_perfect_matchings_are_invalid():
    g = k22()
    parts = [
        [("x1", "y1"), ("x2", "y2")],
        [("x1", "y2"), ("x2", "y1")],
    ]
    report = verify_matching_partition(g, parts)
    assert not report.valid
    assert report.witness == {"x": "x1", "y": "y1", "parts": [0, 1]}


def test_partition_failure_modes():
    g = k22()
    with pytest.raises(LabError) as err:
        verify_matching_partition(g, [[("x1", "y9")]])
    assert err.value.code == "NOT_A_PARTITION"
    dup = [[("x1", "y1")], [("x1", "y1")], [("x1", "y2")], [("x2", "y1")], [("x2", "y2")]]
    assert verify_matching_partition(g, dup).detail == "edge listed in two parts"
    one = ColoredBipartiteGraph(("x",), ("y",), [Edge("x", "y", "a")])
    twice = load_partition({"matchings": [[["x", "y"], ["x", "y"]]]})
    report = verify_matching_partition(one, twice)
    assert (report.valid, report.K, report.witness, report.detail) == (
        False, 1, {"part": 0, "x": "x", "y": "y"}, "edge listed twice in one part")
    missing = [[("x1", "y1")]]
    assert verify_matching_partition(g, missing).detail == "edge missing from the partition"
    lopsided = [[("x1", "y1"), ("x1", "y2")], [("x2", "y1")], [("x2", "y2")]]
    assert verify_matching_partition(g, lopsided).detail == "part is not a matching"
    g31 = gen_gnk(3, 1)
    padded = [[e.pair()] for e in g31.edges] + [[], []]
    report = verify_matching_partition(g31, padded)
    assert (report.valid, report.witness, report.detail) == (False, {"part": 6}, "part is empty")


def test_empty_graph_empty_partition():
    g = ColoredBipartiteGraph((), (), [])
    report = verify_matching_partition(g, [])
    assert report.valid and report.K == 0


def test_min_partition_k22_is_product():
    g = k22()
    assert min_valid_matching_partition(g) == 4
    # the only valid partition is all-singletons: any merge involves a
    # pair owned by the part of the crossing edge
    assert sum(1 for _ in iter_valid_matching_partitions(g)) == 1


def test_min_partition_single_edge():
    g = ColoredBipartiteGraph(("x",), ("y",), [Edge("x", "y", "a")])
    assert min_valid_matching_partition(g) == 1


def test_min_partition_disjoint_edges_can_merge():
    g = ColoredBipartiteGraph(
        ("x1", "x2"), ("y1", "y2"), [Edge("x1", "y1", "a"), Edge("x2", "y2", "b")]
    )
    assert min_valid_matching_partition(g) == 1
    assert sum(1 for _ in iter_valid_matching_partitions(g)) == 2


def test_min_partition_g41():
    # only swap-pairs {(i,j),(j,i)} can share a part (any other merge
    # involves a pair owned by a crossing edge's part), and two swap
    # parts sharing a vertex collide on its diagonal pair, so at most
    # two merges fit: 12 - 2 = 10
    g = gen_gnk(4, 1)
    value = min_valid_matching_partition(g)
    assert value == 10
    assert value >= 3 * 3


def test_min_partition_crown_values():
    # K(G(n,1)) for n = 3..8 as measured in ROADMAP.md's baseline table:
    # K - L*R = (n-1)//2 on each, a measured pattern, not a theorem
    found = [min_valid_matching_partition(gen_gnk(n, 1), limit=56) for n in range(3, 9)]
    assert found == [5, 10, 18, 27, 39, 52]


def test_min_partition_size_cap():
    with pytest.raises(TooLarge):
        min_valid_matching_partition(gen_gnk(6, 2))


def _preorder(tree, node):
    yield node
    for child in tree[node]:
        yield from _preorder(tree, child)


def test_walk_visits_in_preorder():
    # seeded random trees: each node's parent is an earlier node
    rng = random.Random(20)
    for _ in range(50):
        tree = {0: []}
        for node in range(1, rng.randint(1, 40)):
            tree[rng.randrange(node)].append(node)
            tree[node] = []
        assert list(_walk(0, lambda node: iter(tree[node]))) == list(_preorder(tree, 0))


@pytest.mark.parametrize("tighten_at,expected", [(12, [0, 1, 11, 12]), (1, [0, 1, 11])])
def test_walk_prunes_the_children_not_yet_made(tighten_at, expected):
    # node n < 10 has children 10n+1, 10n+2, 10n+3, made only while the last
    # digit is within the bound; handling `tighten_at` drops the bound to 1
    bound = [3]
    made = []

    def children(node):
        for digit in range(1, 4) if node < 10 else ():
            if digit > bound[0]:
                return
            made.append(10 * node + digit)
            yield 10 * node + digit

    visited = []
    for node in _walk(0, children):
        visited.append(node)
        if node == tighten_at:
            bound[0] = 1
    assert visited == expected
    assert made == expected[1:]


def test_walk_goes_deeper_than_the_recursion_limit():
    depth = 2 * sys.getrecursionlimit()
    nodes = _walk(0, lambda node: iter([node + 1] if node < depth else []))
    assert list(nodes) == list(range(depth + 1))


def _restricted_growth(n, prefix=()):
    """Every restricted-growth string of length n, in lexicographic order."""
    if len(prefix) == n:
        yield prefix
        return
    for j in range(max(prefix, default=-1) + 2):
        yield from _restricted_growth(n, prefix + (j,))


def test_partition_enumeration_matches_brute_force():
    # every set partition of the edges, filtered by the independent checker,
    # in the order the walker visits them
    rng = random.Random(67)
    for _ in range(30):
        g = random_graph(rng, max_side=4, max_edges=7)
        pairs = [e.pair() for e in g.edges]
        expected = []
        for labels in _restricted_growth(len(pairs)):
            parts = [[p for p, j in zip(pairs, labels) if j == k] for k in range(max(labels) + 1)]
            if verify_matching_partition(g, parts).valid:
                expected.append(parts)
        assert list(iter_valid_matching_partitions(g)) == expected
        assert min_valid_matching_partition(g) == min(len(parts) for parts in expected)


def test_corollary_certificate_k22():
    g = k22()
    cert = corollary_bound_check(g, [[e.pair()] for e in g.edges])
    assert cert.K == 4 and cert.L == 2 and cert.R == 2
    assert cert.product_bound_holds
    assert cert.entropy_floor_holds
    assert cert.theorem1_status == "PASS"


def test_corollary_rejects_invalid_partition():
    g = k22()
    with pytest.raises(PreconditionFailed):
        corollary_bound_check(g, [[("x1", "y1"), ("x2", "y2")], [("x1", "y2"), ("x2", "y1")]])


def test_exhaustive_partitions_satisfy_product_bound():
    rng = random.Random(41)
    for _ in range(25):
        g = random_graph(rng, max_side=3, max_edges=6)
        left_min, right_min = (
            min(d.values()) for d in g.degrees()
        )
        for parts in iter_valid_matching_partitions(g):
            assert len(parts) >= left_min * right_min


def test_partition_coloring_has_unique_common_value():
    rng = random.Random(43)
    for _ in range(15):
        g = random_graph(rng, max_side=3, max_edges=6)
        for parts in itertools.islice(iter_valid_matching_partitions(g), 20):
            recolored = ColoredBipartiteGraph(
                g.left,
                g.right,
                [
                    Edge(x, y, str(i))
                    for i, part in enumerate(parts)
                    for x, y in part
                ],
            )
            assert check_unique_common_value(edge_distribution(recolored)).holds
            assert check_property_star(recolored).holds


# ---------------------------------------------------------------------------
# coloring properties


def test_gnk_satisfies_both_properties():
    for g in (gen_gnk(4, 1), gen_gnk(6, 2), gen_gnk(4, 2)):
        assert check_property_star(g).holds
        assert check_property_doublestar(g).holds


def test_monochrome_k22_fails_star():
    g = k22(colors=("c", "c", "c", "c"))
    verdict = check_property_star(g)
    assert not verdict.holds
    assert verdict.witness == {"color": "c", "x": "x1", "y": "y1", "x2": "x1", "y2": "y2"}
    # the same-colored pair shares an endpoint, so both edges sit inside
    # the star biclique {x1} x {y1, y2}; the one-per-color bound would
    # overshoot the true covering number here
    assert len(min_biclique_cover(g)) == 1
    with pytest.raises(PreconditionFailed):
        bcc_color_bound(g)


def test_shared_endpoint_same_color_violates_star():
    g = ColoredBipartiteGraph(
        ("x1",), ("y1", "y2"), [Edge("x1", "y1", "c"), Edge("x1", "y2", "c")]
    )
    assert not check_property_star(g).holds
    assert len(min_biclique_cover(g)) == 1


def test_rainbow_always_satisfies_star():
    rng = random.Random(47)
    for _ in range(30):
        g = random_graph(rng)
        assert check_property_star(g).holds
        assert check_property_doublestar(g).holds


def test_doublestar_corner_violation():
    g = k22(colors=("b", "a", "a", "c"))
    verdict = check_property_doublestar(g)
    assert not verdict.holds
    assert verdict.witness["color"] == "a"
    assert verdict.witness["corner_color"] in ("b", "c")


def test_doublestar_holds_on_monochrome_complete():
    assert check_property_doublestar(k22(colors=("c",) * 4)).holds


def test_star_implies_doublestar():
    rng = random.Random(53)
    seen_star = 0
    for _ in range(300):
        palette = [str(i) for i in range(rng.randint(1, 6))]
        g = random_graph(rng, max_side=3, max_edges=7, palette=palette)
        if check_property_star(g).holds:
            seen_star += 1
            assert check_property_doublestar(g).holds
    assert seen_star > 50


# ---------------------------------------------------------------------------
# biclique bounds and the exact solver


def test_g41_bounds_and_exact_cover():
    g = gen_gnk(4, 1)
    entropy = bcc_entropy_bound(g)
    assert entropy.value == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert entropy.integer_bound == 2
    color = bcc_color_bound(g)
    assert color.integer_bound == 2 and color.exact == Fraction(2)
    dual = bcc_dual_entropy_bound(g)
    assert dual.value == pytest.approx(2.0, abs=TOL)
    assert dual.exact == Fraction(2)
    cover = min_biclique_cover(g)
    assert len(cover) == 4
    assert verify_biclique_cover(g, cover).holds


def test_g41_maximal_bicliques():
    # 4 stars {i} x complement, 6 two-by-twos, 4 triple-by-singles
    found = maximal_bicliques(gen_gnk(4, 1))
    assert len(found) == 14
    sizes = sorted((len(b.left), len(b.right)) for b in found)
    assert sizes.count((1, 3)) == 4
    assert sizes.count((2, 2)) == 6
    assert sizes.count((3, 1)) == 4


def test_maximal_bicliques_match_brute_force():
    rng = random.Random(59)
    for _ in range(40):
        g = random_graph(rng, max_side=4, max_edges=9)
        nbr = {x: {e.y for e in g.edges if e.x == x} for x in g.left}
        expected = set()
        for r in range(1, len(g.left) + 1):
            for s in itertools.combinations(g.left, r):
                t = frozenset.intersection(*[frozenset(nbr[x]) for x in s])
                if not t:
                    continue
                closure = tuple(sorted(x for x in g.left if t <= nbr[x]))
                expected.add((closure, tuple(sorted(t))))
        assert {(b.left, b.right) for b in maximal_bicliques(g)} == expected


def test_exact_cover_matches_brute_force():
    rng = random.Random(71)
    for _ in range(30):
        g = random_graph(rng, max_side=4, max_edges=10)
        cliques = maximal_bicliques(g)
        edges = {e.pair() for e in g.edges}
        smallest = next(
            r for r in range(1, len(cliques) + 1)
            if any({pair for b in combo for pair in b.pairs()} == edges
                   for combo in itertools.combinations(cliques, r))
        )
        cover = min_biclique_cover(g)
        assert len(cover) == smallest
        assert verify_biclique_cover(g, cover).holds


@pytest.mark.parametrize("n", range(4, 10))
def test_crown_cover_matches_closed_form(n):
    # G(n,1) is the crown graph: K_{n,n} minus a perfect matching.  Its
    # biclique cover number is min{k : C(k, k//2) >= n} (de Caen, Gregory
    # and Pullman 1981, through Sperner's theorem).  n = 9 takes about 2 s;
    # n = 10 is left out because its search still takes more than 200 s.
    expected = next(k for k in itertools.count(1) if math.comb(k, k // 2) >= n)
    g = gen_gnk(n, 1)
    cover = min_biclique_cover(g, limit=len(g.edges))
    assert len(cover) == expected
    assert verify_biclique_cover(g, cover).holds


def cover_graph(rng, side, edge_count, star):
    """A side x side graph with edge_count random edges, colored greedily so
    that each color class is a fooling set (star), or one color per edge."""
    left = [f"x{i}" for i in range(side)]
    right = [f"y{j}" for j in range(side)]
    cells = rng.sample([(x, y) for x in left for y in right], edge_count)
    present = set(cells)
    classes = []
    edges = []
    for x, y in cells:
        fits = [c for c, members in enumerate(classes)
                if star and all(x != x2 and y != y2
                                and not ((x, y2) in present and (x2, y) in present)
                                for x2, y2 in members)]
        if not fits:
            classes.append([])
            fits = [len(classes) - 1]
        classes[fits[0]].append((x, y))
        edges.append(Edge(x, y, f"c{fits[0]}"))
    return ColoredBipartiteGraph(left, right, edges)


def reference_cover(g):
    """The cover search before the packing floor and the inline last pick:
    only the ceil(|uncovered| / largest biclique) bound prunes it."""
    cliques = maximal_bicliques(g)
    holders = [[i for i, b in enumerate(cliques) if e.x in b.left and e.y in b.right]
               for e in g.edges]
    holders.sort(key=len)
    cells = [0] * len(cliques)
    for bit, indices in enumerate(holders):
        for i in indices:
            cells[i] |= 1 << bit
    best = []
    uncovered = universe = (1 << len(holders)) - 1
    while uncovered:
        i = max(range(len(cells)), key=lambda j: (cells[j] & uncovered).bit_count())
        best.append(i)
        uncovered &= ~cells[i]
    best_size = len(best)
    floor = _root_lower_bound(g)
    biggest = max(c.bit_count() for c in cells)

    def walk(uncovered, chosen):
        nonlocal best, best_size
        if not uncovered:
            if len(chosen) < best_size:
                best, best_size = list(chosen), len(chosen)
            return
        if len(chosen) + math.ceil(uncovered.bit_count() / biggest) >= best_size:
            return
        options = sorted(holders[(uncovered & -uncovered).bit_length() - 1],
                         key=lambda i: -(cells[i] & uncovered).bit_count())
        for i in options:
            if best_size <= floor:
                return
            chosen.append(i)
            walk(uncovered & ~cells[i], chosen)
            chosen.pop()

    if best_size > floor:
        walk(universe, [])
    return [cliques[i] for i in best]


def test_pruned_cover_search_prints_the_same_cover():
    rng = random.Random(83)
    graphs = []
    for trial in range(240):
        side = rng.randint(1, 6)
        graphs.append(cover_graph(rng, side, rng.randint(1, min(16, side * side)),
                                  star=trial % 2 == 0))
    graphs += [cover_graph(rng, 7, 42, star=True) for _ in range(6)]
    graphs += [gen_gnk(n, 1) for n in range(3, 8)] + [gen_gnk(5, 2), gen_gnk(6, 2)]
    for g in graphs:
        assert min_biclique_cover(g, limit=len(g.edges)) == reference_cover(g)


def test_packing_floor_never_prunes_a_coverable_set():
    rng = random.Random(89)
    prunes = 0
    for trial in range(150):
        side = rng.randint(2, 4)
        g = cover_graph(rng, side, rng.randint(2, min(10, side * side)), star=trial % 2 == 0)
        _, holders, cells, reach = _cover_masks(g)
        biggest = max(c.bit_count() for c in cells)
        for _ in range(8):
            uncovered = rng.randrange(1, 1 << len(holders))
            pivot = (uncovered & -uncovered).bit_length() - 1
            top = max((cells[i] & uncovered).bit_count() for i in holders[pivot])
            for picks in range(1, 4):
                if not _packing_prunes(uncovered, picks, top, holders, cells, reach, biggest):
                    continue
                prunes += 1
                for combo in itertools.combinations(cells, min(picks, len(cells))):
                    union = 0
                    for c in combo:
                        union |= c
                    assert uncovered & ~union, (g, uncovered, picks, combo)
    assert prunes > 100


@given(star_colored_graphs())
@settings(max_examples=200, deadline=None)
def test_dual_bound_never_exceeds_color_bound(g):
    # Both are gated on the star property, and H(X,Y) - H(A) = H(X,Y|A) is at
    # most log2 of the largest color class, so the cover search's root floor
    # can leave the dual bound out.
    assert check_property_star(g).holds
    dual, color = bcc_dual_entropy_bound(g), bcc_color_bound(g)
    assert dual.value <= color.value + 1e-12
    assert dual.integer_bound <= color.integer_bound


def test_g21_exact_cover_is_two():
    g = gen_gnk(2, 1)
    assert len(min_biclique_cover(g)) == 2
    assert bcc_color_bound(g).integer_bound == 2
    assert bcc_dual_entropy_bound(g).exact == Fraction(2)
    assert bcc_entropy_bound(g).integer_bound == 1


def test_g42_perfect_matching_cover():
    g = gen_gnk(4, 2)
    assert len(min_biclique_cover(g)) == 6
    assert bcc_color_bound(g).integer_bound == 6
    assert bcc_dual_entropy_bound(g).exact == Fraction(6)


def test_g62_dual_bound_exact_rational():
    report = bcc_dual_entropy_bound(gen_gnk(6, 2))
    assert report.exact == Fraction(6)
    assert report.value == pytest.approx(6.0, abs=1e-6)


def test_single_biclique_graph():
    g = ColoredBipartiteGraph(
        ("x1", "x2"), ("y1",), [Edge("x1", "y1", "a"), Edge("x2", "y1", "b")]
    )
    assert len(min_biclique_cover(g)) == 1
    assert bcc_entropy_bound(g).integer_bound == 1


def test_bcc_size_cap():
    with pytest.raises(TooLarge):
        min_biclique_cover(gen_gnk(6, 2))


@pytest.mark.parametrize("search", [min_biclique_cover, min_valid_matching_partition])
def test_negative_search_limit_is_a_bad_parameter(search):
    with pytest.raises(LabError) as err:
        search(gen_gnk(4, 1), limit=-1)
    assert err.value.code == "BAD_PARAM"


def test_bound_preconditions_fire_before_values():
    g = ColoredBipartiteGraph(
        ("x1", "x2"), ("y1", "y2"),
        [Edge(x, y, "c") for x in ("x1", "x2") for y in ("y1", "y2")],
    )
    for bound in (bcc_color_bound, bcc_dual_entropy_bound):
        with pytest.raises(PreconditionFailed) as err:
            bound(g)
        assert err.value.witness is not None


def test_sandwich_invariant_on_fuzzed_graphs():
    rng = random.Random(61)
    checked = 0
    for _ in range(40):
        g = random_graph(rng, max_side=4, max_edges=8)
        if not check_property_star(g).holds:
            continue
        checked += 1
        exact = len(min_biclique_cover(g))
        cliques = maximal_bicliques(g)
        assert exact <= len(cliques)
        assert bcc_color_bound(g).integer_bound <= exact
        assert bcc_dual_entropy_bound(g).integer_bound <= exact
        if check_property_doublestar(g).holds:
            assert bcc_entropy_bound(g).integer_bound <= exact
    assert checked > 20


def test_cover_verification_failures():
    g = k22()
    missing = [Biclique(("x1",), ("y1", "y2"))]
    verdict = verify_biclique_cover(g, missing)
    assert not verdict.holds and verdict.detail == "edge not covered"
    bogus = [Biclique(("x1", "x2"), ("y1", "y2"))]
    g3 = ColoredBipartiteGraph(
        ("x1", "x2"), ("y1", "y2"),
        [Edge("x1", "y1", "a"), Edge("x1", "y2", "b"), Edge("x2", "y1", "c")],
    )
    verdict = verify_biclique_cover(g3, bogus)
    assert not verdict.holds and verdict.witness == {"x": "x2", "y": "y2"}


# ---------------------------------------------------------------------------
# cover-index extension


def test_z_extension_on_g41():
    g = gen_gnk(4, 1)
    cover = min_biclique_cover(g)
    report = extend_with_cover_index(g, cover)
    assert report.split_holds
    assert report.split_slack >= -TOL
    assert report.cover_size == 4
    assert report.size_floor == pytest.approx(math.sqrt(1.5), abs=1e-12)
    assert report.size_floor_holds
    assert report.index_entropy <= 2.0 + TOL
    assert report.index_entropy >= math.log2(report.size_floor) - TOL
    assert set(report.per_clique_status) == {"PASS"}
    assert report.distribution.marginal(("A", "X", "Y")) == edge_distribution(g)


def test_z_extension_single_clique_cover():
    g = ColoredBipartiteGraph(
        ("x1", "x2"), ("y1", "y2"),
        [Edge(x, y, "c") for x in ("x1", "x2") for y in ("y1", "y2")],
    )
    report = extend_with_cover_index(g, [Biclique(("x1", "x2"), ("y1", "y2"))])
    assert report.index_entropy == 0.0
    assert report.split_holds
    assert report.per_clique_status == ("PASS",)


def test_z_extension_rejects_non_cover():
    g = k22()
    with pytest.raises(LabError) as err:
        extend_with_cover_index(g, [Biclique(("x1",), ("y1",))])
    assert err.value.code == "NOT_A_COVER"


def test_z_extension_distribution_round_trips():
    g = gen_gnk(4, 1)
    report = extend_with_cover_index(g, min_biclique_cover(g))
    assert load_distribution(report.distribution.dumps()) == report.distribution
