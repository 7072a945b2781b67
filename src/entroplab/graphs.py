"""Edge-colored bipartite graphs: matching partitions, biclique covers, and
the entropy-method lower bounds that connect them to the conditional
inequalities.

A coloring of the edges plays the role of the variable A; picking an edge
at random (its weight, or uniformly) induces a joint distribution of
(A, X, Y) = (color, left endpoint, right endpoint).  Two support-level
properties of the coloring make the bounds sound:

* one-per-biclique ("star"): no biclique of the graph contains two
  distinct edges of the same color.  Equivalent global form: two
  same-colored edges may neither share an endpoint nor span a 2x2 cell
  whose two crossing edges are both present.
* forced corner ("double star"): whenever all four edges of a 2x2 cell
  exist and the two crossing edges share a color, the corner edge has
  that color too.  The first property implies the second.

Under the forced-corner property, the minimum number of bicliques needed
to cover all edges is at least 2^((H(A|X)+H(A|Y)-H(A))/2); under
one-per-biclique it is at least the largest color class and at least
2^(H(X,Y)-H(A)).  Exhaustive solvers at desk scale provide the matching
ground truth for both the covering number and the minimal valid matching
partition.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .errors import (TOLERANCE, LabError, PreconditionFailed, TooLarge, Verdict, _at_least,
                     _load_object, _mass_text, _rational_text, _ratio, _record_json, _strings)

PROPERTY_STAR = "property-star"
PROPERTY_DOUBLESTAR = "property-doublestar"

PARTITION_SEARCH_LIMIT = 12
COVER_SEARCH_LIMIT = 20
VERTEX_BUDGET = 10**4


class Edge(NamedTuple):
    x: str
    y: str
    color: str
    weight: Optional[Fraction] = None

    def pair(self) -> tuple[str, str]:
        return (self.x, self.y)

    def to_json_dict(self) -> dict:
        doc = {"x": self.x, "y": self.y, "color": self.color}
        if self.weight is not None:
            doc["w"] = _mass_text(self.weight.numerator, self.weight.denominator)
        return doc


class ColoredBipartiteGraph:
    """Bipartite graph with colored, optionally weighted edges.

    Vertices are strings; parallel edges are rejected; weights are either
    absent everywhere or positive rationals summing to one.
    """

    __slots__ = ("left", "right", "edges", "_pair_index", "_derived")

    def __init__(self, left, right, edges):
        left = tuple(left)
        right = tuple(right)
        if len(set(left)) != len(left) or len(set(right)) != len(right):
            raise LabError("SCHEMA_ERROR", "duplicate vertex name")
        lset, rset = set(left), set(right)
        norm = []
        pair_index = {}
        for e in edges:
            if not isinstance(e, Edge):
                e = Edge(*e)
            if e.x not in lset:
                raise LabError("UNKNOWN_VERTEX", f"left vertex {e.x!r} not declared")
            if e.y not in rset:
                raise LabError("UNKNOWN_VERTEX", f"right vertex {e.y!r} not declared")
            if e.pair() in pair_index:
                raise LabError("PARALLEL_EDGE", f"edge {e.pair()} listed twice")
            pair_index[e.pair()] = e
            norm.append(e)
        weighted = [e for e in norm if e.weight is not None]
        if weighted:
            if len(weighted) != len(norm):
                raise LabError("SCHEMA_ERROR", "either all edges carry weights or none")
            total = sum(e.weight for e in weighted)
            if any(e.weight <= 0 for e in weighted):
                raise LabError("NEGATIVE_PROB", "edge weights must be positive")
            if total != 1:
                raise LabError("SUM_NOT_ONE", f"edge weights sum to {_rational_text(total)}")
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "edges", tuple(norm))
        object.__setattr__(self, "_pair_index", pair_index)
        object.__setattr__(self, "_derived", {})

    def __setattr__(self, name, value):
        raise AttributeError("ColoredBipartiteGraph is immutable")

    def __eq__(self, other):
        if not isinstance(other, ColoredBipartiteGraph):
            return NotImplemented
        return (self.left, self.right, self.edges) == (other.left, other.right, other.edges)

    __hash__ = None

    def __repr__(self):
        return (
            f"ColoredBipartiteGraph(left={len(self.left)}, right={len(self.right)},"
            f" edges={len(self.edges)})"
        )

    def has_edge(self, x: str, y: str) -> bool:
        return (x, y) in self._pair_index

    def edge_at(self, x: str, y: str) -> Edge:
        return self._pair_index[(x, y)]

    def _once(self, fn):
        # fn(self), computed once per fn, so that the cover-size bounds and the exact
        # search's root floor share each property check and the edge distribution
        if fn not in self._derived:
            self._derived[fn] = fn(self)
        return self._derived[fn]

    def color_classes(self) -> dict[str, list[Edge]]:
        classes: dict[str, list[Edge]] = {}
        for e in self.edges:
            classes.setdefault(e.color, []).append(e)
        return classes

    def to_json_dict(self) -> dict:
        return {
            "left": list(self.left),
            "right": list(self.right),
            "edges": [e.to_json_dict() for e in self.edges],
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def load_graph(doc) -> ColoredBipartiteGraph:
    doc = _load_object(doc, {"left", "right", "edges"},
                       "graph document needs exactly left/right/edges")
    edges = []
    for row in doc["edges"]:
        if not isinstance(row, dict) or not {"x", "y", "color"} <= set(row):
            raise LabError("SCHEMA_ERROR", f"malformed edge row {row!r}")
        extra = set(row) - {"x", "y", "color", "w"}
        if extra:
            raise LabError("SCHEMA_ERROR", f"unknown edge keys {sorted(extra)}")
        x, y, color = _strings([row["x"], row["y"], row["color"]], "edge x, y and color")
        weight = Fraction(*_ratio(row["w"])) if "w" in row else None
        edges.append(Edge(x, y, color, weight))
    return ColoredBipartiteGraph(
        _strings(doc["left"], "'left'"), _strings(doc["right"], "'right'"), edges
    )


class Biclique(NamedTuple):
    left: tuple[str, ...]
    right: tuple[str, ...]

    def pairs(self):
        return itertools.product(self.left, self.right)

    to_json_dict = _record_json


def load_cover(doc) -> list[Biclique]:
    doc = _load_object(doc, {"bicliques"}, "cover document needs exactly a bicliques list")
    cover = []
    for row in doc["bicliques"]:
        if not isinstance(row, dict) or set(row) != {"left", "right"}:
            raise LabError("SCHEMA_ERROR", f"malformed biclique {row!r}")
        b = Biclique(_strings(row["left"], "biclique left side"),
                     _strings(row["right"], "biclique right side"))
        if any(len(set(side)) != len(side) for side in b):
            raise LabError("SCHEMA_ERROR", f"biclique {row!r} repeats a vertex")
        cover.append(b)
    return cover


def dump_cover(cover) -> str:
    return json.dumps({"bicliques": [b.to_json_dict() for b in cover]}, indent=2) + "\n"


def load_partition(doc) -> list[list[tuple[str, str]]]:
    doc = _load_object(doc, {"matchings"}, "partition document needs exactly a matchings list")
    partition = []
    for part in doc["matchings"]:
        if not isinstance(part, list):
            raise LabError("SCHEMA_ERROR", f"matching {part!r} must be a list of edges")
        partition.append([_strings(pair, "partition edge", length=2) for pair in part])
    return partition


def dump_partition(partition) -> str:
    doc = {"matchings": [[[x, y] for x, y in part] for part in partition]}
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# generators and the edge distribution


def gen_gnk(n: int, k: int) -> ColoredBipartiteGraph:
    """Disjointness graph: k-subsets of {1..n} on both sides, an edge when
    the sets are disjoint, colored by the union (each color appears on
    exactly C(2k,k) edges, one per split of the union)."""
    from .families import _disjoint_pair_count, _disjoint_set_atoms, _set_label
    # the edges are the atoms of disjoint-sets(n, k), under the same rule
    _disjoint_pair_count(n, k, "disjointness graph")
    if math.comb(n, k) > VERTEX_BUDGET:
        raise TooLarge(f"{math.comb(n, k)} vertices per side exceed the budget")
    labels = [_set_label(c) for c in itertools.combinations(range(1, n + 1), k)]
    edges = [Edge(x, y, union) for union, x, y in _disjoint_set_atoms(n, k)]
    return ColoredBipartiteGraph(labels, labels, edges)


def _require_edges(g: ColoredBipartiteGraph) -> None:
    if not g.edges:
        raise LabError("EMPTY_GRAPH", "no edges to draw from")


def edge_distribution(g: ColoredBipartiteGraph) -> JointDistribution:
    """Pick an edge by weight (1/n if unweighted; one path through ``_common``):
    A is the color, X and Y the endpoints, and H(A|X,Y) = 0."""
    from .distributions import JointDistribution, _common
    _require_edges(g)
    n = len(g.edges)
    masses = [(1, n) if (w := e.weight) is None else (w.numerator, w.denominator) for e in g.edges]
    counts, den = _common(*zip(*masses))
    outcomes = [(e.color, e.x, e.y) for e in g.edges]
    return JointDistribution(("A", "X", "Y"), zip(outcomes, counts), den)


# ---------------------------------------------------------------------------
# matching partitions


def _product_bound(g: ColoredBipartiteGraph, k: int) -> dict:
    """K = k parts, L and R the least left and right degrees, and whether
    K >= L*R."""
    left, right = dict.fromkeys(g.left, 0), dict.fromkeys(g.right, 0)
    for e in g.edges:
        left[e.x] += 1
        right[e.y] += 1
    left_min, right_min = min(left.values(), default=0), min(right.values(), default=0)
    return {"K": k, "L": left_min, "R": right_min, "product_bound_holds": k >= left_min * right_min}


def verify_matching_partition(g: ColoredBipartiteGraph, partition) -> Verdict:
    """The ``matching-partition`` verdict: the parts partition the edge set,
    each part is a matching, and no two parts both involve a common (x, y) pair.

    "Involves (x, y)" means the part has an edge at x and an edge at y
    (possibly the same edge); the pair itself need not be an edge.
    """
    parts = [list(part) for part in partition]
    seen = {}
    for i, part in enumerate(parts):
        for x, y in part:
            if not g.has_edge(x, y):
                raise LabError("NOT_A_PARTITION", f"({x!r}, {y!r}) is not an edge of the graph")
            if seen.get((x, y)) == i:
                return Verdict("matching-partition", {"part": i, "x": x, "y": y},
                               "edge listed twice in one part")
            if (x, y) in seen:
                return Verdict("matching-partition", {"x": x, "y": y}, "edge listed in two parts")
            seen[(x, y)] = i
    if len(seen) != len(g.edges):
        missing = sorted(e.pair() for e in g.edges if e.pair() not in seen)
        x, y = missing[0]
        return Verdict("matching-partition", {"x": x, "y": y}, "edge missing from the partition")
    for i, part in enumerate(parts):
        if not part:
            return Verdict("matching-partition", {"part": i}, "part is empty")
        lefts, rights = set(), set()
        for x, y in part:
            if x in lefts or y in rights:
                return Verdict("matching-partition", {"part": i, "x": x, "y": y},
                               "part is not a matching")
            lefts.add(x)
            rights.add(y)
    owner = {}
    for i, part in enumerate(parts):
        lefts = {x for x, _ in part}
        rights = {y for _, y in part}
        for x in sorted(lefts):
            for y in sorted(rights):
                if (x, y) in owner and owner[(x, y)] != i:
                    return Verdict(
                        "matching-partition",
                        {"x": x, "y": y, "parts": sorted((owner[(x, y)], i))},
                        "two parts involve the same pair",
                    )
                owner[(x, y)] = i
    return Verdict("matching-partition")


class CorollaryCertificate(NamedTuple):
    K: int
    L: int
    R: int
    product_bound_holds: bool
    entropy_floor_holds: Optional[bool] = None
    theorem1_status: Optional[str] = None
    measures: Optional[dict] = None

    to_json_dict = _record_json


def corollary_bound_check(g: ColoredBipartiteGraph, partition) -> CorollaryCertificate:
    """Certify K >= L*R for a valid matching partition.

    The entropy route recolors each edge by its part index: the validity
    conditions make the part index a unique-common-value coloring, so the
    split H(A|X) + H(A|Y) <= H(A) holds, and with H(A|X) >= log2 L,
    H(A|Y) >= log2 R, H(A) <= log2 K the product bound follows.
    """
    verify_matching_partition(g, partition).require()
    bound = _product_bound(g, len(partition))
    if not g.edges:
        return CorollaryCertificate(**bound)
    part_of = {}
    for i, part in enumerate(partition):
        for pair in part:
            part_of[pair] = str(i)
    from .inequalities import verify_theorem1
    recolored = ColoredBipartiteGraph(
        g.left, g.right,
        [Edge(e.x, e.y, part_of[e.pair()], e.weight) for e in g.edges],
    )
    d = edge_distribution(recolored)
    cert = verify_theorem1(d)
    measures = {
        "H(A)": d.entropy("A"),
        "H(A|X)": d.cond_entropy("A", "X"),
        "H(A|Y)": d.cond_entropy("A", "Y"),
    }
    left_min, right_min = bound["L"], bound["R"]
    floor = (
        (left_min == 0 or _at_least(measures["H(A|X)"], math.log2(left_min)))
        and (right_min == 0 or _at_least(measures["H(A|Y)"], math.log2(right_min)))
        and _at_least(math.log2(bound["K"]), measures["H(A)"])
    )
    return CorollaryCertificate(**bound, entropy_floor_holds=floor,
                                theorem1_status=cert.status, measures=measures)


def _search_cap(g: ColoredBipartiteGraph, limit, default: int, search: str) -> None:
    """The edge cap of an exhaustive search: ``limit``, or ``default`` when
    it is None.  A negative limit is a bad parameter, and more edges than the
    limit make the search too large."""
    if limit is None:
        limit = default
    if limit < 0:
        raise LabError("BAD_PARAM", f"the search limit must not be negative, got {limit}")
    if len(g.edges) > limit:
        raise TooLarge(f"{len(g.edges)} edges exceed the {search} search limit {limit}")


def _walk(root, children):
    """Yield `root`, then every node below it, depth first.  `children(node)`
    returns an iterator, asked for only after the caller has handled the node
    and drawn one child at a time, so a bound the caller tightens prunes the
    children not yet made.  One loop over a stack of these iterators: no call
    nests per level, so depth is bounded by memory only."""
    yield root
    stack = [children(root)]
    while stack:
        for node in stack[-1]:
            yield node
            stack.append(children(node))
            break
        else:
            stack.pop()


def min_valid_matching_partition(g: ColoredBipartiteGraph, limit=None) -> int:
    """Minimal number of parts over all valid matching partitions.

    Restricted-growth enumeration (Knuth, TAOCP 4A, 7.2.1.5): edges are
    assigned in a fixed order, and an edge may open a new part only after
    the parts before it.  Each part is a mask of its left vertices and one of
    its right vertices: it stays a matching while no edge adds a bit it has,
    and two parts involve a common (x, y) pair exactly when they share a left
    bit and a right bit.  Involvement only grows along a branch, so a clash
    rules out the whole subtree.  A node is the index of the next edge; a leaf
    with fewer parts than the cap lowers it, so the cap ends the walk as K.
    """
    _search_cap(g, limit, PARTITION_SEARCH_LIMIT, "partition")
    left_bit = {x: 1 << i for i, x in enumerate(g.left)}
    right_bit = {y: 1 << i for i, y in enumerate(g.right)}
    bits = [(left_bit[e.x], right_bit[e.y]) for e in g.edges]
    cap = len(bits) + 1  # partitions of fewer parts than this are searched for
    masks: list[tuple[int, int]] = []  # (left mask, right mask) of each part

    def children(index):
        # place edge `index` in each part it fits, part `used` being a new one
        if index == len(bits):
            return
        bx, by = bits[index]
        used = len(masks)
        for j in range(used + 1):
            if used >= cap:  # a partition found below lowered the cap: no child can beat it
                return
            if j == used:
                masks.append((0, 0))
            left, right = masks[j]
            if not (left & bx or right & by):
                grown_left, grown_right = left | bx, right | by
                masks[j] = (0, 0)  # so that the scan skips part j itself
                for other_left, other_right in masks:
                    if grown_left & other_left and grown_right & other_right:
                        break
                else:
                    masks[j] = (grown_left, grown_right)
                    yield index + 1
                masks[j] = (left, right)
            if j == used:
                masks.pop()

    for index in _walk(0, children):
        if index == len(bits) and len(masks) < cap:
            cap = len(masks)
    return cap


# ---------------------------------------------------------------------------
# coloring properties


def check_property_star(g: ColoredBipartiteGraph) -> Verdict:
    """No biclique of the graph contains two distinct same-colored edges.

    Two same-colored edges always share a biclique when they share an
    endpoint ({x} x {y, y2} or {x, x2} x {y}), and otherwise exactly when
    both crossing edges (x, y2) and (x2, y) are present.
    """
    for color, edges in sorted(g.color_classes().items()):
        pairs = sorted(e.pair() for e in edges)
        for (x, y), (x2, y2) in itertools.combinations(pairs, 2):
            if x == x2 or y == y2 or (g.has_edge(x, y2) and g.has_edge(x2, y)):
                return Verdict(PROPERTY_STAR, {"color": color, "x": x, "y": y, "x2": x2, "y2": y2},
                               "two same-colored edges lie in a common biclique")
    return Verdict(PROPERTY_STAR)


def check_property_doublestar(g: ColoredBipartiteGraph) -> Verdict:
    """Whenever all four edges of a 2x2 cell exist and the two crossing
    edges share a color, each corner edge carries that color too."""
    for color, edges in sorted(g.color_classes().items()):
        pairs = sorted(e.pair() for e in edges)
        for (x, y2), (x2, y) in itertools.permutations(pairs, 2):
            if x == x2 or y == y2:
                continue
            if g.has_edge(x, y) and g.has_edge(x2, y2):
                corner = g.edge_at(x, y)
                if corner.color != color:
                    return Verdict(PROPERTY_DOUBLESTAR,
                                   {"color": color, "x": x, "y": y,
                                    "corner_color": corner.color, "x2": x2, "y2": y2},
                                   "crossing pair does not force the corner color")
    return Verdict(PROPERTY_DOUBLESTAR)


# ---------------------------------------------------------------------------
# biclique cover bounds


class BoundReport(NamedTuple):
    name: str
    value: float
    integer_bound: int
    exact: Optional[Fraction]
    requires: str

    to_json_dict = _record_json


def _floor_report(name: str, value: float, exact, requires: str) -> BoundReport:
    # a float cover-size floor and the least integer it certifies
    return BoundReport(name, value, max(1, math.ceil(value - TOLERANCE)), exact, requires)


def _entropy_floor(d: JointDistribution) -> float:
    # the cover-size floor 2^((H(A|X)+H(A|Y)-H(A))/2) of an (A, X, Y) distribution
    return 2.0 ** ((d.cond_entropy("A", "X") + d.cond_entropy("A", "Y") - d.entropy("A")) / 2)


def bcc_entropy_bound(g: ColoredBipartiteGraph) -> BoundReport:
    """Cover-size floor 2^((H(A|X)+H(A|Y)-H(A))/2) under the forced-corner
    property."""
    g._once(check_property_doublestar).require()
    return _floor_report(
        "entropy", _entropy_floor(g._once(edge_distribution)), None, PROPERTY_DOUBLESTAR
    )


def bcc_color_bound(g: ColoredBipartiteGraph) -> BoundReport:
    """Largest color class: its edges pairwise refuse to share a biclique,
    so each needs its own."""
    g._once(check_property_star).require()
    _require_edges(g)
    top = max(len(edges) for edges in g.color_classes().values())
    return BoundReport("color", float(top), top, Fraction(top), PROPERTY_STAR)


def bcc_dual_entropy_bound(g: ColoredBipartiteGraph) -> BoundReport:
    """Cover-size floor 2^(H(X,Y)-H(A)): within one biclique the edge is
    determined by its color, so H(X,Y|Z) = H(A|Z) and any cover index Z
    satisfies H(Z) >= H(X,Y) - H(A).

    When edges are unweighted and the color classes all have the same
    size, the value is that size exactly as a rational.
    """
    g._once(check_property_star).require()
    d = g._once(edge_distribution)
    value = 2.0 ** (d.entropy(("X", "Y")) - d.entropy("A"))
    classes = g.color_classes()
    counts = {len(edges) for edges in classes.values()}
    exact = None
    if len(counts) == 1 and all(e.weight is None for e in g.edges):
        exact = Fraction(len(g.edges), len(classes))
    return _floor_report("dual-entropy", value, exact, PROPERTY_STAR)


# ---------------------------------------------------------------------------
# exact cover solver


def maximal_bicliques(g: ColoredBipartiteGraph) -> list[Biclique]:
    """All maximal bicliques.  Each right side (intent) is an intersection
    of neighborhoods, so it is already the common neighborhood of the left
    vertices that see all of it, and the biclique they span is maximal."""
    nbr = {x: set() for x in g.left}
    for e in g.edges:
        nbr[e.x].add(e.y)
    intents = set()
    queue = [frozenset(nbr[x]) for x in g.left if nbr[x]]
    while queue:
        t = queue.pop()
        if t in intents:
            continue
        intents.add(t)
        for x in g.left:
            cut = t & nbr[x]
            if cut and cut not in intents:
                queue.append(cut)
    found = [Biclique(tuple(sorted(x for x in g.left if t <= nbr[x])), tuple(sorted(t)))
             for t in intents]
    return sorted(found, key=lambda b: (b.left, b.right))


def verify_biclique_cover(g: ColoredBipartiteGraph, cover) -> Verdict:
    covered = set()
    for b in cover:
        if not b.left or not b.right:
            return Verdict("biclique-cover", {"biclique": b.to_json_dict()}, "empty side")
        for x, y in b.pairs():
            if not g.has_edge(x, y):
                return Verdict("biclique-cover", {"x": x, "y": y}, "biclique cell is not an edge")
            covered.add((x, y))
    for e in g.edges:
        if e.pair() not in covered:
            return Verdict("biclique-cover", {"x": e.x, "y": e.y}, "edge not covered")
    return Verdict("biclique-cover")


def _root_lower_bound(g: ColoredBipartiteGraph) -> int:
    # The dual entropy bound is left out: under the same property-star gate,
    # H(X,Y) - H(A) = H(X,Y|A) <= log2 of the largest color class.
    floor = 1
    for bound in (bcc_color_bound, bcc_entropy_bound):
        try:
            floor = max(floor, bound(g).integer_bound)
        except PreconditionFailed:
            continue
    return floor


def _cover_masks(g: ColoredBipartiteGraph):
    """Maximal bicliques; per edge bit, its holders (the bicliques holding it)
    and its reach (the OR of their masks); per biclique, its edge mask.  Bits
    run in branching order: fewest holders first, then edge order."""
    cliques = maximal_bicliques(g)
    holders = [[i for i, b in enumerate(cliques) if e.x in b.left and e.y in b.right]
               for e in g.edges]
    holders.sort(key=len)  # a stable sort keeps edge order among ties
    cells = [0] * len(cliques)
    for bit, indices in enumerate(holders):
        for i in indices:
            cells[i] |= 1 << bit
    reach = [0] * len(holders)
    for bit, indices in enumerate(holders):
        for i in indices:
            reach[bit] |= cells[i]
    return cliques, holders, cells, reach


def _packing_prunes(uncovered, picks, top, holders, cells, reach, biggest) -> bool:
    """Whether `uncovered` needs more than `picks` bicliques.  Edges collected
    greedily from the pivot (lowest bit), each outside the reach of those
    before, share no biclique, so each takes its own pick, which covers at most
    its best holder's |cell & uncovered| (`top` for the pivot); others `biggest`."""
    packed, rest = [], uncovered
    while rest:
        bit = (rest & -rest).bit_length() - 1
        packed.append(bit)
        if len(packed) > picks:
            return True
        rest &= ~reach[bit]
    reached = top + sum(max((cells[i] & uncovered).bit_count() for i in holders[bit])
                        for bit in packed[1:])
    return reached + (picks - len(packed)) * biggest < uncovered.bit_count()


def min_biclique_cover(g: ColoredBipartiteGraph, limit=None) -> list[Biclique]:
    """An optimal biclique cover by branch-and-bound set cover over the
    maximal bicliques as edge masks (`_cover_masks`), from a greedy cover down
    to the root floor.  A node is the uncovered mask, reached by the picks in
    `chosen`; it branches on its lowest bit, so hashing plays no part, and
    tries that bit's holders largest first.  It is pruned when the picks left
    to beat the best cover are fewer than ceil(|uncovered| / largest biclique)
    or the packing floor (`_packing_prunes`) needs; the last pick is the first
    holder that covers everything left."""
    _search_cap(g, limit, COVER_SEARCH_LIMIT, "cover")
    if not g.edges:
        return []
    cliques, holders, cells, reach = _cover_masks(g)

    # greedy warm start
    best: list[int] = []
    uncovered = universe = (1 << len(holders)) - 1
    while uncovered:
        gains = [(c & uncovered).bit_count() for c in cells]
        best.append(gains.index(max(gains)))
        uncovered &= ~cells[best[-1]]
    floor = _root_lower_bound(g)
    biggest = max(c.bit_count() for c in cells)
    chosen: list[int] = []

    def children(uncovered):
        picks = len(best) - 1 - len(chosen)
        # The packing floor implies the size check and prunes the same nodes,
        # but costs more: without the check G(9,1) and G(8,2) ran 10-17% slower.
        if not uncovered or math.ceil(uncovered.bit_count() / biggest) > picks:
            return
        options = holders[(uncovered & -uncovered).bit_length() - 1]
        if picks == 1:
            options = [i for i in options if not uncovered & ~cells[i]][:1]
        else:
            sizes = {i: (cells[i] & uncovered).bit_count() for i in options}
            if _packing_prunes(uncovered, picks, max(sizes.values()),
                               holders, cells, reach, biggest):
                return
            # a stable sort, reversed, keeps option order among ties
            options = sorted(options, key=sizes.get, reverse=True)
        for i in options:
            chosen.append(i)
            yield uncovered & ~cells[i]
            chosen.pop()

    for uncovered in _walk(universe, children):
        if not uncovered and len(chosen) < len(best):
            best = list(chosen)
        if len(best) <= floor:
            break
    return [cliques[i] for i in best]


# ---------------------------------------------------------------------------
# cover-index extension


class ZExtensionReport(NamedTuple):
    cover_size: int
    split_slack: float
    split_holds: bool
    index_entropy: float
    size_floor: float
    size_floor_holds: bool
    per_clique_status: tuple[str, ...]

    to_json_dict = _record_json


def extend_with_cover_index(g: ColoredBipartiteGraph,
                            cover) -> tuple[JointDistribution, ZExtensionReport]:
    """Adjoin a cover-index variable Z: each edge atom splits uniformly
    across the bicliques that contain it.

    The (A, X, Y) marginal is preserved exactly.  Within one biclique all
    endpoint pairs are edges, so conditioned on Z the support saturates
    and the entropy split applies clique by clique, giving
    H(A|X,Z) + H(A|Y,Z) <= H(A|Z) and in turn
    cover size >= 2^((H(A|X)+H(A|Y)-H(A))/2).  Returns the extended
    distribution and the report on it.
    """
    from .distributions import JointDistribution
    from .inequalities import verify_theorem1
    verdict = verify_biclique_cover(g, cover)
    if not verdict.holds:
        raise LabError("NOT_A_COVER", verdict.detail, witness=verdict.witness)
    d = edge_distribution(g)
    members = {e.pair(): [] for e in g.edges}
    for i, b in enumerate(cover):
        for pair in b.pairs():
            members[pair].append(str(i))
    # an edge atom of count n splits into shares n / k over the lcm of the k
    splits = [len(members[e.pair()]) for e in g.edges]
    lcm = math.lcm(*splits)
    atoms = {}
    for e, k in zip(g.edges, splits):
        share = d.counts[(e.color, e.x, e.y)] * (lcm // k)
        for z in members[e.pair()]:
            atoms[(e.color, e.x, e.y, z)] = share
    ext = JointDistribution(("A", "X", "Y", "Z"), atoms, d.denominator * lcm)
    slack = (
        ext.cond_entropy("A", "Z")
        - ext.cond_entropy("A", ("X", "Z"))
        - ext.cond_entropy("A", ("Y", "Z"))
    )
    floor = _entropy_floor(d)
    statuses = tuple(verify_theorem1(ext.condition(o for o in ext.counts if o[3] == z)).status
                     for z in map(str, range(len(cover))))
    return ext, ZExtensionReport(len(cover), slack, _at_least(slack), ext.entropy("Z"), floor,
                                 _at_least(len(cover), floor), statuses)
