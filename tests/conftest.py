"""Shared distribution builders, a closed-form gap, a reference emitter and
a partition enumerator used across the test modules.

Builders here construct atoms by hand, independently of the generators in
the package, so expected values in the tests come from closed forms rather
than from the code under test.  Valid matching partitions come from brute
force, independently of the partition search.
"""

import json
import math
import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from entroplab.distributions import JointDistribution
from entroplab.graphs import verify_matching_partition


def xor_triple():
    """A = X xor Y for independent uniform bits X, Y; four atoms of mass 1/4."""
    atoms = {}
    for x in (0, 1):
        for y in (0, 1):
            atoms[(str(x ^ y), str(x), str(y))] = 1
    return JointDistribution(("A", "X", "Y"), atoms, 4)


def copied_bit():
    """A = X = Y, a single uniform bit copied three times."""
    atoms = {(b, b, b): 1 for b in ("0", "1")}
    return JointDistribution(("A", "X", "Y"), atoms, 2)


def independent_bits(variables=("A", "B", "X", "Y")):
    n = len(variables)
    atoms = {}
    for i in range(2**n):
        bits = tuple(str((i >> j) & 1) for j in range(n))
        atoms[bits] = 1
    return JointDistribution(variables, atoms, 2**n)


def pairs_triple(n):
    """Uniform ordered pair of distinct values with A = the unordered pair,
    built directly from itertools-free loops (mirrors no generator code)."""
    atoms = {}
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            if x != y:
                a = "{%d,%d}" % (min(x, y), max(x, y))
                atoms[(a, str(x), str(y))] = 1
    return JointDistribution(("A", "X", "Y"), atoms, n * (n - 1))


def disjoint_sets_split_gap(n, k):
    """Closed form of the entropy-split gap of gen_disjoint_sets(n, k),
    log2 C(n,2k) - 2 log2 C(n-k,k), with no enumeration."""
    return math.log2(math.comb(n, 2 * k)) - 2 * math.log2(math.comb(n - k, k))


# The golden distribution inputs that load: not-normalised.json is refused.
GOLDEN_DISTRIBUTIONS = sorted(
    path for path in (Path(__file__).parent / "golden" / "inputs").glob("*.json")
    if "variables" in json.loads(path.read_text(encoding="utf-8"))
    and path.stem != "not-normalised"
)


def reference_dumps(d):
    """The canonical emission of `d` built as the wire form's dict and printed
    by `json.dumps`: variables in declared order, atoms sorted by their value
    tuples, each mass as `str` of its Fraction."""
    atoms = [{"values": dict(zip(d.variables, outcome)), "p": str(p)}
             for outcome, p in sorted(d.atoms.items())]
    return json.dumps({"variables": list(d.variables), "atoms": atoms}, indent=2) + "\n"


def random_support_distribution(rng, variables=("A", "B", "X", "Y"), max_size=3):
    """Random alphabets, random non-empty support, random exact masses."""
    sizes = [rng.randint(1, max_size) for _ in variables]
    cells = [()]
    for size in sizes:
        cells = [c + (str(v),) for c in cells for v in range(size)]
    count = rng.randint(1, len(cells))
    support = rng.sample(cells, count)
    nums = [rng.randint(1, 100) for _ in support]
    return JointDistribution(variables, dict(zip(support, nums)), sum(nums))


def markov_fork(d):
    """The conditional-independence fork of X and Y given the other roles
    (A, and B when present): p'(g, x, y) = p(g, x) p(g, y) / p(g), summed
    from the Fraction atom masses.  The (g, X) and (g, Y) marginals are kept
    and the support can only grow."""
    col = {v: i for i, v in enumerate(d.variables)}
    group = tuple(v for v in d.variables if v not in ("X", "Y"))
    gx, gy, gg = {}, {}, {}
    for outcome, p in d.atoms.items():
        g = tuple(outcome[col[v]] for v in group)
        for table, key in ((gx, (g, outcome[col["X"]])), (gy, (g, outcome[col["Y"]])), (gg, g)):
            table[key] = table.get(key, 0) + p
    masses = {}
    for (g, x), px in gx.items():
        for (h, y), py in gy.items():
            if g == h:
                values = dict(zip(group, g), X=x, Y=y)
                masses[tuple(values[v] for v in d.variables)] = px * py / gg[g]
    den = math.lcm(*(m.denominator for m in masses.values()))
    return JointDistribution(d.variables, {o: int(m * den) for o, m in masses.items()}, den)


def _matching_labellings(pairs, parts=()):
    """Every partition of `pairs` into matchings, in lexicographic order of
    its restricted-growth labelling: each pair joins an earlier part that has
    neither of its endpoints, or opens the next part."""
    if not pairs:
        yield [list(part) for part in parts]
        return
    (x, y), rest = pairs[0], pairs[1:]
    for j, part in enumerate(parts + ((),)):
        if all(x != x2 and y != y2 for x2, y2 in part):
            yield from _matching_labellings(rest, parts[:j] + (part + ((x, y),),) + parts[j + 1:])


def valid_matching_partitions(g):
    """Yield, as a list of parts of (x, y) pairs, every partition of the edges
    into matchings that `verify_matching_partition` accepts, by brute force
    and independently of the partition search."""
    for parts in _matching_labellings([e.pair() for e in g.edges]):
        if verify_matching_partition(g, parts).holds:
            yield parts


def min_degrees(g):
    """The least left and right degrees of `g` (0 on an empty side), each
    vertex's degree counted over `g.edges`: the paper's L and R, computed
    independently of the code under test."""
    return (min((sum(e.x == x for e in g.edges) for x in g.left), default=0),
            min((sum(e.y == y for e in g.edges) for y in g.right), default=0))


@st.composite
def sparse_triples(draw, max_size=3):
    """Hypothesis strategy: random-support distributions over (A, X, Y)."""
    cells = [
        (f"a{a}", f"x{x}", f"y{y}")
        for a in range(max_size)
        for x in range(max_size)
        for y in range(max_size)
    ]
    support = draw(st.sets(st.sampled_from(cells), min_size=1, max_size=9))
    nums = draw(
        st.lists(st.integers(1, 9), min_size=len(support), max_size=len(support))
    )
    return JointDistribution(("A", "X", "Y"), dict(zip(sorted(support), nums)), sum(nums))


@pytest.fixture
def rng():
    return random.Random(20260815)
