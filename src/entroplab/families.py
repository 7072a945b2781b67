"""Distribution families: worked examples and seeded fuzzing samplers.

Three deterministic constructions exercise the conditional inequalities at
interesting points of the entropy region:

* ``gen_distinct_pairs(n)``: a uniform ordered pair of distinct values with
  ``A`` the unordered pair.  The unique-common-value condition fails (both
  ``x`` and ``y`` are compatible with two colors), and the entropy-split
  inequality is violated by exactly ``log2(2(n-1)/n)`` bits.
* ``gen_disjoint_sets(n, k)``: a uniform ordered pair of disjoint
  ``k``-subsets of ``{1..n}`` with ``A`` their union.  Generalizes
  distinct pairs (``k=1``); the violation approaches ``log2 C(2k,k)``
  as ``n`` grows.
* ``gen_field_lines(k_exp, delta)``: a uniform affine line over
  ``GF(2^k_exp)`` observed at an abscissa from each half of the field,
  with a rank-one coupling of strength ``delta`` between the two
  abscissas.  Support saturation and pointwise product equality hold
  exactly for every ``|delta| < 1`` while ``I(X:Y) > 0`` whenever
  ``delta != 0``, so the reduced inequality cannot be rescued by adding
  any multiple of ``I(X:Y)``.

The samplers (``sample_random_distribution``, ``sample_cond2c``,
``extend_with_random_B``) are pure functions of their parameters and seed;
masses are random numerators over an exact common denominator, so every
output survives strict schema validation.
"""

import itertools
import math
import random
from fractions import Fraction

from .distributions import JointDistribution, _insert_by_role
from .errors import LabError, TooLarge, _ratio

ATOM_BUDGET = 10**6
SAMPLER_ATOM_BUDGET = 10**5
NUMERATOR_RANGE = (1, 1 << 16)
B_WEIGHT_TOTAL = 1 << 20  # > ATOM_BUDGET: room for distinct B cut points

# minimal-weight irreducible polynomials over GF(2), one per extension degree
_IRREDUCIBLE = {
    1: 0b11,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10000011,
    8: 0b100011011,
}


def _gf_mul(a: int, b: int, k_exp: int) -> int:
    """Carry-less product of field elements, reduced mod the degree-k_exp
    irreducible polynomial."""
    poly = _IRREDUCIBLE[k_exp]
    top = 1 << k_exp
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        b >>= 1
        a <<= 1
        if a & top:
            a ^= poly
    return acc


def _set_label(items) -> str:
    return "{%s}" % ",".join(str(i) for i in sorted(items))


def _disjoint_set_atoms(n: int, k: int):
    # (union, X, Y) labels of the ordered pairs of disjoint k-subsets of {1..n}
    universe = range(1, n + 1)
    for xs in itertools.combinations(universe, k):
        for ys in itertools.combinations([i for i in universe if i not in xs], k):
            yield _set_label(xs + ys), _set_label(xs), _set_label(ys)


def _disjoint_pair_count(n: int, k: int, family: str) -> int:
    """C(n,k) C(n-k,k), the ordered pairs of disjoint k-subsets of {1..n}:
    the atoms of disjoint-sets(n, k) and the edges of G(n, k).  Refuses
    k outside [1, n/2] and, before any large binomial, a count past
    ATOM_BUDGET, which the sound bound C(n,k) C(n-k,k) >= max(n, 2^k)
    decides for a large n or k."""
    if not isinstance(n, int) or not isinstance(k, int) or k < 1 or 2 * k > n:
        raise LabError("BAD_PARAM", f"{family} needs 1 <= k <= n/2, got n={n!r} k={k!r}")
    if max(n, 2 ** min(k, 64)) <= ATOM_BUDGET:
        count = math.comb(n, k) * math.comb(n - k, k)
        if count <= ATOM_BUDGET:
            return count
    raise TooLarge(f"{family} ({n},{k}) has more than {ATOM_BUDGET} pairs of disjoint sets")


def gen_distinct_pairs(n: int) -> JointDistribution:
    """Uniform ordered pair (X, Y) of distinct values in {1..n}; A is the
    unordered pair, so A determines {X, Y} but not which is which.  This is
    ``gen_disjoint_sets(n, 1)`` with the braces dropped from X and Y."""
    if not isinstance(n, int) or n < 2:
        raise LabError("BAD_PARAM", f"distinct-pairs needs n >= 2, got n={n!r}")
    if n * (n - 1) > ATOM_BUDGET:
        raise TooLarge(f"distinct-pairs needs n(n-1) <= {ATOM_BUDGET} ordered pairs, got n={n}")
    d = gen_disjoint_sets(n, 1)
    counts = {(a, x[1:-1], y[1:-1]): c for (a, x, y), c in d.counts.items()}
    return JointDistribution(d.variables, counts, d.denominator)


def gen_disjoint_sets(n: int, k: int) -> JointDistribution:
    """Uniform ordered pair (X, Y) of disjoint k-subsets of {1..n}; A is
    their union, a 2k-subset that hides the split.

    H(A) = log2 C(n,2k) and H(A|X) = H(A|Y) = log2 C(n-k,k) exactly, so the
    entropy-split gap is log2 C(n,2k) - 2 log2 C(n-k,k).
    """
    count = _disjoint_pair_count(n, k, "disjoint-sets")
    return JointDistribution(("A", "X", "Y"), dict.fromkeys(_disjoint_set_atoms(n, k), 1), count)


def gen_field_lines(k_exp: int, delta) -> JointDistribution:
    """A uniform affine line a0 + a1*t over GF(2^k_exp), observed at one
    abscissa from each half of the field.

    A is the line (a0, a1); X = (t1, value at t1) with t1 in the first half
    F' of the field, Y = (t2, value at t2) with t2 in the second half F''.
    Given the line, the pair (t1, t2) is drawn from the rank-one coupling

        p(t1, t2 | a) = (1 + delta * chi'(t1) * chi''(t2)) / (q/2)^2

    with chi', chi'' fixed balanced +-1 labelings of the halves.  Balance
    keeps every per-line abscissa marginal uniform, so p(a) = 1/q^2,
    p(a,x) = p(a,y) = 2/q^3 and p(x) = p(y) = 2/q^2 hold exactly for any
    delta, while |delta| < 1 keeps the support full within each line.
    """
    if not isinstance(k_exp, int) or k_exp < 2:
        raise LabError(
            "BAD_PARAM",
            f"field-lines needs an integer exponent >= 2 (balanced halves), got {k_exp!r}",
        )
    if k_exp not in _IRREDUCIBLE:
        raise LabError("BAD_PARAM", f"no reduction polynomial tabulated for exponent {k_exp}")
    delta = Fraction(*_ratio(delta))
    if abs(delta) >= 1:
        raise LabError("BAD_PARAM", f"coupling strength must satisfy |delta| < 1, got {delta}")
    q = 1 << k_exp
    half = q // 2
    if q**4 // 4 > ATOM_BUDGET:
        raise TooLarge(f"field-lines at q={q} would enumerate {q ** 4 // 4} atoms")
    # position-based balanced labelings of F' = [0, half) and F'' = [half, q)
    chi1 = {t: (1 if t < half // 2 else -1) for t in range(half)}
    chi2 = {t: (1 if t - half < half // 2 else -1) for t in range(half, q)}
    # p = (1 + delta * chi' * chi'') / (q^2 (q/2)^2), as integer counts over
    # delta's denominator times q^2 (q/2)^2
    u, v = delta.numerator, delta.denominator
    atoms = {}
    for a0 in range(q):
        for a1 in range(q):
            line = f"({a0},{a1})"
            points = {t: a0 ^ _gf_mul(a1, t, k_exp) for t in range(q)}
            for t1 in range(half):
                x = f"({t1},{points[t1]})"
                for t2 in range(half, q):
                    y = f"({t2},{points[t2]})"
                    atoms[(line, x, y)] = v + u * chi1[t1] * chi2[t2]
    return JointDistribution(("A", "X", "Y"), atoms, v * q * q * half * half)


def _numerators(rng: random.Random, count: int) -> list[int]:
    lo, hi = NUMERATOR_RANGE
    return [rng.randint(lo, hi) for _ in range(count)]


def sample_random_distribution(variables, sizes, seed: int) -> JointDistribution:
    """Full-support distribution with random exact masses: numerators
    uniform in [1, 2^16] over a common denominator."""
    variables = tuple(variables)
    sizes = tuple(sizes)
    if len(variables) != len(sizes) or not variables:
        raise LabError("BAD_PARAM", "need one alphabet size per variable")
    if any(not isinstance(s, int) or s < 1 for s in sizes):
        raise LabError("BAD_PARAM", f"alphabet sizes must be positive integers, got {sizes}")
    count = math.prod(sizes)
    if count > SAMPLER_ATOM_BUDGET:
        raise TooLarge(f"{count} atoms exceed the sampler budget")
    rng = random.Random(seed)
    outcomes = list(itertools.product(*[[str(v) for v in range(s)] for s in sizes]))
    numerators = _numerators(rng, count)
    return JointDistribution(variables, dict(zip(outcomes, numerators)), sum(numerators))


def sample_cond2c(seed: int, sizes) -> JointDistribution:
    """Random (A, B, X, Y) distribution whose support satisfies the
    unique-common-value condition by construction.

    Cells of the X*Y grid are colored greedily in random order; a color is
    admitted only if no other color would end up sharing both a row and a
    column with it.  Atoms then land on a random subset of the colored
    cells crossed with the B alphabet; dropping cells only shrinks each
    color's rows and columns, so no two colors come to share both.
    """
    sizes = tuple(sizes)
    if len(sizes) != 4 or any(not isinstance(s, int) or s < 1 for s in sizes):
        raise LabError("BAD_PARAM", f"need four positive alphabet sizes (A,B,X,Y), got {sizes}")
    na, nb, nx, ny = sizes
    if na * nb * nx * ny > SAMPLER_ATOM_BUDGET:
        raise TooLarge(f"{na * nb * nx * ny} atoms exceed the sampler budget")
    rng = random.Random(seed)
    colors = [str(i) for i in range(na)]
    bs = [str(i) for i in range(nb)]
    cells = [(str(x), str(y)) for x in range(nx) for y in range(ny)]
    rng.shuffle(cells)
    rows = {a: set() for a in colors}
    cols = {a: set() for a in colors}
    assigned = []
    for x, y in cells:
        for a in rng.sample(colors, na):
            new_rows = rows[a] | {x}
            new_cols = cols[a] | {y}
            clash = any(
                other != a and (new_rows & rows[other]) and (new_cols & cols[other])
                for other in colors
            )
            if not clash:
                rows[a], cols[a] = new_rows, new_cols
                assigned.append((a, x, y))
                break
    support = [(a, b, x, y) for a, x, y in assigned for b in bs if rng.random() < 0.7]
    if not support:
        a, x, y = assigned[0]
        support = [(a, bs[0], x, y)]
    numerators = _numerators(rng, len(support))
    atoms = dict(zip(support, numerators))
    return JointDistribution(("A", "B", "X", "Y"), atoms, sum(numerators))


def extend_with_random_B(d: JointDistribution, b_size: int, seed: int) -> JointDistribution:
    """Split every atom of ``d`` across ``b_size`` values of a fresh
    variable B with random positive weights; the original marginal is
    preserved exactly.  The weights are the gaps between b_size - 1
    distinct random cut points in (0, 2^20), so every split shares the
    denominator d.denominator * 2^20: B adds at most 20 bits to it."""
    if not isinstance(b_size, int) or b_size < 1:
        raise LabError("BAD_PARAM", f"b_size must be a positive integer, got {b_size!r}")
    if "B" in d.variables:
        raise LabError("BAD_PARAM", "distribution already has a B variable")
    count = len(d.counts) * b_size
    if count > ATOM_BUDGET:
        raise TooLarge(f"a B column of size {b_size} would make {count} atoms")
    rng = random.Random(seed)
    variables = _insert_by_role(d.variables, "B")
    at = variables.index("B")
    counts = {}
    for outcome, n in sorted(d.counts.items()):
        cuts = [0, *sorted(rng.sample(range(1, B_WEIGHT_TOTAL), b_size - 1)), B_WEIGHT_TOTAL]
        for i in range(b_size):
            counts[outcome[:at] + (str(i),) + outcome[at:]] = n * (cuts[i + 1] - cuts[i])
    return JointDistribution(variables, counts, d.denominator * B_WEIGHT_TOTAL)
