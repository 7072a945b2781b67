"""Exact finite joint distributions and Shannon information measures.

A distribution is built from integer ``counts`` over one ``denominator``
(masses written as text enter through ``load_distribution``), stores them
in lowest terms, and caches each marginal table as integer counts over its
own lowest-terms denominator.  Marginalization and conditioning stay
exact on those integers, so support predicates and product identities are
decided by integer cross-multiplication.  ``fractions.Fraction`` appears
only at the edges: the public ``atoms`` dict (made on each access, never
cached) and the texts of refusals.  Information measures are returned in
bits (base-2 logarithm, double precision).  The input rules it shares with
``graphs``, the one mass parser among them, are in ``errors``.

The JSON wire form is::

    {"variables": ["A", "B", "X", "Y"],
     "atoms": [{"values": {"A": "a1", "B": "b1", "X": "x1", "Y": "y1"},
                "p": "1/12"}, ...]}

Canonical emission keeps the declared variable order, sorts atoms
lexicographically by their value tuples, and prints each mass in lowest
terms, which makes emit/load/emit a fixed point byte for byte.

A canonical role (``ROLE_ORDER``) that a distribution does not declare
reads as a constant ``"*"`` column in every marginal table, so a missing B
is the constant variable wherever a measure or a condition names it.  The
measures take variable groups that may overlap: a name repeated across
them adds no information, so H(A | A, X) is 0.  ``condition`` takes the
event in one form, the outcomes of the distribution to keep.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from itertools import chain, repeat
from operator import itemgetter
from typing import Iterable

from .errors import (LabError, _at_least, _load_object, _mass_text, _rational_text, _ratio,
                     _strings)

# Canonical role order, used when an extension inserts a new role column
# into an existing distribution.  A role a distribution lacks reads as the
# constant symbol MISSING_ROLE_SYMBOL.
ROLE_ORDER = ("A", "B", "X", "Y", "Z")
MISSING_ROLE_SYMBOL = "*"

Symbol = str
Outcome = tuple[Symbol, ...]
Counts = dict[Outcome, int]


def _common(nums: Iterable[int], dens: Sequence[int]) -> tuple[list[int], int]:
    # The masses nums[i] / dens[i] as integer counts over the lcm of dens.
    # With every mass in lowest terms the counts are too: for each prime
    # the mass whose denominator holds its top power keeps an unscaled,
    # coprime numerator.
    distinct = set(dens)
    lcm = math.lcm(*distinct)
    scale = {den: lcm // den for den in distinct}
    return [num * scale[den] for num, den in zip(nums, dens)], lcm


def _plog2(count: int, den: int) -> float:
    # p * log2(p) for p = count/den, the logs taken of p in lowest terms
    g = math.gcd(count, den)
    return count / den * (math.log2(count // g) - math.log2(den // g))


class JointDistribution:
    """A tuple of named discrete variables with exact positive atom masses.

    ``variables`` is the declared column order.  The constructor takes
    ``counts``, a map (or iterable of pairs) from outcome tuples, one symbol
    per variable in that order, to non-negative integers over a positive
    ``denominator``, summing to it exactly; masses as text or Fractions
    enter through ``load_distribution``.  The instance keeps ``counts`` and
    ``denominator`` reduced to lowest terms, and the ``atoms`` property is
    the same map with Fraction masses.  Zero counts are dropped at
    construction, so the support is always the atom set itself.  Instances
    are immutable by convention: no method mutates ``counts``, derived
    marginal tables are cached internally.
    """

    __slots__ = ("variables", "counts", "denominator", "_tables", "_cells", "_entropies")

    def __init__(self, variables: Iterable[str], counts, denominator: int):
        variables = tuple(variables)
        if any(not isinstance(v, str) or not v for v in variables):
            raise LabError("SCHEMA_ERROR", "variable names must be non-empty strings")
        if len(set(variables)) != len(variables):
            raise LabError("SCHEMA_ERROR", f"duplicate variable names in {variables}")
        if type(denominator) is not int or denominator < 1:
            raise LabError("SCHEMA_ERROR", f"denominator {denominator!r} must be positive")
        items = counts.items() if isinstance(counts, Mapping) else counts
        counts = {}
        for outcome, n in items:
            outcome = tuple(outcome)
            if len(outcome) != len(variables):
                raise LabError(
                    "SCHEMA_ERROR",
                    f"outcome {outcome} does not match variables {variables}",
                )
            try:
                "".join(outcome)  # a TypeError unless every symbol is a string
            except TypeError:
                raise LabError("SCHEMA_ERROR", f"symbols must be strings in {outcome}") from None
            if outcome in counts:
                raise LabError("DUPLICATE_ATOM", f"atom {outcome} listed twice")
            if type(n) is not int:
                raise LabError("SCHEMA_ERROR", f"count {n!r} of {outcome} is not an integer")
            if n < 0:
                mass = _rational_text(Fraction(n, denominator))
                raise LabError("NEGATIVE_PROB", f"atom {outcome} has mass {mass}")
            counts[outcome] = n
        total = sum(counts.values())
        if total != denominator:
            total = _rational_text(Fraction(total, denominator))
            raise LabError("SUM_NOT_ONE", f"atom masses sum to {total}, not 1")
        g = math.gcd(denominator, *counts.values())
        if g > 1 or 0 in counts.values():
            counts = {outcome: n // g for outcome, n in counts.items() if n}
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "denominator", denominator // g)
        object.__setattr__(self, "_tables", {(): ({(): 1}, 1)})  # (): one cell of mass 1
        object.__setattr__(self, "_cells", {})
        object.__setattr__(self, "_entropies", {})

    def __setattr__(self, name, value):
        raise AttributeError("JointDistribution is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JointDistribution)
            and self.variables == other.variables
            and self.denominator == other.denominator
            and self.counts == other.counts
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"JointDistribution(variables={self.variables}, atoms={len(self.counts)})"

    @property
    def atoms(self) -> dict[Outcome, Fraction]:
        """The atom masses as Fractions, in a dict made on each access; not for hot paths."""
        den = self.denominator
        return {outcome: Fraction(n, den) for outcome, n in self.counts.items()}

    # ------------------------------------------------------------------
    # variable handling

    def _table(self, variables: Iterable[str] | str) -> tuple[Counts, int]:
        """The marginal over ``variables`` as ``(counts, denominator)``, the
        counts integers over the table's own lowest-terms denominator, keyed
        in order of first occurrence among the atoms.  Cached; treat it as
        read-only.  A canonical role the distribution lacks is a constant
        ``"*"`` column, made in the same pass; any other unknown name raises
        UNKNOWN_VARIABLE."""
        names = _as_names(variables)
        cached = self._tables.get(names)
        if cached is not None:
            return cached
        if names == self.variables:
            counts, den = self.counts, self.denominator
        else:
            for name in names:  # in argument order, so the first unknown name is named
                if name not in self.variables and name not in ROLE_ORDER:
                    raise LabError("UNKNOWN_VARIABLE",
                                   f"variable {name!r} not among {self.variables}")
            # Marginalize the smallest known table holding every requested
            # column the distribution has (the atoms at worst).  Whatever the
            # source, keys come out in order of first occurrence among the
            # atoms, so every float sum over a table runs in one order.
            wanted = set(names).intersection(self.variables)
            source_names, source, den = self.variables, self.counts, self.denominator
            for known, (candidate, candidate_den) in self._tables.items():
                if len(candidate) < len(source) and wanted.issubset(known):
                    source_names, source, den = known, candidate, candidate_den
            columns = [map(itemgetter(source_names.index(n)), source) if n in source_names
                       else repeat(MISSING_ROLE_SYMBOL) for n in names]
            counts = {}
            get = counts.get
            for key, n in zip(zip(*columns) if columns else repeat(()), source.values()):
                counts[key] = get(key, 0) + n
            g = math.gcd(den, *counts.values())
            if g > 1:
                counts = {key: n // g for key, n in counts.items()}
                den //= g
        self._tables[names] = (counts, den)
        return counts, den

    def cells(self, group) -> list[tuple[Outcome, list[Outcome], list[Outcome]]]:
        """The support split by its ``group`` part: ``(g, xs, ys)`` for every
        group cell g of positive mass, in sorted order, where xs and ys are the
        sorted ``(x,)`` and ``(y,)`` cells with p(g, x) > 0 and p(g, y) > 0.
        The support conditions and the error-term sums range over the products
        xs * ys.  Cached per group; treat it as read-only."""
        group = _as_names(group)
        cached = self._cells.get(group)
        if cached is None:
            width = len(group)
            xs, ys = {}, {}
            for fibres, side in ((xs, "X"), (ys, "Y")):
                for key in sorted(self._table(group + (side,))[0]):
                    fibres.setdefault(key[:width], []).append(key[width:])
            cached = self._cells[group] = [(g, xs[g], ys[g]) for g in xs]
        return cached

    # ------------------------------------------------------------------
    # core operations

    def condition(self, kept: Iterable[Outcome]) -> "JointDistribution":
        """Condition on the event ``kept``, the outcomes of this distribution
        to retain, and renormalize exactly.  An event of zero mass raises
        ZERO_MASS_EVENT."""
        kept = set(kept)
        # p(o) / p(event) is the count of o over the event's count
        counts = {o: n for o, n in self.counts.items() if o in kept}
        mass = sum(counts.values())
        if mass == 0:
            raise LabError("ZERO_MASS_EVENT", "conditioning event has zero mass")
        return JointDistribution(self.variables, counts, mass)

    # ------------------------------------------------------------------
    # information measures (bits)

    def entropy(self, variables: Iterable[str] | str = ()) -> float:
        """Shannon entropy of the marginal over ``variables`` (empty set gives 0),
        cached per variable set: any column order sums the same counts in atom order."""
        names = _as_names(variables)
        cached = self._entropies.get(key := frozenset(names))
        if cached is None:
            counts, den = self._table(names)
            # one p log2 p per distinct count, summed in table order by a
            # plain loop: sum() of floats is compensated from Python 3.12 on
            plog2 = {n: _plog2(n, den) for n in set(counts.values())}
            total = 0.0
            for n in counts.values():
                total += plog2[n]
            # + 0.0 turns the IEEE -0.0 of deterministic marginals into plain 0.0
            cached = self._entropies[key] = -total + 0.0
        return cached

    def cond_entropy(self, variables, given) -> float:
        """H(variables | given) = H(variables, given) - H(given)."""
        a = _as_names(variables)
        b = _as_names(given)
        return self.entropy(a + b) - self.entropy(b)

    def mutual_info(self, first, second, given=()) -> float:
        """I(first : second | given), with ``given`` optional."""
        u = _as_names(first)
        v = _as_names(second)
        w = _as_names(given)
        return (
            self.entropy(u + w)
            + self.entropy(v + w)
            - self.entropy(u + v + w)
            - self.entropy(w)
        )

    # ------------------------------------------------------------------
    # serialization

    def dumps(self) -> str:
        """Canonical JSON emission, stable byte for byte: the bytes of
        ``json.dumps(doc, indent=2) + "\\n"`` for the wire form ``doc``,
        written directly."""
        names = [_quote(v) for v in self.variables]
        if names:
            variables = "[\n    " + ",\n    ".join(names) + "\n  ]"
            values = "{\n        " + ": \0,\n        ".join(names) + ": \0\n      }"
        else:
            variables, values = "[]", "{}"
        # A row's constant pieces, split where its symbols and mass go (no quoted
        # name holds a NUL) and led by the ",\n" that ends the row before.  Each
        # column streams its symbols glued to the piece before them, each quoted
        # once; the masses sit between the last two pieces, each formatted once,
        # in row order, so a refusal names the first mass too long to print.
        pieces = (',\n    {\n      "values": ' + values + ',\n      "p": "\0"\n    }').split("\0")
        outcomes, counts = zip(*sorted(self.counts.items()))
        streams = [map({s: piece + _quote(s) for s in set(column)}.__getitem__, column)
                   for piece, column in zip(pieces, zip(*outcomes))]
        den = self.denominator
        masses = {n: pieces[-2] + _mass_text(n, den) + pieces[-1] for n in dict.fromkeys(counts)}
        streams.append(map(masses.__getitem__, counts))
        parts = list(chain.from_iterable(zip(*streams)))
        # the first row follows the opening of the atoms list, not a row
        parts[0] = '{\n  "variables": ' + variables + ',\n  "atoms": [\n' + parts[0][2:]
        parts.append("\n  ]\n}\n")
        return "".join(parts)

    def fingerprint(self) -> str:
        """Short content hash of the canonical emission."""
        import hashlib  # imported here because most commands never fingerprint
        return hashlib.sha256(self.dumps().encode()).hexdigest()[:16]


def _as_names(variables: Iterable[str] | str) -> tuple[str, ...]:
    if isinstance(variables, str):
        return (variables,)
    return tuple(variables)


def load_distribution(doc) -> JointDistribution:
    """Parse and validate the JSON wire form.

    ``doc`` may be JSON text, bytes, or an already-decoded mapping.  Atoms
    with p = 0 are dropped with a warning.  Raises LabError with codes
    SCHEMA_ERROR, DUPLICATE_ATOM, NEGATIVE_PROB, or SUM_NOT_ONE.
    """
    doc = _load_object(doc, {"variables", "atoms"},
                       "distribution document needs exactly variables/atoms")
    names = _strings(doc["variables"], "'variables'")
    name_set = set(names)
    row_keys = {"values", "p"}
    outcomes = []
    nums = []
    dens = []
    last = None  # a run of equal mass strings is parsed once
    for row in doc["atoms"]:
        if not isinstance(row, dict) or row.keys() != row_keys:
            raise LabError("SCHEMA_ERROR", f"malformed atom row {row!r}")
        values = row["values"]
        if not isinstance(values, dict) or values.keys() != name_set:
            raise LabError(
                "SCHEMA_ERROR",
                f"atom values {values!r} do not cover variables {list(names)}",
            )
        mass = row["p"]
        if type(mass) is not str or mass != last:
            if isinstance(mass, float):
                raise LabError("SCHEMA_ERROR", "probabilities must be strings or integers")
            num, den = _ratio(mass)
            last = mass
        outcomes.append(tuple(map(values.__getitem__, names)))
        nums.append(num)
        dens.append(den)
    dropped = nums.count(0)
    if dropped:
        warnings.warn(f"dropped {dropped} zero-mass atoms", stacklevel=2)
    counts, denominator = _common(nums, dens)
    return JointDistribution(names, zip(outcomes, counts), denominator)


def info_report(d: JointDistribution) -> dict[str, float]:
    """The full panel of entropies and mutual informations over A, B, X, Y,
    in bits, keyed by the measure's name."""
    m: dict[str, float] = {}
    for role in ("A", "B", "X", "Y"):
        m[f"H({role})"] = d.entropy(role)
    m["H(A|X)"] = d.cond_entropy("A", "X")
    m["H(A|Y)"] = d.cond_entropy("A", "Y")
    m["H(A|X,Y)"] = d.cond_entropy("A", ("X", "Y"))
    m["H(A|B)"] = d.cond_entropy("A", "B")
    m["H(A|B,X)"] = d.cond_entropy("A", ("B", "X"))
    m["H(A|B,Y)"] = d.cond_entropy("A", ("B", "Y"))
    m["I(X:Y)"] = d.mutual_info("X", "Y")
    m["I(A:B)"] = d.mutual_info("A", "B")
    m["I(A:X)"] = d.mutual_info("A", "X")
    m["I(A:Y)"] = d.mutual_info("A", "Y")
    m["I(X:Y|A)"] = d.mutual_info("X", "Y", "A")
    m["I(A:B|X)"] = d.mutual_info("A", "B", "X")
    m["I(A:B|Y)"] = d.mutual_info("A", "B", "Y")
    m["I(X:Y:A)"] = m["I(X:Y)"] - m["I(X:Y|A)"]
    for key, value in m.items():
        if key.startswith("H(") and not _at_least(value):
            raise LabError("BAD_PARAM", f"negative entropy {key} = {value}")
    for key in ("I(X:Y)", "I(A:B)", "I(A:X)", "I(A:Y)", "I(X:Y|A)", "I(A:B|X)", "I(A:B|Y)"):
        if not _at_least(m[key]):
            raise LabError("BAD_PARAM", f"negative mutual information {key}")
    return m
