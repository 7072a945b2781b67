"""Exact finite joint distributions and Shannon information measures.

Atom masses are ``fractions.Fraction`` throughout, and marginalization,
conditioning, and the conditional-independence fork are closed over the
rationals, so support predicates and product identities can be decided
exactly.  Information measures are returned in bits (base-2 logarithm,
double precision).  ``TOLERANCE`` is the absolute slack used wherever two
floating-point quantities are compared.

The JSON wire form is::

    {"variables": ["A", "B", "X", "Y"],
     "atoms": [{"values": {"A": "a1", "B": "b1", "X": "x1", "Y": "y1"},
                "p": "1/12"}, ...]}

Canonical emission keeps the declared variable order, sorts atoms
lexicographically by their value tuples, and prints each mass in lowest
terms, which makes emit/load/emit a fixed point byte for byte.

A canonical role (``ROLE_ORDER``) that a distribution does not declare
reads as a constant ``"*"`` column in every marginal table, so a missing B
is the constant variable wherever a measure or a condition names it.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import LabError

TOLERANCE = 1e-9

# Canonical role order, used when an extension inserts a new role column
# into an existing distribution.  A role a distribution lacks reads as the
# constant symbol MISSING_ROLE_SYMBOL.
ROLE_ORDER = ("A", "B", "X", "Y", "Z")
MISSING_ROLE_SYMBOL = "*"

Symbol = str
Outcome = tuple[Symbol, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value: object) -> Fraction:
    """Parse an exact probability from an int, a Fraction, or a string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise LabError("SCHEMA_ERROR", f"probability {value!r} is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise LabError("SCHEMA_ERROR", f"cannot parse probability {value!r}") from exc
    raise LabError("SCHEMA_ERROR", f"probability {value!r} must be a string or an integer")


def log2_fraction(q: Fraction) -> float:
    """log2 of a positive rational whose float sign agrees with the exact
    comparison of q against 1 (big numerators and denominators are taken
    through integer log2 to dodge overflow)."""
    if q <= 0:
        raise LabError("BAD_PARAM", f"log2 of non-positive rational {q}")
    if q == 1:
        return 0.0
    bits = math.log2(q.numerator) - math.log2(q.denominator)
    if q > 1:
        return max(bits, math.ulp(0.0))
    return min(bits, -math.ulp(0.0))


def _plog2(p: Fraction) -> float:
    # p * log2(p) for 0 < p <= 1
    return float(p) * (math.log2(p.numerator) - math.log2(p.denominator))


class JointDistribution:
    """A tuple of named discrete variables with exact positive atom masses.

    ``variables`` is the declared column order and ``atoms`` maps outcome
    tuples (one symbol per variable, in that order) to positive Fractions
    summing to exactly 1.  Zero-mass atoms are dropped at construction, so
    the support is always the atom set itself.  Instances are immutable by
    convention: no method mutates ``atoms``, derived marginal tables are
    cached internally.
    """

    __slots__ = ("variables", "atoms", "_tables")

    def __init__(self, variables: Iterable[str], atoms):
        variables = tuple(variables)
        if any(not isinstance(v, str) or not v for v in variables):
            raise LabError("SCHEMA_ERROR", "variable names must be non-empty strings")
        if len(set(variables)) != len(variables):
            raise LabError("SCHEMA_ERROR", f"duplicate variable names in {variables}")
        items = atoms.items() if isinstance(atoms, Mapping) else atoms
        clean: dict[Outcome, Fraction] = {}
        seen: set[Outcome] = set()
        total = ZERO
        for outcome, mass in items:
            outcome = tuple(outcome)
            if len(outcome) != len(variables):
                raise LabError(
                    "SCHEMA_ERROR",
                    f"outcome {outcome} does not match variables {variables}",
                )
            if any(not isinstance(s, str) for s in outcome):
                raise LabError("SCHEMA_ERROR", f"symbols must be strings in {outcome}")
            if outcome in seen:
                raise LabError("DUPLICATE_ATOM", f"atom {outcome} listed twice")
            seen.add(outcome)
            mass = as_fraction(mass)
            if mass < 0:
                raise LabError("NEGATIVE_PROB", f"atom {outcome} has mass {mass}")
            total += mass
            if mass > 0:
                clean[outcome] = mass
        if total != 1:
            raise LabError("SUM_NOT_ONE", f"atom masses sum to {total}, not 1")
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "atoms", clean)
        object.__setattr__(self, "_tables", {})

    def __setattr__(self, name, value):
        raise AttributeError("JointDistribution is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, JointDistribution)
            and self.variables == other.variables
            and self.atoms == other.atoms
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"JointDistribution(variables={self.variables}, atoms={len(self.atoms)})"

    # ------------------------------------------------------------------
    # variable handling

    def _columns(self, variables: Iterable[str] | str) -> tuple[int, ...]:
        names = _as_names(variables)
        cols = []
        for name in names:
            try:
                cols.append(self.variables.index(name))
            except ValueError:
                raise LabError(
                    "UNKNOWN_VARIABLE", f"variable {name!r} not among {self.variables}"
                ) from None
        return tuple(cols)

    def table(self, variables: Iterable[str] | str = ()) -> dict[Outcome, Fraction]:
        """Exact marginal table over the given variables (empty tuple allowed,
        yielding the trivial table).  A canonical role the distribution lacks
        reads as a constant ``"*"`` column; any other unknown name raises
        UNKNOWN_VARIABLE.  The result is cached; treat it as read-only."""
        names = _as_names(variables)
        cached = self._tables.get(names)
        if cached is not None:
            return cached
        wanted = set(names).intersection(self.variables)
        if not wanted.union(ROLE_ORDER).issuperset(names):
            self._columns(names)  # raises UNKNOWN_VARIABLE
        # Marginalize the smallest known table holding every requested column
        # (the atoms at worst).  Whatever the source, keys come out in order
        # of first occurrence among the atoms, so every float sum over a
        # table runs in one order.
        source_names, source = self.variables, self.atoms
        for known, candidate in self._tables.items():
            if len(candidate) < len(source) and wanted.issubset(known):
                source_names, source = known, candidate
        cols = [source_names.index(n) if n in source_names else None for n in names]
        out: dict[Outcome, Fraction] = {}
        for outcome, mass in source.items():
            key = tuple(MISSING_ROLE_SYMBOL if c is None else outcome[c] for c in cols)
            prev = out.get(key)
            out[key] = mass if prev is None else prev + mass
        self._tables[names] = out
        return out

    def fibres(self, group, rest) -> dict[Outcome, list[Outcome]]:
        """The support of ``table(group + rest)`` split by its ``group`` part:
        each group cell, in sorted order, maps to the sorted ``rest`` cells it
        occurs with.  Built afresh from the cached table on every call: kept,
        the map of a fine grouping would cost as much memory as the table."""
        group = _as_names(group)
        out: dict[Outcome, list[Outcome]] = {}
        width = len(group)
        for key in sorted(self.table(group + _as_names(rest))):
            out.setdefault(key[:width], []).append(key[width:])
        return out

    def cells(self, group, first, second) -> Iterator[tuple[Outcome, list[Outcome], list[Outcome]]]:
        """Yield ``(g, xs, ys)`` for every group cell g of positive mass, in
        sorted order, where xs and ys are the sorted cells of ``first`` and
        ``second`` with p(g, x) > 0 and p(g, y) > 0.  The support conditions
        and the error-term sums range over the products xs * ys."""
        ys_by_group = self.fibres(group, second)
        for g, xs in self.fibres(group, first).items():
            yield g, xs, ys_by_group[g]

    def alphabet(self, variable: str) -> list[Symbol]:
        """Sorted support values of one variable."""
        return sorted(k[0] for k in self.table((variable,)))

    def prob(self, assignment: Mapping[str, Symbol]) -> Fraction:
        """Exact marginal probability of a partial assignment."""
        names = tuple(sorted(assignment))
        return self.table(names).get(tuple(assignment[n] for n in names), ZERO)

    # ------------------------------------------------------------------
    # core operations

    def marginal(self, variables: Iterable[str] | str) -> "JointDistribution":
        """Project onto a non-empty subset of variables, merging atoms."""
        names = _as_names(variables)
        if not names:
            raise LabError("SCHEMA_ERROR", "marginal requires at least one variable")
        if len(set(names)) != len(names):
            raise LabError("OVERLAPPING_SETS", f"repeated variable in {names}")
        return JointDistribution(names, self.table(names))

    def condition(self, event) -> "JointDistribution":
        """Condition on a positive-mass event and renormalize exactly.

        ``event`` is either a mapping from variable names to one symbol or a
        collection of symbols (an outcome is retained when every constrained
        variable matches), or an iterable of full outcome tuples naming the
        retained atoms directly.
        """
        if isinstance(event, Mapping):
            cols = self._columns(tuple(event))
            allowed = []
            for value in event.values():
                if isinstance(value, str):
                    allowed.append({value})
                else:
                    allowed.append(set(value))
            retained = {
                outcome
                for outcome in self.atoms
                if all(outcome[c] in vals for c, vals in zip(cols, allowed))
            }
        else:
            retained = set()
            for item in event:
                outcome = tuple(item)
                if len(outcome) != len(self.variables):
                    raise LabError("SCHEMA_ERROR", f"event outcome {outcome} malformed")
                retained.add(outcome)
        mass = sum((self.atoms[o] for o in retained if o in self.atoms), ZERO)
        if mass == 0:
            raise LabError("ZERO_MASS_EVENT", "conditioning event has zero mass")
        atoms = {o: self.atoms[o] / mass for o in self.atoms if o in retained}
        return JointDistribution(self.variables, atoms)

    def rename_symbols(self, variable: str, mapping: Mapping[Symbol, Symbol]) -> "JointDistribution":
        (col,) = self._columns((variable,))
        atoms = {
            outcome[:col] + (mapping.get(outcome[col], outcome[col]),) + outcome[col + 1 :]: mass
            for outcome, mass in self.atoms.items()
        }
        return JointDistribution(self.variables, atoms)

    # ------------------------------------------------------------------
    # information measures (bits)

    def entropy(self, variables: Iterable[str] | str = ()) -> float:
        """Shannon entropy of the marginal over ``variables`` (empty set gives 0)."""
        names = _as_names(variables)
        # + 0.0 turns the IEEE -0.0 of deterministic marginals into plain 0.0
        return -sum(_plog2(p) for p in self.table(names).values()) + 0.0

    def cond_entropy(self, variables, given) -> float:
        """H(variables | given) = H(variables, given) - H(given)."""
        a = _as_names(variables)
        b = _as_names(given)
        if set(a) & set(b):
            raise LabError("OVERLAPPING_SETS", f"{a} and {b} overlap")
        return self.entropy(a + b) - self.entropy(b)

    def mutual_info(self, first, second, given=()) -> float:
        """I(first : second | given), with ``given`` optional."""
        u = _as_names(first)
        v = _as_names(second)
        w = _as_names(given)
        for s, t in ((u, v), (u, w), (v, w)):
            if set(s) & set(t):
                raise LabError("OVERLAPPING_SETS", f"{s} and {t} overlap")
        return (
            self.entropy(u + w)
            + self.entropy(v + w)
            - self.entropy(u + v + w)
            - self.entropy(w)
        )

    def triple_mutual_info(self, first, second, third) -> float:
        """I(first : second : third) = I(first : second) - I(first : second | third).

        Symmetric in its arguments and may be negative.
        """
        return self.mutual_info(first, second) - self.mutual_info(first, second, third)

    # ------------------------------------------------------------------
    # serialization

    def to_json_dict(self) -> dict:
        return {
            "variables": list(self.variables),
            "atoms": [
                {
                    "values": {v: s for v, s in zip(self.variables, outcome)},
                    "p": str(mass),
                }
                for outcome, mass in sorted(self.atoms.items())
            ],
        }

    def dumps(self) -> str:
        """Canonical JSON emission, stable byte for byte."""
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def fingerprint(self) -> str:
        """Short content hash of the canonical emission."""
        return hashlib.sha256(self.dumps().encode()).hexdigest()[:16]


def _as_names(variables: Iterable[str] | str) -> tuple[str, ...]:
    if isinstance(variables, str):
        return (variables,)
    return tuple(variables)


def _insert_by_role(names: tuple[str, ...], new: str) -> tuple[str, ...]:
    # Keep the canonical A, B, X, Y, Z order when every name is a role;
    # otherwise append at the end.
    if new in ROLE_ORDER and all(n in ROLE_ORDER for n in names):
        merged = sorted(names + (new,), key=ROLE_ORDER.index)
        return tuple(merged)
    return names + (new,)


def load_distribution(doc) -> JointDistribution:
    """Parse and validate the JSON wire form.

    ``doc`` may be JSON text, bytes, or an already-decoded mapping.  Atoms
    with p = 0 are dropped with a warning.  Raises LabError with codes
    SCHEMA_ERROR, DUPLICATE_ATOM, NEGATIVE_PROB, or SUM_NOT_ONE.
    """
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except ValueError as exc:  # bad JSON, or bytes that are not UTF-8
            raise LabError("SCHEMA_ERROR", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise LabError("SCHEMA_ERROR", "document must be a JSON object")
    unknown = set(doc) - {"variables", "atoms"}
    if unknown:
        raise LabError("SCHEMA_ERROR", f"unexpected keys {sorted(unknown)}")
    variables = doc.get("variables")
    rows = doc.get("atoms")
    if not isinstance(variables, list) or not isinstance(rows, list):
        raise LabError("SCHEMA_ERROR", "'variables' and 'atoms' must be lists")
    names = tuple(variables)
    if any(not isinstance(v, str) for v in names):
        raise LabError("SCHEMA_ERROR", "variable names must be strings")
    pairs = []
    dropped = 0
    for row in rows:
        if not isinstance(row, dict) or set(row) != {"values", "p"}:
            raise LabError("SCHEMA_ERROR", f"malformed atom row {row!r}")
        values = row["values"]
        if not isinstance(values, dict) or set(values) != set(names):
            raise LabError(
                "SCHEMA_ERROR",
                f"atom values {values!r} do not cover variables {list(names)}",
            )
        if any(not isinstance(s, str) for s in values.values()):
            raise LabError("SCHEMA_ERROR", f"symbols must be strings in {values!r}")
        mass = row["p"]
        if isinstance(mass, float):
            raise LabError("SCHEMA_ERROR", "probabilities must be strings or integers")
        mass = as_fraction(mass)
        if mass == 0:
            dropped += 1
        pairs.append((tuple(values[n] for n in names), mass))
    if dropped:
        warnings.warn(f"dropped {dropped} zero-mass atoms", stacklevel=2)
    return JointDistribution(names, pairs)


def build_markov_fork(d: JointDistribution) -> JointDistribution:
    """Replace the coupling between X and Y with the conditional-independence
    fork given (A, B): p'(a,b,x,y) = p(a,b,x) * p(a,b,y) / p(a,b).

    The (A,B,X) and (A,B,Y) marginals are preserved exactly and the support
    can only grow.  B is optional; when absent the fork conditions on A
    alone.  The variables must be exactly A, X, Y and optionally B.
    """
    allowed = {"A", "B", "X", "Y"} if "B" in d.variables else {"A", "X", "Y"}
    if set(d.variables) != allowed:
        raise LabError(
            "SCHEMA_ERROR",
            f"fork needs variables A, X, Y and optionally B, got {d.variables}",
        )
    group = ("A", "B") if "B" in d.variables else ("A",)
    gx = d.table(group + ("X",))
    gy = d.table(group + ("Y",))
    gg = d.table(group)
    places = [d.variables.index(name) for name in group + ("X", "Y")]
    atoms: dict[Outcome, Fraction] = {}
    for g, xs, ys in d.cells(group, "X", "Y"):
        for x in xs:
            for y in ys:
                outcome = [None] * len(places)
                for place, value in zip(places, g + x + y):
                    outcome[place] = value
                atoms[tuple(outcome)] = gx[g + x] * gy[g + y] / gg[g]
    return JointDistribution(d.variables, atoms)


@dataclass(frozen=True)
class InfoReport:
    """Named scalar information measures in bits over the canonical roles."""

    measures: dict[str, float] = field(default_factory=dict)

    def __getitem__(self, key: str) -> float:
        return self.measures[key]

    def validate(self, tol: float = TOLERANCE) -> None:
        for key, value in self.measures.items():
            if key.startswith("H(") and value < -tol:
                raise LabError("BAD_PARAM", f"negative entropy {key} = {value}")
        for key in ("I(X:Y)", "I(A:B)", "I(A:X)", "I(A:Y)", "I(X:Y|A)", "I(A:B|X)", "I(A:B|Y)"):
            if self.measures.get(key, 0.0) < -tol:
                raise LabError("BAD_PARAM", f"negative mutual information {key}")

    def to_json_dict(self) -> dict:
        return dict(self.measures)


def info_report(d: JointDistribution) -> InfoReport:
    """The full panel of entropies and mutual informations over A, B, X, Y."""
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
    m["I(X:Y:A)"] = d.triple_mutual_info("X", "Y", "A")
    report = InfoReport(m)
    report.validate()
    return report
