"""Error and verdict types, and the input rules, shared across the package.

Every error carries a stable machine-readable ``code`` (for example
``"SUM_NOT_ONE"`` or ``"UNKNOWN_VARIABLE"``) so the CLI and the tests can
dispatch on failures without parsing messages.  A ``Verdict`` is a
condition and its witness: it holds exactly when there is no witness, and
``Verdict.require`` is the one place a failed verdict raises
``PreconditionFailed``.
The verifier statuses are PASS (the hypothesis holds and every assertion
checks out), NOT_APPLICABLE (the hypothesis fails, with a witness) and FAIL
(a violated guarantee, which the CLI treats as build-breaking: exit 3).
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from typing import NamedTuple

TOLERANCE = 1e-9

PASS = "PASS"
FAIL = "FAIL"
NOT_APPLICABLE = "NOT_APPLICABLE"

# Fraction expands a decimal exponent into a power of ten before any size
# check, so one past Python's default int-to-str digit limit is refused.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"e[-+]?(\d+)\s*\Z", re.IGNORECASE)


class LabError(Exception):
    """Invalid input or an unmet operation precondition."""

    def __init__(self, code: str, message: str, witness: dict | None = None):
        super().__init__(message)
        self.code = code
        self.witness = witness


class PreconditionFailed(LabError):
    """The mathematical precondition of an operation fails on this input."""

    def __init__(self, message: str, witness: dict | None = None):
        super().__init__("PRECONDITION_FAILED", message, witness)


class TooLarge(LabError):
    """Input exceeds the size cap of an exhaustive oracle."""

    def __init__(self, message: str):
        super().__init__("TOO_LARGE", message)


class Verdict(NamedTuple):
    """Outcome of one condition check: it holds exactly when no witness exists."""

    condition: str
    witness: dict | None = None
    detail: str = ""

    @property
    def holds(self) -> bool:
        return self.witness is None

    def require(self) -> None:
        """Raise PreconditionFailed with the witness unless the verdict holds."""
        if self.witness is not None:
            detail = f": {self.detail}" if self.detail else ""
            raise PreconditionFailed(f"{self.condition} fails{detail}", self.witness)

    def to_json_dict(self) -> dict:
        doc = {"condition": self.condition, "holds": self.holds, "witness": self.witness}
        if self.detail:
            doc["detail"] = self.detail
        return doc


def _ratio(value: object) -> tuple[int, int]:
    """(numerator, denominator) in lowest terms of an exact mass given as an
    int, a Fraction or a string: the one parser of masses, graph weights and
    ``--delta``.  A plain ASCII "n/d" with d > 0 is split directly; any other
    string goes through Fraction, so the accepted strings and their values
    are Fraction's, less those refused here."""
    if type(value) is str:
        num, slash, den = value.partition("/")
        if slash and num.isdigit() and den.isdigit() and num.isascii() and den.isascii():
            try:
                num, den = int(num), int(den)
            except ValueError:  # past the digit limit: Fraction refuses it below
                den = 0
            if den:
                g = math.gcd(num, den)
                return num // g, den // g
        match = _EXPONENT.search(value)
        exponent = match[1].lstrip("0") if match else ""
        if len(exponent) > 4 or int(exponent or 0) > MAX_EXPONENT:
            raise LabError("SCHEMA_ERROR", f"decimal exponent of {value!r} exceeds {MAX_EXPONENT}")
        try:
            if "_" in value:  # Fraction takes "_" separators only from Python 3.11 on
                raise ValueError
            q = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise LabError("SCHEMA_ERROR", f"cannot parse probability {value!r}") from exc
        return q.numerator, q.denominator
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, bool):
        raise LabError("SCHEMA_ERROR", f"probability {value!r} is not a rational")
    if isinstance(value, int):
        return value, 1
    raise LabError("SCHEMA_ERROR", f"probability {value!r} must be a string or an integer")


def _rational_text(q: Fraction) -> str:
    # str(q), or its size when a part has too many digits to print
    try:
        return str(q)
    except ValueError:
        return f"a rational of {q.numerator.bit_length()}/{q.denominator.bit_length()} bits"


def _mass_text(num: int, den: int) -> str:
    # str(Fraction(num, den)), without making the Fraction: the one emitter
    # of masses, power sums and ratios.  A part past Python's int-to-str
    # digit limit cannot print, which makes the request too large.
    g = math.gcd(num, den)
    num, den = num // g, den // g
    try:
        return f"{num}/{den}" if den != 1 else str(num)
    except ValueError:
        raise TooLarge(
            f"a rational of {num.bit_length()}/{den.bit_length()} bits"
            " has too many digits to print"
        ) from None


def _at_least(value: float, bound: float = 0.0) -> bool:
    # value >= bound, up to the float slack
    return value >= bound - TOLERANCE


def _record_json(record) -> dict:
    # a NamedTuple record's fields in order: nested records through their
    # own to_json_dict, Fractions as exact mass text, tuples as lists
    doc = {}
    for name, value in zip(record._fields, record):
        if hasattr(value, "to_json_dict"):
            value = value.to_json_dict()
        elif isinstance(value, Fraction):
            value = _mass_text(value.numerator, value.denominator)
        elif isinstance(value, tuple):
            value = list(value)
        doc[name] = value
    return doc


def _load_object(doc, keys: set, message: str) -> dict:
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except (ValueError, RecursionError) as exc:  # bad JSON, not UTF-8, or nested too deep
            raise LabError("SCHEMA_ERROR", f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != keys:
        raise LabError("SCHEMA_ERROR", message)
    if any(not isinstance(value, list) for value in doc.values()):
        raise LabError("SCHEMA_ERROR", f"{message}, each a list")
    return doc


def _strings(value, what: str, length=None) -> tuple[str, ...]:
    if (not isinstance(value, list) or any(not isinstance(s, str) for s in value)
            or length not in (None, len(value))):
        raise LabError("SCHEMA_ERROR", f"{what} must be a list of strings, got {value!r}")
    return tuple(value)
