"""Error and verdict types, and the input rules, shared across the package.

Every error carries a stable machine-readable ``code`` (for example
``"SUM_NOT_ONE"`` or ``"UNKNOWN_VARIABLE"``) so the CLI and the tests can
dispatch on failures without parsing messages.  A ``Verdict`` is the
non-raising twin of ``PreconditionFailed``: a condition and its witness.
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


class _VerdictFields(NamedTuple):
    condition: str
    holds: bool
    witness: dict | None = None
    detail: str = ""


class Verdict(_VerdictFields):
    """Outcome of one condition check; holds is False iff a witness exists."""

    __slots__ = ()

    def __new__(cls, condition: str, holds: bool, witness: dict | None = None, detail: str = ""):
        if holds == (witness is not None):
            raise LabError("BAD_PARAM", "verdict must carry a witness exactly when it fails")
        return super().__new__(cls, condition, holds, witness, detail)

    def to_json_dict(self) -> dict:
        doc = {"condition": self.condition, "holds": self.holds, "witness": self.witness}
        if self.detail:
            doc["detail"] = self.detail
        return doc


def as_fraction(value: object) -> Fraction:
    """Parse an exact probability from an int, a Fraction, or a string."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise LabError("SCHEMA_ERROR", f"probability {value!r} is not a rational")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        match = _EXPONENT.search(value)
        exponent = match[1].lstrip("0") if match else ""
        if len(exponent) > 4 or int(exponent or 0) > MAX_EXPONENT:
            raise LabError("SCHEMA_ERROR", f"decimal exponent of {value!r} exceeds {MAX_EXPONENT}")
        try:
            if "_" in value:  # Fraction takes "_" separators only from Python 3.11 on
                raise ValueError
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise LabError("SCHEMA_ERROR", f"cannot parse probability {value!r}") from exc
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
