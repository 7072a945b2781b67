"""Error and verdict types shared across the package.

Every error carries a stable machine-readable ``code`` (for example
``"SUM_NOT_ONE"`` or ``"UNKNOWN_VARIABLE"``) so the CLI and the tests can
dispatch on failures without parsing messages.  A ``Verdict`` is the
non-raising twin of ``PreconditionFailed``: a condition and its witness.
"""

from __future__ import annotations

from typing import NamedTuple


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
