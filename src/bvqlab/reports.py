"""Pass/fail comparison records shared by all verification operations."""

from __future__ import annotations


class ComparisonReport:
    """Two sides of an identity or inequality plus the verdict.

    relation is one of
      - "equal-within": |lhs - rhs| <= tolerance * max(|lhs|, |rhs|)
      - "leq":          one-sided, with optional multiplicative slack in
        ``tolerance`` (0 means untoleranced comparison)
      - "between":      lhs <= mid <= rhs, untoleranced unless stated
    ``provenance`` names the claim the row checks; ``details`` carries
    side data (per-scale tables, packing sizes, alternative normalizations).
    """

    def __init__(
        self,
        lhs: float,
        rhs: float,
        relation: str,
        tolerance: float,
        passed: bool,
        provenance: str,
        mid: float | None = None,
        details: dict | None = None,
    ):
        self.lhs = lhs
        self.rhs = rhs
        self.relation = relation
        self.tolerance = tolerance
        self.passed = passed
        self.provenance = provenance
        self.mid = mid
        self.details = {} if details is None else details

    def to_dict(self) -> dict:
        out = {
            "lhs": _jsonable(self.lhs),
            "rhs": _jsonable(self.rhs),
            "relation": self.relation,
            "tolerance": _jsonable(self.tolerance),
            "passed": bool(self.passed),
            "provenance": self.provenance,
        }
        if self.mid is not None:
            out["mid"] = _jsonable(self.mid)
        if self.details:
            out["details"] = _jsonable(self.details)
        return out


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if hasattr(obj, "item"):
        return obj.item()
    return obj


def equal_within(lhs, rhs, tolerance, provenance, **details) -> ComparisonReport:
    lhs, rhs = float(lhs), float(rhs)
    scale = max(abs(lhs), abs(rhs))
    passed = abs(lhs - rhs) <= tolerance * scale if scale > 0 else True
    return ComparisonReport(lhs, rhs, "equal-within", tolerance, passed, provenance, details=details)


def leq(lhs, rhs, provenance, slack: float = 0.0, atol: float = 0.0, **details) -> ComparisonReport:
    """lhs <= rhs with multiplicative slack; ``atol`` is a roundoff deadband
    for comparisons whose exact value is identically zero."""
    lhs, rhs = float(lhs), float(rhs)
    bound = rhs * (1.0 + slack) if rhs >= 0 else rhs
    passed = lhs <= bound + atol
    return ComparisonReport(lhs, rhs, "leq", slack, passed, provenance, details=details)
