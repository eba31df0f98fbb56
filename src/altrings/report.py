"""Shared verdict record for verification reports.

`mode` says what a passing verdict proves: "exact" checks decide the quantified
statement (multilinear identities reduced to finite basis enumerations, or
closed subspace computations); "sampled" checks only attest the tested points.
"""

from __future__ import annotations

from typing import Optional

from .linalg import Record


class Check(Record):
    name: str
    ok: bool
    mode: str  # "exact" | "sampled"
    witness: Optional[str] = None
    detail: Optional[str] = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "ok": self.ok, "mode": self.mode}
        if self.witness is not None:
            d["witness"] = self.witness
        if self.detail is not None:
            d["detail"] = self.detail
        return d

