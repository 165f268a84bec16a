"""Run configuration shared by the CLI and the randomized test suite."""

from __future__ import annotations

from dataclasses import dataclass

from .errors import UsageError

# seed for every randomized property check; recorded here so runs reproduce
RANDOM_SEED = 271828


@dataclass(frozen=True)
class Config:
    precision: int = 64          # 2-adic working precision in bits
    mode: str = "paper-box"      # CP^n substitution: paper-box | residue-exact
    nki: str = "auto"            # n_k^i source: paper | extended-gcd | auto
    fmt: str = "text"            # output: text | csv | json

    def __post_init__(self):
        if self.precision < 16:
            raise UsageError("precision must be >= 16")
        if self.mode not in ("paper-box", "residue-exact"):
            raise UsageError(f"unknown mode {self.mode!r}")
        if self.nki not in ("paper", "extended-gcd", "auto"):
            raise UsageError(f"unknown nki mode {self.nki!r}")
        if self.fmt not in ("text", "csv", "json"):
            raise UsageError(f"unknown format {self.fmt!r}")
