"""The benchmark's workloads and the reference outputs they must reproduce.

Each workload is one fglab CLI command, run in a fresh interpreter per
operation.  The reference (exit code, SHA-256 of stdout, and a phrase stdout
must contain) was recorded from the commit that introduced the benchmark; an
operation that differs from it is a failed operation, never a timing.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple
    exit_code: int
    stdout_sha256: str
    must_contain: str = ""


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spherical",
            ("adams", "spherical", "--level", "thom", "--max-weight", "22", "--nki", "auto"),
            0,
            "fb63f5036f1a733a8688fa2bb118d260e768f22152a797be7154be566f69bb5e",
        ),
        Workload(
            "psi_dk",
            ("adams", "psi-dk", "--level", "thom", "--k", "12", "--nki", "auto"),
            0,
            "3ffccc36f52d9f3646c7ae741cdac3444c7a1032b6b3ec8b17aa84cee035041d",
        ),
        Workload(
            "twist",
            ("fgl", "twist", "--bound", "9", "--nb", "8"),
            0,
            "af0a02170314101bbfc962b457b5bfb8f0106ed0068ed6a75744b0a45fd040ce",
        ),
        Workload(
            "paper",
            ("reproduce-paper", "--verbose"),
            3,
            "ea99e459559df25605ac86f7e565d4137f74d9dc79761277136934587128bf91",
            "all are documented paper transcription errors",
        ),
    )
}


@dataclass(frozen=True)
class Family:
    """A workload family for the scaling sweep: argv for each size."""

    name: str
    sizes: tuple
    large_sizes: tuple

    def argv(self, size):
        if self.name == "spherical":
            return ("adams", "spherical", "--level", "thom", "--max-weight", str(size), "--nki", "auto")
        if self.name == "psi_dk":
            return ("adams", "psi-dk", "--level", "thom", "--k", str(size), "--nki", "auto")
        return ("fgl", "twist", "--bound", str(size), "--nb", str(size - 1))


# Sizes beyond about 15 s per point sit in large_sizes and run only with --large.
FAMILIES = {
    f.name: f
    for f in (
        Family("spherical", (20, 22, 24, 26), (28, 32)),
        Family("psi_dk", (11, 12, 13, 14), ()),
        Family("twist", (8, 9, 10, 11), (12,)),
    )
}
