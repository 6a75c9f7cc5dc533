"""Bundled witness fixtures and the suite runner.

Fifteen two-color witnesses ship as graph6 lines and five multicolor
witnesses as color matrices, with a JSON manifest tying each to its
problem, order, and the bound it certifies.  The suite verifies every
fixture; a failure means the data or the counters are wrong, so the runner
treats any red line as a hard error for its caller to surface.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from importlib import resources

from .errors import InputError
from .formats import graph6_decode, parse_color_matrix
from .graphs import Graph, MultiColoring
from .problems import Problem, parse_problem
from .verify import Verdict, verify_witness


@dataclass(frozen=True)
class FixtureRecord:
    id: str
    problem: Problem
    order: int
    payload: str            # graph6 line or matrix text
    kind: str               # "graph6" | "matrix"
    claim: str

    def load(self) -> Graph | MultiColoring:
        if self.kind == "graph6":
            return graph6_decode(self.payload)
        return parse_color_matrix(self.payload, r=self.problem.r)


def _data(name: str) -> str:
    return resources.files("ramseykit").joinpath("data").joinpath(name).read_text()


def load_fixtures() -> list[FixtureRecord]:
    manifest = json.loads(_data("fixtures.json"))
    g6_lines = [
        line.strip()
        for line in _data(manifest["two_color_file"]).splitlines()
        if line.strip()
    ]

    def record(item: dict, payload: str, kind: str) -> FixtureRecord:
        return FixtureRecord(
            id=item["id"],
            problem=parse_problem(item["problem"]),
            order=item["order"],
            payload=payload,
            kind=kind,
            claim=item["claim"],
        )

    return [
        record(item, g6_lines[item["line"] - 1], "graph6") for item in manifest["two_color"]
    ] + [record(item, _data(item["file"]), "matrix") for item in manifest["multicolor"]]


@dataclass
class FixtureResult:
    record: FixtureRecord
    verdict: Verdict
    elapsed: float

    @property
    def passed(self) -> bool:
        return self.verdict.valid

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{status}  {self.record.id:<12} {self.record.claim}  ({self.elapsed:.2f}s)"
        if not self.passed:
            out += f"  violation: {self.record.id}: {self.verdict.violation}"
        return out


@dataclass
class FixtureReport:
    results: list[FixtureResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    @property
    def counts(self) -> tuple[int, int]:
        passed = sum(1 for r in self.results if r.passed)
        return passed, len(self.results)

    def lines(self) -> list[str]:
        out = [r.line() for r in self.results]
        passed, total = self.counts
        out.append(f"{passed}/{total} fixtures verified")
        return out


def run_fixture_suite() -> FixtureReport:
    """Verify every bundled fixture; all are expected to pass."""
    results = []
    for rec in load_fixtures():
        start = time.perf_counter()
        obj = rec.load()
        n = obj.n
        if n != rec.order:
            raise InputError(f"fixture {rec.id}: payload order {n} != declared {rec.order}")
        verdict = verify_witness(obj, rec.problem)
        results.append(FixtureResult(rec, verdict, time.perf_counter() - start))
    return FixtureReport(results)
