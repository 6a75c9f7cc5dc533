"""Tests of the benchmark itself: run with `python -m pytest perfbench`.

The job lists are shrunk so the whole file runs in seconds; the full-size
determinism check is two `run.py --trace 1` runs with the same seed.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

WORK_COUNTS = (
    "tabu.steps",
    "counting.delta_calls",
    "canon.keys",
    "generate.children",
    "polycirculant.builds",
    "polycirculant.examined",
    "verify.through_calls",
    "verify.witness_calls",
)


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(workloads, "SEARCH_JOBS", (
        ("B2,B8", 19, 40), ("K4,K4", 16, 40), ("W5,W7", 14, 6), ("GR:3,K5,2", 16, 8),
    ))
    monkeypatch.setattr(workloads, "GENERATE_JOBS", (
        ("GR:3,K4,2", 6, [1, 1, 3, 9, 34, 154]),
        ("W5,W7", 6, [1, 2, 4, 11, 31, 130]),
    ))
    monkeypatch.setattr(workloads, "CENSUS", (2, 6, "B2,B5", 13, 117))
    monkeypatch.setattr(workloads, "CENSUS_SLICE", (3, 8, "B2,B10", 300))
    monkeypatch.setattr(workloads, "AUDIT_COPIES", 1)


def _traced_counts(work) -> tuple[dict, object]:
    tracer = tracing.Tracer()
    with tracer:
        out = work.run()
    metrics = tracing.layer_metrics(tracer, work.facts(out))
    return {k: metrics[k] for k in WORK_COUNTS}, out


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_work_counts_repeat(small, name):
    first, out = _traced_counts(workloads.WORKLOADS[name](seed=3))
    second, _ = _traced_counts(workloads.WORKLOADS[name](seed=3))
    assert first == second
    assert any(first.values())
    chk = workloads.Checked()
    workloads.WORKLOADS[name](seed=3).check(out, chk)
    assert chk.failed == 0, chk.messages


def test_check_catches_a_wrong_count(small, monkeypatch):
    monkeypatch.setattr(workloads, "GENERATE_JOBS", (("B2,B8", 5, [1, 2, 4, 9, 23]),))
    work = workloads.Generate(seed=0)
    chk = workloads.Checked()
    work.check(work.run(), chk)
    assert (chk.attempted, chk.failed) == (1, 1)


def test_uninstall_restores_every_binding():
    before = [owner.__dict__[attr] for owner, attr, *_ in tracing.WRAPS]
    with tracing.Tracer():
        during = [owner.__dict__[attr] for owner, attr, *_ in tracing.WRAPS]
    after = [owner.__dict__[attr] for owner, attr, *_ in tracing.WRAPS]
    assert after == before
    assert all(d is not b for d, b in zip(during, before))
