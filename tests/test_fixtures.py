import time

from ramseykit.fixtures import load_fixtures, run_fixture_suite
from ramseykit.graphs import Graph, MultiColoring
from ramseykit.problems import GeneralizedProblem, TwoColorProblem
from ramseykit.verify import verify_witness


def test_twenty_fixtures_bundled():
    recs = load_fixtures()
    assert len(recs) == 20
    assert len({r.id for r in recs}) == 20


def test_every_fixture_verifies():
    start = time.perf_counter()
    report = run_fixture_suite()
    elapsed = time.perf_counter() - start
    for r in report.results:
        assert r.passed, r.line()
    assert report.all_passed
    assert report.counts == (20, 20)
    assert report.lines()[-1] == "20/20 fixtures verified"
    assert elapsed < 10.0


def test_orders_match_claims():
    # each claim asserts a lower bound one above the witness order
    for rec in load_fixtures():
        obj = rec.load()
        assert obj.n == rec.order
        assert f">= {rec.order + 1}" in rec.claim


def test_problem_kinds():
    recs = load_fixtures()
    two = [r for r in recs if isinstance(r.problem, TwoColorProblem)]
    gen = [r for r in recs if isinstance(r.problem, GeneralizedProblem)]
    assert len(two) == 15 and len(gen) == 5
    for r in two:
        assert isinstance(r.load(), Graph)
    for r in gen:
        mc = r.load()
        assert isinstance(mc, MultiColoring)
        assert mc.r == r.problem.r


def test_individual_lookup():
    rec = next(rec for rec in load_fixtures() if rec.id == "RW5W9-17")
    assert rec.order == 17
    assert verify_witness(rec.load(), rec.problem).valid


def test_pass_lines_are_stable():
    report = run_fixture_suite()
    line = report.results[0].line()
    assert line.startswith("pass") and report.results[0].record.id in line
