"""End-to-end gate: one test per shipped guarantee.

Run with -v to get a pass/fail line per criterion.  The stretch census is
excluded by default (see addopts); select it with -m stretch.
"""

import random
import signal
import time

import pytest

from ramseykit.canon import canonical_key
from ramseykit.counting import (
    book_toggle_delta,
    clique_toggle_delta,
    count_books,
    count_cliques,
    count_wheels,
    gr_score,
    wheel_toggle_delta,
)
from ramseykit.errors import MalformedInputError
from ramseykit.fixtures import load_fixtures, run_fixture_suite
from ramseykit.formats import graph6_decode, graph6_encode
from ramseykit.generate import generate_levels
from ramseykit.graphs import pair_index
from ramseykit.polycirculant import enumerate_census, lemma_witness
from ramseykit.problems import GeneralizedProblem, parse_problem
from ramseykit.tabu import _Scorer, run_parallel, run_search
from ramseykit.verify import verify, verify_witness

from oracles import (
    all_graphs,
    count_books_naive,
    count_cliques_naive,
    count_wheels_naive,
    gr_score_naive,
    random_coloring,
    random_graph,
)


def test_criterion_1_fixture_suite():
    start = time.perf_counter()
    report = run_fixture_suite()
    elapsed = time.perf_counter() - start
    failures = [r.line() for r in report.results if not r.passed]
    assert not failures, failures
    assert report.counts[1] >= 19 and report.counts[0] == report.counts[1]
    assert elapsed < 10.0, f"fixture suite took {elapsed:.1f}s, budget 10s"


def test_criterion_2_generation_counts():
    assert generate_levels(parse_problem("GR:3,K4,2"), 10).counts == [
        1, 1, 3, 9, 34, 154, 428, 556, 263, 0,
    ]
    assert generate_levels(parse_problem("GR:4,K4,3"), 10).counts == [
        1, 1, 3, 7, 11, 12, 1, 1, 1, 0,
    ]
    assert generate_levels(parse_problem("W5,W7"), 8).counts == [
        1, 2, 4, 11, 31, 130, 675, 4868,
    ]
    assert generate_levels(parse_problem("B2,B8"), 7).counts == [
        1, 2, 4, 9, 22, 69, 255,
    ]


def test_criterion_3_polycirculant_census():
    res = enumerate_census(2, 10, parse_problem("B2,B9"))
    assert res.count == 7
    assert res.complete
    keys = {canonical_key(g) for g in res.graphs}
    assert len(keys) == 7
    for g in res.graphs:
        assert g.n == 20
        assert verify(g, parse_problem("B2,B9")).valid


@pytest.mark.stretch
def test_criterion_3_stretch_census():
    # the census probes one 3-block row per orbit and takes well under a
    # minute; probing every leaf took about 7 minutes, so fail past 120 s
    def expire(signum, frame):
        pytest.fail("stretch census ran past 120 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    try:
        res = enumerate_census(3, 8, parse_problem("B2,B10"), workers=4)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert res.count == 1
    assert res.graphs[0].n == 24
    assert verify(res.graphs[0], parse_problem("B2,B10")).valid


def test_criterion_4_lemma_witnesses():
    for n in (4, 5, 6):
        g = lemma_witness(n)
        assert g.n == 4 * n - 2
        problem = parse_problem(f"B{n - 1},B{n}")
        assert verify(g, problem).valid
        # independent recount on top of the verifier's embedding scan
        assert count_books(g, n - 1) == 0
        assert count_books(g.complement(), n) == 0


def test_criterion_5_counter_oracle_equivalence():
    for n in range(1, 7):
        for g in all_graphs(n):
            for k in (1, 2, 3):
                assert count_books(g, k) == count_books_naive(g, k)
            for s in (3, 4):
                assert count_cliques(g, s) == count_cliques_naive(g, s)
            if n >= 4:
                for k in (4, 5):
                    assert count_wheels(g, k) == count_wheels_naive(g, k)

    rng = random.Random(5050)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        k = rng.randint(1, 5)
        assert count_books(g, k) == count_books_naive(g, k)
    for _ in range(200):
        g = random_graph(rng, rng.randint(4, 12), rng.random())
        k = rng.randint(4, 6)
        assert count_wheels(g, k) == count_wheels_naive(g, k)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 12), rng.random())
        s = rng.randint(2, 6)
        assert count_cliques(g, s) == count_cliques_naive(g, s)
    for _ in range(200):
        mc = random_coloring(rng, rng.randint(3, 10), rng.choice((3, 4)))
        s, t = rng.choice(((4, 2), (3, 1), (4, 3) if mc.r == 4 else (3, 2)))
        assert gr_score(mc, s, t) == gr_score_naive(mc, s, t)

    # 10^4 mutations per delta family, checked against full recounts
    g = random_graph(rng, 10)
    before = count_books(g, 2)
    for _ in range(10_000):
        u, v = rng.randrange(10), rng.randrange(10)
        if u == v:
            continue
        d = book_toggle_delta(g, u, v, 2)
        g.toggle_edge(u, v)
        after = count_books(g, 2)
        assert after - before == d
        before = after

    g = random_graph(rng, 9)
    before = count_wheels(g, 5)
    for _ in range(10_000):
        u, v = rng.randrange(9), rng.randrange(9)
        if u == v:
            continue
        d = wheel_toggle_delta(g, u, v, 5)
        g.toggle_edge(u, v)
        after = count_wheels(g, 5)
        assert after - before == d
        before = after

    g = random_graph(rng, 10)
    before = count_cliques(g, 4)
    for _ in range(10_000):
        u, v = rng.randrange(10), rng.randrange(10)
        if u == v:
            continue
        d = clique_toggle_delta(g, u, v, 4)
        g.toggle_edge(u, v)
        after = count_cliques(g, 4)
        assert after - before == d
        before = after

    mc = random_coloring(rng, 9, 3)
    scorer = _Scorer(GeneralizedProblem(3, 4, 2), mc)  # the only GR delta
    before = gr_score(mc, 4, 2)
    for _ in range(10_000):
        u, v = rng.randrange(9), rng.randrange(9)
        if u == v:
            continue
        new = rng.choice([c for c in (1, 2, 3) if c != mc.get(u, v)])
        d = scorer.sums[mc.get(u, v), new][pair_index(u, v)]
        scorer.apply(u, v, new)
        after = gr_score(mc, 4, 2)
        assert after - before == d
        before = after


def test_criterion_6_tabu_search_sanity():
    problem = parse_problem("K3,K3")
    hits = 0
    for seed in range(100):
        out = run_search(problem, 5, seed=seed, max_steps=1000)
        if out.found:
            hits += 1
            assert verify_witness(out.witness, problem).valid
    assert hits >= 95, f"only {hits}/100 seeds found a 5-vertex witness"

    a = run_search(problem, 6, seed=77, max_steps=500)
    b = run_search(problem, 6, seed=77, max_steps=500)
    assert (a.stats.steps, a.stats.best_score) == (b.stats.steps, b.stats.best_score)


def test_criterion_6b_parallel_gr_search():
    problem = parse_problem("GR:3,K4,2")
    wins = 0
    for trial in range(10):
        out = run_parallel(
            problem, 9, seeds=[1000 * trial + i for i in range(4)], max_seconds=600
        )
        if out.found:
            assert verify_witness(out.witness, problem).valid
            assert out.elapsed < 600
            wins += 1
    assert wins >= 8, f"only {wins}/10 parallel trials found an order-9 witness"


def test_criterion_7_codec_exactness():
    rng = random.Random(7070)
    for _ in range(10_000):
        g = random_graph(rng, rng.randint(1, 30), rng.random())
        assert graph6_decode(graph6_encode(g)) == g

    for rec in load_fixtures():
        if rec.kind != "graph6":
            continue
        g = graph6_decode(rec.payload)
        assert graph6_encode(g) == rec.payload
        assert g.n == rec.order

    for bad in ("", "D", "DqKK", "~", "~??", "Dq\x7f", "A" + chr(0b100001 + 63)):
        with pytest.raises(MalformedInputError):
            graph6_decode(bad)
