"""Worker fates: the pool helper itself, and a killed or raising worker in
each engine that runs one.  Every test starts at most three processes.

The engine tests patch a module function in the parent; only workers made
by fork see the patch, so they are skipped under other start methods.
"""

import multiprocessing
import os
import time

import pytest

import ramseykit.generate as generate
import ramseykit.polycirculant as polycirculant
import ramseykit.tabu as tabu
from ramseykit.errors import WorkerLost
from ramseykit.pool import map_jobs, run_jobs
from ramseykit.problems import parse_problem

K33 = parse_problem("K3,K3")

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="monkeypatches reach only forked workers",
)


def _fate(job):
    if job == "raise":
        raise ValueError("boom from the worker")
    if job == "die":
        os._exit(9)
    if job == "sleep":
        time.sleep(60)
    return job


def _pid(job):
    return os.getpid()


def _square(job):
    return job * job


class TestHelper:
    def test_map_jobs_keeps_job_order(self):
        assert map_jobs(_square, [(3,), (1,), (2,)]) == [9, 1, 4]

    def test_single_job_runs_in_this_process(self):
        assert map_jobs(_pid, [(0,)]) == [os.getpid()]

    def test_run_jobs_reports_each_fate(self):
        start = time.perf_counter()
        fates = dict(run_jobs(_fate, [("ok",), ("raise",), ("die",)]))
        assert time.perf_counter() - start < 5
        assert fates[0] == "ok"
        assert isinstance(fates[1], ValueError)
        assert "in _fate" in str(fates[1].__cause__)
        assert "boom from the worker" in str(fates[1].__cause__)
        assert isinstance(fates[2], WorkerLost)
        assert fates[2].exitcode == 9
        assert str(fates[2]) == "worker 2 lost (exit code 9)"

    def test_closing_terminates_running_workers(self):
        start = time.perf_counter()
        finished = run_jobs(_fate, [("ok",), ("sleep",)])
        assert next(finished) == (0, "ok")
        finished.close()
        assert time.perf_counter() - start < 5
        assert not multiprocessing.active_children()

    def test_map_jobs_raises_a_loss(self):
        with pytest.raises(WorkerLost, match=r"worker 1 lost \(exit code 9\)"):
            map_jobs(_fate, [("ok",), ("die",)])


@needs_fork
class TestEngineFates:
    def test_race_sibling_keeps_its_fate_when_one_is_lost(self, monkeypatch):
        real = tabu.run_search

        def dies_on_seed_2(problem, n, seed, *rest):
            if seed == 2:
                os._exit(9)
            return real(problem, n, seed, *rest)

        monkeypatch.setattr(tabu, "run_search", dies_on_seed_2)
        start = time.perf_counter()
        out = tabu.run_parallel(K33, 6, seeds=[1, 2], max_steps=100)
        assert time.perf_counter() - start < 5
        assert out.fates == ["max_steps", "lost (exit code 9)"]
        assert [o.seed for o in out.outcomes] == [1]

    def test_race_winner_stops_the_others(self, monkeypatch):
        real = tabu.run_search

        def stalls_on_seed_2(problem, n, seed, *rest):
            if seed == 2:
                time.sleep(60)
            return real(problem, n, seed, *rest)

        monkeypatch.setattr(tabu, "run_search", stalls_on_seed_2)
        start = time.perf_counter()
        out = tabu.run_parallel(K33, 5, seeds=[1, 2], max_steps=2000)
        assert time.perf_counter() - start < 5
        assert out.fates == ["found", "stopped"]
        assert out.winner_seed == 1
        assert not multiprocessing.active_children()

    def test_race_crash_keeps_the_worker_traceback(self, monkeypatch):
        real = tabu.run_search

        def raises_on_seed_2(problem, n, seed, *rest):
            if seed == 2:
                raise ValueError("seed 2 is broken")
            return real(problem, n, seed, *rest)

        monkeypatch.setattr(tabu, "run_search", raises_on_seed_2)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="seed 2 is broken") as ei:
            tabu.run_parallel(K33, 6, seeds=[1, 2], max_steps=10**7)
        assert time.perf_counter() - start < 5
        assert "in raises_on_seed_2" in str(ei.value.__cause__)
        assert not multiprocessing.active_children()

    def test_generation_names_the_lost_stripe(self, monkeypatch):
        real = generate._keyed_stripe

        def dies_on_an_edge(parents, problem):
            # the order-2 frontier is [empty graph, K2]: K2 is stripe 1
            if parents[0].edge_count():
                os._exit(9)
            return real(parents, problem)

        monkeypatch.setattr(generate, "_keyed_stripe", dies_on_an_edge)
        start = time.perf_counter()
        with pytest.raises(WorkerLost, match=r"worker 1 lost \(exit code 9\)"):
            generate.generate_levels(K33, 5, workers=2)
        assert time.perf_counter() - start < 5

    def test_census_names_the_lost_stripe(self, monkeypatch):
        real = polycirculant._scan_stripe

        def dies_on_stripe_1(k, m, problem, filters, stripe, nstripes, budget):
            if stripe == 1:
                os._exit(9)
            return real(k, m, problem, filters, stripe, nstripes, budget)

        monkeypatch.setattr(polycirculant, "_scan_stripe", dies_on_stripe_1)
        start = time.perf_counter()
        with pytest.raises(WorkerLost, match=r"worker 1 lost \(exit code 9\)"):
            polycirculant.enumerate_census(2, 5, parse_problem("B2,B8"), workers=2)
        assert time.perf_counter() - start < 5
