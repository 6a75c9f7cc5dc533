"""Worker fates: the pool helper itself, a lone job run in this process,
and a killed or raising worker in each engine that runs one.  Every test
starts at most three processes.

The engine fate tests patch a module function in the parent; only workers
made by fork see the patch, so they are skipped under other start methods.
"""

import multiprocessing
import os
import subprocess
import sys
import time

import pytest

import ramseykit
import ramseykit.generate as generate
import ramseykit.polycirculant as polycirculant
import ramseykit.tabu as tabu
from ramseykit.errors import CapabilityError, InputError, WorkerLost
from ramseykit.pool import MAX_JOBS, map_jobs, run_jobs
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

    def test_lone_job_yields_in_this_process(self):
        assert list(run_jobs(_pid, [(0,)])) == [(0, os.getpid())]
        [(i, exc)] = run_jobs(_fate, [("raise",)])
        assert i == 0
        assert isinstance(exc, ValueError) and str(exc) == "boom from the worker"

    def test_serial_runs_import_no_worker_machinery(self):
        code = (
            "import sys\n"
            "from ramseykit import enumerate_census, parse_problem, run_parallel\n"
            "enumerate_census(2, 5, parse_problem('B2,B8'))\n"
            "run_parallel(parse_problem('K3,K3'), 5, seeds=[0], max_steps=2000)\n"
            "print('multiprocessing' in sys.modules, 'multiprocessing.connection' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(ramseykit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False False\n"

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

    def test_jobs_past_the_cap_start_no_process(self, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a process was started")

        monkeypatch.setattr(multiprocessing, "Process", no_process)
        jobs = [(i,) for i in range(MAX_JOBS + 1)]
        with pytest.raises(CapabilityError, match=f"{MAX_JOBS + 1} jobs exceed the cap"):
            map_jobs(_square, jobs)
        # at the cap the helper goes on to start the first process
        with pytest.raises(AssertionError, match="a process was started"):
            map_jobs(_square, jobs[:MAX_JOBS])

    @pytest.mark.parametrize("workers, error", [(0, InputError), (-2, InputError),
                                                (MAX_JOBS + 1, CapabilityError)])
    def test_engines_check_workers_before_any_work(self, workers, error, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work was started")

        for module, name in [(generate, "map_jobs"), (generate, "_keyed_children"),
                             (polycirculant, "map_jobs")]:
            monkeypatch.setattr(module, name, no_work)
        with pytest.raises(error, match="workers"):
            generate.generate_levels(K33, 5, workers=workers)
        with pytest.raises(error, match="workers"):
            polycirculant.enumerate_census(2, 5, K33, workers=workers)

    def test_map_jobs_raises_a_loss(self):
        with pytest.raises(WorkerLost, match=r"worker 1 lost \(exit code 9\)"):
            map_jobs(_fate, [("ok",), ("die",)])


class TestLoneSeed:
    def test_lone_seed_races_in_this_process(self, monkeypatch):
        def no_process(*args, **kwargs):
            raise AssertionError("a lone seed started a process")

        real = tabu.run_search
        pids = []

        def recording(*args):
            pids.append(os.getpid())
            return real(*args)

        monkeypatch.setattr(multiprocessing, "Process", no_process)
        monkeypatch.setattr(tabu, "run_search", recording)
        out = tabu.run_parallel(K33, 5, seeds=[3], max_steps=2000)
        assert pids == [os.getpid()]
        assert out.found and out.winner_seed == 3 and out.fates == ["found"]

    def test_lone_seed_raises_in_the_caller(self, monkeypatch):
        def broken(problem, n, seed, *rest):
            raise ValueError(f"seed {seed} is broken")

        monkeypatch.setattr(tabu, "run_search", broken)
        with pytest.raises(ValueError, match="seed 4 is broken") as ei:
            tabu.run_parallel(K33, 5, seeds=[4])
        assert any(entry.name == "broken" for entry in ei.traceback)


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

        def dies_on_an_edge(parents, problem, budget):
            # the order-2 frontier is [empty graph, K2]: K2 is stripe 1
            if parents[0].edge_count():
                os._exit(9)
            return real(parents, problem, budget)

        monkeypatch.setattr(generate, "_keyed_stripe", dies_on_an_edge)
        start = time.perf_counter()
        with pytest.raises(WorkerLost, match=r"worker 1 lost \(exit code 9\)"):
            generate.generate_levels(K33, 5, workers=2)
        assert time.perf_counter() - start < 5

    def test_census_names_the_lost_stripe(self, monkeypatch):
        real = polycirculant._scan_stripe

        def dies_on_stripe_1(k, m, problem, filters, outers, budget):
            # two stripes are dealt outer indices 0, 2 and 1, 3: 1 is stripe 1
            if outers[0][0] == 1:
                os._exit(9)
            return real(k, m, problem, filters, outers, budget)

        monkeypatch.setattr(polycirculant, "_scan_stripe", dies_on_stripe_1)
        start = time.perf_counter()
        with pytest.raises(WorkerLost, match=r"worker 1 lost \(exit code 9\)"):
            polycirculant.enumerate_census(2, 5, parse_problem("B2,B8"), workers=2)
        assert time.perf_counter() - start < 5
