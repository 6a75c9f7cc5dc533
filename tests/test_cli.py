import io
import multiprocessing
import os
import re
import subprocess
import sys
from itertools import combinations

import pytest

import ramseykit.generate as generate
import ramseykit.verify as verify_module
from ramseykit.cli import main
from ramseykit.fixtures import load_fixtures
from ramseykit.formats import (
    emit_color_matrix,
    graph6_decode,
    graph6_encode,
    parse_color_matrix,
)
from ramseykit.graphs import Graph, MultiColoring
from ramseykit.pool import MAX_JOBS
from ramseykit.polycirculant import enumerate_census
from ramseykit.problems import parse_problem
from ramseykit.verify import verify_witness

FIXTURES = {rec.id: rec for rec in load_fixtures()}


@pytest.fixture
def witness_file(tmp_path):
    rec = FIXTURES["RB2B8-20"]
    path = tmp_path / "w.g6"
    path.write_text(rec.payload + "\n")
    return str(path)


class TestVerify:
    def test_ok(self, witness_file, capsys):
        assert main(["verify", "--problem", "B2,B8", witness_file]) == 0
        out = capsys.readouterr().out
        assert "ok n=20 problem=B2,B8" in out
        assert f"{witness_file}:1" in out

    def test_invalid_is_exit_1(self, tmp_path, capsys):
        path = tmp_path / "k6.g6"
        path.write_text(graph6_encode(Graph(6).complement()) + "\n")
        assert main(["verify", "--problem", "K3,K3", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "clique=" in out

    def test_mixed_inputs_fail_whole_run(self, witness_file, tmp_path, capsys):
        bad = tmp_path / "k6.g6"
        bad.write_text(graph6_encode(Graph(6).complement()) + "\n")
        code = main(["verify", "--problem", "B2,B8", witness_file, str(bad)])
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("ok") == 1 and out.count("INVALID") == 1

    def test_certificate_failing_its_recheck_is_exit_1(
        self, witness_file, tmp_path, monkeypatch, capsys
    ):
        # a verifier mutant whose books are one page short: the verdict is
        # still INVALID, but its certificate names a B1, not a B2
        real = verify_module.find_book

        def short(g, k):
            hit = real(g, k)
            return hit and (hit[0], hit[1][:-1])

        monkeypatch.setattr(verify_module, "find_book", short)
        bad = tmp_path / "k6.g6"
        bad.write_text(graph6_encode(Graph(6).complement()) + "\n")
        assert main(["verify", "--problem", "B2,B8", witness_file, str(bad)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}:1: certificate failed its re-check")
        assert "ok n=20" in captured.out and "INVALID" not in captured.out

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(">>graph6<<C~\n"))
        assert main(["verify", "--problem", "K5,K5", "-"]) == 0
        assert "-:1: ok n=4" in capsys.readouterr().out

    def test_matrix_format(self, tmp_path, capsys):
        rec = FIXTURES["GR3K4T2-9"]
        path = tmp_path / "m.txt"
        path.write_text(rec.payload)
        assert main(["verify", "--problem", "GR:3,K4,2", "--format", "matrix", str(path)]) == 0
        assert f"{path}:1: ok n=9" in capsys.readouterr().out

    def test_object_of_the_wrong_kind_is_named_at_its_line(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text(graph6_encode(Graph(4).complement()) + "\n")
        assert main(["verify", "--problem", "GR:3,K4,2", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}:1: generalized problems need a MultiColoring\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["verify", "count"])
    def test_no_inputs_is_exit_2(self, command, tmp_path, capsys):
        path = tmp_path / "empty.g6"
        path.write_text("")
        assert main([command, "--problem", "K3,K3", str(path)]) == 2
        assert capsys.readouterr().err == f"error: no inputs to {command}\n"

    def test_malformed_graph6_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("Dq\n")
        assert main(["verify", "--problem", "K3,K3", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_ascii_graph6_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("A\u00e9\n", encoding="utf-8")
        assert main(["verify", "--problem", "K3,K3", str(path)]) == 2
        assert "must be ASCII" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["verify", "--problem", "K3,K3", "/no/such/file.g6"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_problem_is_exit_2(self, witness_file, capsys):
        assert main(["verify", "--problem", "B2;B8", witness_file]) == 2
        assert "error:" in capsys.readouterr().err


class TestCount:
    def test_two_color_counts(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text(graph6_encode(Graph(4).complement()) + "\n")
        assert main(["count", "--problem", "B2,B8", str(path)]) == 0
        assert "left=6 right=0 score=6" in capsys.readouterr().out

    def test_gr_score(self, tmp_path, capsys):
        rec = FIXTURES["GR3K4T2-9"]
        path = tmp_path / "m.txt"
        path.write_text(rec.payload)
        assert main(["count", "--problem", "GR:3,K4,2", "--format", "matrix", str(path)]) == 0
        assert "score=0" in capsys.readouterr().out

    def test_gr_needs_matrix(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text(graph6_encode(Graph(4).complement()) + "\n")
        assert main(["count", "--problem", "GR:3,K4,2", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:1: generalized problems need a MultiColoring\n"

    def test_two_colour_matrix_counts_as_its_colour_1(self, tmp_path, capsys):
        g = graph6_decode(FIXTURES["RB2B8-20"].payload)
        mc = MultiColoring(g.n, 2)
        for u, v in combinations(range(g.n), 2):
            mc.set_color(u, v, 1 if g.has_edge(u, v) else 2)
        g6, matrix = tmp_path / "w.g6", tmp_path / "w.txt"
        g6.write_text(graph6_encode(g) + "\n")
        matrix.write_text(emit_color_matrix(mc))
        assert main(["count", "--problem", "B2,B8", str(g6)]) == 0
        by_graph = capsys.readouterr().out
        assert main(["count", "--problem", "B2,B8", "--format", "matrix", str(matrix)]) == 0
        by_matrix = capsys.readouterr().out
        assert by_graph.startswith(f"{g6}:1: left=")
        assert by_matrix == by_graph.replace(str(g6), str(matrix))


class TestSearch:
    def test_finds_and_emits_graph6(self, capsys):
        code = main(["search", "--problem", "K3,K3", "-n", "5", "--seed", "0"])
        assert code == 0
        captured = capsys.readouterr()
        g = graph6_decode(captured.out.strip())
        assert verify_witness(g, parse_problem("K3,K3")).valid
        assert "found by seed 0 in" in captured.err

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "w.g6"
        code = main(
            ["search", "--problem", "K3,K3", "-n", "5", "--seed", "0", "-o", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        g = graph6_decode(out.read_text().strip())
        assert verify_witness(g, parse_problem("K3,K3")).valid

    def test_gr_witness_emitted_as_matrix(self, capsys):
        code = main(
            ["search", "--problem", "GR:3,K4,2", "-n", "6", "--seed", "2",
             "--max-steps", "20000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        mc = parse_color_matrix(out, r=3)
        assert verify_witness(mc, parse_problem("GR:3,K4,2")).valid
        # the matrix text as emit_color_matrix writes it, with no blank line after
        assert out == emit_color_matrix(mc)

    def test_gr_witness_output_file(self, tmp_path, capsys):
        out = tmp_path / "w.txt"
        code = main(
            ["search", "--problem", "GR:3,K4,2", "-n", "6", "--seed", "2",
             "--max-steps", "20000", "-o", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        text = out.read_text()
        mc = parse_color_matrix(text, r=3)
        assert verify_witness(mc, parse_problem("GR:3,K4,2")).valid
        assert text == emit_color_matrix(mc)

    def test_miss_is_exit_3(self, capsys):
        code = main(
            ["search", "--problem", "K3,K3", "-n", "6", "--seed", "1",
             "--max-steps", "50"]
        )
        assert code == 3
        assert "no witness" in capsys.readouterr().err

    def test_deterministic_requires_seed(self, capsys):
        assert main(["search", "--problem", "K3,K3", "-n", "5", "--deterministic"]) == 2
        assert "requires --seed" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-seconds", "nan", "max_seconds must be at least 0, not nan"),
            ("--max-steps", "-5", "max_steps must be at least 0, not -5"),
            ("--max-seconds", "-1", "max_seconds must be at least 0, not -1.0"),
        ],
    )
    def test_a_limit_that_is_no_limit_is_exit_2(self, flag, value, message, capsys):
        # NaN compares false with everything, so it used to run uncapped; a
        # negative limit used to report a miss after 0 steps
        argv = ["search", "--problem", "K3,K3", "-n", "6", "--seed", "1", flag, value]
        assert main(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_invented_seed_is_reported(self, capsys):
        code = main(["search", "--problem", "K3,K3", "-n", "5", "--max-steps", "2000"])
        err = capsys.readouterr().err
        assert code in (0, 3)
        assert "seed:" in err

    def test_workers(self, capsys):
        code = main(
            ["search", "--problem", "K3,K3", "-n", "5", "--seed", "7", "--workers", "2"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "found by seed" in captured.err
        g = graph6_decode(captured.out.strip())
        assert verify_witness(g, parse_problem("K3,K3")).valid

    def test_one_message_shape_for_any_worker_count(self, capsys):
        shapes = []
        for workers in ("1", "2"):
            hit = ["search", "--problem", "K3,K3", "-n", "5", "--seed", "0", "--workers", workers]
            assert main(hit) == 0
            captured = capsys.readouterr()
            hit_err = captured.err
            # first hit wins: with two workers either raced seed (0 or 1) may report first
            assert re.fullmatch(r"found by seed [01] in \d+ steps, \d+\.\ds\n", hit_err)
            g = graph6_decode(captured.out.strip())
            assert verify_witness(g, parse_problem("K3,K3")).valid
            miss = ["search", "--problem", "K3,K3", "-n", "6", "--seed", "1",
                    "--max-steps", "50", "--workers", workers]
            assert main(miss) == 3
            miss_err = capsys.readouterr().err
            miss_shape = r"no witness \(max_steps\): best score \d+ after 50 steps\n"
            assert re.fullmatch(miss_shape, miss_err)
            shapes.append(re.sub(r"\d+", "#", hit_err + miss_err))
        assert shapes[0] == shapes[1]

    def test_every_worker_lost_is_exit_4(self, monkeypatch, capsys):
        import ramseykit.cli as cli
        from ramseykit.tabu import ParallelOutcome

        lost = ["lost (exit code 9)", "lost (exit code -9)"]
        monkeypatch.setattr(
            cli, "run_parallel", lambda *a, **kw: ParallelOutcome(None, None, [], 0.0, lost)
        )
        code = main(
            ["search", "--problem", "K3,K3", "-n", "6", "--seed", "1", "--workers", "2"]
        )
        assert code == 4
        assert (
            "no witness: worker 0 lost (exit code 9); worker 1 lost (exit code -9)"
            in capsys.readouterr().err
        )

    def test_progress_stream(self, capsys):
        code = main(
            ["search", "--problem", "K3,K3", "-n", "6", "--seed", "9",
             "--max-steps", "12000", "--progress"]
        )
        assert code == 3
        assert "score=" in capsys.readouterr().err

    def test_progress_stream_with_workers(self, capfd):
        # forked workers write to fd 2, which capsys would not see
        code = main(
            ["search", "--problem", "K3,K3", "-n", "6", "--seed", "9",
             "--max-steps", "12000", "--workers", "2", "--progress"]
        )
        assert code == 3
        err = capfd.readouterr().err
        assert "worker 0: steps=10000" in err
        assert "worker 1: steps=10000" in err


class TestGenerate:
    def test_counts_table(self, capsys):
        assert main(["generate", "--problem", "K3,K3", "--max-n", "5"]) == 0
        out = capsys.readouterr().out
        assert "counts: 1,2,2,3,1" in out
        assert out.splitlines()[0].startswith("order")

    def test_cap_is_exit_3(self, capsys):
        assert main(["generate", "--problem", "K3,K3", "--max-n", "13"]) == 3
        assert "limit:" in capsys.readouterr().err

    def test_dump(self, tmp_path, capsys):
        code = main(
            ["generate", "--problem", "K3,K3", "--max-n", "4", "--dump", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "n4.g6").read_text().count("\n") == 3

    def test_dumped_matrices_verify(self, tmp_path, capsys):
        # a level file holds one matrix per witness, and the first levels
        # use fewer colors than the problem has
        argv = ["--problem", "GR:3,K4,2", "--format", "matrix"]
        assert main(["generate", "--problem", "GR:3,K4,2", "--max-n", "5",
                     "--dump", str(tmp_path)]) == 0
        counts = capsys.readouterr().out.splitlines()[-1].removeprefix("counts: ").split(",")
        assert counts == ["1", "1", "3", "9", "34"]
        for order, count in enumerate(map(int, counts), 1):
            path = tmp_path / f"n{order}.txt"
            assert main(["verify", *argv, str(path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == count
            assert all(f": ok n={order} problem=GR:3,K4,2" in line for line in lines)
            assert main(["count", *argv, str(path)]) == 0
            assert capsys.readouterr().out.count("score=0") == count

    def test_budget_prints_partial_and_exit_3(self, monkeypatch, capsys):
        import ramseykit.cli as cli

        def budgeted(*args, **kwargs):
            return generate.generate_levels(*args, child_budget=300, **kwargs)

        monkeypatch.setattr(cli, "generate_levels", budgeted)
        assert main(["generate", "--problem", "B2,B8", "--max-n", "7"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "limit: child budget 300 exceeded at order 7\n"
        lines = captured.out.splitlines()
        assert lines[0] == "order  count   (B2,B8)"
        assert [line.split() for line in lines[1:-1]] == [
            [str(i), c] for i, c in enumerate(["1", "2", "4", "9", "22", "69"], 1)
        ]
        assert lines[-1] == "counts: 1,2,4,9,22,69"

    def test_dumped_witness_failing_reverification_is_exit_1(self, tmp_path, monkeypatch, capsys):
        # every child is kept, so a level holds a graph with a triangle
        monkeypatch.setattr(generate, "has_shape_through", lambda *args: False)
        code = main(
            ["generate", "--problem", "K3,K3", "--max-n", "4", "--dump", str(tmp_path)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: generation produced an invalid witness")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestPolycirc:
    def test_census_summary(self, capsys):
        assert main(["polycirc", "--problem", "K3,K3", "-k", "1", "-m", "5"]) == 0
        out = capsys.readouterr().out
        assert "census k=1 m=5 problem=K3,K3 count=1 examined=2" in out
        assert "# k=1;m=5;S11=" in out

    def test_budget_prints_partial_and_exit_3(self, capsys):
        code = main(
            ["polycirc", "--problem", "B2,B8", "-k", "2", "-m", "5", "--budget", "20"]
        )
        assert code == 3
        captured = capsys.readouterr()
        assert "limit:" in captured.err
        assert "[truncated]" in captured.out

    def test_negative_budget_is_exit_2(self, capsys):
        argv = ["polycirc", "--problem", "B2,B8", "-k", "2", "-m", "5", "--budget", "-1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: census budget must be at least 0, not -1" in captured.err
        assert captured.out == ""

    def test_capability_exit_3(self, capsys):
        assert main(["polycirc", "--problem", "K3,K3", "-k", "4", "-m", "5"]) == 3
        assert "limit:" in capsys.readouterr().err

    def test_census_past_the_canonical_cap_is_refused_before_scanning(self, monkeypatch, capsys):
        # 3 * 11 = 33 vertices: refused up front, not after the budget is spent
        import ramseykit.polycirculant as poly

        def no_scan(*args):
            raise AssertionError("the census scanned")

        monkeypatch.setattr(poly, "map_jobs", no_scan)
        argv = ["polycirc", "--problem", "K12,K12", "-k", "3", "-m", "11", "--budget", "5"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert "limit:" in captured.err and "capped at 32" in captured.err
        assert captured.out == ""

    def test_complement_blocks_filter(self, capsys):
        argv = ["polycirc", "--problem", "B2,B8", "-k", "2", "-m", "5"]
        assert main(argv + ["--filter", "complement-blocks"]) == 0
        census = enumerate_census(2, 5, parse_problem("B2,B8"), complement_blocks=True)
        *graphs, summary = census.lines()
        assert capsys.readouterr().out.splitlines() == graphs + ["# " + summary]
        assert main(["polycirc", "--problem", "B2,B8", "-k", "3", "-m", "5",
                     "--filter", "complement-blocks"]) == 2
        assert "needs exactly 2 blocks" in capsys.readouterr().err

    def test_no_blocks_is_exit_2(self, capsys):
        # as every other lower bound, not exit 3 as a capability limit
        assert main(["polycirc", "--problem", "K3,K3", "-k", "0", "-m", "5"]) == 2
        assert capsys.readouterr().err == "error: census needs at least one block\n"


class TestCertificatesReadBack:
    @pytest.mark.parametrize("budget, code", [([], 0), (["--budget", "20"], 3)])
    def test_polycirc_output_verifies(self, budget, code, monkeypatch, capsys):
        # a complete census and a budgeted one, piped into verify as they are
        argv = ["--problem", "B2,B8"]
        assert main(["polycirc", *argv, "-k", "2", "-m", "5", *budget]) == code
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith("# census k=2 m=5 problem=B2,B8 count=")
        monkeypatch.setattr(sys, "stdin", io.StringIO(out))
        assert main(["verify", *argv, "-"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == out.count("  # k=2;") > 0
        assert all(": ok n=10 problem=B2,B8" in line for line in lines)


_WORKER_COMMANDS = {
    "search": ["search", "--problem", "K3,K3", "-n", "5", "--seed", "1"],
    "generate": ["generate", "--problem", "K3,K3", "--max-n", "5"],
    "polycirc": ["polycirc", "--problem", "B2,B8", "-k", "2", "-m", "5"],
}


@pytest.mark.parametrize("command, workers", [("search", "0"), ("generate", "0"),
                                              ("polycirc", "-3")])
def test_workers_below_one_is_exit_2(command, workers, capsys):
    assert main(_WORKER_COMMANDS[command] + ["--workers", workers]) == 2
    assert f"workers must be at least 1, not {workers}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["search", "generate", "polycirc"])
def test_workers_past_the_cap_is_exit_3(command, monkeypatch, capsys):
    def no_process(*args, **kwargs):
        raise AssertionError("a process was started")

    monkeypatch.setattr(multiprocessing, "Process", no_process)
    assert main(_WORKER_COMMANDS[command] + ["--workers", str(MAX_JOBS + 1)]) == 3
    assert f"cap of {MAX_JOBS} worker processes" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["verify", "--problem", "K3,K3"],
                                     ["count", "--problem", "GR:3,K4,2", "--format", "matrix"]],
                         ids=["verify", "count-matrix"])
def test_file_not_utf8_is_exit_2(command, tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"A\xe9\n")
    assert main(command + [str(path)]) == 2
    assert f"error: {path}: " in capsys.readouterr().err


@pytest.mark.parametrize("command, engine", [("generate", "generate_levels"),
                                             ("polycirc", "enumerate_census")])
def test_lost_worker_is_exit_4(command, engine, monkeypatch, capsys):
    import ramseykit.cli as cli
    from ramseykit.errors import WorkerLost

    def lose_worker_1(*args, **kwargs):
        raise WorkerLost(1, 9)

    monkeypatch.setattr(cli, engine, lose_worker_1)
    assert main(_WORKER_COMMANDS[command] + ["--workers", "2"]) == 4
    assert "worker 1 lost (exit code 9)" in capsys.readouterr().err


class TestFixturesCommand:
    def test_suite_passes(self, capsys):
        assert main(["fixtures"]) == 0
        assert "20/20 fixtures verified" in capsys.readouterr().out


def test_console_script_installed():
    proc = subprocess.run(
        ["ramseykit", "verify", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "graph6" in proc.stdout


def test_python_dash_m_runs_cli():
    import ramseykit

    src = os.path.dirname(os.path.dirname(ramseykit.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "ramseykit", "fixtures"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "20/20 fixtures verified" in proc.stdout
