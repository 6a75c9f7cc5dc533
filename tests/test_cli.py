import io
import os
import subprocess
import sys

import pytest

from ramseykit.cli import main
from ramseykit.fixtures import fixture_by_id
from ramseykit.formats import graph6_decode, graph6_encode, parse_color_matrix
from ramseykit.graphs import Graph
from ramseykit.problems import parse_problem
from ramseykit.verify import verify_witness


@pytest.fixture
def witness_file(tmp_path):
    rec = fixture_by_id("RB2B8-20")
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
        path.write_text(graph6_encode(Graph.complete(6)) + "\n")
        assert main(["verify", "--problem", "K3,K3", str(path)]) == 1
        out = capsys.readouterr().out
        assert "INVALID" in out and "clique=" in out

    def test_mixed_inputs_fail_whole_run(self, witness_file, tmp_path, capsys):
        bad = tmp_path / "k6.g6"
        bad.write_text(graph6_encode(Graph.complete(6)) + "\n")
        code = main(["verify", "--problem", "B2,B8", witness_file, str(bad)])
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("ok") == 1 and out.count("INVALID") == 1

    def test_stdin(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "stdin", io.StringIO(">>graph6<<C~\n"))
        assert main(["verify", "--problem", "K5,K5", "-"]) == 0
        assert "-:1: ok n=4" in capsys.readouterr().out

    def test_matrix_format(self, tmp_path, capsys):
        rec = fixture_by_id("GR3K4T2-9")
        path = tmp_path / "m.txt"
        path.write_text(rec.payload)
        assert main(["verify", "--problem", "GR:3,K4,2", "--format", "matrix", str(path)]) == 0
        assert "ok n=9" in capsys.readouterr().out

    def test_malformed_graph6_is_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.g6"
        path.write_text("Dq\n")
        assert main(["verify", "--problem", "K3,K3", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, capsys):
        assert main(["verify", "--problem", "K3,K3", "/no/such/file.g6"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_problem_is_exit_2(self, witness_file, capsys):
        assert main(["verify", "--problem", "B2;B8", witness_file]) == 2
        assert "error:" in capsys.readouterr().err


class TestCount:
    def test_two_color_counts(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text(graph6_encode(Graph.complete(4)) + "\n")
        assert main(["count", "--problem", "B2,B8", str(path)]) == 0
        assert "left=6 right=0 score=6" in capsys.readouterr().out

    def test_gr_score(self, tmp_path, capsys):
        rec = fixture_by_id("GR3K4T2-9")
        path = tmp_path / "m.txt"
        path.write_text(rec.payload)
        assert main(["count", "--problem", "GR:3,K4,2", "--format", "matrix", str(path)]) == 0
        assert "score=0" in capsys.readouterr().out

    def test_gr_needs_matrix(self, tmp_path, capsys):
        path = tmp_path / "k4.g6"
        path.write_text(graph6_encode(Graph.complete(4)) + "\n")
        assert main(["count", "--problem", "GR:3,K4,2", str(path)]) == 2
        assert "matrix input" in capsys.readouterr().err


class TestSearch:
    def test_finds_and_emits_graph6(self, capsys):
        code = main(["search", "--problem", "K3,K3", "-n", "5", "--seed", "0"])
        assert code == 0
        captured = capsys.readouterr()
        g = graph6_decode(captured.out.strip())
        assert verify_witness(g, parse_problem("K3,K3")).valid
        assert "found in" in captured.err

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
        mc = parse_color_matrix(capsys.readouterr().out, r=3)
        assert verify_witness(mc, parse_problem("GR:3,K4,2")).valid

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

    def test_capability_exit_3(self, capsys):
        assert main(["polycirc", "--problem", "K3,K3", "-k", "4", "-m", "5"]) == 3
        assert "limit:" in capsys.readouterr().err


_WORKER_COMMANDS = {
    "search": ["search", "--problem", "K3,K3", "-n", "5", "--seed", "1"],
    "generate": ["generate", "--problem", "K3,K3", "--max-n", "5"],
    "polycirc": ["polycirc", "--problem", "B2,B8", "-k", "2", "-m", "5"],
}


@pytest.mark.parametrize("command, workers", [("search", "0"), ("generate", "0"),
                                              ("polycirc", "-3")])
def test_workers_below_one_is_exit_2(command, workers, capsys):
    assert main(_WORKER_COMMANDS[command] + ["--workers", workers]) == 2
    assert "--workers must be at least 1" in capsys.readouterr().err


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
