import pytest

import ramseykit.tabu as tabu
from ramseykit.errors import InputError, VerificationError
from ramseykit.graphs import state_hash
from ramseykit.problems import parse_problem
from ramseykit.tabu import init_state, run_parallel, run_search, tabu_step
from ramseykit.verify import Verdict, verify_witness

K33 = parse_problem("K3,K3")
GR342 = parse_problem("GR:3,K4,2")


class TestInitState:
    def test_deterministic(self):
        a = init_state(K33, 6, seed=7)
        b = init_state(K33, 6, seed=7)
        assert a.coloring.colors == b.coloring.colors
        assert a.score == b.score and a.hash == b.hash

    def test_start_is_tabu(self):
        st = init_state(K33, 6, seed=7)
        assert st.tabu == {st.hash}
        assert st.score >= 0
        assert st.hash == state_hash(st.coloring)

    def test_too_small(self):
        with pytest.raises(InputError):
            init_state(K33, 1, seed=0)


class TestTabuStep:
    def test_incrementals_track_ground_truth(self):
        st = init_state(GR342, 7, seed=11)
        for _ in range(40):
            if st.score == 0:
                break
            move = tabu_step(st)
            assert move is not None
            assert st.score == st.scorer.full_score()
            assert st.hash == state_hash(st.coloring)

    def test_never_revisits(self):
        # one new hash per step, so the tabu set and step count move in lock step
        st = init_state(K33, 6, seed=3)
        seen = {st.hash}
        for _ in range(300):
            if tabu_step(st) is None:
                break
            assert st.hash not in seen
            seen.add(st.hash)
        assert len(st.tabu) == st.steps + 1

    def test_rejects_solved_state(self):
        st = init_state(K33, 5, seed=0)
        while st.score > 0:
            tabu_step(st)
        with pytest.raises(InputError):
            tabu_step(st)


class TestRunSearch:
    def test_small_instance_solves_quickly(self):
        hit = 0
        for seed in range(30):
            out = run_search(K33, 5, seed=seed, max_steps=1000)
            if out.found:
                hit += 1
                assert out.reason is None
                assert verify_witness(out.witness, K33).valid
                assert out.stats.steps <= 1000
        assert hit >= 28

    def test_same_seed_same_run(self):
        a = run_search(GR342, 8, seed=42, max_steps=500)
        b = run_search(GR342, 8, seed=42, max_steps=500)
        assert a.found == b.found
        assert a.stats.steps == b.stats.steps
        assert a.stats.best_score == b.stats.best_score
        if a.found:
            assert a.witness.colors == b.witness.colors

    def test_max_steps_respected(self):
        # R(3,3) = 6: no 6-vertex witness exists, so the limit must trip
        out = run_search(K33, 6, seed=1, max_steps=200)
        assert not out.found
        assert out.reason == "max_steps"
        assert out.stats.steps == 200
        assert out.stats.best_score >= 1

    def test_max_seconds_respected(self):
        out = run_search(K33, 6, seed=1, max_seconds=0.2)
        assert not out.found
        assert out.reason in ("max_seconds", "exhausted")

    def test_impossible_instance_exhausts(self):
        # 2^15 states on K6; the unbounded tabu set corners the walk eventually
        out = run_search(K33, 6, seed=5)
        assert not out.found
        assert out.reason == "exhausted"
        assert out.stats.best_score >= 1

    def test_seed_recorded(self):
        out = run_search(K33, 5, seed=123, max_steps=2000)
        assert out.seed == 123

    def test_gr_witness_found_and_valid(self):
        out = run_search(GR342, 6, seed=2, max_steps=5000)
        assert out.found
        assert out.witness.r == 3
        assert verify_witness(out.witness, GR342).valid


class TestRunParallel:
    def test_first_witness_wins(self):
        out = run_parallel(K33, 5, seeds=[10, 11, 12], max_steps=2000)
        assert out.found
        assert out.winner_seed in (10, 11, 12)
        assert verify_witness(out.witness, K33).valid
        assert out.elapsed > 0

    def test_all_miss_reported(self):
        out = run_parallel(K33, 6, seeds=[1, 2], max_steps=100)
        assert not out.found
        assert out.winner_seed is None
        assert len(out.outcomes) == 2
        assert all(o.reason == "max_steps" for o in out.outcomes)

    def test_seed_validation(self):
        with pytest.raises(InputError):
            run_parallel(K33, 5, seeds=[])
        with pytest.raises(InputError):
            run_parallel(K33, 5, seeds=[4, 4])


class TestProgress:
    def test_progress_callback_fires(self):
        lines = []
        run_search(K33, 6, seed=9, max_steps=12_000, progress=lines.append)
        assert lines
        assert all("score=" in ln for ln in lines)


class TestReverification:
    def test_score_zero_state_failing_verification_raises(self, monkeypatch):
        monkeypatch.setattr(tabu, "verify_witness", lambda obj, problem: Verdict(False))
        with pytest.raises(VerificationError, match="score-0"):
            run_search(K33, 5, seed=1)

    def test_audit_catches_drifted_score(self, monkeypatch):
        monkeypatch.setattr(tabu, "AUDIT_EVERY", 1)
        st = init_state(GR342, 7, seed=11)
        st.score += 1
        with pytest.raises(VerificationError, match="score drifted"):
            tabu_step(st)

    def test_audit_catches_drifted_hash(self, monkeypatch):
        monkeypatch.setattr(tabu, "AUDIT_EVERY", 1)
        st = init_state(GR342, 7, seed=11)
        st.hash ^= 1
        with pytest.raises(VerificationError, match="hash drifted"):
            tabu_step(st)
