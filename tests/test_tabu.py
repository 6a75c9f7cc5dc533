import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import ramseykit.tabu as tabu
from ramseykit.counting import (
    WheelCache,
    book_toggle_delta,
    clique_toggle_delta,
    count_shape,
    wheel_toggle_delta,
)
from ramseykit.errors import InputError, VerificationError
from ramseykit.graphs import MultiColoring, pair_index, pair_iter, state_hash
from ramseykit.problems import (
    Book,
    Clique,
    GeneralizedProblem,
    TwoColorProblem,
    Wheel,
    parse_problem,
)
from ramseykit.tabu import init_state, run_parallel, run_search, tabu_step
from ramseykit.verify import Verdict, verify_witness

from oracles import (
    count_books_naive,
    count_cliques_naive,
    count_wheels_naive,
    gr_score_naive,
    tabu_candidates_naive,
    tabu_scan_naive,
)

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

    @pytest.mark.parametrize("spec", ["B2,B8", "W5,W7", "K4,K4", "GR:3,K4,2"])
    def test_side_tables_go_through_the_bound_shape_delta(self, monkeypatch, spec):
        # the benchmark's tracer counts side deltas by rebinding
        # tabu.shape_toggle_delta, so every table entry must pass through it
        calls = []
        real = tabu.shape_toggle_delta

        def counted(g, u, v, shape, cache=None):
            calls.append((id(g), u, v))
            return real(g, u, v, shape, cache)

        monkeypatch.setattr(tabu, "shape_toggle_delta", counted)
        st = init_state(parse_problem(spec), 9, seed=5)
        expected = [(id(side.g), u, v) for side in st.scorer.bound for u, v in pair_iter(9)]
        assert sorted(calls) == sorted(expected)
        assert st.scorer.tables_agree()


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


class TestTieWalk:
    """A step hashes only the candidates at the least delta, moving to the
    next value only when all are tabu; it must pick the move of a full scan
    of every candidate, from the same number of ties."""

    @staticmethod
    def step_matches_scan(st):
        rng = random.Random()
        rng.setstate(st.rng.getstate())
        want = tabu_scan_naive(st, rng)
        draws = []
        real = st.rng.randrange
        st.rng.randrange = lambda n: draws.append(n) or real(n)
        got = tabu_step(st)
        del st.rng.randrange
        if want is None:
            assert got is None
            return
        move, ties = want
        assert got == move
        assert draws == ([ties] if ties > 1 else [])

    @pytest.mark.parametrize("spec, n", [("B2,B8", 19), ("K4,K4", 16), ("GR:3,K5,2", 16)])
    def test_step_picks_the_full_scan_move(self, spec, n):
        for seed in (1, 2):
            st = init_state(parse_problem(spec), n, seed=seed)
            for step in range(24):
                if st.score == 0:
                    break
                if step % 3 == 2:
                    # every least candidate tabu: the walk must go on to the
                    # next value, as the scan does
                    cands = tabu_candidates_naive(st)
                    least = min(d for d, _, _ in cands)
                    st.tabu.update(h for d, h, _ in cands if d == least)
                self.step_matches_scan(st)
            if st.score == 0:
                continue
            st.tabu.update(h for _, h, _ in tabu_candidates_naive(st))
            self.step_matches_scan(st)  # every candidate tabu: None


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

    @pytest.mark.parametrize("race", [False, True], ids=["run_search", "run_parallel"])
    def test_nan_step_limit_is_refused(self, race):
        # NaN compares false with everything, so a NaN step cap ran uncapped
        with pytest.raises(InputError, match="max_steps must be at least 0, not nan"):
            if race:
                run_parallel(K33, 6, seeds=[0], max_steps=math.nan)
            else:
                run_search(K33, 6, seed=0, max_steps=math.nan)


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

    @pytest.mark.parametrize("problem, seed", [(K33, 3), (GR342, 13)], ids=["K3,K3", "GR:3,K4,2"])
    def test_audit_recounts_score_from_the_coloring(self, monkeypatch, problem, seed):
        # the maintained side graphs drift off the coloring while the score
        # still agrees with them; only a recount from the coloring can see it
        monkeypatch.setattr(tabu, "AUDIT_EVERY", 1)
        st = init_state(problem, 7, seed=seed)
        for side in st.scorer.bound:
            side.g.toggle_edge(0, 1)
        st.score = sum(count_shape(side.g, side.shape) for side in st.scorer.bound)
        assert st.score != _naive_score(problem, st.coloring)
        with pytest.raises(VerificationError, match="score drifted"):
            tabu_step(st)

    def test_audit_catches_drifted_hash(self, monkeypatch):
        monkeypatch.setattr(tabu, "AUDIT_EVERY", 1)
        st = init_state(GR342, 7, seed=11)
        st.hash ^= 1
        with pytest.raises(VerificationError, match="hash drifted"):
            tabu_step(st)

    def test_audit_catches_a_skipped_wheel_hub_rebuild(self, monkeypatch):
        # a wheel cache that keeps hub u's old tables after a toggle of (u, v)
        # feeds stale deltas to the search; the recount must catch the drift
        monkeypatch.setattr(tabu, "AUDIT_EVERY", 1)
        problem = parse_problem("W5,W7")
        st = init_state(problem, 10, seed=2)
        while st.score > 0 and st.steps < 10:  # the real update does not drift
            tabu_step(st)
        real = WheelCache.apply_toggle

        def skip_hub_u(cache, g, u, v):
            stale = cache.P[u], cache.Q[u], cache.C[u]
            real(cache, g, u, v)
            cache.P[u], cache.Q[u], cache.C[u] = stale

        monkeypatch.setattr(WheelCache, "apply_toggle", skip_hub_u)
        st = init_state(problem, 10, seed=2)
        with pytest.raises(VerificationError, match="incremental score drifted"):
            for _ in range(10):
                tabu_step(st)

    @pytest.mark.parametrize("spec", ["B2,B8", "K4,K4", "GR:3,K5,2"])
    def test_audit_catches_a_dropped_off_edge_correction(self, monkeypatch, spec):
        # a corrector that misses one pair off the toggled edge leaves a
        # stale table entry; the table audit must see it in the step it
        # happens
        monkeypatch.setattr(tabu, "AUDIT_EVERY", 1)
        st = init_state(parse_problem(spec), 12, seed=4)
        for _ in range(10):  # the real correctors do not drift
            if st.score == 0:
                break
            tabu_step(st)

        def drop_one_pair(real):
            def corrector(rows, table, a, b, *rest):
                before = table[:]
                real(rows, table, a, b, *rest)
                for i, (x, y) in enumerate(pair_iter(len(rows))):
                    if table[i] != before[i] and not {x, y} & {a, b}:
                        table[i] = before[i]  # the first one it moved
                        break

            return corrector

        for name in ("update_book_table", "update_clique_table"):
            monkeypatch.setattr(tabu, name, drop_one_pair(getattr(tabu, name)))
        st = init_state(parse_problem(spec), 12, seed=4)
        with pytest.raises(VerificationError, match="delta table drifted"):
            for _ in range(10):
                tabu_step(st)


# (problem, n, step cap): a few seeds down every scorer path, capped so the
# whole table runs in a few seconds
PINNED_RUNS = (
    ("B2,B8", 19, 120),
    ("K4,K4", 16, 160),
    ("W5,W7", 14, 30),
    ("GR:3,K5,2", 16, 35),
    ("GR:3,K4,2", 8, 400),
    ("GR:3,K4,2", 9, 300),
    ("GR:4,K4,3", 10, 40),
    ("K3,K3", 5, 200),
    ("K3,K3", 6, 2000),
)
PINNED_SEEDS = (1, 2, 3)
PINNED_DIGEST = "b682b0dcf9019b3fb0446a61aa38019d8f8119171cf5020b4749ec4d960f9deb"


def test_seeded_trajectories_match_pinned_digest(monkeypatch):
    # The digest pins the search's behaviour: a change to any delta, the
    # tie order or the audit shows up as a different trajectory.
    states = []
    real_init = tabu.init_state

    def capture(*args, **kwargs):
        states.append(real_init(*args, **kwargs))
        return states[-1]

    monkeypatch.setattr(tabu, "init_state", capture)
    lines = []
    for spec, n, cap in PINNED_RUNS:
        for seed in PINNED_SEEDS:
            out = run_search(parse_problem(spec), n, seed=seed, max_steps=cap)
            st = states[-1]
            assert st.hash == state_hash(st.coloring)
            lines.append(
                f"{spec} {n} {seed} {out.found} {out.reason} {out.stats.steps} "
                f"{out.stats.best_score} {out.stats.tabu_size} {st.hash:016x}"
            )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_DIGEST, "\n".join(lines)


SHAPES = (
    Book(1), Book(2), Book(3), Wheel(4), Wheel(5), Wheel(6), Wheel(7),
    Clique(3), Clique(4), Clique(5),
)
NAIVE = {Book: count_books_naive, Wheel: count_wheels_naive, Clique: count_cliques_naive}
GR_PROBLEMS = (
    GeneralizedProblem(3, 3, 1),
    GeneralizedProblem(3, 4, 2),
    GeneralizedProblem(3, 5, 2),
    GeneralizedProblem(4, 4, 2),
    GeneralizedProblem(4, 4, 3),
)


def _naive_score(problem, mc):
    if isinstance(problem, TwoColorProblem):
        return sum(
            NAIVE[type(shape)](mc.color_class(c), shape.k)
            for c, shape in enumerate((problem.left, problem.right), 1)
        )
    return gr_score_naive(mc, problem.s, problem.t)


@hs.composite
def _recolorings(draw, problems):
    """A problem, a random coloring of K_n and a sequence of real recolorings
    given as (pair index, color shift in 1..r-1)."""
    problem = draw(problems)
    n = draw(hs.integers(4, 8))
    m = n * (n - 1) // 2
    colors = draw(hs.lists(hs.integers(1, problem.r), min_size=m, max_size=m))
    moves = draw(hs.lists(
        hs.tuples(hs.integers(0, m - 1), hs.integers(1, problem.r - 1)), max_size=10
    ))
    return problem, MultiColoring(n, problem.r, colors), moves


UNCACHED = {Book: book_toggle_delta, Wheel: wheel_toggle_delta, Clique: clique_toggle_delta}


def _check_every_candidate(scorer, mc):
    # each recolor's delta is the sum of the uncached toggle deltas of the
    # sides holding exactly one of its two colors, on graphs built afresh
    sides = [(cset, shape, mc.union_graph(cset)) for cset, shape in scorer.sides]
    for i, (u, v) in enumerate(pair_iter(mc.n)):
        old = mc.colors[i]
        for new in range(1, mc.r + 1):
            if new == old:
                continue
            want = sum(
                UNCACHED[type(shape)](g, u, v, shape.k)
                for cset, shape, g in sides
                if (old in cset) != (new in cset)
            )
            assert scorer.sums[old, new][pair_index(u, v)] == want, ((u, v), old, new)


def _check_scorer(problem, mc, moves):
    # delta must equal the difference of two independent recounts, and apply
    # must leave the scorer in step with the coloring for the next delta,
    # at every candidate and not only the applied one
    scorer = tabu._Scorer(problem, mc)
    pairs = list(pair_iter(mc.n))
    before = _naive_score(problem, mc)
    assert scorer.full_score() == before
    _check_every_candidate(scorer, mc)
    for i, shift in moves:
        u, v = pairs[i]
        new = (mc.colors[i] - 1 + shift) % problem.r + 1
        d = scorer.sums[mc.colors[i], new][pair_index(u, v)]
        scorer.apply(u, v, new)
        after = _naive_score(problem, mc)
        assert after - before == d
        before = after
        _check_every_candidate(scorer, mc)
    assert scorer.full_score() == before


class TestScorerProperties:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_recolorings(hs.builds(
        TwoColorProblem, hs.sampled_from(SHAPES), hs.sampled_from(SHAPES)
    )))
    def test_two_color_delta_matches_recounts(self, case):
        _check_scorer(*case)

    @settings(derandomize=True, database=None, max_examples=80, deadline=None)
    @given(_recolorings(hs.sampled_from(GR_PROBLEMS)))
    def test_gr_delta_matches_recounts(self, case):
        _check_scorer(*case)


# (problem, n): every scorer path at the orders the searches run, where the
# naive oracles are too slow to check each delta
PINNED_DELTA_CASES = (
    ("B2,B8", 19),
    ("B3,B7", 17),
    ("W5,W7", 14),
    ("W5,W9", 15),
    ("K4,K4", 16),
    ("K3,K6", 14),
    ("GR:3,K5,2", 16),
    ("GR:4,K4,3", 10),
)
# color-1 share of the random colorings, so both shapes of a pair get dense
# and sparse graphs
PINNED_DELTA_BIASES = (0.35, 0.5, 0.65)
PINNED_DELTA_DIGEST = "42978cfca3ee8098596c270893e9278d59f4faf0be53afaed9aefd6ae47712c9"


def test_every_candidate_delta_matches_pinned_digest():
    # The digest pins each candidate's delta value, not only the move the
    # search picks, over seeded colorings and a few applied moves between scans.
    lines = []
    for spec, n in PINNED_DELTA_CASES:
        problem = parse_problem(spec)
        r = problem.r
        pairs = list(pair_iter(n))
        for seed, bias in enumerate(PINNED_DELTA_BIASES):
            rng = random.Random(f"{spec}:{n}:{seed}")
            colors = [
                1 if rng.random() < bias else rng.randint(2, r) for _ in pairs
            ]
            mc = MultiColoring(n, r, colors)
            scorer = tabu._Scorer(problem, mc)
            for _ in range(3):
                deltas = [
                    scorer.sums[mc.colors[i], new][pair_index(u, v)]
                    for i, (u, v) in enumerate(pairs)
                    for new in range(1, r + 1)
                    if new != mc.colors[i]
                ]
                lines.append(f"{spec} {n} {seed} " + " ".join(map(str, deltas)))
                for _ in range(2):
                    i = rng.randrange(len(pairs))
                    new = (mc.colors[i] + rng.randrange(r - 1)) % r + 1
                    scorer.apply(*pairs[i], new)
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED_DELTA_DIGEST
