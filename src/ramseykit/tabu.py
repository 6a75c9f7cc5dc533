"""Tabu local search over edge recolorings.

One engine serves both problem kinds: two-color problems run as r=2
colorings (color 1 is the graph, color 2 the complement).  Each step
evaluates every single-edge recoloring, skips candidates whose state hash
was ever visited (the tabu set grows without bound), and applies a
minimum-score candidate with uniform random tie-breaking.  Runs never
restart; a neighborhood with every candidate tabu ends the run as stalled.

The two scorers below hold the only incremental scoring code: two-color
problems through the counters' toggle deltas, GR problems on the rows of
every t-color union graph, kept current across recolorings.  Every 2**14
steps the maintained score is audited against a full recount from the
coloring itself, so a drift in the scorer's graphs, caches or rows shows
up even when the score still agrees with them.
"""

from __future__ import annotations

import random
import time
from contextlib import closing
from dataclasses import dataclass
from itertools import combinations, permutations

from .counting import (
    CodegreeCache,
    book_toggle_delta,
    count_cliques_in_mask,
    count_shape,
    gr_score,
    shape_toggle_delta,
)
from .errors import InputError, VerificationError, WorkerLost
from .graphs import Graph, MultiColoring, edge_color_hash, pair_iter, state_hash
from .pool import run_jobs
from .problems import Book, GeneralizedProblem, Problem, TwoColorProblem
from .verify import verify_witness

AUDIT_EVERY = 1 << 14
PROGRESS_EVERY = 10_000


class _TwoColorScorer:
    """Score = left-shape count in the color-1 graph plus right-shape count
    in the color-2 graph.  Books get a codegree cache; other shapes do not
    need one."""

    def __init__(self, problem: TwoColorProblem, mc: MultiColoring):
        self.shapes = (problem.left, problem.right)
        self.graphs = (mc.color_class(1), mc.color_class(2))
        self.caches = tuple(
            CodegreeCache(g) if isinstance(shape, Book) else None
            for shape, g in zip(self.shapes, self.graphs)
        )
        self.mc = mc

    def full_score(self) -> int:
        return sum(
            count_shape(self.mc.color_class(c), shape) for c, shape in enumerate(self.shapes, 1)
        )

    def delta(self, u: int, v: int, new_color: int) -> int:
        # any recolor toggles the edge in both graphs; presence is auto-detected
        total = 0
        for shape, g, cache in zip(self.shapes, self.graphs, self.caches):
            if isinstance(shape, Book):
                total += book_toggle_delta(g, u, v, shape.k, cache)
            else:
                total += shape_toggle_delta(g, u, v, shape)
        return total

    def apply(self, u: int, v: int, new_color: int) -> None:
        self.mc.set_color(u, v, new_color)
        for g, cache in zip(self.graphs, self.caches):
            g.toggle_edge(u, v)
            if cache is not None:
                cache.apply_toggle(g, u, v)

    def witness(self) -> Graph:
        return self.graphs[0].copy()


class _GRScorer:
    """GR score over the rows of every t-color union graph, built once.  A
    recolor old -> new changes only the unions holding exactly one of the
    two colors: those with new gain the edge, those with old lose it."""

    def __init__(self, problem: GeneralizedProblem, mc: MultiColoring):
        self.s, self.t = problem.s, problem.t
        self.mc = mc
        colors = range(1, mc.r + 1)
        unions = [(cset, mc.union_graph(cset).rows) for cset in combinations(colors, self.t)]
        # per recolor old -> new, the unions it changes: +1 for those gaining
        # the edge (holding new), -1 for those losing it (holding old)
        self.touched = {
            (old, new): [
                (1 if new in cset else -1, rows)
                for cset, rows in unions
                if (old in cset) != (new in cset)
            ]
            for old, new in permutations(colors, 2)
        }

    def full_score(self) -> int:
        return gr_score(self.mc, self.s, self.t)

    def delta(self, u: int, v: int, new_color: int) -> int:
        total = 0
        for sign, rows in self.touched[self.mc.get(u, v), new_color]:
            total += sign * count_cliques_in_mask(rows, rows[u] & rows[v], self.s - 2)
        return total

    def apply(self, u: int, v: int, new_color: int) -> None:
        for _, rows in self.touched[self.mc.get(u, v), new_color]:
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        self.mc.set_color(u, v, new_color)

    def witness(self) -> MultiColoring:
        return self.mc.copy()


@dataclass
class SearchState:
    problem: Problem
    n: int
    coloring: MultiColoring
    scorer: object
    score: int
    hash: int
    tabu: set
    rng: random.Random
    steps: int = 0
    best_score: int | None = None

    def __post_init__(self):
        self.pairs = list(pair_iter(self.n))
        if self.best_score is None:
            self.best_score = self.score


def init_state(problem: Problem, n: int, seed: int) -> SearchState:
    """Uniform random start; the start state itself enters the tabu set."""
    if n < 2:
        raise InputError("search needs at least 2 vertices")
    r = problem.r
    rng = random.Random(seed)
    m = n * (n - 1) // 2
    mc = MultiColoring(n, r, [rng.randint(1, r) for _ in range(m)])
    if isinstance(problem, TwoColorProblem):
        scorer = _TwoColorScorer(problem, mc)
    else:
        scorer = _GRScorer(problem, mc)
    h = state_hash(mc)
    return SearchState(
        problem=problem,
        n=n,
        coloring=mc,
        scorer=scorer,
        score=scorer.full_score(),
        hash=h,
        tabu={h},
        rng=rng,
    )


def tabu_step(state: SearchState):
    """One steepest-descent move; returns the applied (u, v, new_color, delta)
    or None when every candidate is tabu."""
    if state.score <= 0:
        raise InputError("search is already at score 0")
    r = state.coloring.r
    colors = state.coloring.colors
    best_delta = None
    ties = []
    for i, (u, v) in enumerate(state.pairs):
        old = colors[i]
        base = state.hash ^ edge_color_hash(i, old)
        for new in range(1, r + 1):
            if new == old:
                continue
            cand_hash = base ^ edge_color_hash(i, new)
            if cand_hash in state.tabu:
                continue
            d = state.scorer.delta(u, v, new)
            if best_delta is None or d < best_delta:
                best_delta = d
                ties = [(u, v, new, cand_hash)]
            elif d == best_delta:
                ties.append((u, v, new, cand_hash))
    if best_delta is None:
        return None
    u, v, new, cand_hash = ties[state.rng.randrange(len(ties))] if len(ties) > 1 else ties[0]
    state.scorer.apply(u, v, new)
    state.score += best_delta
    state.hash = cand_hash
    state.tabu.add(cand_hash)
    state.steps += 1
    state.best_score = min(state.best_score, state.score)
    if state.steps % AUDIT_EVERY == 0:
        if state.score != state.scorer.full_score():
            raise VerificationError("incremental score drifted")
        if state.hash != state_hash(state.coloring):
            raise VerificationError("incremental hash drifted")
    return u, v, new, best_delta


@dataclass
class SearchStats:
    steps: int
    elapsed: float
    tabu_size: int
    best_score: int


@dataclass
class SearchOutcome:
    witness: Graph | MultiColoring | None
    reason: str | None            # None on success; else max_steps, max_seconds or exhausted
    stats: SearchStats
    seed: int | None = None

    @property
    def found(self) -> bool:
        return self.witness is not None


def run_search(
    problem: Problem,
    n: int,
    seed: int,
    max_steps: int | None = None,
    max_seconds: float | None = None,
    progress=None,
    worker_id: int = 0,
) -> SearchOutcome:
    """Iterate tabu_step until score 0, a limit, or exhaustion.  Witnesses are
    re-verified before being returned; never restarts within a run."""
    state = init_state(problem, n, seed)
    start = time.perf_counter()

    def outcome(witness, reason):
        stats = SearchStats(
            steps=state.steps,
            elapsed=time.perf_counter() - start,
            tabu_size=len(state.tabu),
            best_score=state.best_score,
        )
        return SearchOutcome(witness=witness, reason=reason, stats=stats, seed=seed)

    while True:
        if state.score == 0:
            witness = state.scorer.witness()
            verdict = verify_witness(witness, problem)
            if not verdict.valid:
                raise VerificationError(f"score-0 state failed verification: {verdict.violation}")
            return outcome(witness, None)
        if max_steps is not None and state.steps >= max_steps:
            return outcome(None, "max_steps")
        if max_seconds is not None and time.perf_counter() - start >= max_seconds:
            return outcome(None, "max_seconds")
        if tabu_step(state) is None:
            return outcome(None, "exhausted")
        if progress is not None and state.steps % PROGRESS_EVERY == 0:
            progress(
                f"worker {worker_id}: steps={state.steps} score={state.score} "
                f"best={state.best_score} tabu={len(state.tabu)}"
            )


@dataclass
class ParallelOutcome:
    witness: Graph | MultiColoring | None
    winner_seed: int | None
    outcomes: list[SearchOutcome]
    elapsed: float
    fates: list[str]  # per seed: found, the run's reason, stopped or "lost (exit code N)"

    @property
    def found(self) -> bool:
        return self.witness is not None


def run_parallel(
    problem: Problem,
    n: int,
    seeds: list[int],
    max_steps: int | None = None,
    max_seconds: float | None = None,
    progress=None,
) -> ParallelOutcome:
    """One independent run per seed, each in its own process; the first
    witness stops the rest.  A lost worker leaves the others running; a
    worker that raises ends the race, and its exception is re-raised with
    the worker's traceback as its cause."""
    if not seeds:
        raise InputError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise InputError("seeds must be distinct")
    start = time.perf_counter()
    jobs = [(problem, n, seed, max_steps, max_seconds, progress, w) for w, seed in enumerate(seeds)]
    fates = ["stopped"] * len(seeds)
    outcomes: list[SearchOutcome] = []
    witness = None
    winner_seed = None
    with closing(run_jobs(run_search, jobs)) as finished:
        for i, out in finished:
            if isinstance(out, WorkerLost):
                fates[i] = f"lost (exit code {out.exitcode})"
            elif isinstance(out, Exception):
                raise out  # leaving the block terminates the other workers
            else:
                fates[i] = "found" if out.found else out.reason
                outcomes.append(out)
                if out.found:
                    witness = out.witness
                    winner_seed = out.seed
                    break
    return ParallelOutcome(
        witness=witness,
        winner_seed=winner_seed,
        outcomes=outcomes,
        elapsed=time.perf_counter() - start,
        fates=fates,
    )
