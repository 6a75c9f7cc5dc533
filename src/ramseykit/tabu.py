"""Tabu local search over edge recolorings.

One engine serves both problem kinds: two-color problems run as r=2
colorings (color 1 is the graph, color 2 the complement).  Each step
applies a minimum-score single-edge recoloring whose state hash was never
visited (the tabu set grows without bound), with uniform random
tie-breaking.  It finds the least candidate delta first and hashes only the
candidates at that value, in scan order, moving to the next value only
when all of them are tabu, so the move and the random draw are those of a
full scan.  Runs never restart; a neighborhood with every candidate tabu
ends the run as stalled.

The scorer below is the only incremental scorer, for both problem kinds.
It keeps one union graph per side of the problem (a set of colors and a
shape) current across recolorings, and with it the side's cache and a
table of the side's toggle delta at every pair, built through counting's
shape_toggle_delta.  A move toggles its edge in the sides it touches and
brings their tables up to date: a book side through counting's
update_book_table and a clique side through update_clique_table, each of
which corrects in place only the pairs near the edge whose delta the
toggle can change and recomputes nothing; a wheel side rebuilds its whole
table through shape_toggle_delta.  A scan reads each candidate's delta as
a sum of table entries and calls no counter.
Every 2**14 steps the maintained score is audited against a full recount
from the coloring itself, so a drift in the side graphs or caches shows up
even when the score still agrees with them, and each table against its
side's delta at every pair.
"""

from __future__ import annotations

import random
import time
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from itertools import combinations
from math import comb
from operator import add

# book_toggle_delta and count_cliques_in_mask stay bound here for perfbench/tracing.py
from .counting import (
    CodegreeCache,
    WheelCache,
    book_toggle_delta,
    count_cliques_in_mask,
    count_shape,
    shape_toggle_delta,
    update_book_table,
    update_clique_table,
)
from .errors import InputError, VerificationError, WorkerLost
from .graphs import Graph, MultiColoring, edge_color_hash, pair_iter, state_hash
from .pool import check_limit, run_jobs
from .problems import Book, Clique, Problem, Shape, TwoColorProblem
from .verify import verify_witness

AUDIT_EVERY = 1 << 14
PROGRESS_EVERY = 10_000


class _Side:
    """One side's union graph g, its cache (a book side's codegrees, a wheel
    side's rim paths, none for cliques), `table`, the side's toggle delta
    at every pair in pair_iter order, and for a book side `pages`, the
    binomials C(i, k - 1) that update_book_table reads."""

    __slots__ = ("shape", "g", "cache", "table", "pages")

    def __init__(self, shape: Shape, g: Graph):
        self.shape, self.g = shape, g
        self.cache = self.pages = None
        if isinstance(shape, Book):
            self.cache = CodegreeCache(g)
            self.pages = [comb(i, shape.k - 1) for i in range(g.n)]
        elif not isinstance(shape, Clique):
            self.cache = WheelCache(g, shape.k)
        self.table = self.fresh_table()

    def fresh_table(self) -> list[int]:
        # shape_toggle_delta is looked up in this module at each call, so a
        # name rebound here (as the tracer does) sees every side delta
        g, shape, cache = self.g, self.shape, self.cache
        return [shape_toggle_delta(g, u, v, shape, cache) for u, v in pair_iter(g.n)]

    def toggle(self, u: int, v: int) -> None:
        """Toggle (u, v) in g, update the cache, then bring the table up to
        date: a book side corrects it in place through update_book_table
        (the pairs meeting {u, v} and those joining N(u) ∩ N(v) to
        N(u) ∪ N(v)), a clique side through update_clique_table (the pairs
        meeting {u, v} and those inside N(u) ∩ N(v)), calling no delta, and
        a wheel side recomputes it whole."""
        g, shape = self.g, self.shape
        g.toggle_edge(u, v)
        if self.cache is not None:
            self.cache.apply_toggle(g, u, v)
        if isinstance(shape, Book):
            update_book_table(g.rows, self.table, u, v, self.cache.cd, self.pages)
        elif isinstance(shape, Clique):
            update_clique_table(g.rows, self.table, u, v, shape.k)
        else:
            self.table[:] = self.fresh_table()


class _Scorer:
    """Score = sum over the problem's sides of the side's shape count in the
    union graph of its colors.  A two-color problem has the sides
    ((1,), left) and ((2,), right); GR:r,K_s,t has one side per t-subset of
    colors, each with shape K_s.  A recolor old -> new toggles the edge in
    exactly the sides holding one of the two colors, so its delta at a pair
    is the sum of those sides' table entries there.  `sums` holds that sum
    at every pair for each recolor, and `moves[old]` the (new, sums) of each
    recolor from old, in ascending new; both are current after apply."""

    def __init__(self, problem: Problem, mc: MultiColoring):
        if isinstance(problem, TwoColorProblem):
            self.sides = [((1,), problem.left), ((2,), problem.right)]
            self.witness = partial(mc.color_class, 1)
        else:
            csets = combinations(range(1, mc.r + 1), problem.t)
            self.sides = [(cset, Clique(problem.s)) for cset in csets]
            self.witness = mc.copy
        self.mc = mc
        self.bound = [_Side(shape, mc.union_graph(cset)) for cset, shape in self.sides]
        colors = range(1, mc.r + 1)
        # a recolor and its reverse toggle the same sides, so they share both
        self.touched, self.sums = {}, {}
        for old, new in combinations(colors, 2):
            sides = [
                side
                for side, (cset, _) in zip(self.bound, self.sides)
                if (old in cset) != (new in cset)
            ]
            self.touched[old, new] = self.touched[new, old] = sides
            self.sums[old, new] = self.sums[new, old] = []
        self.moves = [[]] + [  # indexed by color, so 0 holds nothing
            [(new, self.sums[old, new]) for new in colors if new != old] for old in colors
        ]
        self._sum_tables()

    def _sum_tables(self) -> None:
        for (old, new), sides in self.touched.items():
            if old < new:
                total = sides[0].table
                for side in sides[1:]:
                    total = map(add, total, side.table)
                self.sums[old, new][:] = total

    def candidate_deltas(self) -> list[int]:
        """Every candidate's delta in scan order: by pair in pair_iter order,
        then by new color as in moves, so a candidate's index divided by
        r - 1 is its pair and the remainder its place in moves[old].  At
        r = 2 this is the shared sums list itself; do not modify it."""
        if self.mc.r == 2:
            return self.sums[1, 2]
        moves = self.moves
        return [
            deltas[i] for i, old in enumerate(self.mc.colors) for _, deltas in moves[old]
        ]

    def full_score(self) -> int:
        return sum(count_shape(self.mc.union_graph(cset), shape) for cset, shape in self.sides)

    def tables_agree(self) -> bool:
        """Whether every side's table equals its delta at every pair now."""
        return all(side.table == side.fresh_table() for side in self.bound)

    def apply(self, u: int, v: int, new_color: int) -> None:
        for side in self.touched[self.mc.get(u, v), new_color]:
            side.toggle(u, v)
        self.mc.set_color(u, v, new_color)
        self._sum_tables()


@dataclass
class SearchState:
    n: int
    coloring: MultiColoring
    scorer: _Scorer
    score: int
    hash: int
    tabu: set
    rng: random.Random
    best_score: int
    steps: int = 0

    def __post_init__(self):
        self.pairs = list(pair_iter(self.n))
        # edge_color_hash(i, c) at [i][c], so a step hashes no candidate
        colors = range(1, self.coloring.r + 1)
        self.edge_hashes = [
            [0, *(edge_color_hash(i, c) for c in colors)] for i in range(len(self.pairs))
        ]


def init_state(problem: Problem, n: int, seed: int) -> SearchState:
    """Uniform random start; the start state itself enters the tabu set."""
    if n < 2:
        raise InputError("search needs at least 2 vertices")
    r = problem.r
    rng = random.Random(seed)
    m = n * (n - 1) // 2
    mc = MultiColoring(n, r, [rng.randint(1, r) for _ in range(m)])
    scorer = _Scorer(problem, mc)
    h = state_hash(mc)
    score = scorer.full_score()
    return SearchState(
        n=n,
        coloring=mc,
        scorer=scorer,
        score=score,
        best_score=score,
        hash=h,
        tabu={h},
        rng=rng,
    )


def _ascending(values: list[int]):
    """The distinct values, ascending.  The least is one min(); the rest
    are sorted only when a step asks for them, when every candidate at the
    least is tabu."""
    least = min(values)
    yield least
    yield from sorted(set(values))[1:]


def tabu_step(state: SearchState):
    """One steepest-descent move; returns the applied (u, v, new_color, delta)
    or None when every candidate is tabu."""
    if state.score <= 0:
        raise InputError("search is already at score 0")
    moves = state.scorer.moves
    colors = state.coloring.colors
    tabu = state.tabu
    h = state.hash
    edge_hashes = state.edge_hashes
    deltas = state.scorer.candidate_deltas()
    per = state.coloring.r - 1  # candidates per pair
    for best_delta in _ascending(deltas):
        # the candidates at best_delta, in scan order, that are not tabu
        ties = []
        j = -1
        for _ in range(deltas.count(best_delta)):
            j = deltas.index(best_delta, j + 1)
            i, place = divmod(j, per)
            old = colors[i]
            new = moves[old][place][0]
            hashes = edge_hashes[i]
            cand_hash = h ^ hashes[old] ^ hashes[new]
            if cand_hash not in tabu:
                ties.append((i, new, cand_hash))
        if ties:
            break
    else:
        return None
    i, new, cand_hash = ties[state.rng.randrange(len(ties))] if len(ties) > 1 else ties[0]
    u, v = state.pairs[i]
    state.scorer.apply(u, v, new)
    state.score += best_delta
    state.hash = cand_hash
    tabu.add(cand_hash)
    state.steps += 1
    state.best_score = min(state.best_score, state.score)
    if state.steps % AUDIT_EVERY == 0:
        if state.score != state.scorer.full_score():
            raise VerificationError("incremental score drifted")
        if state.hash != state_hash(state.coloring):
            raise VerificationError("incremental hash drifted")
        if not state.scorer.tables_agree():
            raise VerificationError("delta table drifted")
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
    check_limit("max_steps", max_steps)
    check_limit("max_seconds", max_seconds)
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
    """One independent run per seed, each in its own process (a lone seed
    runs in the calling process); the first witness stops the rest.  A lost
    worker leaves the others running; a run that raises ends the race, and
    its exception is re-raised with the worker's traceback as its cause."""
    if not seeds:
        raise InputError("need at least one seed")
    if len(set(seeds)) != len(seeds):
        raise InputError("seeds must be distinct")
    check_limit("max_steps", max_steps)
    check_limit("max_seconds", max_seconds)
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
