"""Exhaustive bottom-up witness generation with isomorph rejection.

Level n+1 is built by adding one vertex to every level-n witness in every
possible way and keeping the children that stay valid.  Because witness
validity is hereditary (deleting a vertex of a witness gives a witness),
only forbidden structures through the new vertex need checking; two-color
parents enumerate all 2^n neighborhoods of the new vertex, multicolor
parents walk the r^n color assignments depth-first and abandon a prefix as
soon as some K_s through the new vertex is forced to span too few colors.

Children are deduplicated by canonical form: plain graph isomorphism for
two-color problems, vertex relabeling plus color permutation for
multicolor ones.  A count of 0 at some order certifies every later order
is 0 as well, so the remaining levels are padded rather than recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .canon import canonical_key, coloring_canonical_key
from .errors import BudgetExceededError, CapabilityError, InputError
from .formats import emit_color_matrix, graph6_encode
from .graphs import Graph, MultiColoring
from .pool import map_jobs
from .problems import GeneralizedProblem, Problem, TwoColorProblem
from .verify import has_shape_through


def _two_color_children(g: Graph, problem: TwoColorProblem) -> list[Graph]:
    n = g.n
    out = []
    for mask in range(1 << n):
        child = g.add_vertex(mask)
        if has_shape_through(child, n, problem.left):
            continue
        if has_shape_through(child.complement(), n, problem.right):
            continue
        out.append(child)
    return out


def _multicolor_children(mc: MultiColoring, problem: GeneralizedProblem) -> list[MultiColoring]:
    n, r, s, t = mc.n, mc.r, problem.s, problem.t
    by_max: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n)]
    for S in combinations(range(n), s - 1):
        pre = 0
        for a, b in combinations(S, 2):
            pre |= 1 << mc.get(a, b)
        by_max[S[-1]].append((S, pre))
    out = []
    assigned = [0] * n

    def rec(j: int) -> None:
        if j == n:
            out.append(mc.add_vertex(list(assigned)))
            return
        for c in range(1, r + 1):
            assigned[j] = c
            ok = True
            for S, pre in by_max[j]:
                colors = pre
                for v in S:
                    colors |= 1 << assigned[v]
                if colors.bit_count() <= t:
                    ok = False
                    break
            if ok:
                rec(j + 1)

    rec(0)
    return out


def extend_one(obj: Graph | MultiColoring, problem: Problem) -> list:
    """All valid labeled children of a valid parent, one vertex larger."""
    if isinstance(problem, TwoColorProblem):
        if not isinstance(obj, Graph):
            raise InputError("two-color generation extends Graph objects")
        return _two_color_children(obj, problem)
    if not isinstance(obj, MultiColoring):
        raise InputError("generalized generation extends MultiColoring objects")
    return _multicolor_children(obj, problem)


def _canon(obj, two_color: bool) -> bytes:
    if two_color:
        return canonical_key(obj)
    return coloring_canonical_key(obj, swap_colors=True)


def _keyed_children(parent, problem: Problem) -> list[tuple[bytes, object]]:
    """(canonical key, child) for every valid child, in extension order.
    Worker processes run this, so keys are made where the children are."""
    two_color = isinstance(problem, TwoColorProblem)
    return [(_canon(child, two_color), child) for child in extend_one(parent, problem)]


def _keyed_stripe(parents: list, problem: Problem) -> list[list[tuple[bytes, object]]]:
    return [_keyed_children(parent, problem) for parent in parents]


@dataclass
class GenerationLevel:
    order: int
    objects: list

    @property
    def count(self) -> int:
        return len(self.objects)


@dataclass
class GenerationResult:
    problem: Problem
    counts: list[int]
    levels: list[GenerationLevel] | None = None

    def table(self) -> str:
        lines = [f"order  count   ({self.problem})"]
        for i, c in enumerate(self.counts, 1):
            lines.append(f"{i:>5}  {c}")
        return "\n".join(lines)


def generate_levels(
    problem: Problem,
    n_max: int,
    keep_levels: bool = False,
    dump_dir: str | None = None,
    workers: int | None = None,
    child_budget: int = 5_000_000,
) -> GenerationResult:
    """Level-by-level counts of witnesses up to isomorphism, orders 1..n_max."""
    two_color = isinstance(problem, TwoColorProblem)
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    if n_max > 12:
        raise CapabilityError("generation is desk-scale only: n_max capped at 12")
    if not two_color and problem.r > 4:
        raise CapabilityError("multicolor generation capped at 4 colors")

    root = Graph(1) if two_color else MultiColoring(1, problem.r)
    frontier = [root]
    counts = [1]
    levels = [GenerationLevel(1, list(frontier))] if keep_levels else None
    if dump_dir:
        _dump_level(dump_dir, 1, frontier, two_color)
    spent = 0

    for order in range(2, n_max + 1):
        seen: set[bytes] = set()
        next_frontier = []
        nstripes = min(workers or 1, len(frontier))
        if nstripes > 1:
            jobs = [(frontier[w::nstripes], problem) for w in range(nstripes)]
            stripes = map_jobs(_keyed_stripe, jobs)
            batches = (stripes[i % nstripes][i // nstripes] for i in range(len(frontier)))
        else:
            batches = (_keyed_children(parent, problem) for parent in frontier)
        # batches arrive in frontier order either way, so the first child
        # of each class, and with it the next frontier, is the same
        for batch in batches:
            spent += len(batch)
            if spent > child_budget:
                raise BudgetExceededError(
                    f"child budget {child_budget} exceeded at order {order}",
                    partial=counts,
                )
            for key, child in batch:
                if key not in seen:
                    seen.add(key)
                    next_frontier.append(child)
        counts.append(len(next_frontier))
        frontier = next_frontier
        if keep_levels:
            levels.append(GenerationLevel(order, list(frontier)))
        if dump_dir:
            _dump_level(dump_dir, order, frontier, two_color)
        if not frontier:
            counts.extend([0] * (n_max - order))
            break
    return GenerationResult(problem=problem, counts=counts, levels=levels)


def _dump_level(dump_dir: str, order: int, objects, two_color: bool) -> None:
    import os

    os.makedirs(dump_dir, exist_ok=True)
    if two_color:
        path = os.path.join(dump_dir, f"n{order}.g6")
        with open(path, "w") as fh:
            for g in objects:
                fh.write(graph6_encode(g) + "\n")
    else:
        path = os.path.join(dump_dir, f"n{order}.txt")
        with open(path, "w") as fh:
            for mc in objects:
                fh.write(emit_color_matrix(mc) + "\n")
