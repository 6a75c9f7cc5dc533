"""Exhaustive bottom-up witness generation with isomorph rejection.

Level n+1 is built by adding one vertex to every level-n witness in every
possible way and keeping the children that stay valid.  Because witness
validity is hereditary (deleting a vertex of a witness gives a witness),
only forbidden structures through the new vertex need checking; two-color
parents enumerate all 2^n neighborhoods of the new vertex, multicolor
parents walk the r^n color assignments depth-first and abandon a prefix as
soon as some K_s through the new vertex is forced to span too few colors.

Only children whose new vertex reaches the largest value of a vertex
invariant are kept (the cheap filter of McKay's canonical construction
path, J. Algorithms 26, 1998).  Every class
still arrives: a witness minus a vertex of largest invariant is a witness,
so it is isomorphic to some parent, and that parent has a child isomorphic
to the witness whose new vertex is the image of the deleted one.  The kept
children are deduplicated by canonical form: plain graph isomorphism for
two-color problems, vertex relabeling plus color permutation for
multicolor ones.  A count of 0 at some order certifies every later order
is 0 as well, so the remaining levels are padded rather than recomputed.
Levels written to a dump directory are re-verified in full first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .canon import canonical_key, coloring_canonical_key
from .errors import BudgetExceededError, CapabilityError, InputError, VerificationError
from .formats import emit_color_matrix, graph6_encode
from .graphs import Graph, MultiColoring, bits_of
from .pool import check_workers, map_jobs
from .problems import GeneralizedProblem, Problem, TwoColorProblem
from .verify import has_shape_through, verify_witness


def _invariant(color_rows: list[list[int]], degs: list[list[int]], v: int) -> tuple:
    """Invariant of vertex v in a graph or coloring given as one adjacency
    row list per color class, with degs[i][u] the degree of u in class i.
    For each class v has the tuple (its degree there, the sorted degrees of
    its neighbors there); its invariant is the sorted vector of its class
    degrees followed by the sorted list of those tuples.  Both are sorted,
    so renaming colors changes nothing."""
    per_color = sorted(
        (deg[v], tuple(sorted(deg[u] for u in bits_of(rows[v]))))
        for rows, deg in zip(color_rows, degs)
    )
    return tuple(d for d, _ in per_color), tuple(per_color)


def _degrees(color_rows: list[list[int]]) -> list[list[int]]:
    return [[row.bit_count() for row in rows] for rows in color_rows]


def vertex_invariants(obj: Graph | MultiColoring) -> list[tuple]:
    """The invariant that picks the canonical deletion, for every vertex.
    A graph is its one edge class; a coloring has one class per color."""
    if isinstance(obj, Graph):
        color_rows = [obj.rows]
    else:
        color_rows = [obj.color_class(c).rows for c in range(1, obj.r + 1)]
    degs = _degrees(color_rows)
    return [_invariant(color_rows, degs, v) for v in range(obj.n)]


def _last_wins(color_rows: list[list[int]], rivals) -> bool:
    """Is the last vertex's invariant at least that of every rival?"""
    degs = _degrees(color_rows)
    last = _invariant(color_rows, degs, len(color_rows[0]) - 1)
    return all(_invariant(color_rows, degs, v) <= last for v in rivals)


def _two_color_children(g: Graph, problem: TwoColorProblem) -> list[Graph]:
    n = g.n
    # an old vertex v has degree deg(v) + (mask >> v & 1) in the child, so
    # the largest old degree is top_deg, plus one when mask meets top
    top_deg = max(row.bit_count() for row in g.rows)
    top = sum(1 << v for v, row in enumerate(g.rows) if row.bit_count() == top_deg)
    out = []
    for mask in range(1 << n):
        k = mask.bit_count()
        most = top_deg + 1 if mask & top else top_deg
        if k < most:
            continue
        child = g.add_vertex(mask)
        if has_shape_through(child, n, problem.left):
            continue
        if has_shape_through(child.complement(), n, problem.right):
            continue
        if k == most and not _last_wins(
            [child.rows], [v for v in range(n) if child.rows[v].bit_count() == k]
        ):
            continue
        out.append(child)
    return out


def _multicolor_children(mc: MultiColoring, problem: GeneralizedProblem) -> list[MultiColoring]:
    n, r, s, t = mc.n, mc.r, problem.s, problem.t
    # by_max[j]: each (s-1)-subset S with largest vertex j, as its other
    # vertices and the color set of the parent's edges inside S
    by_max: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n)]
    for S in combinations(range(n), s - 1):
        pre = 0
        for a, b in combinations(S, 2):
            pre |= 1 << mc.get(a, b)
        by_max[S[-1]].append((S[:-1], pre))
    palette = range(1, r + 1)
    rows = [mc.color_class(c).rows for c in palette]
    # bumped[v][c]: v's sorted color-degree vector once edge (v, n) has color c
    bumped = []
    for v in range(n):
        deg = [row[v].bit_count() for row in rows]
        bumped.append([()] + [
            tuple(sorted(d + (i == c - 1) for i, d in enumerate(deg))) for c in palette
        ])
    out = []
    assigned = [0] * n

    def keep() -> bool:
        """Does the new vertex reach the largest invariant of the child?"""
        vec = tuple(sorted(assigned.count(c) for c in palette))
        most = max(bumped[v][assigned[v]] for v in range(n))
        if vec != most:
            return vec > most
        child_rows = []
        for c, prow in zip(palette, rows):
            new = 0
            crow = []
            for v in range(n):
                hit = assigned[v] == c
                crow.append(prow[v] | hit << n)
                new |= hit << v
            crow.append(new)
            child_rows.append(crow)
        return _last_wins(child_rows, [v for v in range(n) if bumped[v][assigned[v]] == vec])

    def rec(j: int) -> None:
        if j == n:
            if keep():
                out.append(mc.add_vertex(list(assigned)))
            return
        # a K_s through j and the new vertex spans its subset's colors plus
        # the one tried at j: fewer than t of them fail with any color, and
        # exactly t fail with each of their own
        banned = 0
        for rest, pre in by_max[j]:
            colors = pre
            for v in rest:
                colors |= 1 << assigned[v]
            k = colors.bit_count()
            if k < t:
                return
            if k == t:
                banned |= colors
        for c in palette:
            if not banned >> c & 1:
                assigned[j] = c
                rec(j + 1)

    rec(0)
    return out


def extend_one(obj: Graph | MultiColoring, problem: Problem) -> list:
    """The valid labeled children of a valid parent, one vertex larger,
    whose new vertex (the last one) reaches the largest value of
    ``vertex_invariants`` in the child.  The other valid children are
    dropped unkeyed: each of their classes also has a child of this kind,
    from the parent isomorphic to it minus a vertex of largest invariant."""
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
    """(canonical key, child) for every child extend_one returns, in order.
    Worker processes run this, so keys are made where the children are."""
    two_color = isinstance(problem, TwoColorProblem)
    return [(_canon(child, two_color), child) for child in extend_one(parent, problem)]


def _keyed_stripe(parents: list, problem: Problem, budget: int) -> list[list[tuple[bytes, object]]]:
    """_keyed_children of each parent in turn, stopping after the parent
    that takes the stripe's count of children past budget: the level is
    over budget then, whatever the other stripes hold."""
    out = []
    spent = 0
    for parent in parents:
        out.append(_keyed_children(parent, problem))
        spent += len(out[-1])
        if spent > budget:
            break
    return out


@dataclass
class GenerationResult:
    problem: Problem
    counts: list[int]

    def lines(self) -> list[str]:
        """The count table, then a ``counts:`` line for scripts."""
        out = [f"order  count   ({self.problem})"]
        out += [f"{i:>5}  {c}" for i, c in enumerate(self.counts, 1)]
        out.append("counts: " + ",".join(str(c) for c in self.counts))
        return out


def generate_levels(
    problem: Problem,
    n_max: int,
    dump_dir: str | None = None,
    workers: int | None = None,
    child_budget: int = 5_000_000,
) -> GenerationResult:
    """Level-by-level counts of witnesses up to isomorphism, orders 1..n_max.

    Each level keys the children ``extend_one`` returns and keeps the first
    child of each canonical key, in frontier order, so the kept objects are
    the same with or without ``workers`` (1 to ``pool.MAX_JOBS``; a level's
    frontier is dealt round-robin to at most that many processes).  With
    ``dump_dir`` each level is re-verified in full and written there, one
    object a line: ``n<order>.g6`` in graph6 for two-color problems,
    ``n<order>.txt`` as color matrices for generalized ones.
    ``child_budget`` caps the total of the keyed children; the ones the
    invariant filter drops are not counted.  Going past it raises
    ``BudgetExceededError`` whose ``partial`` is the ``GenerationResult`` of
    the levels finished so far."""
    two_color = isinstance(problem, TwoColorProblem)
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    if n_max > 12:
        raise CapabilityError("generation is desk-scale only: n_max capped at 12")
    if not two_color and problem.r > 4:
        raise CapabilityError("multicolor generation capped at 4 colors")
    workers = check_workers(workers)

    root = Graph(1) if two_color else MultiColoring(1, problem.r)
    frontier = [root]
    counts = [1]
    if dump_dir:
        _dump_level(dump_dir, 1, frontier, problem)
    spent = 0

    for order in range(2, n_max + 1):
        seen: set[bytes] = set()
        next_frontier = []
        nstripes = min(workers, len(frontier))
        if nstripes > 1:
            left = child_budget - spent
            jobs = [(frontier[w::nstripes], problem, left) for w in range(nstripes)]
            stripes = map_jobs(_keyed_stripe, jobs)
            # a stripe cut short by the budget never has its missing
            # batches read: its batches come first in frontier order, and
            # once all are read the level is past the budget and raises
            batches = (stripes[i % nstripes][i // nstripes] for i in range(len(frontier)))
        else:
            # a generator, not one stripe through map_jobs: duplicates are
            # dropped one parent at a time, so the level never holds more
            # than one parent's children beyond the kept frontier
            batches = (_keyed_children(parent, problem) for parent in frontier)
        # batches arrive in frontier order either way, so the first child
        # of each class, and with it the next frontier, is the same
        for batch in batches:
            spent += len(batch)
            if spent > child_budget:
                raise BudgetExceededError(
                    f"child budget {child_budget} exceeded at order {order}",
                    partial=GenerationResult(problem, counts),
                )
            for key, child in batch:
                if key not in seen:
                    seen.add(key)
                    next_frontier.append(child)
        counts.append(len(next_frontier))
        frontier = next_frontier
        if dump_dir:
            _dump_level(dump_dir, order, frontier, problem)
        if not frontier:
            counts.extend([0] * (n_max - order))
            break
    return GenerationResult(problem, counts)


def _dump_level(dump_dir: str, order: int, objects, problem: Problem) -> None:
    """Write one level to dump_dir, re-verifying every object first."""
    import os

    for obj in objects:
        verdict = verify_witness(obj, problem)
        if not verdict.valid:
            raise VerificationError(f"generation produced an invalid witness: {verdict.violation}")
    os.makedirs(dump_dir, exist_ok=True)
    if isinstance(problem, TwoColorProblem):
        name, lines = f"n{order}.g6", map(graph6_encode, objects)
    else:
        name, lines = f"n{order}.txt", map(emit_color_matrix, objects)
    with open(os.path.join(dump_dir, name), "w") as fh:
        for line in lines:
            fh.write(line + "\n")
