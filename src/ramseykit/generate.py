"""Exhaustive bottom-up witness generation with isomorph rejection.

Level n+1 is built by adding one vertex to every level-n witness in every
possible way and keeping the children that stay valid.  Because witness
validity is hereditary (deleting a vertex of a witness gives a witness),
only forbidden structures through the new vertex need checking.

Two-color parents scan the 2^n neighborhoods of the new vertex in ascending
mask order with ``graphs.mask_state``.  The left check is a left shape
through the new vertex and the right check a right shape through it in the
complement (a bit added to the mask adds an edge there); masks the
invariant filter below rules out by degree stay unknown.  The symmetry is
the automorphisms one canonical-labeling search of the parent finds: p maps
the child with neighborhood M onto the child with neighborhood p(M), fixing
the new vertex, so the two agree on both checks, the filter and their
class.  A later mask of an orbit whose first mask gave a kept child is
listed as an image, neither checked nor keyed.  Any set of automorphisms,
none included, gives the same kept children.

Multicolor parents walk the r^n color vectors of the new vertex's edges
depth-first, colors ascending, and check each later vertex ahead of time.
A K_s through the new vertex spans at most t colors iff its colors lie in
some t-set T.  When old vertex j takes a color in T, each later v joined to
j in T, with a K_{s-3} in T among the earlier vertices joined to both and
to the new vertex in T, may no longer take a color of T; a vector prefix
that leaves some v no color is abandoned.  Each such clique is found when
the last of its old vertices before v is colored, so the vectors that
survive are exactly the valid ones, in the same order.

Only children whose new vertex reaches the largest value of a vertex
invariant are kept (the cheap filter of McKay's canonical construction
path, J. Algorithms 26, 1998).  A vertex has, in each color class (a graph
has one), its degree there and the sorted degrees of its neighbors there;
its invariant is the sorted vector of its class degrees, then the sorted
list of those pairs.  It is computed from the parent's degree and neighbor
lists and the new vertex's neighborhoods, without building the child, and
only where the new vertex ties the largest class-degree vector.  Every
class still arrives: a witness minus a vertex of largest invariant is a
witness, so it is isomorphic to some parent, and that parent has a child
isomorphic to the witness whose new vertex is the image of the deleted one.

Kept children are deduplicated by canonical form: plain graph isomorphism
for two-color problems, vertex relabeling plus color permutation for
multicolor ones.  Only the children that could repeat a class get a key.
Take a child, not an image, whose new vertex x has a strictly largest
invariant.  An isomorphism onto another kept child maps x to the only
vertex there with x's invariant, that child's new vertex, so it restricts
to an isomorphism of the parents; a level's parents are pairwise
non-isomorphic, so only a sibling can share the child's class, and
isomorphic siblings share every isomorphism invariant.  So when no other
such child of its parent has its signature (the sorted multiset of
(degree, sorted neighbor degrees) for a graph, of sorted color-degree
vectors for a coloring), its class is new and no later child repeats it:
it is kept without a key.  Every other child is keyed.

A count of 0 at some order certifies every later order is 0 as well, so
the remaining levels are padded rather than recomputed.  Levels written to
a dump directory are re-verified in full first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import combinations
from operator import and_, or_

from .canon import automorphisms, canonical_key, coloring_canonical_key
from .errors import BudgetExceededError, CapabilityError, InputError, VerificationError
from .formats import emit_color_matrix, graph6_encode
from .graphs import VALID, Graph, MultiColoring, bits_of, least_masks, mask_state
from .pool import check_limit, check_workers, map_jobs
from .problems import GeneralizedProblem, Problem, TwoColorProblem
from .verify import _checked_object, has_shape_through, verify_witness


class _Parent:
    """A parent's color classes, read once: per class, each vertex's degree
    and neighbor list.  A child adds vertex n, joined in class i to the
    vertices of masks[i]; its vertices' invariants come from these lists
    and the masks, with no child rows built."""

    __slots__ = ("n", "classes")

    def __init__(self, color_rows: list[list[int]]):
        self.n = len(color_rows[0])
        self.classes = [
            ([row.bit_count() for row in rows], [list(bits_of(row)) for row in rows])
            for rows in color_rows
        ]

    def child_view(self, masks: list[int]) -> list[tuple]:
        """Per class: the degrees in the child, the new vertex's last; the
        parent's neighbor lists; the new vertex's neighborhood."""
        out = []
        for (deg, nbrs), m in zip(self.classes, masks):
            cd = [d + (m >> v & 1) for v, d in enumerate(deg)]
            cd.append(m.bit_count())
            out.append((cd, nbrs, m))
        return out

    @staticmethod
    def profile(view: list[tuple], v: int) -> tuple:
        """Vertex v's invariant in the child, less its leading degree
        vector: the sorted tuples (v's degree in a class, the sorted degrees
        of its neighbors there), one per class.  Vertices whose sorted
        class-degree vectors agree compare by it as by the full invariant,
        and a graph's profile is its one (degree, neighbor degrees) tuple."""
        per = []
        for cd, nbrs, m in view:
            if v == len(nbrs):
                near = [cd[u] for u in bits_of(m)]
            else:
                near = [cd[u] for u in nbrs[v]]
                if m >> v & 1:
                    near.append(cd[-1])
            near.sort()
            per.append((cd[v], tuple(near)))
        per.sort()
        return tuple(per)

    def tie(self, masks: list[int], rivals) -> tuple[bool, bool]:
        """The new vertex shares its class-degree vector with the rivals and
        has the largest one in the child.  Is its invariant at least every
        rival's, and is it above them all?"""
        view = self.child_view(masks)
        last = self.profile(view, self.n)
        strict = True
        for v in rivals:
            other = self.profile(view, v)
            if other > last:
                return False, False
            if other == last:
                strict = False
        return True, strict


class Children(list):
    """The children ``extend_one`` returns, in scan order.  ``images`` holds
    the indices of those taken as images of an earlier child under an
    automorphism of the parent: they are isomorphic to that child, so they
    are neither checked nor keyed.  ``strict`` maps the index of each other
    child whose new vertex has a strictly largest invariant to the child's
    signature, an isomorphism invariant of the whole child."""

    __slots__ = ("images", "strict")

    def __init__(self):
        super().__init__()
        self.images: set[int] = set()
        self.strict: dict[int, tuple] = {}


def _two_color_children(g: Graph, problem: TwoColorProblem) -> Children:
    n = g.n
    parent = _Parent([g.rows])
    deg = parent.classes[0][0]
    # an old vertex v has degree deg(v) + (mask >> v & 1) in the child, so
    # the largest old degree is top_deg, plus one when mask meets top
    top_deg = max(deg)
    top = sum(1 << v for v, d in enumerate(deg) if d == top_deg)
    least = least_masks(n, automorphisms(g))
    table = bytearray(1 << n)
    kept = bytearray(1 << n)
    child = None

    def left(mask: int) -> bool:
        nonlocal child
        child = g.add_vertex(mask)
        return has_shape_through(child, n, problem.left)

    def right(mask: int) -> bool:
        return has_shape_through(child.complement(), n, problem.right)

    out = Children()
    for mask in range(1 << n):
        k = mask.bit_count()
        most = top_deg + 1 if mask & top else top_deg
        if k < most or mask_state(table, least, mask, left, right) != VALID:
            continue
        if least[mask] != mask:
            if kept[least[mask]]:
                out.images.add(len(out))
                out.append(g.add_vertex(mask))
            continue
        masks = [mask]
        strict = k > most
        if not strict:
            keep, strict = parent.tie(masks, [v for v in range(n) if deg[v] + (mask >> v & 1) == k])
            if not keep:
                continue
        kept[mask] = 1
        if strict:
            view = parent.child_view(masks)
            out.strict[len(out)] = tuple(sorted(parent.profile(view, v) for v in range(n + 1)))
        # a valid least mask ran the left check, which made its child
        out.append(child)
    return out


def _reach(rows: list[int], P: int, need: int, cand: int) -> int:
    """The vertices of cand adjacent to every vertex of some clique of
    ``need`` vertices inside P."""
    if need == 0:
        return cand
    got = 0
    while P:
        low = P & -P
        P ^= low
        row = rows[low.bit_length() - 1]
        rest = cand & row & ~got
        if rest:
            got |= rest if need == 1 else _reach(rows, P & row, need - 1, rest)
    return got


def _multicolor_children(mc: MultiColoring, problem: GeneralizedProblem) -> Children:
    n, r, s, t = mc.n, mc.r, problem.s, problem.t
    palette = range(1, r + 1)
    rows = [mc.color_class(c).rows for c in palette]
    parent = _Parent(rows)
    degs = [deg for deg, _ in parent.classes]
    # bumped[v][c]: v's sorted color-degree vector once edge (v, n) has color c
    bumped = []
    for v in range(n):
        deg = [d[v] for d in degs]
        bumped.append([()] + [
            tuple(sorted(d + (i == c - 1) for i, d in enumerate(deg))) for c in palette
        ])
    out = Children()
    assigned = [0] * n
    # col[c - 1]: the vertices so far whose edge to the new vertex has color c
    col = [0] * r
    # through[c - 1]: each t-set T holding color c, as T, the rows of the
    # parent's edges colored in T, and those rows cut to later vertices
    through = [[] for _ in palette]
    for T in combinations(palette, t):
        union = [reduce(or_, cells) for cells in zip(*(rows[d - 1] for d in T))]
        later = [row >> v + 1 << v + 1 for v, row in enumerate(union)]
        for c in T:
            through[c - 1].append((T, union, later))

    def leaf(most: tuple) -> None:
        """Append the child if its new vertex reaches the largest invariant;
        most is the largest color-degree vector of an old vertex."""
        vec = tuple(sorted(m.bit_count() for m in col))
        if vec < most:
            return
        vecs = [bumped[v][assigned[v]] for v in range(n)]
        strict = vec > most
        if not strict:
            keep, strict = parent.tie(col, [v for v in range(n) if vecs[v] == vec])
            if not keep:
                return
        if strict:
            out.strict[len(out)] = tuple(sorted([vec, *vecs]))
        out.append(mc.add_vertex(list(assigned)))

    def forward(j: int, c: int, banned: list[int]) -> list[int] | None:
        """banned once edge (j, n) has color c, or None when that leaves
        some later edge no color.  banned[c - 1] is the vertices v whose
        edge (v, n) may not take color c: those for which, with c in some
        t-set T, v, the new vertex and an earlier K_{s-2} make a K_s with
        every edge but (v, n) colored in T."""
        ahead = banned
        for T, union, later in through[c - 1]:
            done = 0
            for d in T:
                done |= col[d - 1]
            # the earlier K_{s-2} is j and a K_{s-3} joined to j in T
            hit = _reach(union, union[j] & done, s - 3, later[j])
            if hit:
                if ahead is banned:
                    ahead = list(banned)
                for d in T:
                    ahead[d - 1] |= hit
        if ahead is not banned and reduce(and_, ahead):
            return None
        return ahead

    def rec(j: int, banned: list[int], most: tuple) -> None:
        if j == n:
            leaf(most)
            return
        bit = 1 << j
        for c in palette:
            if not banned[c - 1] & bit:
                assigned[j] = c
                col[c - 1] |= bit
                ahead = forward(j, c, banned)
                if ahead is not None:
                    rec(j + 1, ahead, max(most, bumped[j][c]))
                col[c - 1] ^= bit

    rec(0, [0] * r, ())
    return out


def extend_one(obj: Graph | MultiColoring, problem: Problem) -> Children:
    """The valid labeled children of a valid parent, one vertex larger,
    whose new vertex (the last one) reaches the largest value of the vertex
    invariant in the child.  The other valid children are
    dropped unkeyed: each of their classes also has a child of this kind,
    from the parent isomorphic to it minus a vertex of largest invariant.
    A two-color child whose neighborhood is the image of an earlier one's
    under an automorphism of the parent is listed in ``images``; every
    other child whose new vertex's invariant is strictly the largest is in
    ``strict``, with its signature.  A GR parent is read through
    ``verify``'s object rule; a two-color parent must be a Graph."""
    if isinstance(problem, TwoColorProblem):
        if not isinstance(obj, Graph):
            raise InputError("two-color generation extends Graph objects")
        return _two_color_children(obj, problem)
    return _multicolor_children(_checked_object(obj, problem), problem)


# the key of a child kept without one; no canonical key is empty
_NEW_CLASS = b""


def _keyed_children(parent, problem: Problem) -> list[tuple[bytes | None, object]]:
    """(canonical key, child) for every child extend_one returns, in order,
    with None for the key of an image.  A child in ``strict`` whose
    signature no other child there shares is a class no other child of the
    level has: its key is ``_NEW_CLASS``, and it is not keyed.  Worker
    processes run this, so keys are made where the children are."""
    key = canonical_key if isinstance(problem, TwoColorProblem) else coloring_canonical_key
    children = extend_one(parent, problem)
    shared = Counter(children.strict.values())
    out = []
    for i, child in enumerate(children):
        if i in children.images:
            out.append((None, child))
        elif i in children.strict and shared[children.strict[i]] == 1:
            out.append((_NEW_CLASS, child))
        else:
            out.append((key(child), child))
    return out


def _keyed_stripe(
    parents: list, problem: Problem, budget: int
) -> list[list[tuple[bytes | None, object]]]:
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
    child of each canonical key, in frontier order, together with the
    children that are provably new classes, unkeyed; so the kept objects are
    the same with or without ``workers`` (1 to ``pool.MAX_JOBS``; a level's
    frontier is dealt round-robin to at most that many processes).  With
    ``dump_dir`` each level is re-verified in full and written there, one
    object a line: ``n<order>.g6`` in graph6 for two-color problems,
    ``n<order>.txt`` as color matrices for generalized ones.
    ``child_budget`` caps the total of the children ``extend_one``
    returns, the symmetric images it does not key included; the ones the
    invariant filter drops are not counted.  Going past it raises
    ``BudgetExceededError`` whose ``partial`` is the ``GenerationResult`` of
    the levels finished so far; a negative or NaN budget raises
    ``InputError``."""
    two_color = isinstance(problem, TwoColorProblem)
    if n_max < 1:
        raise InputError("n_max must be at least 1")
    check_limit("child budget", child_budget)
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
                if key == _NEW_CLASS:
                    next_frontier.append(child)
                elif key is not None and key not in seen:
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
