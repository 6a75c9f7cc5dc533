"""Witness checking with explicit failure certificates.

A two-color witness has no left shape in the graph and no right shape in
the complement; a GR witness has no K_s spanning t or fewer colors.  When
verification fails, the verdict carries one embedded forbidden subgraph
with role labels (spine/pages, hub/rim, clique, clique+colors) found by a
direct bounded search, so callers get a certificate rather than a count.

The roots of an embedding are the spine ends of a book, the hub of a
wheel and every vertex of a clique; pages and rim vertices are not roots.
The census asks `has_shape_at` for a shape rooted at a vertex, generation
`has_shape_through` for a shape using a vertex in any role.

The searches here depend only on `graphs` and `problems`, never on the
production counters in `counting`: the two are independent
implementations, and their agreement is the correctness argument.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .errors import InputError
from .graphs import Graph, MultiColoring, _peel_2core, bits_of
from .problems import (
    Book,
    Clique,
    Problem,
    Shape,
    TwoColorProblem,
    Wheel,
)


@dataclass
class Violation:
    """One embedded forbidden subgraph."""

    description: str
    roles: dict[str, tuple[int, ...]] = field(default_factory=dict)
    side: str | None = None          # "graph" / "complement" for two-color
    colors: tuple[int, ...] | None = None  # color set for GR violations

    def __str__(self) -> str:
        parts = [self.description]
        for role, vs in self.roles.items():
            parts.append(f"{role}={','.join(map(str, vs))}")
        if self.colors is not None:
            parts.append(f"colors={{{','.join(map(str, self.colors))}}}")
        return " ".join(parts)


@dataclass
class Verdict:
    valid: bool
    violation: Violation | None = None

    def __bool__(self) -> bool:
        return self.valid


def find_book(g: Graph, k: int) -> tuple[tuple[int, int], tuple[int, ...]] | None:
    """First B_k embedding as (spine, pages), or None.

    Spines are tried in column-major edge order; an end of degree below
    k + 1 (the other end and k pages) is skipped without a look."""
    rows = g.rows
    ends = sum(1 << v for v, row in enumerate(rows) if row.bit_count() > k)
    for v in bits_of(ends):
        for u in bits_of(rows[v] & ends & ((1 << v) - 1)):
            common = rows[u] & rows[v]
            if common.bit_count() >= k:
                pages = []
                for x in bits_of(common):
                    pages.append(x)
                    if len(pages) == k:
                        return (u, v), tuple(pages)
    return None


def _cycle_from(rows: list[int], avail: int, x: int, length: int) -> list[int] | None:
    """First cycle of the given length through x with its other vertices in
    avail (which must exclude x), as an ordered vertex list starting at x."""
    if avail.bit_count() < length - 1:
        return None
    path = [x]
    close = rows[x]

    def dfs(v: int, avail: int, remaining: int) -> bool:
        if remaining == 1:
            # the last vertex must also close the cycle at x: the least one
            # that does is the one a walk of rows[v] & avail would reach first
            last = rows[v] & avail & close
            if last:
                path.append((last & -last).bit_length() - 1)
            return bool(last)
        for w in bits_of(rows[v] & avail):
            path.append(w)
            if dfs(w, avail & ~(1 << w), remaining - 1):
                return True
            path.pop()
        return False

    return path if dfs(x, avail, length - 1) else None


def _find_cycle(rows: list[int], mask: int, length: int) -> list[int] | None:
    """First cycle of the given length inside mask, found from its minimum vertex."""
    if mask.bit_count() < length:
        return None
    mask = _peel_2core(rows, mask)
    for s in bits_of(mask):
        cycle = _cycle_from(rows, mask & ~((1 << (s + 1)) - 1), s, length)
        if cycle is not None:
            return cycle
    return None


def find_wheel(g: Graph, k: int) -> tuple[int, tuple[int, ...]] | None:
    """First W_k embedding as (hub, rim cycle in order), or None."""
    for h in range(g.n):
        rim = _find_cycle(g.rows, g.rows[h], k - 1)
        if rim is not None:
            return h, tuple(rim)
    return None


def _clique_in(rows: list[int], P: int, need: int) -> tuple[int, ...] | None:
    """First clique of `need` vertices inside the mask P (ascending), or None."""
    if need == 0:
        return ()
    if need == 1:
        # any vertex of P, and the least comes first
        return ((P & -P).bit_length() - 1,) if P else None
    chosen: list[int] = []

    def rec(P: int, need: int) -> bool:
        while P.bit_count() >= need:
            low = P & -P
            v = low.bit_length() - 1
            P ^= low
            Q = rows[v] & P
            if need == 2:
                # the least common neighbor above v closes the clique
                if Q:
                    chosen.extend((v, (Q & -Q).bit_length() - 1))
                    return True
            elif Q.bit_count() >= need - 1:
                chosen.append(v)
                if rec(Q, need - 1):
                    return True
                chosen.pop()
        return False

    return tuple(chosen) if rec(P, need) else None


def find_clique(g: Graph, s: int) -> tuple[int, ...] | None:
    """First K_s embedding (ascending vertices), or None."""
    return _clique_in(g.rows, (1 << g.n) - 1, s)


def find_shape(g: Graph, shape: Shape) -> Violation | None:
    if isinstance(shape, Book):
        hit = find_book(g, shape.k)
        if hit:
            spine, pages = hit
            return Violation(f"{shape} found", {"spine": spine, "pages": pages})
    elif isinstance(shape, Wheel):
        hit = find_wheel(g, shape.k)
        if hit:
            hub, rim = hit
            return Violation(f"{shape} found", {"hub": (hub,), "rim": rim})
    elif isinstance(shape, Clique):
        hit = find_clique(g, shape.k)
        if hit:
            return Violation(f"{shape} found", {"clique": hit})
    else:
        raise InputError(f"unknown shape {shape!r}")
    return None


def has_shape_at(g: Graph, x: int, shape: Shape) -> bool:
    """Does some embedding of shape have x in its root role: a spine end of
    a book, the hub of a wheel, any vertex of a clique?

    Every embedding has a root, so when an automorphism group moves some
    vertex of a set onto each vertex of the graph, the shape is in the
    graph iff it is rooted at a vertex of that set.
    """
    rows = g.rows
    nx = rows[x]
    if isinstance(shape, Book):
        # a spine end x has a neighbor y with k common neighbors
        k = shape.k
        ys = nx
        while ys:
            y = ys & -ys
            if (nx & rows[y.bit_length() - 1]).bit_count() >= k:
                return True
            ys ^= y
        return False
    if isinstance(shape, Wheel):
        return _find_cycle(rows, nx, shape.k - 1) is not None
    if isinstance(shape, Clique):
        return _clique_in(rows, nx, shape.k - 1) is not None
    raise InputError(f"unknown shape {shape!r}")


def has_shape_through(g: Graph, x: int, shape: Shape) -> bool:
    """Does some embedding of shape use vertex x: as a root (`has_shape_at`),
    as a page under a spine inside N(x) with k common neighbors, or on a
    (k - 1)-cycle inside N(h) for a neighbor h?  A clique has only roots."""
    if has_shape_at(g, x, shape):
        return True
    rows = g.rows
    nx = rows[x]
    if isinstance(shape, Book):
        for u in bits_of(nx):
            for v in bits_of(rows[u] & nx & ~((1 << (u + 1)) - 1)):
                if (rows[u] & rows[v]).bit_count() >= shape.k:
                    return True
    elif isinstance(shape, Wheel):
        k = shape.k
        for h in bits_of(nx):
            nh = rows[h]
            # x on a (k-1)-cycle in N(h) needs two neighbors there, and the
            # cycle needs k-1 vertices
            if (nx & nh).bit_count() < 2 or nh.bit_count() < k - 1:
                continue
            rim = _peel_2core(rows, nh)
            if rim >> x & 1 and _cycle_from(rows, rim & ~(1 << x), x, k - 1) is not None:
                return True
    return False


def find_gr_violation(mc: MultiColoring, s: int, t: int) -> Violation | None:
    """First K_s using at most t colors, with its color set."""
    for cset in combinations(range(1, mc.r + 1), t):
        hit = find_clique(mc.union_graph(cset), s)
        if hit:
            used = sorted({mc.get(u, v) for u, v in combinations(hit, 2)})
            return Violation(
                f"K{s} spanning {len(used)} colors", {"clique": hit}, colors=tuple(used)
            )
    return None


def verify(g: Graph, problem: TwoColorProblem) -> Verdict:
    """Check a two-color witness; an invalid verdict carries one embedding."""
    viol = find_shape(g, problem.left)
    if viol:
        viol.side = "graph"
        return Verdict(False, viol)
    viol = find_shape(g.complement(), problem.right)
    if viol:
        viol.side = "complement"
        return Verdict(False, viol)
    return Verdict(True)


def _checked_object(obj: Graph | MultiColoring, problem: Problem) -> Graph | MultiColoring:
    """The object a check of problem reads: for two-color, the Graph itself
    or color 1 of an r=2 coloring; for GR, a coloring with the problem's r."""
    if isinstance(problem, TwoColorProblem):
        if isinstance(obj, MultiColoring):
            if obj.r != 2:
                raise InputError("two-color problems need a 2-coloring or a graph")
            return obj.color_class(1)
        return obj
    if not isinstance(obj, MultiColoring):
        raise InputError("generalized problems need a MultiColoring")
    if obj.r != problem.r:
        raise InputError(f"coloring has {obj.r} colors, problem wants {problem.r}")
    return obj


def verify_witness(obj: Graph | MultiColoring, problem: Problem) -> Verdict:
    """Dispatch on problem kind; two-color accepts a Graph or an r=2 coloring."""
    obj = _checked_object(obj, problem)
    if isinstance(problem, TwoColorProblem):
        return verify(obj, problem)
    viol = find_gr_violation(obj, problem.s, problem.t)
    return Verdict(viol is None, viol)


# the role names of a certificate of each shape
_ROLES = {Book: {"spine", "pages"}, Wheel: {"hub", "rim"}, Clique: {"clique"}}


def _distinct(n: int, vs) -> bool:
    """Are vs distinct vertices of an n-vertex object?"""
    return len(set(vs)) == len(vs) and all(0 <= v < n for v in vs)


def _embeds(g: Graph, shape: Shape, roles: dict) -> bool:
    """Do roles name an embedding of shape in g: the shape's role names,
    its exact sizes, distinct vertices and every edge?"""
    if set(roles) != _ROLES.get(type(shape)):
        return False
    if isinstance(shape, Book):
        spine, pages = roles["spine"], roles["pages"]
        if len(spine) != 2 or len(pages) != shape.k or not _distinct(g.n, (*spine, *pages)):
            return False
        u, v = spine
        return g.has_edge(u, v) and all(g.has_edge(u, p) and g.has_edge(v, p) for p in pages)
    if isinstance(shape, Wheel):
        hub, rim = roles["hub"], roles["rim"]
        if len(hub) != 1 or len(rim) != shape.k - 1 or not _distinct(g.n, (*hub, *rim)):
            return False
        (h,) = hub
        return all(g.has_edge(h, x) and g.has_edge(x, rim[i - 1]) for i, x in enumerate(rim))
    clique = roles["clique"]
    return (
        len(clique) == shape.k
        and _distinct(g.n, clique)
        and all(g.has_edge(u, v) for u, v in combinations(clique, 2))
    )


def violation_holds(obj: Graph | MultiColoring, problem: Problem, viol: Violation) -> bool:
    """Re-check a violation certificate against the problem and the object
    it came from.

    A two-color certificate names its side, "graph" or "complement", and
    an embedding of that side's shape there: the shape's role names, its
    exact sizes (2 spine ends and k pages, 1 hub and a rim of k - 1, k
    clique vertices), distinct vertices, and every edge.  A GR certificate
    names s distinct vertices whose pairs use exactly its colours, at most
    t of them, so each of them lies in the palette 1..r.  It takes the
    objects `verify_witness` takes, and raises InputError on the others."""
    obj = _checked_object(obj, problem)
    if isinstance(problem, TwoColorProblem):
        if viol.side == "graph":
            return _embeds(obj, problem.left, viol.roles)
        if viol.side == "complement":
            return _embeds(obj.complement(), problem.right, viol.roles)
        return False
    if set(viol.roles) != {"clique"}:
        return False
    clique = viol.roles["clique"]
    if len(clique) != problem.s or not _distinct(obj.n, clique):
        return False
    used = {obj.get(u, v) for u, v in combinations(clique, 2)}
    return used == set(viol.colors or ()) and len(used) <= problem.t
