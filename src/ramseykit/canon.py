"""Canonical forms for graphs and edge colorings.

The key is the lexicographically smallest byte string of the upper-triangle
color matrix (column-major pair order) over the leaves of a search tree,
and for a multicoloring over its degree-ordered color renamings as well.  The tree is
ordered-partition refinement with backtracking individualization: a node
refines its ordered partition to an equitable one and branches on each
vertex of its first non-singleton cell (the target cell); a leaf is a
discrete partition, read as a vertex ordering.  Every input goes through
this one search, edgeless and complete graphs and one-color colorings
included.

Refinement splits every cell at once by its members' neighbour counts in
each color against the cells, sorting the pieces by those counts, and
repeats until nothing splits.  Only counts against cells that split in the
previous round can differ inside a cell, so each round counts against those
alone; the cells and their order are the same as counting against all.

Three prunings keep the tree small, none of which can change the key:

* the forced prefix of the matrix at a node is compared with the incumbent
  and the subtree is dropped once it is larger;
* a leaf equal to the incumbent yields an automorphism.  Each one is kept
  with a bitmask of its fixed points, so "fixes the path" is one ``&``.
  Every node on the current path that it fixes merges its cycles into the
  orbits of that node's target cell, and a vertex in the orbit of a sibling
  already explored is not branched on: its subtree is that sibling's image;
* after such a leaf the search jumps back to the shallowest node whose
  current branch has joined the orbit of an explored sibling, abandoning
  everything below it for the same reason (McKay & Piperno, *Practical
  graph isomorphism II*, J. Symb. Comput. 2014).

Nodes keep no orbit bookkeeping until the first automorphism exists, so
small asymmetric inputs pay nothing for it.

A coloring's key is the least over the color renamings that give color 1
the class with the largest sorted degree sequence, color 2 the next, and
so on, with every order of classes whose sequences tie.  Renaming the
input's colors permutes the sequences with the classes, so the set of
renamed matrices, and the key, is the same; the key is still a color
matrix of the input, so different classes never share one.  Most
colorings need one search instead of r!.  Each search after the first is
bounded by the best key so far and starts with the automorphisms the
earlier ones found: renaming colors keeps them all.

Exact canonicalization is capped at 32 vertices; larger inputs raise
CapabilityError rather than silently taking forever.
"""

from __future__ import annotations

import itertools

from .errors import CapabilityError
from .graphs import Graph, MultiColoring, pair_iter

N_CAP = 32
# automorphisms stored per search.  Each one found is used at once on the
# current path; a stored one is also absorbed at every later node whose path
# it fixes, which costs time as well as memory.  automorphisms() returns the
# stored list, and a coloring's later color-permutation searches start from it
GEN_CAP = 64


class _Node:
    """The branching state of one tree node on the current path."""

    __slots__ = ("cell", "pathmask", "parent", "tried", "cur")

    def __init__(self, cell: list[int], pathmask: int):
        self.cell = cell
        self.pathmask = pathmask
        self.parent: list[int] | None = None   # union-find over vertices, lazily
        self.tried: list[int] = []
        self.cur = -1

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def absorb(self, perm: tuple[int, ...], n: int) -> None:
        """Merge the cycles of an automorphism that fixes this node's path;
        such a map sends the target cell onto itself."""
        if self.parent is None:
            self.parent = list(range(n))
        find = self.find
        for x in self.cell:
            ra, rb = find(x), find(perm[x])
            if ra != rb:
                self.parent[ra] = rb

    def covered(self, v: int) -> bool:
        """Is v in the orbit of a vertex branched on before it?"""
        if self.parent is None:
            return False
        find = self.find
        rv = find(v)
        return any(find(w) == rv for w in self.tried if w != v)


def _stored(perm) -> tuple[tuple[int, ...], int]:
    """An automorphism as a search stores it: with a bitmask of its fixed points."""
    fixed = 0
    for x, y in enumerate(perm):
        if x == y:
            fixed |= 1 << x
    return tuple(perm), fixed


class _Search:
    """One backtracking canonical-labeling run over a fixed color matrix.

    A bound is a key from another search: subtrees above it are dropped,
    and run() reports a key only if it is strictly below.  best_order is
    always a leaf of this search, so two leaves that compare equal to best
    give an automorphism; the bound alone never does.  ``gens`` may bring
    automorphisms found elsewhere; new ones are appended to it."""

    __slots__ = ("n", "val", "masks", "bound", "best", "best_order", "gens", "stack")

    def __init__(
        self,
        n: int,
        val: list[list[int]],
        masks: list[list[int]],
        bound: bytes | None = None,
        gens: list | None = None,
    ):
        self.n = n
        self.val = val
        self.masks = masks
        self.bound = bound
        self.best = bound
        self.best_order: list[int] | None = None
        # (perm, fixed-point mask) pairs
        self.gens: list[tuple[tuple[int, ...], int]] = [] if gens is None else gens
        self.stack: list[_Node] = []

    def run(self) -> tuple[bytes | None, tuple[int, ...] | None]:
        cells = self._refine([list(range(self.n))])
        self._descend(cells, 0, 0, b"")
        if self.best_order is None or self.best == self.bound:
            return None, None
        return self.best, tuple(self.best_order)

    def _refine(self, cells: list[list[int]], fresh: list[int] | None = None) -> list[list[int]]:
        """Split cells by neighbour counts until equitable.

        Each round counts only against the cells that split in the round
        before (``fresh``, as masks; None: every cell), leaving out the last
        piece of each split cell and the last color: the counts against
        those follow from the rest and never decide the order."""
        masks = self.masks
        if fresh is None:
            fresh = [sum(1 << v for v in cell) for cell in cells]
        while True:
            out: list[list[int]] = []
            split: list[int] = []
            for cell in cells:
                if len(cell) == 1:
                    out.append(cell)
                    continue
                groups: dict[tuple[int, ...], list[int]] = {}
                for v in cell:
                    sig = tuple([(m[v] & f).bit_count() for m in masks for f in fresh])
                    groups.setdefault(sig, []).append(v)
                if len(groups) == 1:
                    out.append(cell)
                    continue
                pieces = [groups[key] for key in sorted(groups)]
                out.extend(pieces)
                for piece in pieces[:-1]:
                    pm = 0
                    for v in piece:
                        pm |= 1 << v
                    split.append(pm)
            if not split:
                return out
            cells, fresh = out, split

    def _descend(self, cells: list[list[int]], pathmask: int, q0: int, pre: bytes) -> int:
        """Search below one node; ``pre`` is the matrix prefix over the first
        q0 positions, all singletons.  Returns the depth of the node to
        resume at after an automorphism, or -1."""
        n = self.n
        q = q0
        while q < len(cells) and len(cells[q]) == 1:
            q += 1
        order = [cell[0] for cell in cells[:q]]
        if q > q0:
            val = self.val
            cols: list[int] = []
            for j in range(q0, q):
                row = val[order[j]]
                cols += [row[x] for x in order[:j]]
            pre += bytes(cols)
        best = self.best
        if best is not None and pre > best[: len(pre)]:
            return -1
        if q == n:
            if best is None or pre < best:
                self.best = pre
                self.best_order = order
            elif pre == best:
                if self.best_order is None:
                    self.best_order = order      # first own leaf at the bound
                else:
                    return self._automorphism(order)
            return -1
        node = _Node(cells[q], pathmask)
        for perm, fixed in self.gens:
            if fixed & pathmask == pathmask:
                node.absorb(perm, n)
        depth = len(self.stack)
        self.stack.append(node)
        try:
            for v in node.cell:
                if node.tried and node.covered(v):
                    continue
                node.tried.append(v)
                node.cur = v
                rest = [w for w in node.cell if w != v]
                child = cells[:q] + [[v], rest] + cells[q + 1 :]
                # the parent is equitable, so only counts against v can differ
                jump = self._descend(self._refine(child, [1 << v]), pathmask | 1 << v, q, pre)
                if jump != -1 and jump < depth:
                    return jump
        finally:
            self.stack.pop()
        return -1

    def _automorphism(self, order: list[int]) -> int:
        """Record the map from the incumbent leaf to this one and pick the
        node to resume at: the shallowest whose current branch now shares
        an orbit with an explored sibling."""
        n = self.n
        perm = [0] * n
        for a, b in zip(self.best_order, order):
            perm[a] = b
        perm, fixed = _stored(perm)
        if len(self.gens) < GEN_CAP:
            self.gens.append((perm, fixed))
        jump = -1
        for depth, node in enumerate(self.stack):
            if fixed & node.pathmask != node.pathmask:
                break
            node.absorb(perm, n)
            if jump == -1 and node.covered(node.cur):
                jump = depth
        return jump


def _check_cap(n: int) -> None:
    if n > N_CAP:
        raise CapabilityError(f"exact canonical form capped at {N_CAP} vertices, got {n}")


def _graph_search(g: Graph, known=()) -> _Search:
    rows = g.rows
    val = [[r >> v & 1 for v in range(g.n)] for r in rows]
    return _Search(g.n, val, [rows], gens=[_stored(perm) for perm in known])


def canonical_form(g: Graph, known=()) -> tuple[bytes, tuple[int, ...]]:
    """Canonical key and one ordering that attains it (vertex at position i).

    ``known`` may hold automorphisms of g, as tuples p with vertex v mapped
    to p[v], that the caller has by construction; they prune the search
    from its first node on, and leave the key as it is."""
    _check_cap(g.n)
    key, order = _graph_search(g, known).run()
    return b"G" + bytes([g.n]) + key, order


def canonical_key(g: Graph, known=()) -> bytes:
    return canonical_form(g, known)[0]


def automorphisms(g: Graph) -> list[tuple[int, ...]]:
    """Automorphisms of g, as tuples p with vertex v mapped to p[v], that
    one canonical-labeling search of g finds: at most GEN_CAP of them, and
    none when g is asymmetric.  Every graph goes through the search,
    edgeless and complete ones included."""
    _check_cap(g.n)
    search = _graph_search(g)
    search.run()
    return [perm for perm, _ in search.gens]


def coloring_canonical_key(mc: MultiColoring) -> bytes:
    """Canonical key of a coloring under vertex relabeling and color
    permutation.

    Only the degree-ordered renamings are searched: color 1 goes to the
    class with the largest sorted degree sequence, color 2 to the next, and
    every order of classes whose sequences tie is tried.  A one-color
    coloring still keys as all 1s.  Each search after the first only looks
    for keys strictly below the best so far.
    """
    _check_cap(mc.n)
    n, r = mc.n, mc.r
    base = [[0] * n for _ in range(n)]
    by_color = [[0] * n for _ in range(r + 1)]
    for (u, v), c in zip(pair_iter(n), mc.colors):
        base[u][v] = base[v][u] = c
        by_color[c][u] |= 1 << v
        by_color[c][v] |= 1 << u
    color_range = range(1, r + 1)
    seq = [sorted(row.bit_count() for row in rows) for rows in by_color]
    ranked = sorted(color_range, key=seq.__getitem__, reverse=True)
    ties = [
        itertools.permutations(tied) for _, tied in itertools.groupby(ranked, seq.__getitem__)
    ]
    best = None
    # renaming colors keeps every automorphism, so all the searches share them
    gens: list = []
    for orders in itertools.product(*ties):
        old = (0, *itertools.chain(*orders))    # color old[c] is renamed c
        new = [0] * (r + 1)
        for c in color_range:
            new[old[c]] = c
        val = [[new[c] for c in row] for row in base]
        # every pair has a color, so the counts in the last one are implied
        masks = [by_color[old[c]] for c in range(1, r)]
        key, _ = _Search(n, val, masks, best, gens).run()
        if key is not None:
            best = key
    return b"C" + bytes([n, r]) + best


def are_isomorphic(a: Graph, b: Graph) -> bool:
    if a.n != b.n or a.edge_count() != b.edge_count():
        return False
    return canonical_key(a) == canonical_key(b)
