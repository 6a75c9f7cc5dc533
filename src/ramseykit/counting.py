"""Exact scoring functions: book, wheel, and clique counts plus the GR score.

Each shape counter comes in a full form and a single-edge-toggle delta
form.  Deltas enumerate only the copies through the toggled edge, so a
search step costs far less than a recount.  Their innermost work is a
popcount: K2 and K3, the completions of a K4 or K5 through an edge, are
counted directly rather than by the clique recursion, and the path DFS
counts a path's last two edges as one popcount of common neighbors.  Book
and wheel deltas can instead read a cache kept current across toggles:
CodegreeCache holds the codegree matrix, and WheelCache per-hub rim-path
tables of which a toggle rebuilds only the hubs it can change.
A caller holding every pair's book or clique delta (the tabu scorer does)
brings it up to date after a toggle with update_book_table or
update_clique_table.  Each corrects in place, by the few terms the toggle
moved, exactly the pairs whose delta it can change, and recomputes none:
for books the pairs meeting the toggled edge or joining its common
neighborhood to its neighborhood union, for cliques the pairs meeting the
edge or inside its common neighborhood.  The hubs a wheel toggle rebuilds
reach most pairs, so a wheel table is recomputed whole instead.  The GR
score has only its full form here; its recolor delta lives in the tabu
scorer, which keeps the union graphs the delta needs and sums clique
completions over them.  Counts are plain Python ints (arbitrary
precision), so the overflow cases other implementations must guard
against cannot arise here.

Counting conventions: books are spine-labeled (one count per choice of
spine edge and page set) and wheels are hub-labeled (one count per hub and
rim cycle, directions quotiented out; each cycle is counted once, at its
minimum vertex).  Either count is zero exactly when the shape is absent,
which is all the searches need.
"""

from __future__ import annotations

from itertools import combinations
from math import comb

from .errors import InputError
from .graphs import Graph, MultiColoring, _peel_2core, bits_of, pair_index
from .problems import Book, Clique, GeneralizedProblem, Shape, Wheel


class CodegreeCache:
    """Matrix of |N(u) ∩ N(v)| kept current across edge toggles."""

    __slots__ = ("cd",)

    def __init__(self, g: Graph):
        rows = g.rows
        self.cd = [[(rows[u] & rows[v]).bit_count() for v in range(g.n)] for u in range(g.n)]

    def apply_toggle(self, g: Graph, u: int, v: int) -> None:
        """Update after edge (u,v) was toggled in g (call with g already new)."""
        d = 1 if g.has_edge(u, v) else -1
        cd = self.cd
        cd[u][u] += d  # diagonal entries are degrees
        cd[v][v] += d
        for x in bits_of(g.rows[v] & ~(1 << u)):
            cd[u][x] += d
            cd[x][u] += d
        for x in bits_of(g.rows[u] & ~(1 << v)):
            cd[v][x] += d
            cd[x][v] += d


class WheelCache:
    """Per-hub rim-path tables for W_k deltas, kept current across toggles.

    With rim length L = k - 1, for each hub h and a, b in N(h), inside the
    induced graph G[N(h)]:
      P[h][a][b]  simple a -> b paths with L - 1 edges,
      Q[h][a][b]  simple a -> b paths with L - 2 edges,
      C[h][a]     L-cycles through a.
    Rows for vertices outside N(h) are zero and are never read.
    Toggling (a, b) changes G[N(h)] only for h in {a, b} or h in
    N(a) ∩ N(b), so only those hubs are rebuilt."""

    __slots__ = ("k", "P", "Q", "C")

    def __init__(self, g: Graph, k: int):
        Wheel(k)  # range check
        self.k = k
        n = g.n
        self.P: list = [None] * n
        self.Q: list = [None] * n
        self.C: list = [None] * n
        for h in range(n):
            self._rebuild(g.rows, h)

    def _rebuild(self, rows: list[int], h: int) -> None:
        """Fresh tables for hub h.  From each start a, the simple paths in
        G[N(h)] grow one edge per round to L - 3 edges; the next edge ends
        the Q paths, and the last one is a bit loop over the P endpoints."""
        n = len(rows)
        nbhd = rows[h]
        last = self.k - 3  # edges before the last one of a P path
        zero = [0] * n  # the rows outside N(h), never written
        P, Q, C = [zero] * n, [zero] * n, [0] * n
        for a in bits_of(nbhd):
            Pa = P[a] = [0] * n
            Qa = Q[a] = [0] * n
            paths = [(a, nbhd & ~(1 << a))]  # (end, vertices still free)
            for _ in range(last - 1):
                longer = []
                for x, avail in paths:
                    m = rows[x] & avail
                    while m:
                        low = m & -m
                        m ^= low
                        longer.append((low.bit_length() - 1, avail ^ low))
                paths = longer
            for x, avail in paths:  # each next vertex w ends a Q path
                m = rows[x] & avail
                while m:
                    low = m & -m
                    m ^= low
                    w = low.bit_length() - 1
                    Qa[w] += 1
                    ends = rows[w] & avail  # w is not its own neighbor
                    while ends:
                        low = ends & -ends
                        ends ^= low
                        Pa[low.bit_length() - 1] += 1
            C[a] = sum(Pa[b] for b in bits_of(rows[a] & nbhd)) // 2
        self.P[h], self.Q[h], self.C[h] = P, Q, C

    def apply_toggle(self, g: Graph, u: int, v: int) -> None:
        """Update after edge (u,v) was toggled in g (call with g already new)."""
        rows = g.rows
        for h in (u, v, *bits_of(rows[u] & rows[v])):
            self._rebuild(rows, h)


def _page_moves(pages: list[int], cdz: list[int], inner: int, d: int) -> tuple:
    """The move of pages[cd(z, w) - o] a toggle of (z, f) made, for each w
    in inner = N(z) ∩ N(f), as two lists over vertices at o = 0 and o = 1,
    zero off inner.  cdz is z's codegree row after the toggle, in which
    cd(z, w) moved by d, the page f joining or leaving.  Entries at o = 1
    are read only at a pair holding w and a common neighbour of z and w
    other than f, so they are filled only where one exists: no pages index
    is negative, where a list read would wrap."""
    n = len(cdz)
    at0, at1 = [0] * n, [0] * n
    m = inner
    while m:
        low = m & -m
        m ^= low
        w = low.bit_length() - 1
        lo = cdz[w] - (d > 0)  # cd(z, w) where f is not a page
        at0[w] = d * (pages[lo + 1] - pages[lo])
        if lo:
            at1[w] = d * (pages[lo] - pages[lo - 1])
    return at0, at1


def update_book_table(
    rows: list[int], table: list[int], a: int, b: int, cd: list[list[int]], pages: list[int]
) -> None:
    """Bring `table`, the B_k toggle delta at every pair in pair_iter order,
    up to date after a toggle of edge (a, b).  `rows` and the codegrees
    `cd` already hold the toggle; `pages` is C(i, k - 1) at i = 0 .. n - 1.
    Each entry is corrected in place; none is recomputed.  A book delta
    reads codegrees at its ends, and only cd(a, x) for x in N(b) and
    cd(b, x) for x in N(a) change, so with I = N(a) ∩ N(b) and
    U = N(a) ∪ N(b) minus {a, b} only the pairs meeting {a, b} and those
    with one end in I and the other in U are touched.
    With d = +1 for an added edge and -1 for a removed one, o the edge bit
    of the pair and sign(o) = -1 on an edge, an entry is sign(o) times
    C(cd, k) at the pair plus, for each page z, pages[cd(e, z) - o] at both
    ends e.  The entry at (a, b) only negates.  With (e, f) standing for
    (a, b) or (b, a) and x off {a, b}, (e, x) gains, for each z in
    I ∩ N(x), the move of pages[cd(e, z) - o], as cd(e, z) moved by d; and
    if x is in N(f), cd(e, x) moved by d, so C(cd, k) moved by
    d·pages[the smaller cd(e, x)], and the page f joins or leaves, adding
    d·(pages[cd(a, b) - o] + pages[cd(x, f) - o]) with cd(x, f) read where
    f is a page.  A pair off {a, b} gains the same per-vertex move of
    pages[cd(e, z) - o] for each page z in {a, b} ∩ N(x) ∩ N(y) at each
    end e in I; its codegree, common neighbourhood and o do not change."""
    ends = 1 << a | 1 << b
    ra, rb = rows[a], rows[b]
    inner = ra & rb  # holds neither a nor b
    outer = (ra | rb) & ~ends
    d = 1 if ra >> b & 1 else -1
    ab = cd[a][b]
    grew = d > 0
    near = 0  # the vertices with a neighbour in I
    m = inner
    while m:
        low = m & -m
        m ^= low
        near |= rows[low.bit_length() - 1]
    moved = []  # the page moves of a, then of b
    for e in (a, b):
        f = a ^ b ^ e
        re, rf, cde, cdf = rows[e], rows[f], cd[e], cd[f]
        at0, at1 = _page_moves(pages, cde, inner, d)
        moved.append((at0, at1))
        m = (rf | near) & ~ends  # (e, x) moves only for x in N(f) or near I
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            o = re >> x & 1
            move = at1 if o else at0
            c = 0
            zs = inner & rows[x]
            while zs:
                low = zs & -zs
                zs ^= low
                c += move[low.bit_length() - 1]
            if rf >> x & 1:
                # f is a page in the new state when the edge grew and in
                # the old one otherwise, where cd(f, x) was larger by o
                fx = cdf[x] - o if grew else cdf[x]
                c += d * (pages[cde[x] - grew] + pages[ab - o] + pages[fx])
            lo, hi = (x, e) if x < e else (e, x)
            table[hi * (hi - 1) // 2 + lo] += -c if o else c
    table[pair_index(a, b)] *= -1
    ma, mb = moved
    ys = outer
    while ys:
        bit = ys & -ys
        ys ^= bit
        y = bit.bit_length() - 1
        base = y * (y - 1) // 2
        row = rows[y]
        pa = ra if ra & bit else 0  # a is a page of xy for x in pa
        pb = rb if rb & bit else 0
        m = (outer if inner & bit else inner) & (bit - 1)  # y's partners x < y
        while m:
            low = m & -m
            m ^= low
            x = low.bit_length() - 1
            o = row >> x & 1
            c = 0
            if pa & low:  # the moves are 0 off I, where cd(x, a) did not move
                c += ma[o][x] + ma[o][y]
            if pb & low:
                c += mb[o][x] + mb[o][y]
            table[base + x] += -c if o else c


def update_clique_table(rows: list[int], table: list[int], a: int, b: int, s: int) -> None:
    """Bring `table`, the K_s toggle delta at every pair in pair_iter order,
    up to date after a toggle of edge (a, b) that `rows` already holds.
    Each entry is corrected in place; none is recomputed.  A clique delta
    counts cliques in N(x) ∩ N(y), which holds the edge ab exactly when x
    and y are both in I = N(a) ∩ N(b), so only the pairs meeting {a, b}
    and those inside I are touched.  With d = +1 for an added edge and -1
    for a removed one, o the edge bit of the pair and sign(o) = -1 on an
    edge, each gains sign(o)·d times a smaller clique count: (a, b) keeps
    its common neighbourhood and only negates; with (e, f) standing for
    (a, b) or (b, a), (e, y) with y in N(f), whose N(e) ∩ N(y) gained or
    lost f, gains the K_{s-3} in I ∩ N(y); a pair inside I gains the
    K_{s-4} in N(x) ∩ N(y) ∩ I, the completions using ab.  The other pairs
    meeting {a, b} stay."""
    ends = 1 << a | 1 << b
    inner = rows[a] & rows[b]
    d = 1 if rows[a] >> b & 1 else -1
    sign = (d, -d)  # indexed by o
    for e in (a, b):
        re = rows[e]
        for y in bits_of(rows[a ^ b ^ e] & ~ends):
            c = count_cliques_in_mask(rows, inner & rows[y], s - 3)
            lo, hi = (y, e) if y < e else (e, y)
            table[hi * (hi - 1) // 2 + lo] += sign[re >> y & 1] * c
    table[pair_index(a, b)] *= -1
    for y in bits_of(inner):
        base = y * (y - 1) // 2
        row = rows[y]
        for x in bits_of(inner & ((1 << y) - 1)):
            c = count_cliques_in_mask(rows, inner & row & rows[x], s - 4)
            table[base + x] += sign[row >> x & 1] * c


def count_books(g: Graph, k: int) -> int:
    """Spine-labeled B_k count: sum over edges of C(codegree, k)."""
    Book(k)  # range check
    rows = g.rows
    total = 0
    for u, v in g.edges():
        total += comb((rows[u] & rows[v]).bit_count(), k)
    return total


def book_toggle_delta(g: Graph, u: int, v: int, k: int, cache: CodegreeCache | None = None) -> int:
    """Change in count_books if edge (u,v) were toggled.  Pure; O(n)."""
    Book(k)  # range check
    rows = g.rows
    if cache is None:
        cdu = [(rows[u] & row).bit_count() for row in rows]
        cdv = [(rows[v] & row).bit_count() for row in rows]
    else:
        try:
            cdu, cdv = cache.cd[u], cache.cd[v]
        except AttributeError:
            kind = type(cache).__name__
            raise InputError(f"a book delta reads a CodegreeCache, not a {kind}") from None
    # the books on spine ux with page v number comb(cdu[x] - off, k - 1), where
    # off is 1 on a removed edge, whose v the codegree still counts.
    # math.comb raises on a negative argument, and no call in this module
    # passes one while the codegree cache agrees with g: on a removed edge,
    # v is a common neighbor of u and x, so cdu[x] >= 1
    off = rows[u] >> v & 1
    total = comb(cdu[v], k)
    m = rows[u] & rows[v]
    while m:
        low = m & -m
        m ^= low
        x = low.bit_length() - 1
        total += comb(cdu[x] - off, k - 1) + comb(cdv[x] - off, k - 1)
    return -total if off else total


def _count_paths(rows: list[int], inter: int, a: int, b: int, length: int) -> int:
    """Simple paths a -> b with exactly `length` >= 2 edges, interior vertices
    drawn from the mask `inter` (which must exclude a and b).  The DFS
    stops two edges short of b: the paths x -> w -> y -> b through each
    neighbor w of x are one popcount of the y adjacent to both w and b."""
    if length == 2:
        return (rows[a] & inter & rows[b]).bit_count()
    row_b = rows[b]

    def dfs(x: int, avail: int, remaining: int) -> int:
        total = 0
        m = rows[x] & avail
        if remaining == 3:
            ends = avail & row_b  # w is not its own neighbor, so no need to drop it
            while m:
                low = m & -m
                m ^= low
                total += (rows[low.bit_length() - 1] & ends).bit_count()
            return total
        while m:
            low = m & -m
            m ^= low
            total += dfs(low.bit_length() - 1, avail ^ low, remaining - 1)
        return total

    return dfs(a, inter, length)


def _count_cycles(rows: list[int], mask: int, length: int) -> int:
    """Cycles of the given length (at least 3) with all vertices inside mask."""
    mask = _peel_2core(rows, mask)
    if mask.bit_count() < length:
        return 0
    return sum(
        _count_cycles_through(rows, mask & ~((1 << s) - 1), s, length) for s in bits_of(mask)
    )


def _count_cycles_through(rows: list[int], mask: int, x: int, length: int) -> int:
    """Cycles of the given length inside mask that pass through vertex x."""
    total = 0
    for w in bits_of(rows[x] & mask & ~(1 << x)):
        total += _count_paths(rows, mask & ~(1 << x) & ~(1 << w), w, x, length - 1)
    return total // 2


def count_wheels(g: Graph, k: int) -> int:
    """Hub-labeled W_k count: rim cycles of length k-1 inside each
    neighborhood, each cycle counted once."""
    Wheel(k)  # range check
    return sum(_count_cycles(g.rows, g.rows[h], k - 1) for h in range(g.n))


def wheel_toggle_delta(g: Graph, u: int, v: int, k: int, cache: WheelCache | None = None) -> int:
    """Change in count_wheels if edge (u,v) were toggled.  Pure.

    Wheels through the edge come in two kinds: it is a rim edge (hub in the
    common neighborhood; rim completions are u-v paths inside the hub's
    neighborhood) or a spoke (hub u with v on the rim, or vice versa; rim
    completions are cycles through the far endpoint).  Without a cache both
    kinds are counted by DFS; with a WheelCache(g, k) kept current by
    apply_toggle they are read from its tables.  On a missing edge a spoke
    rim through v is v, w, ..., w', v with w, w' in N(u) ∩ N(v) joined by an
    (L - 2)-edge path inside N(u).
    """
    rows = g.rows
    if cache is not None:
        try:
            cached = cache.k  # at least 4, as the cache checked
        except AttributeError:
            kind = type(cache).__name__
            raise InputError(f"a wheel delta reads a WheelCache, not a {kind}") from None
        if cached != k:
            raise InputError(f"wheel cache is for W{cached}, not W{k}")
        P = cache.P
        common = []
        total = 0
        m = rows[u] & rows[v]
        while m:
            low = m & -m
            m ^= low
            h = low.bit_length() - 1
            common.append(h)
            total += P[h][u][v]
        if rows[u] >> v & 1:
            return -(total + cache.C[u][v] + cache.C[v][u])
        Qu, Qv = cache.Q[u], cache.Q[v]
        for i, w in enumerate(common):
            qu, qv = Qu[w], Qv[w]
            for w2 in common[i + 1 :]:
                total += qu[w2] + qv[w2]
        return total
    Wheel(k)  # range check
    L = k - 1
    both = ~(1 << u) & ~(1 << v)
    total = 0
    for h in bits_of(rows[u] & rows[v]):
        total += _count_paths(rows, rows[h] & both, u, v, L - 1)
    total += _count_cycles_through(rows, (rows[u] | (1 << v)) & ~(1 << u), v, L)
    total += _count_cycles_through(rows, (rows[v] | (1 << u)) & ~(1 << v), u, L)
    return -total if g.has_edge(u, v) else total


def count_cliques_in_mask(rows: list[int], mask: int, s: int) -> int:
    """Number of K_s with all vertices inside mask.

    K2 and K3 are counted directly: for each x in ascending order, the
    edges, or the triangles, whose lowest vertex is x.  Larger cliques use a
    pivot recursion over a shrinking candidate set: the pivot branch defers
    its vertex, link branches commit theirs, and each clique surfaces at
    exactly one leaf as the links plus a subset of the deferred pivots.
    """
    if s < 0:
        return 0
    if s == 0:
        return 1
    if s == 1:
        return mask.bit_count()
    total = 0
    if s <= 3:
        while mask:
            low = mask & -mask
            mask ^= low
            up = rows[low.bit_length() - 1] & mask  # neighbors of x above x
            if s == 2:
                total += up.bit_count()
                continue
            while up:
                low = up & -up
                up ^= low
                total += (rows[low.bit_length() - 1] & up).bit_count()
        return total

    def rec(P: int, p: int, e: int) -> None:
        nonlocal total
        if e == s:
            total += 1
            return
        if not P:
            total += comb(p, s - e)
            return
        u, best = -1, -1
        for x in bits_of(P):
            c = (rows[x] & P).bit_count()
            if c > best:
                best, u = c, x
        rec(P & rows[u], p + 1, e)
        P &= ~(1 << u)
        for w in bits_of(P & ~rows[u]):
            rec(P & rows[w], p, e + 1)
            P &= ~(1 << w)

    rec(mask, 0, 0)
    return total


def count_cliques(g: Graph, s: int) -> int:
    Clique(s)  # range check
    return count_cliques_in_mask(g.rows, (1 << g.n) - 1, s)


def clique_toggle_delta(g: Graph, u: int, v: int, s: int) -> int:
    """Change in count_cliques if edge (u,v) were toggled.  Pure."""
    Clique(s)  # range check
    completions = count_cliques_in_mask(g.rows, g.rows[u] & g.rows[v], s - 2)
    return -completions if g.has_edge(u, v) else completions


def count_shape(g: Graph, shape: Shape) -> int:
    if isinstance(shape, Book):
        return count_books(g, shape.k)
    if isinstance(shape, Wheel):
        return count_wheels(g, shape.k)
    if isinstance(shape, Clique):
        return count_cliques(g, shape.k)
    raise InputError(f"unknown shape {shape!r}")


def shape_toggle_delta(
    g: Graph, u: int, v: int, shape: Shape, cache: CodegreeCache | WheelCache | None = None
) -> int:
    """Change in count_shape if edge (u,v) were toggled.  A book or wheel
    delta reads `cache` when given: a CodegreeCache(g) for a book, a
    WheelCache(g, k) for W_k, kept current by its apply_toggle.  Cliques
    take no cache."""
    if isinstance(shape, Book):
        return book_toggle_delta(g, u, v, shape.k, cache)
    if isinstance(shape, Wheel):
        return wheel_toggle_delta(g, u, v, shape.k, cache)
    if isinstance(shape, Clique):
        return clique_toggle_delta(g, u, v, shape.k)
    raise InputError(f"unknown shape {shape!r}")


def gr_score(mc: MultiColoring, s: int, t: int) -> int:
    """Sum over t-subsets of colors of the K_s count in their union graph.

    A K_s spanning c <= t colors is counted once per covering t-subset;
    the multi-count is deliberate (worse violations score higher).  Zero
    exactly when every K_s uses more than t colors.
    """
    GeneralizedProblem(mc.r, s, t)  # range checks; needs mc.r > t
    full = (1 << mc.n) - 1
    total = 0
    for cset in combinations(range(1, mc.r + 1), t):
        total += count_cliques_in_mask(mc.union_graph(cset).rows, full, s)
    return total
