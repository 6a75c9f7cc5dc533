"""Deliberately slow reference counters and constructions.

Everything here enumerates vertex subsets directly and re-checks adjacency
pair by pair, or builds a graph edge by edge from its definition.  The
production counters in :mod:`ramseykit.counting` use codegrees, DFS path
extension and pivot recursion instead, and :mod:`ramseykit.polycirculant`
builds rows by rotating bit masks, so agreement between the two families
is meaningful evidence of correctness.  The generation oracle keys every
valid child of every parent, where :mod:`ramseykit.generate` keys only the
children that pass its canonical-deletion filter.  The multicolor child
enumerator checks every clique of old vertices as its largest one is
colored, where generation checks each later vertex ahead of time.  The
wheel through-check enumerates rims by permutation, where the verifier
extends paths inside a hub's 2-core, and the rooted-shape check enumerates
subsets and rims with the vertex as spine end, hub or clique vertex, where
the verifier reads codegrees, one hub's neighborhood or one clique search.
The dihedral orbit
reference maps a difference set element by element, where the census's
image table rotates and reflects bit masks, and the 3-block row reference
does the same for a pair of sets.  The census stripe oracle checks
every off-diagonal mask of every block pair and probes every 3-block leaf,
where the census decides one mask or row per orbit and reuses one pair's
passing masks for the swapped pair.  The tabu scan hashes and
tabu-checks every candidate recoloring, where a tabu step hashes only the
candidates at the least delta.  The exhaustive and seeded random
generators of labeled graphs and colorings, and the small constructions
(cycles, induced subgraphs and colorings, a vertex deleted), feed these
checks; ``vertex_invariants`` computes generation's invariant at every
vertex from scratch, from the object's own rows, where generation computes
it from the parent's degree lists and the new vertex's neighborhoods.  The
all-renamings color key searches every one of the r! color renamings,
where :mod:`ramseykit.canon` searches only the degree-ordered ones.  The
codec references shift graph6 bits one pair at a time and
check a color matrix entry by entry, where :mod:`ramseykit.formats` reads
and writes whole columns as strings.
"""

from __future__ import annotations

from itertools import combinations, permutations, product
from math import comb

from ramseykit.canon import _Search, are_isomorphic, canonical_key, coloring_canonical_key
from ramseykit.errors import BudgetExceededError, MalformedInputError
from ramseykit.formats import _N_MAX, _decode_order
from ramseykit.graphs import (
    VALID,
    Graph,
    MultiColoring,
    bits_of,
    edge_color_hash,
    mask_state,
    pair_index,
    pair_iter,
)
from ramseykit.polycirculant import (
    _STAGES,
    _diag_options,
    _least_images,
    _probe,
    _realize,
    _slot_table,
    _spec,
    block_pairs,
)
from ramseykit.problems import Book, Clique, GeneralizedProblem, Problem, TwoColorProblem, Wheel
from ramseykit.verify import verify_witness


def all_graphs(n: int):
    """Every labeled graph on n vertices (2^C(n,2) of them)."""
    m = n * (n - 1) // 2
    pairs = list(pair_iter(n))
    for bits in range(1 << m):
        g = Graph(n)
        for i in range(m):
            if bits >> i & 1:
                g.add_edge(*pairs[i])
        yield g


def all_colorings(n: int, r: int):
    """Every labeled r-coloring of K_n (r^C(n,2) of them)."""
    m = n * (n - 1) // 2
    for combo in product(range(1, r + 1), repeat=m):
        yield MultiColoring(n, r, list(combo))


def random_graph(rng, n: int, p: float = 0.5) -> Graph:
    """G(n, p), one draw per pair (u, v), u < v, in row order."""
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_coloring(rng, n: int, r: int) -> MultiColoring:
    """A uniform r-coloring of K_n, one draw per pair in row order."""
    mc = MultiColoring(n, r)
    for u in range(n):
        for v in range(u + 1, n):
            mc.set_color(u, v, rng.randint(1, r))
    return mc


def cycle_graph(n: int) -> Graph:
    """The cycle 0-1-...-(n-1)-0."""
    g = Graph(n)
    for i in range(n):
        g.add_edge(i, (i + 1) % n)
    return g


def induced(obj: Graph | MultiColoring, vertices) -> Graph | MultiColoring:
    """The graph or coloring induced on `vertices`, the i-th of them renamed
    i, copied pair by pair.  No vertices is refused, as Graph(0) is."""
    vs = list(vertices)
    if isinstance(obj, MultiColoring):
        out = MultiColoring(len(vs), obj.r)
        for i, j in pair_iter(len(vs)):
            out.set_color(i, j, obj.get(vs[i], vs[j]))
        return out
    out = Graph(len(vs))
    for i, j in pair_iter(len(vs)):
        if obj.has_edge(vs[i], vs[j]):
            out.add_edge(i, j)
    return out


def delete_vertex(obj: Graph | MultiColoring, x: int) -> Graph | MultiColoring:
    """The graph or coloring without vertex x, the later vertices shifted down."""
    return induced(obj, [v for v in range(obj.n) if v != x])


def count_books_naive(g: Graph, k: int) -> int:
    """Spine-labeled B_k count via (k+2)-subset enumeration."""
    total = 0
    for sub in combinations(range(g.n), k + 2):
        for u, v in combinations(sub, 2):
            if not g.has_edge(u, v):
                continue
            if all(g.has_edge(u, w) and g.has_edge(v, w) for w in sub if w not in (u, v)):
                total += 1
    return total


def count_wheels_naive(g: Graph, k: int) -> int:
    """Hub-labeled W_k count via rim permutations (each cycle seen 2 ways)."""
    total = 0
    for hub in range(g.n):
        nbrs = [v for v in range(g.n) if g.has_edge(hub, v)]
        for rim in combinations(nbrs, k - 1):
            anchor, rest = rim[0], rim[1:]
            for perm in permutations(rest):
                cyc = (anchor,) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))):
                    total += 1
    return total // 2


def has_wheel_through_naive(g: Graph, x: int, k: int) -> bool:
    """Is x the hub or a rim vertex of some W_k?  Rims by permutation."""
    for hub in range(g.n):
        nbrs = [v for v in range(g.n) if g.has_edge(hub, v)]
        for rim in combinations(nbrs, k - 1):
            if x != hub and x not in rim:
                continue
            anchor, rest = rim[0], rim[1:]
            for perm in permutations(rest):
                cyc = (anchor,) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))):
                    return True
    return False


def has_shape_at_naive(g: Graph, x: int, shape) -> bool:
    """Is x the root of some embedding of shape: a spine end of a book, the
    hub of a wheel, a vertex of a clique?  Vertex subsets and rim orders are
    enumerated, and every pair is checked."""
    others = [v for v in range(g.n) if v != x]
    if isinstance(shape, Book):
        return any(
            g.has_edge(x, y) and all(g.has_edge(x, p) and g.has_edge(y, p) for p in pages)
            for y in others
            for pages in combinations([v for v in others if v != y], shape.k)
        )
    if isinstance(shape, Wheel):
        for rim in combinations(others, shape.k - 1):
            if not all(g.has_edge(x, v) for v in rim):
                continue
            anchor, rest = rim[0], rim[1:]
            for perm in permutations(rest):
                cyc = (anchor,) + perm
                if all(g.has_edge(cyc[i], cyc[(i + 1) % len(cyc)]) for i in range(len(cyc))):
                    return True
        return False
    assert isinstance(shape, Clique)
    return any(
        all(g.has_edge(u, v) for u, v in combinations((x,) + rest, 2))
        for rest in combinations(others, shape.k - 1)
    )


def count_cliques_naive(g: Graph, s: int) -> int:
    total = 0
    for sub in combinations(range(g.n), s):
        if all(g.has_edge(u, v) for u, v in combinations(sub, 2)):
            total += 1
    return total


def gr_score_naive(mc: MultiColoring, s: int, t: int) -> int:
    """Sum over K_s subsets of the number of t-color-subsets covering them.

    A subset using exactly c <= t distinct colors is covered by comb(r-c, t-c)
    of the t-subsets, matching the production score's multi-counting.
    """
    total = 0
    for sub in combinations(range(mc.n), s):
        used = {mc.get(u, v) for u, v in combinations(sub, 2)}
        c = len(used)
        if c <= t:
            total += comb(mc.r - c, t - c)
    return total


def tabu_candidates_naive(state) -> list:
    """(delta, state hash, (u, v, new)) of every candidate recoloring of
    `state`, in pair order and then ascending new color."""
    mc = state.coloring
    out = []
    for i, (u, v) in enumerate(pair_iter(mc.n)):
        old = mc.colors[i]
        for new in range(1, mc.r + 1):
            if new != old:
                cand_hash = state.hash ^ edge_color_hash(i, old) ^ edge_color_hash(i, new)
                delta = state.scorer.sums[old, new][pair_index(u, v)]
                out.append((delta, cand_hash, (u, v, new)))
    return out


def tabu_scan_naive(state, rng):
    """The move a tabu step takes from `state`, by a scan of every candidate:
    each is hashed and skipped if tabu, and a uniform draw from `rng` breaks
    ties among the least deltas, only when there are two or more.  Returns
    ((u, v, new, delta), tie count), or None when every candidate is tabu;
    `state` is not changed."""
    best, ties = None, []
    for d, cand_hash, move in tabu_candidates_naive(state):
        if cand_hash in state.tabu:
            continue
        if best is None or d < best:
            best, ties = d, [move]
        elif d == best:
            ties.append(move)
    if best is None:
        return None
    u, v, new = ties[rng.randrange(len(ties))] if len(ties) > 1 else ties[0]
    return (u, v, new, best), len(ties)


def polycirculant_naive(spec) -> Graph:
    """The polycirculant graph of ``spec``, one vertex pair at a time.

    Vertex (a, i) is a*m + i for block a in 0..k-1, and (a, i) ~ (b, j) for
    a <= b iff (j - i) mod m lies in S_ab: the diagonal set when a == b, else
    the off-diagonal set of the block pair, listed as S12, S13, ..., S23.
    """
    k, m = spec.k, spec.m
    conn = {(a, a): spec.diag[a] for a in range(k)}
    conn.update(zip(combinations(range(k), 2), spec.off))
    g = Graph(k * m)
    for u, v in combinations(range(k * m), 2):
        (a, i), (b, j) = divmod(u, m), divmod(v, m)
        if (j - i) % m in conn[a, b]:
            g.add_edge(u, v)
    return g


def least_dihedral_image(S: frozenset[int], m: int) -> int:
    """The least mask sum(2^d) over the images of the difference set S under
    every rotation d -> d + t and reflection d -> t - d of Z_m."""
    orbit = [frozenset((d + t) % m for d in S) for t in range(m)]
    orbit += [frozenset((t - d) % m for d in S) for t in range(m)]
    return min(sum(2**d for d in image) for image in orbit)


def least_row_image(S12: frozenset[int], S13: frozenset[int], m: int) -> tuple[int, int]:
    """The least pair of masks over the images (s*S12 + t2, s*S13 + t3) of a
    3-block row, s = +-1 and t2, t3 in Z_m, mapped element by element."""
    def mask(S):
        return sum(2**d for d in S)

    return min(
        (mask({(s * d + t2) % m for d in S12}), mask({(s * d + t3) % m for d in S13}))
        for s in (1, -1) for t2 in range(m) for t3 in range(m)
    )


def census_stripe_naive(k, m, problem, complement_blocks, outers, budget):
    """``polycirculant._scan_stripe`` checking each mask and leaf in turn.

    Every block-pair slot runs ``mask_state`` on each of its 2^m masks, and
    every 3-block leaf is probed; only a 2-block leaf whose mask is not its
    least image is skipped, as the census's own rule skips it.  Same
    arguments and return value as the production stripe."""
    diag_opts = _diag_options(m)
    slots = [None] * k + block_pairs(k)
    counts = dict.fromkeys(_STAGES, 0)
    single_memo: dict[int, bool] = {}
    pair_tables: dict[tuple[int, int], tuple] = {}
    least = _least_images(m) if k >= 2 else None
    found = []

    def single_ok(S: int) -> bool:
        counts["singles_tried"] += 1
        if S not in single_memo:
            single_memo[S] = _probe(1, m, (S,), (), problem) is not None
        counts["singles_passed"] += single_memo[S]
        return single_memo[S]

    def leaf(outer, diag, off):
        if budget is not None and counts["leaves"] >= budget:
            raise BudgetExceededError(f"census budget {budget} exhausted")
        counts["leaves"] += 1
        if k == 2 and least[off[0]] != off[0]:
            return
        g = _probe(k, m, diag, off, problem) if k >= 3 else _realize(k, m, diag, off)
        if g is None or (complement_blocks and not are_isomorphic(
            _realize(1, m, diag[:1], ()), _realize(1, m, diag[1:], ()).complement()
        )):
            return
        found.append((outer, len(found), _spec(k, m, diag, off), g))

    def descend(outer, chosen):
        if len(chosen) == len(slots):
            leaf(outer, chosen[:k], chosen[k:])
        elif (slot := slots[len(chosen)]) is None:
            for S in diag_opts:
                if single_ok(S):
                    descend(outer, chosen + (S,))
        else:
            diag = chosen[slot[0] - 1], chosen[slot[1] - 1]
            if diag not in pair_tables:
                pair_tables[diag] = _slot_table(2, m, diag, (), problem)
            table, left, right, _ = pair_tables[diag]
            for S in range(1 << m):
                counts["pairs_tried"] += 1
                if mask_state(table, least, S, left, right) == VALID:
                    counts["pairs_passed"] += 1
                    descend(outer, chosen + (S,))

    try:
        for outer, S0 in outers:
            if single_ok(S0):
                descend(outer, (S0,))
    except BudgetExceededError:
        return counts, True, found
    return counts, False, found


def coloring_key_all_renamings(mc: MultiColoring) -> bytes:
    """A canonical key of a coloring under vertex relabeling and color
    renaming: the least key of ``canon``'s search over all r! renamings of
    the colors, one-color colorings included.  These are the bytes the
    package's color key had before it searched only degree-ordered
    renamings."""
    n, r = mc.n, mc.r
    base = [[0] * n for _ in range(n)]
    by_color = [[0] * n for _ in range(r + 1)]
    for (u, v), c in zip(pair_iter(n), mc.colors):
        base[u][v] = base[v][u] = c
        by_color[c][u] |= 1 << v
        by_color[c][v] |= 1 << u
    best = None
    gens: list = []
    for perm in permutations(range(1, r + 1)):
        new = (0,) + perm                   # color c is renamed new[c]
        old = [0] * (r + 1)
        for c in range(1, r + 1):
            old[new[c]] = c
        val = [[new[c] for c in row] for row in base]
        masks = [by_color[old[c]] for c in range(1, r)]
        key, _ = _Search(n, val, masks, best, gens).run()
        if key is not None:
            best = key
    return b"C" + bytes([n, r]) + best


def generate_keys_naive(problem: Problem, n_max: int) -> list[set[bytes]]:
    """Canonical keys of the witnesses of each order 1..n_max, unfiltered.

    Every parent gets a new vertex in each of its 2^n neighborhoods or r^n
    color vectors, each child is verified in full, every valid child is
    keyed, and the first child of each class becomes a parent of the next
    level.
    """
    if isinstance(problem, TwoColorProblem):
        frontier: list = [Graph(1)]
        key = canonical_key

        def children(g):
            return (g.add_vertex(mask) for mask in range(1 << g.n))
    else:
        frontier = [MultiColoring(1, problem.r)]
        key = coloring_canonical_key

        def children(mc):
            colors = range(1, problem.r + 1)
            return (mc.add_vertex(vec) for vec in product(colors, repeat=mc.n))
    levels = [{key(frontier[0])}]
    for _ in range(1, n_max):
        seen: set[bytes] = set()
        parents, frontier = frontier, []
        for parent in parents:
            for child in children(parent):
                if verify_witness(child, problem).valid:
                    k = key(child)
                    if k not in seen:
                        seen.add(k)
                        frontier.append(child)
        levels.append(seen)
    return levels


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
    """Generation's invariant, the one that picks the canonical deletion,
    for every vertex, computed from the object's own rows.  A graph is its
    one edge class; a coloring has one class per color."""
    if isinstance(obj, Graph):
        color_rows = [obj.rows]
    else:
        color_rows = [obj.color_class(c).rows for c in range(1, obj.r + 1)]
    degs = _degrees(color_rows)
    return [_invariant(color_rows, degs, v) for v in range(obj.n)]


def two_color_children_naive(g: Graph, problem: TwoColorProblem) -> list:
    """The children ``generate.extend_one`` gives a graph, in its order.

    Every neighborhood of the new vertex is added in ascending mask order,
    each child is verified in full, and a valid child is kept when the new
    vertex reaches the largest ``vertex_invariants`` value of the child.
    """
    out = []
    for mask in range(1 << g.n):
        child = g.add_vertex(mask)
        if verify_witness(child, problem).valid:
            inv = vertex_invariants(child)
            if inv[-1] == max(inv):
                out.append(child)
    return out


def multicolor_children_naive(mc: MultiColoring, problem: GeneralizedProblem) -> list:
    """The children ``generate.extend_one`` gives a coloring, in its order.

    The color vectors of the new vertex's edges are walked depth-first,
    colors ascending.  At old vertex j every (s-1)-subset S with largest
    vertex j is checked: a K_s on S and the new vertex spans the colors
    inside S and on the edges from S's other vertices to the new one, plus
    the color tried at j.  Fewer than t colors fail with any color at j, and
    exactly t fail with each of their own.  A full vector is kept when the
    new vertex reaches the largest ``vertex_invariants`` value of the child.
    """
    n, r, s, t = mc.n, mc.r, problem.s, problem.t
    by_max: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n)]
    for S in combinations(range(n), s - 1):
        pre = 0
        for a, b in combinations(S, 2):
            pre |= 1 << mc.get(a, b)
        by_max[S[-1]].append((S[:-1], pre))
    out = []
    assigned = [0] * n

    def rec(j: int) -> None:
        if j == n:
            child = mc.add_vertex(list(assigned))
            inv = vertex_invariants(child)
            if inv[-1] == max(inv):
                out.append(child)
            return
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
        for c in range(1, r + 1):
            if not banned >> c & 1:
                assigned[j] = c
                rec(j + 1)

    rec(0)
    return out


def graph6_decode_naive(s: str | bytes) -> Graph:
    """graph6 decoding bit by bit: the body is read as one integer, each byte
    checked as it is shifted in, and the pairs are walked backwards from its
    lowest bit, one ``add_edge`` per edge.  The checks run in the order the
    production decoder keeps: header, length, first bad byte, padding."""
    if isinstance(s, str):
        if not s.isascii():
            raise MalformedInputError("graph6 text must be ASCII")
        s = s.encode("ascii")
    s = s.strip()
    n, off = _decode_order(s)
    if n < 1:
        raise MalformedInputError("graph6 order must be at least 1")
    if n > _N_MAX:
        raise MalformedInputError("graph6 order too large")
    m = n * (n - 1) // 2
    need = (m + 5) // 6
    body = s[off:]
    if len(body) != need:
        raise MalformedInputError(f"graph6 body has {len(body)} bytes, order {n} needs {need}")
    bits = 0
    for b in body:
        if not 63 <= b <= 126:
            raise MalformedInputError(f"graph6 byte {b} outside [63, 126]")
        bits = (bits << 6) | (b - 63)
    pad = 6 * need - m
    if pad and bits & ((1 << pad) - 1):
        raise MalformedInputError("nonzero padding bits in graph6 body")
    bits >>= pad
    g = Graph(n)
    for u, v in reversed(list(pair_iter(n))):
        if bits & 1:
            g.add_edge(u, v)
        bits >>= 1
    return g


def graph6_encode_naive(g: Graph) -> str:
    """graph6 encoding one bit per pair in column-major order, then six bits
    per byte."""
    n = g.n
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    bits = 0
    m = 0
    for u, v in pair_iter(n):
        bits = (bits << 1) | (g.rows[u] >> v & 1)
        m += 1
    pad = (6 - m % 6) % 6
    bits <<= pad
    body = bytearray()
    for shift in range((m + pad) - 6, -6, -6):
        body.append(((bits >> shift) & 63) + 63)
    return (head + bytes(body)).decode("ascii")


def parse_color_matrix_naive(text: str, r: int | None = None) -> MultiColoring:
    """A color matrix checked entry by entry: each row's length and diagonal,
    then each pair (i, j), j < i, in row order for symmetry and a positive
    color, then the largest color against r."""
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise MalformedInputError(f"line {lineno}: non-integer entry") from None
    n = len(rows)
    if n < 1:
        raise MalformedInputError("empty color matrix")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MalformedInputError(f"row {i} has {len(row)} entries, expected {n}")
        if row[i] != 0:
            raise MalformedInputError(f"diagonal entry ({i},{i}) must be 0")
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise MalformedInputError(f"matrix not symmetric at ({i},{j})")
            if rows[i][j] < 1:
                raise MalformedInputError(f"edge color at ({i},{j}) must be positive")
    top = max(rows[i][j] for i in range(n) for j in range(i)) if n > 1 else 1
    if r is None:
        r = top
    elif top > r:
        raise MalformedInputError(f"color {top} exceeds declared color count {r}")
    return MultiColoring(n, r, [rows[u][v] for u, v in pair_iter(n)])


def emit_color_matrix_naive(mc: MultiColoring) -> str:
    """A color matrix filled one pair at a time through ``get``."""
    n = mc.n
    grid = [[0] * n for _ in range(n)]
    for u, v in pair_iter(n):
        grid[u][v] = grid[v][u] = mc.get(u, v)
    return "\n".join(" ".join(str(x) for x in row) for row in grid) + "\n"
