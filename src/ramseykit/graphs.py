"""Core graph and edge-coloring types.

Graphs are stored as one integer bit-row per vertex (bit j of ``rows[v]`` is
the edge v-j).  Edge colorings of K_n keep a flat upper-triangle array in
column-major pair order, the same order graph6 uses:
(0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ...
"""

from __future__ import annotations

from array import array

_M64 = (1 << 64) - 1


def pair_index(u: int, v: int) -> int:
    """Index of the unordered pair {u, v} in column-major order."""
    if u > v:
        u, v = v, u
    return v * (v - 1) // 2 + u


def pair_iter(n: int):
    """All vertex pairs of K_n in column-major order (matches pair_index)."""
    for v in range(n):
        for u in range(v):
            yield u, v


def bits_of(mask: int):
    """Vertices of a bitmask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_images(n: int, perm) -> list[int]:
    """The image of each n-bit mask under the bit permutation perm (bit v
    goes to bit perm[v])."""
    # the images of the masks below 2^(v+1): those below 2^v, then each of
    # them with v's image added
    img = [0]
    for v in range(n):
        bit = 1 << perm[v]
        img += [image | bit for image in img]
    return img


def least_masks(n: int, gens) -> array:
    """The least member of each n-bit mask's orbit under the group the bit
    permutations gens generate (bit v goes to bit perm[v]), 2 bytes a mask
    for n up to 16.  Masks are visited ascending; each new orbit is walked.
    With no generators every orbit is one mask, and no walk is needed."""
    if not gens:
        return array("H", range(1 << n))
    imgs = [mask_images(n, perm) for perm in gens]
    least = array("H", bytes(2 << n))  # 0 is its own orbit; any other 0 is unvisited
    for mask in range(1, 1 << n):
        if not least[mask]:
            least[mask] = mask
            orbit = [mask]
            for x in orbit:
                for img in imgs:
                    y = img[x]
                    if not least[y]:
                        least[y] = mask
                        orbit.append(y)
    return least


# Mask states, as bits so one-bit subsets OR together (0 is unknown): a left
# shape, a right shape only, and neither
LEFT, RIGHT, VALID = 1, 2, 4


def mask_state(table, least, S: int, left, right) -> int:
    """The state of mask S in a scan where adding bits to a mask can only
    make the left check true and the right check false; ``table`` holds
    the states decided so far and gains S's.

    S's own entry, or that of its least image ``least[S]`` under a symmetry
    both checks respect, settles S once decided, as it always is in an
    ascending scan.  Otherwise a left shape in some S minus one bit is one
    in S, and a valid such subset leaves only the left check.  ``right(S)``
    runs only right after ``left(S)`` finds nothing, so the two may share
    what they check.  Undecided entries settle nothing, so any scan order
    gives the same states.
    """
    state = table[S] or table[least[S]]
    if not state:
        below = 0
        rest = S
        while rest:
            low = rest & -rest
            below |= table[S ^ low]
            rest ^= low
        if below & LEFT or left(S):
            state = LEFT
        elif below & VALID or not right(S):
            state = VALID
        else:
            state = RIGHT
    table[S] = state
    return state


def rows_from_columns(n: int, bits) -> list[int]:
    """Bit rows of the graph whose pair (u, v), u < v, is an edge when
    ``bits[pair_index(u, v)]`` is "1": a str or bytes of 0s and 1s, read
    column by column.  Column v is one slice of v characters, reversed
    into the lower bits of row v; each of its set bits then sets bit v of
    the row it names."""
    rows = [0] * n
    start = 0
    for v in range(1, n):
        low = int(bits[start:start + v][::-1], 2)
        start += v
        rows[v] = low
        bit = 1 << v
        while low:
            u = low & -low
            rows[u.bit_length() - 1] |= bit
            low ^= u
    return rows


def _peel_2core(rows: list[int], mask: int) -> int:
    """Drop vertices with fewer than 2 neighbors inside mask, repeatedly.
    Cycles survive, so cycle counts are unchanged."""
    while True:
        drop = 0
        for x in bits_of(mask):
            if (rows[x] & mask).bit_count() < 2:
                drop |= 1 << x
        if not drop:
            return mask
        mask &= ~drop


class Graph:
    """Simple undirected graph on vertices 0..n-1 with bit-row adjacency."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: list[int] | None = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        self.n = n
        self.rows = [0] * n if rows is None else rows

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    def copy(self) -> "Graph":
        return Graph(self.n, list(self.rows))

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.rows[u] >> v & 1)

    def add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("no loops")
        self.rows[u] |= 1 << v
        self.rows[v] |= 1 << u

    def toggle_edge(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError("no loops")
        self.rows[u] ^= 1 << v
        self.rows[v] ^= 1 << u

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def edges(self):
        """Edges (u, v), u < v, in column-major pair order: each row's lower bits."""
        for v, row in enumerate(self.rows):
            for u in bits_of(row & ((1 << v) - 1)):
                yield u, v

    def complement(self) -> "Graph":
        full = (1 << self.n) - 1
        return Graph(self.n, [(full ^ r ^ (1 << v)) for v, r in enumerate(self.rows)])

    def relabel(self, perm) -> "Graph":
        """New graph with vertex v renamed perm[v]."""
        return Graph.from_edges(self.n, ((perm[u], perm[v]) for u, v in self.edges()))

    def add_vertex(self, neighborhood: int) -> "Graph":
        """New graph with vertex n appended, adjacent to the bitmask given."""
        if neighborhood >> self.n:
            raise ValueError("neighborhood mask out of range")
        rows = [r | ((neighborhood >> v & 1) << self.n) for v, r in enumerate(self.rows)]
        rows.append(neighborhood)
        return Graph(self.n + 1, rows)

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edge_count()})"


class MultiColoring:
    """An r-edge-coloring of K_n; colors run 1..r, pairs in column-major order."""

    __slots__ = ("n", "r", "colors")

    def __init__(self, n: int, r: int, colors: list[int] | None = None):
        if n < 1:
            raise ValueError("coloring needs at least one vertex")
        if not 1 <= r <= 8:
            raise ValueError("supported color counts are 1..8")
        m = n * (n - 1) // 2
        if colors is None:
            colors = [1] * m
        if len(colors) != m:
            raise ValueError("color array length must be n*(n-1)/2")
        if any(not 1 <= c <= r for c in colors):
            raise ValueError("edge colors must lie in 1..r")
        self.n = n
        self.r = r
        self.colors = colors

    def copy(self) -> "MultiColoring":
        return MultiColoring(self.n, self.r, list(self.colors))

    def get(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError("no self-pair colors")
        return self.colors[pair_index(u, v)]

    def set_color(self, u: int, v: int, c: int) -> None:
        if u == v:
            raise ValueError("no self-pair colors")
        if not 1 <= c <= self.r:
            raise ValueError("color out of range")
        self.colors[pair_index(u, v)] = c

    def color_class(self, c: int) -> Graph:
        return self.union_graph((c,))

    def union_graph(self, color_set) -> Graph:
        """Graph of all edges whose color lies in color_set, built column by
        column from the colors translated to a string of 0s and 1s."""
        table = bytearray(b"0" * 256)
        for c in color_set:
            table[c] = ord("1")
        return Graph(self.n, rows_from_columns(self.n, bytes(self.colors).translate(table)))

    def relabel(self, perm) -> "MultiColoring":
        out = MultiColoring(self.n, self.r)
        for u, v in pair_iter(self.n):
            out.colors[pair_index(perm[u], perm[v])] = self.colors[pair_index(u, v)]
        return out

    def add_vertex(self, edge_colors) -> "MultiColoring":
        """New coloring with vertex n appended; edge_colors[v] colors edge (v, n)."""
        ec = list(edge_colors)
        if len(ec) != self.n:
            raise ValueError("need one color per existing vertex")
        return MultiColoring(self.n + 1, self.r, self.colors + ec)

    def __eq__(self, other):
        return (
            isinstance(other, MultiColoring)
            and (self.n, self.r) == (other.n, other.r)
            and self.colors == other.colors
        )

    def __repr__(self):
        return f"MultiColoring(n={self.n}, r={self.r})"


def _mix64(x: int) -> int:
    """splitmix64 finalizer; a fixed bijection on 64-bit words."""
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


def edge_color_hash(index: int, color: int) -> int:
    """Per-(pair, color) hash term; XOR of these terms forms the state hash."""
    return _mix64(((index + 1) << 4) | color)


def state_hash(mc: MultiColoring) -> int:
    """64-bit hash of the labeled coloring.

    XOR-combined per-edge terms, so recoloring one edge updates the hash by
    XORing out the old term and in the new one.  Not canonical: relabelings
    hash differently by design.
    """
    h = _mix64((mc.n << 20) ^ (mc.r << 8) ^ 0x5EED)
    for i, c in enumerate(mc.colors):
        h ^= edge_color_hash(i, c)
    return h

