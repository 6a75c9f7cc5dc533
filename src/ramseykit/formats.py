"""graph6 codec and color-matrix text format.

graph6 packs the upper triangle of the adjacency matrix in column-major
order, six bits per printable byte (value + 63).  We accept the one-byte
order header for n <= 62 and the four-byte 126-prefixed header for
63 <= n <= 258047.  Decoding is strict: every byte must lie in [63, 126],
the byte count must match the order exactly, and padding bits must be zero.

Color matrices are whitespace-separated integer rows, one row per vertex,
with 0 on the diagonal and colors 1..r off it.  Blank lines and '#' comment
lines are skipped.  A file may hold several matrices in a row; each one's
order is the length of its first row.
"""

from __future__ import annotations

from .errors import MalformedInputError
from .graphs import Graph, MultiColoring, pair_iter

_N_MAX = 258047


def _decode_order(data: bytes) -> tuple[int, int]:
    """Parse the order header; return (n, header length)."""
    if not data:
        raise MalformedInputError("empty graph6 string")
    b0 = data[0]
    if b0 == 126:
        if len(data) >= 2 and data[1] == 126:
            raise MalformedInputError("graph6 orders above 258047 are not supported")
        if len(data) < 4:
            raise MalformedInputError("truncated graph6 order header")
        vals = []
        for b in data[1:4]:
            if not 63 <= b <= 126:
                raise MalformedInputError(f"graph6 byte {b} outside [63, 126]")
            vals.append(b - 63)
        n = (vals[0] << 12) | (vals[1] << 6) | vals[2]
        if n < 63:
            raise MalformedInputError("long-form graph6 header used for order < 63")
        return n, 4
    if not 63 <= b0 <= 126:
        raise MalformedInputError(f"graph6 byte {b0} outside [63, 126]")
    return b0 - 63, 1


def graph6_decode(s: str | bytes) -> Graph:
    """Decode one graph6 string (surrounding whitespace tolerated)."""
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
        raise MalformedInputError(
            f"graph6 body has {len(body)} bytes, order {n} needs {need}"
        )
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


def graph6_encode(g: Graph) -> str:
    """Encode a graph as a graph6 string."""
    n = g.n
    if n > _N_MAX:
        raise MalformedInputError("graph too large for graph6")
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


def read_graph6_lines(text: str) -> list[tuple[int, Graph]]:
    """Decode one graph per nonblank line, keeping 1-based line numbers;
    '#' lines are comments and the optional '>>graph6<<' header is skipped."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line.startswith(">>graph6<<"):
            line = line[len(">>graph6<<"):].strip()
        if not line or line.startswith("#"):
            continue
        try:
            out.append((lineno, graph6_decode(line)))
        except MalformedInputError as e:
            raise MalformedInputError(f"line {lineno}: {e}") from None
    return out


def parse_color_matrix(text: str, r: int | None = None) -> MultiColoring:
    """Parse a symmetric color matrix into a coloring.

    r defaults to the largest color present.  The matrix must be square,
    symmetric, zero on the diagonal, and positive off it.
    """
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
    colors = [rows[u][v] for u, v in pair_iter(n)]
    return MultiColoring(n, r, colors)


def read_color_matrices(text: str, r: int) -> list[tuple[int, MultiColoring]]:
    """Parse consecutive color matrices, keeping the 1-based line number of
    each one's first row; a matrix's order is the length of its first row.
    Blank and '#' lines are skipped, inside a matrix too."""
    rows = [
        (lineno, line)
        for lineno, line in enumerate(text.splitlines(), 1)
        if line.strip() and not line.lstrip().startswith("#")
    ]
    out = []
    i = 0
    while i < len(rows):
        lineno, first = rows[i]
        n = len(first.split())
        group = rows[i:i + n]
        i += n
        try:
            if len(group) < n:
                raise MalformedInputError(f"{len(group)} rows, expected {n}")
            out.append((lineno, parse_color_matrix("\n".join(line for _, line in group), r)))
        except MalformedInputError as e:
            raise MalformedInputError(f"line {lineno}: {e}") from None
    return out


def emit_color_matrix(mc: MultiColoring) -> str:
    """Inverse of parse_color_matrix (single spaces, no comments)."""
    n = mc.n
    grid = [[0] * n for _ in range(n)]
    for u, v in pair_iter(n):
        c = mc.get(u, v)
        grid[u][v] = grid[v][u] = c
    return "\n".join(" ".join(str(x) for x in row) for row in grid) + "\n"
