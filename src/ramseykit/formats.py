"""graph6 codec and color-matrix text format.

graph6 packs the upper triangle of the adjacency matrix in column-major
order, six bits per printable byte (value + 63).  We accept the one-byte
order header for n <= 62 and the four-byte 126-prefixed header for
63 <= n <= 258047.  Decoding is strict: every byte must lie in [63, 126],
the byte count must match the order exactly, and padding bits must be zero.
In a file of graph6 lines, '#' lines are comments, and so is the rest of a
line from whitespace followed by '#' (the census writes its specs so).

Color matrices are whitespace-separated integer rows, one row per vertex,
with 0 on the diagonal and colors 1..r off it.  Blank lines and '#' comment
lines are skipped.  A file may hold several matrices in a row; each one's
order is the length of its first row.
"""

from __future__ import annotations

import re
from binascii import b2a_base64
from itertools import islice, zip_longest

from .errors import MalformedInputError
from .graphs import Graph, MultiColoring, rows_from_columns

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


# A graph6 byte is 63 plus a six-bit group.  A body is checked with one
# translate that deletes the valid bytes, so the bad ones remain in order;
# it is read through a table of each group's bit string, and written
# through base64, whose 64 symbols are the same six-bit groups in another
# alphabet.
_G6_BYTES = bytes(range(63, 127))
_SIX = [format(i, "06b") for i in range(64)]
_B64_TO_G6 = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", _G6_BYTES
)
# Neither whitespace nor '#' is a graph6 byte, so cutting a line there
# shortens no body; a '#' glued to a body stays, and is refused as a bad byte.
_TRAILING_COMMENT = re.compile(r"\s+#")


def graph6_decode(s: str | bytes) -> Graph:
    """Decode one graph6 string (surrounding whitespace tolerated).

    The checks run in a fixed order: the order header, the body length, the
    first byte outside [63, 126], then the padding bits.  The body is read
    as one bit string; column v's v bits are the pairs (0, v) .. (v-1, v).
    """
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
    bad = body.translate(None, _G6_BYTES)
    if bad:
        raise MalformedInputError(f"graph6 byte {bad[0]} outside [63, 126]")
    bits = "".join([_SIX[b - 63] for b in body])
    if "1" in bits[m:]:
        raise MalformedInputError("nonzero padding bits in graph6 body")
    return Graph(n, rows_from_columns(n, bits))


def graph6_encode(g: Graph) -> str:
    """Encode a graph as a graph6 string.

    Column v is the lower v bits of ``rows[v]``, written lowest bit first;
    the bit string, padded with zeros to a multiple of 24 bits, is
    base64-encoded and mapped onto graph6's alphabet, and the groups past
    graph6's own padding are dropped.
    """
    n = g.n
    if n > _N_MAX:
        raise MalformedInputError("graph too large for graph6")
    if n <= 62:
        head = bytes([n + 63])
    else:
        head = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    rows = g.rows
    bits = "".join([format(rows[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n)])
    m = len(bits)
    pad = -m % 24
    # the leading "0" makes the empty string of K1 a number too
    raw = int("0" + bits + "0" * pad, 2).to_bytes((m + pad) // 8, "big")
    body = b2a_base64(raw, newline=False).translate(_B64_TO_G6)[: (m + 5) // 6]
    return (head + body).decode("ascii")


def read_graph6_lines(text: str) -> list[tuple[int, Graph]]:
    """Decode one graph per nonblank line, keeping 1-based line numbers;
    '#' lines are comments, a '#' after whitespace starts a trailing one,
    and the optional '>>graph6<<' header is skipped."""
    out = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line.startswith(">>graph6<<"):
            line = line[len(">>graph6<<"):].strip()
        line = _TRAILING_COMMENT.split(line, 1)[0]
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
    symmetric, zero on the diagonal, and positive off it.  Rows are checked
    one by one for length and diagonal; symmetry is one comparison with the
    transpose, and the colors are the column slices ``rows[v][:v]``.  Only
    a matrix that fails is walked pair by pair, to name its first bad entry.
    """
    return _coloring([row for _, row in _int_rows(text)], r)


def _int_rows(text: str):
    """(line number, row of integers) for each line but blank and '#' ones,
    parsed as it is read; a bad entry is named at its own line."""
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            try:
                row = list(map(int, line.split()))
            except ValueError:
                raise MalformedInputError(f"line {lineno}: non-integer entry") from None
            yield lineno, row


def _coloring(rows: list[list[int]], r: int | None) -> MultiColoring:
    n = len(rows)
    if n < 1:
        raise MalformedInputError("empty color matrix")
    for i, row in enumerate(rows):
        if len(row) != n:
            raise MalformedInputError(f"row {i} has {len(row)} entries, expected {n}")
        if row[i] != 0:
            raise MalformedInputError(f"diagonal entry ({i},{i}) must be 0")
    colors = [c for v in range(1, n) for c in rows[v][:v]]
    if rows != [list(col) for col in zip(*rows)] or (colors and min(colors) < 1):
        for i in range(n):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise MalformedInputError(f"matrix not symmetric at ({i},{j})")
                if rows[i][j] < 1:
                    raise MalformedInputError(f"edge color at ({i},{j}) must be positive")
    top = max(colors, default=1)
    if r is None:
        r = top
    elif top > r:
        raise MalformedInputError(f"color {top} exceeds declared color count {r}")
    return MultiColoring(n, r, colors)


def read_color_matrices(text: str, r: int) -> list[tuple[int, MultiColoring]]:
    """Parse consecutive color matrices, keeping the 1-based line number of
    each one's first row; a matrix's order is the length of its first row.
    Blank and '#' lines are skipped, inside a matrix too.  Rows are read
    one matrix at a time, so the first error in the file is the one named."""
    out = []
    rows = _int_rows(text)
    for lineno, first in rows:
        group = [first] + [row for _, row in islice(rows, len(first) - 1)]
        try:
            if len(group) < len(first):
                raise MalformedInputError(f"{len(group)} rows, expected {len(first)}")
            out.append((lineno, _coloring(group, r)))
        except MalformedInputError as e:
            raise MalformedInputError(f"line {lineno}: {e}") from None
    return out


def emit_color_matrix(mc: MultiColoring) -> str:
    """Inverse of parse_color_matrix (single spaces, no comments).

    Row v is column v's slice of ``mc.colors`` (the pairs (u, v), u < v),
    its 0, and the v-th entries of the later columns, read off their
    transpose."""
    n = mc.n
    text = list(map(str, mc.colors))
    cols = [text[v * (v - 1) // 2:v * (v + 1) // 2] for v in range(n)]
    later = list(zip_longest(*cols)) + [()]  # later[u][v] is cols[v][u] for v > u
    return "\n".join(" ".join([*cols[v], "0", *later[v][v + 1:]]) for v in range(n)) + "\n"
