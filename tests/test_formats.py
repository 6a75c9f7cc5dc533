import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ramseykit.errors import MalformedInputError
from ramseykit.fixtures import load_fixtures
from ramseykit.formats import (
    emit_color_matrix,
    graph6_decode,
    graph6_encode,
    parse_color_matrix,
    read_color_matrices,
    read_graph6_lines,
)
from ramseykit.graphs import Graph, MultiColoring, pair_iter

from oracles import (
    emit_color_matrix_naive,
    graph6_decode_naive,
    graph6_encode_naive,
    parse_color_matrix_naive,
    random_graph,
)


def test_known_encodings():
    assert graph6_encode(Graph(1)) == "@"
    assert graph6_encode(Graph(2).complement()) == "A_"
    assert graph6_encode(Graph(2)) == "A?"
    # a 5-cycle: bits of 'q' and 'K' in column-major pair order
    assert graph6_decode("DqK") == Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)])


def test_roundtrip_small_orders_exhaustive():
    for n in range(1, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph(n)
            bit = 0
            for v in range(n):
                for u in range(v):
                    if mask >> bit & 1:
                        g.add_edge(u, v)
                    bit += 1
            assert graph6_decode(graph6_encode(g)) == g


def test_roundtrip_random_10k():
    rng = random.Random(101)
    for _ in range(10_000):
        n = rng.randint(1, 30)
        g = random_graph(rng, n, rng.random())
        assert graph6_decode(graph6_encode(g)) == g


def test_roundtrip_long_form_orders():
    """Orders 63..258047 use the three-byte header."""
    rng = random.Random(7)
    for n in (63, 64, 100):
        g = random_graph(rng, n, 0.1)
        enc = graph6_encode(g)
        assert enc[0] == "~"
        assert graph6_decode(enc) == g


def test_fixture_strings_roundtrip_byte_for_byte():
    for rec in load_fixtures():
        if rec.kind != "graph6":
            continue
        g = graph6_decode(rec.payload)
        assert graph6_encode(g) == rec.payload
        assert g.n == rec.order


@pytest.mark.parametrize(
    "bad",
    [
        "",                # empty
        " ",               # whitespace only
        "D",               # truncated body (n=5 needs 2 body bytes)
        "DqKK",            # trailing garbage
        "Dq+",             # byte 0x2b below the printable offset
        "Dq\x7f",          # byte above 126
        "~",               # long header with nothing after it
        "~??",             # long header truncated
        "@@",              # n=1 expects no body bytes
        "A\u00e9",        # non-ASCII text, once read as '?' (byte 63)
    ],
)
def test_malformed_graph6_rejected(bad):
    with pytest.raises(MalformedInputError):
        graph6_decode(bad)


def test_nonzero_padding_rejected():
    # K2's body is the 6-bit group 0b100000 ('_'); set the lowest padding bit
    assert graph6_decode("A_") == Graph(2).complement()
    bad = "A" + chr(0b100001 + 63)
    with pytest.raises(MalformedInputError):
        graph6_decode(bad)


def test_read_graph6_lines_with_comments():
    text = "# header\nDqK\n\nA_\n"
    out = read_graph6_lines(text)
    assert [lineno for lineno, _ in out] == [2, 4]
    assert out[1][1] == Graph(2).complement()
    with pytest.raises(MalformedInputError, match="line 3"):
        read_graph6_lines("A_\n\n@@@\n")


def test_read_graph6_lines_skips_format_header():
    # header glued to the first graph, and on a line of its own
    out = read_graph6_lines(">>graph6<<C~\nA_\n")
    assert [lineno for lineno, _ in out] == [1, 2]
    assert out[0][1] == Graph(4).complement()
    out = read_graph6_lines(">>graph6<<\nC~\n")
    assert [(lineno, g.n) for lineno, g in out] == [(2, 4)]


def test_color_matrix_roundtrip():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(2, 12)
        r = rng.randint(2, 6)
        mc = MultiColoring(n, r)
        for u in range(n):
            for v in range(u + 1, n):
                mc.set_color(u, v, rng.randint(1, r))
        back = parse_color_matrix(emit_color_matrix(mc), r=r)
        assert back == mc


def test_color_matrix_r_defaults_to_max():
    mc = parse_color_matrix("0 2\n2 0")
    assert mc.r == 2
    assert mc.get(0, 1) == 2


@pytest.mark.parametrize(
    "bad",
    [
        "0 1\n1 0 0",          # ragged
        "0 1\n2 0",            # asymmetric
        "1 1\n1 0",            # nonzero diagonal
        "0 0\n0 0",            # zero off-diagonal
        "0 x\nx 0",            # not a number
    ],
)
def test_malformed_matrix_rejected(bad):
    with pytest.raises(MalformedInputError):
        parse_color_matrix(bad)


def test_matrix_color_exceeding_r_rejected():
    with pytest.raises(MalformedInputError):
        parse_color_matrix("0 3\n3 0", r=2)


def test_read_color_matrices_splits_by_first_row():
    text = "# two matrices\n0\n\n0 1 2\n1 0 1\n# inside one\n2 1 0\n"
    out = read_color_matrices(text, r=3)
    assert [lineno for lineno, _ in out] == [2, 4]
    assert out[0][1] == MultiColoring(1, 3)
    assert out[1][1] == MultiColoring(3, 3, [1, 2, 1])
    # r comes from the caller, not from the colors present
    assert read_color_matrices("0 1\n1 0\n", r=3)[0][1].r == 3
    with pytest.raises(MalformedInputError, match="line 3: 2 rows, expected 3"):
        read_color_matrices("0 1\n1 0\n0 1 2\n1 0 1\n", r=2)
    with pytest.raises(MalformedInputError, match="line 2: row 1 has 3 entries"):
        read_color_matrices("0\n0 1\n1 0 1\n", r=2)
    # a bad entry is named once, at its own line of the file, and before
    # the end of the file shows its matrix short
    with pytest.raises(MalformedInputError, match=r"^line 6: non-integer entry$"):
        read_color_matrices("0 1 2\n1 0 1\n2 1 0\n\n0 1 2\n1 0 x\n2 1 0\n", r=3)
    with pytest.raises(MalformedInputError, match=r"^line 2: non-integer entry$"):
        read_color_matrices("0 1 2\n1 0 x\n", r=3)


_PROPERTY = settings(derandomize=True, database=None, max_examples=200, deadline=None)


@hs.composite
def _graphs(draw):
    n = draw(hs.integers(1, 70))  # 63 and up take the long header
    bits = draw(hs.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    return Graph.from_edges(n, [pair for i, pair in enumerate(pair_iter(n)) if bits >> i & 1])


_G6_BYTES = [chr(b) for b in range(63, 127)]


@hs.composite
def _graph6_like(draw):
    # a valid order header and a body of about the right length, so that
    # length and padding checks are what decides
    n = draw(hs.integers(1, 14))
    size = max(0, (n * (n - 1) // 2 + 5) // 6 + draw(hs.integers(-1, 1)))
    return chr(n + 63) + draw(hs.text(alphabet=_G6_BYTES, min_size=size, max_size=size))


@hs.composite
def _graph6_damaged(draw):
    # a graph6-like string, or a real encoding, with one to three bytes
    # replaced by bytes outside [63, 126] (or outside ASCII), so that the
    # first bad byte and the checks before it decide the error
    text = draw(hs.one_of(_graph6_like(), _graphs().map(graph6_encode_naive)))
    chars = list(text)
    for _ in range(draw(hs.integers(1, 3))):
        at = draw(hs.integers(0, len(chars) - 1))
        chars[at] = draw(hs.sampled_from([" ", "#", "+", "0", ">", "\x7f", "\u00e9"]))
    return "".join(chars)


@hs.composite
def _colorings(draw):
    n = draw(hs.integers(1, 12))
    r = draw(hs.integers(2, 6))
    colors = draw(hs.lists(hs.integers(1, r), min_size=n * (n - 1) // 2,
                           max_size=n * (n - 1) // 2))
    return MultiColoring(n, r, colors)


class TestCodecProperties:
    @_PROPERTY
    @given(_graphs())
    def test_graph6_roundtrip(self, g):
        enc = graph6_encode(g)
        assert graph6_decode(enc) == g
        assert read_graph6_lines(f"# comment\n\n{enc}\n") == [(3, g)]

    @_PROPERTY
    @given(hs.one_of(hs.text(alphabet=_G6_BYTES, max_size=40), _graph6_like()))
    def test_graph6_decoding_is_strict(self, text):
        # a string either fails to decode or is the one encoding of its graph
        try:
            g = graph6_decode(text)
        except MalformedInputError:
            return
        assert graph6_encode(g) == text

    @_PROPERTY
    @given(_colorings(), hs.data())
    def test_color_matrix_roundtrip(self, mc, data):
        text = emit_color_matrix(mc)
        assert parse_color_matrix(text, r=mc.r) == mc
        # comment lines, blank lines and extra blanks do not change the parse
        padded = []
        for row in text.splitlines():
            if data.draw(hs.booleans()):
                padded.append(data.draw(hs.sampled_from(["", "   ", "# note 1 2"])))
            padded.append("  " + row.replace(" ", data.draw(hs.sampled_from([" ", "\t", "  "]))))
        padded_text = "\n".join(padded)
        assert parse_color_matrix(padded_text, r=mc.r) == mc
        # and two copies in a row read back as two matrices
        twice = read_color_matrices(padded_text + "\n" + padded_text, r=mc.r)
        assert [obj for _, obj in twice] == [mc, mc]


def _outcome(fn, *args):
    """What a codec call gives: its object, or the message it refuses with."""
    try:
        return fn(*args)
    except MalformedInputError as e:
        return f"MalformedInputError: {e}"


_DAMAGE = ("ragged", "asymmetric", "zero", "diagonal", "above r")


@hs.composite
def _malformed_matrices(draw):
    # a valid matrix with one to three kinds of damage, so that which check
    # fails first, and at which entry, is what is compared
    mc = draw(_colorings())
    n, r = mc.n, mc.r
    grid = [row.split() for row in emit_color_matrix_naive(mc).splitlines()]
    for kind in draw(hs.lists(hs.sampled_from(_DAMAGE), min_size=1, max_size=3)):
        i, j = draw(hs.integers(0, n - 1)), draw(hs.integers(0, n - 1))
        if kind == "ragged":
            if draw(hs.booleans()) and grid[i]:
                grid[i].pop(draw(hs.integers(0, len(grid[i]) - 1)))
            else:
                grid[i].append(str(draw(hs.integers(0, r))))
        elif kind == "diagonal":
            if i < len(grid[i]):
                grid[i][i] = str(draw(hs.integers(1, r)))
        elif i != j and j < len(grid[i]) and i < len(grid[j]):
            if kind == "asymmetric":
                grid[i][j] = str(draw(hs.integers(0, r)))
            else:
                value = 0 if kind == "zero" else draw(hs.integers(r + 1, 8))
                grid[i][j] = grid[j][i] = str(value)
    text = "\n".join(" ".join(row) for row in grid)
    return text, draw(hs.sampled_from([None, r]))


class TestCodecOracle:
    """The column-slice codecs against the per-pair references in oracles."""

    @_PROPERTY
    @given(_graphs())
    def test_graph6_encoding_matches_oracle(self, g):
        enc = graph6_encode(g)
        assert enc == graph6_encode_naive(g)
        assert graph6_decode(enc) == graph6_decode_naive(enc) == g

    @_PROPERTY
    @given(hs.one_of(hs.text(alphabet=_G6_BYTES, max_size=40), _graph6_like(),
                     _graph6_damaged()))
    def test_graph6_decoding_matches_oracle(self, text):
        assert _outcome(graph6_decode, text) == _outcome(graph6_decode_naive, text)

    @_PROPERTY
    @given(_colorings())
    def test_color_matrix_text_matches_oracle(self, mc):
        text = emit_color_matrix(mc)
        assert text == emit_color_matrix_naive(mc)
        assert parse_color_matrix(text) == parse_color_matrix_naive(text)

    @_PROPERTY
    @given(_malformed_matrices())
    def test_malformed_matrix_matches_oracle(self, case):
        text, r = case
        assert _outcome(parse_color_matrix, text, r) == _outcome(
            parse_color_matrix_naive, text, r)
