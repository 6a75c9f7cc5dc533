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
    read_graph6_lines,
)
from ramseykit.graphs import Graph, MultiColoring, pair_iter


def random_graph(rng, n, p=0.5):
    g = Graph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def test_known_encodings():
    assert graph6_encode(Graph(1)) == "@"
    assert graph6_encode(Graph.complete(2)) == "A_"
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
    ],
)
def test_malformed_graph6_rejected(bad):
    with pytest.raises(MalformedInputError):
        graph6_decode(bad)


def test_nonzero_padding_rejected():
    # K2's body is the 6-bit group 0b100000 ('_'); set the lowest padding bit
    assert graph6_decode("A_") == Graph.complete(2)
    bad = "A" + chr(0b100001 + 63)
    with pytest.raises(MalformedInputError):
        graph6_decode(bad)


def test_read_graph6_lines_with_comments():
    text = "# header\nDqK\n\nA_\n"
    out = read_graph6_lines(text)
    assert [lineno for lineno, _ in out] == [2, 4]
    assert out[1][1] == Graph.complete(2)
    with pytest.raises(MalformedInputError, match="line 3"):
        read_graph6_lines("A_\n\n@@@\n")


def test_read_graph6_lines_skips_format_header():
    # header glued to the first graph, and on a line of its own
    out = read_graph6_lines(">>graph6<<C~\nA_\n")
    assert [lineno for lineno, _ in out] == [1, 2]
    assert out[0][1] == Graph.complete(4)
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
        assert parse_color_matrix("\n".join(padded), r=mc.r) == mc
