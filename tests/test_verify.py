import ast
import hashlib
import importlib.util
import random
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import ramseykit
from ramseykit.counting import count_shape
from ramseykit.errors import InputError
from ramseykit.fixtures import load_fixtures
from ramseykit.graphs import Graph, MultiColoring, pair_iter
from ramseykit.problems import Book, Clique, TwoColorProblem, Wheel, parse_problem
from ramseykit.verify import (
    Verdict,
    Violation,
    find_book,
    find_clique,
    find_shape,
    find_wheel,
    has_shape_at,
    has_shape_through,
    verify,
    verify_witness,
    violation_holds,
)

from oracles import (
    all_graphs,
    cycle_graph,
    delete_vertex,
    has_shape_at_naive,
    has_wheel_through_naive,
    random_graph,
)

FIXTURES = {rec.id: rec for rec in load_fixtures()}


SHAPES = [Book(1), Book(2), Book(3), Wheel(4), Wheel(5), Clique(3), Clique(4)]
PROPERTY_SHAPES = SHAPES + [Wheel(6)]


@hs.composite
def _graphs_with_vertex(draw):
    n = draw(hs.integers(2, 10))
    pairs = list(pair_iter(n))
    keep = draw(hs.lists(hs.booleans(), min_size=len(pairs), max_size=len(pairs)))
    g = Graph.from_edges(n, [pair for pair, kept in zip(pairs, keep) if kept])
    return g, draw(hs.integers(0, n - 1))


class TestFinders:
    def test_find_book_embedding_is_real(self):
        rng = random.Random(20)
        for _ in range(80):
            g = random_graph(rng, rng.randint(3, 10))
            hit = find_book(g, 2)
            if hit is None:
                assert count_shape(g, Book(2)) == 0
                continue
            (u, v), pages = hit
            assert g.has_edge(u, v)
            assert len(pages) == 2
            for p in pages:
                assert g.has_edge(u, p) and g.has_edge(v, p)

    def test_find_wheel_embedding_is_real(self):
        rng = random.Random(21)
        for _ in range(80):
            g = random_graph(rng, rng.randint(5, 10), 0.6)
            hit = find_wheel(g, 5)
            if hit is None:
                assert count_shape(g, Wheel(5)) == 0
                continue
            hub, rim = hit
            assert len(set(rim)) == 4 and hub not in rim
            for x in rim:
                assert g.has_edge(hub, x)
            for i in range(4):
                assert g.has_edge(rim[i], rim[(i + 1) % 4])

    def test_find_clique_embedding_is_real(self):
        rng = random.Random(22)
        for _ in range(80):
            g = random_graph(rng, rng.randint(3, 10))
            hit = find_clique(g, 4)
            if hit is None:
                assert count_shape(g, Clique(4)) == 0
                continue
            assert all(g.has_edge(a, b) for a, b in combinations(hit, 2))

    def test_find_shape_agrees_with_counts_exhaustively(self):
        for n in range(1, 6):
            for g in all_graphs(n):
                for shape in SHAPES:
                    assert (find_shape(g, shape) is None) == (
                        count_shape(g, shape) == 0
                    )


class TestThroughVertex:
    def test_deleting_the_vertex_is_the_oracle(self):
        # a shape passes through x iff deleting x lowers the count
        rng = random.Random(23)
        for _ in range(120):
            g = random_graph(rng, rng.randint(5, 9), rng.uniform(0.3, 0.8))
            shape = SHAPES[rng.randrange(len(SHAPES))]
            x = rng.randrange(g.n)
            drop = count_shape(g, shape) - count_shape(delete_vertex(g, x), shape)
            assert has_shape_through(g, x, shape) == (drop > 0)

    def test_union_over_vertices_matches_existence(self):
        rng = random.Random(24)
        for _ in range(60):
            g = random_graph(rng, rng.randint(4, 9))
            for shape in (Book(2), Wheel(5), Clique(4)):
                anywhere = find_shape(g, shape) is not None
                assert any(
                    has_shape_through(g, x, shape) for x in range(g.n)
                ) == anywhere

    def test_unknown_shape_rejected(self):
        with pytest.raises(InputError):
            has_shape_through(Graph(4).complement(), 0, "K4")

    def test_wheel_through_matches_rim_permutations(self):
        # seeded G(n, p) from sparse to dense, so the hubs that the degree
        # rejects skip and the ones they let through both occur
        rng = random.Random(28)
        for _ in range(200):
            n = rng.randint(4, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.9))
            k = rng.randint(4, 7)
            for x in range(n):
                assert has_shape_through(g, x, Wheel(k)) == has_wheel_through_naive(g, x, k)

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_graphs_with_vertex(), hs.sampled_from(PROPERTY_SHAPES))
    def test_through_vertex_iff_deleting_it_lowers_the_count(self, case, shape):
        g, x = case
        drop = count_shape(g, shape) > count_shape(delete_vertex(g, x), shape)
        assert has_shape_through(g, x, shape) == drop


class TestRootedAt:
    def test_root_role_matches_brute_force(self):
        # seeded G(n, p) from sparse to dense, for every vertex of each
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(4, 9)
            g = random_graph(rng, n, rng.uniform(0.2, 0.9))
            for shape in PROPERTY_SHAPES:
                for x in range(n):
                    assert has_shape_at(g, x, shape) == has_shape_at_naive(g, x, shape), (
                        g.rows, shape, x,
                    )

    def test_a_page_or_rim_vertex_is_not_a_root(self):
        # K4 minus the edge 2-3: the book B2 has spine 0-1 and pages 2, 3
        g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        assert [has_shape_at(g, x, Book(2)) for x in range(4)] == [True, True, False, False]
        assert all(has_shape_through(g, x, Book(2)) for x in range(4))
        # the wheel W5: hub 0 over the rim 1-2-3-4
        w = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (2, 3), (3, 4), (4, 1)])
        assert [has_shape_at(w, x, Wheel(5)) for x in range(5)] == [True] + [False] * 4

    def test_unknown_shape_rejected(self):
        with pytest.raises(InputError):
            has_shape_at(Graph(4).complement(), 0, "K4")


CERT_PROBLEMS = ("W5,W7", "W4,W6", "B2,B3", "K4,K3", "W5,K4", "B1,W5")


def certificate_lines():
    """For seeded random graphs, the verdict's certificate and every
    through-vertex answer on both sides, one line per graph."""
    rng = random.Random(2024)
    for text in CERT_PROBLEMS:
        p = parse_problem(text)
        for n in range(4, 14):
            for _ in range(25):
                g = random_graph(rng, n, rng.uniform(0.2, 0.8))
                comp = g.complement()
                through = "".join(
                    f"{has_shape_through(g, x, p.left):d}{has_shape_through(comp, x, p.right):d}"
                    for x in range(n)
                )
                yield f"{text} {n} {verify(g, p).violation} {through}"


def test_certificates_match_pinned_digest():
    # digest of 1,500 graphs' lines, recorded before the verifier's cycle and
    # clique searches were merged; a change here changes emitted certificates
    text = "\n".join(certificate_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "b21bacec97b8cb3c11778a0bab9b0001255157fe662815f942c504e41c3d4498"
    )


def _mutated(obj, rng: random.Random, flips: int):
    """obj with `flips` random pairs toggled (a graph) or recolored (a coloring)."""
    out = obj.copy()
    for _ in range(flips):
        u, v = rng.sample(range(obj.n), 2)
        if isinstance(out, Graph):
            out.toggle_edge(u, v)
        else:
            out.set_color(u, v, rng.choice([c for c in range(1, out.r + 1) if c != out.get(u, v)]))
    return out


def finder_lines():
    """The verdict on seeded relabeled and mutated copies of every fixture,
    then the book, wheel and clique finders' answers on seeded random
    graphs, one line per call."""
    rng = random.Random(3131)
    for fid, rec in FIXTURES.items():
        obj = rec.load()
        for flips in (0, 1, 2, 5):
            perm = list(range(obj.n))
            rng.shuffle(perm)
            item = _mutated(obj.relabel(perm), rng, flips)
            yield f"{fid} {flips} {verify_witness(item, rec.problem).violation}"
    for n in range(6, 17):
        for p in (0.3, 0.5, 0.7) * 4:
            g = random_graph(rng, n, p)
            for k in (1, 2, 3):
                yield f"{n} {p} B{k} {find_book(g, k)}"
            for k in (4, 5, 6, 7):
                yield f"{n} {p} W{k} {find_wheel(g, k)}"
            for s in (3, 4, 5):
                yield f"{n} {p} K{s} {find_clique(g, s)}"


def test_finders_match_pinned_digest():
    # digest recorded before the codecs, Graph.edges, union_graph and the
    # finders' last search steps were rewritten by whole rows; a change here
    # changes which embedding a certificate names
    text = "\n".join(finder_lines())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7caef222d7c993d8a0e337b07a7b94d617c474a874cb6dfbea296ec4f0c9b295"
    )


def _imported_modules(path: Path) -> set[str]:
    """Absolute names of the modules a source file imports, and of the names
    it imports from them; a relative import is read as one inside the
    package."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["ramseykit" if node.level else "", node.module]))
            out.add(base)
            out.update(f"{base}.{alias.name}" for alias in node.names)
    return out


def test_verifier_and_oracles_import_nothing_from_counting():
    # the counters, the verifier and the oracles check each other only
    # while they share no code; the oracles are test code, not package code
    src = Path(ramseykit.__file__).parent
    assert "ramseykit.counting" in _imported_modules(src / "tabu.py")
    assert importlib.util.find_spec("ramseykit.oracles") is None
    for path in (src / "verify.py", Path(__file__).with_name("oracles.py")):
        imported = _imported_modules(path)
        assert not any(
            mod == "ramseykit.counting" or mod.startswith("ramseykit.counting.")
            for mod in imported
        ), path.name


def test_package_namespace_names_its_modules():
    # no function in the package namespace shadows the submodule of its name
    import types

    import ramseykit.verify as verify_module

    assert isinstance(verify_module, types.ModuleType)
    assert verify_module.verify_witness is ramseykit.verify_witness


class TestTwoColorVerify:
    def test_complement_duality(self):
        rng = random.Random(25)
        problems = [
            TwoColorProblem(Book(2), Book(3)),
            TwoColorProblem(Clique(3), Clique(3)),
            TwoColorProblem(Wheel(5), Wheel(5)),
            TwoColorProblem(Book(2), Clique(4)),
        ]
        for _ in range(100):
            g = random_graph(rng, rng.randint(1, 9))
            p = problems[rng.randrange(len(problems))]
            q = TwoColorProblem(p.right, p.left)
            assert verify(g, p).valid == verify(g.complement(), q).valid

    def test_k6_fails_k3_k3(self):
        p = parse_problem("K3,K3")
        v = verify(Graph(6).complement(), p)
        assert not v.valid and v.violation.side == "graph"
        v = verify(Graph(6), p)
        assert not v.valid and v.violation.side == "complement"
        assert verify(cycle_graph(5), p).valid

    def test_fixture_witnesses_pass(self):
        for fid in ("RB2B8-20", "RW5W7-14", "RB3B6-18"):
            rec = FIXTURES[fid]
            assert verify(rec.load(), rec.problem).valid

    def test_invalid_verdicts_carry_checkable_certificates(self):
        rng = random.Random(26)
        problems = [
            TwoColorProblem(Book(2), Book(2)),
            TwoColorProblem(Wheel(5), Clique(3)),
            TwoColorProblem(Clique(3), Clique(4)),
        ]
        checked = 0
        for _ in range(150):
            g = random_graph(rng, rng.randint(4, 9))
            p = problems[rng.randrange(len(problems))]
            v = verify(g, p)
            if not v.valid:
                assert violation_holds(g, p, v.violation)
                checked += 1
        assert checked > 50

    def test_tampered_certificate_rejected(self):
        p = parse_problem("K3,K3")
        v = verify(Graph(6).complement(), p)
        bad = v.violation
        bad.roles["clique"] = (0, 1, 5) if bad.roles["clique"] != (0, 1, 5) else (0, 2, 5)
        g = Graph(6).complement()
        g.toggle_edge(*bad.roles["clique"][:2])
        assert not violation_holds(g, p, bad)

    def test_certificates_that_name_the_wrong_shape_are_rejected(self):
        # the side's shape decides the roles: K10 has every shape, so each
        # certificate below is a real embedding, of the other side's shape
        g = Graph(10).complement()
        p = TwoColorProblem(Book(2), Clique(3))
        assert violation_holds(g, p, Violation("", {"spine": (0, 1), "pages": (2, 3)}, "graph"))
        assert not violation_holds(g, p, Violation("", {"clique": (0, 1, 2)}, "graph"))
        empty = Graph(10)
        assert violation_holds(empty, p, Violation("", {"clique": (0, 1, 2)}, "complement"))
        assert not violation_holds(empty, p, Violation("", {"clique": (0, 1, 2)}, "graph"))

    def test_verdict_is_truthy(self):
        assert bool(Verdict(True)) and not bool(Verdict(False))


class TestGrVerify:
    def test_valid_fixture(self):
        rec = FIXTURES["GR3K4T2-9"]
        assert verify_witness(rec.load(), rec.problem).valid

    def test_monochromatic_violation(self):
        p = parse_problem("GR:3,K4,2")
        mc = MultiColoring(5, 3)
        v = verify_witness(mc, p)
        assert not v.valid
        assert len(v.violation.roles["clique"]) == 4
        assert set(v.violation.colors) == {1}
        assert violation_holds(mc, p, v.violation)

    def test_r_mismatch_rejected(self):
        with pytest.raises(InputError):
            verify_witness(MultiColoring(5, 4), parse_problem("GR:3,K4,2"))

    def test_score_zero_iff_valid(self):
        from ramseykit.counting import gr_score

        rng = random.Random(27)
        p = parse_problem("GR:3,K4,2")
        for _ in range(100):
            mc = MultiColoring(rng.randint(4, 8), 3)
            for u in range(mc.n):
                for v in range(u + 1, mc.n):
                    mc.set_color(u, v, rng.randint(1, 3))
            assert verify_witness(mc, p).valid == (gr_score(mc, 4, 2) == 0)

    def test_tampered_gr_certificate_rejected(self):
        p = parse_problem("GR:3,K4,2")
        mc = MultiColoring(5, 3)
        v = verify_witness(mc, p)
        mc.set_color(0, 1, 2)
        mc.set_color(0, 2, 3)
        assert not violation_holds(mc, p, v.violation)


K10 = Graph(10).complement()
MONO5 = MultiColoring(5, 3)   # every pair colour 1

# (id, problem, object, genuine certificate, the same with one defect): the
# genuine one must be accepted and the forged one rejected
FORGED = [
    ("book-one-page", "B8,B8", K10,
     Violation("", {"spine": (0, 1), "pages": tuple(range(2, 10))}, "graph"),
     Violation("", {"spine": (0, 1), "pages": (2,)}, "graph")),
    ("book-page-twice", "B8,B8", K10,
     Violation("", {"spine": (0, 1), "pages": tuple(range(2, 10))}, "graph"),
     Violation("", {"spine": (0, 1), "pages": (2, 2, 3, 4, 5, 6, 7, 8)}, "graph")),
    ("clique-k3-for-k4", "K4,K4", K10,
     Violation("", {"clique": (0, 1, 2, 3)}, "graph"),
     Violation("", {"clique": (0, 1, 2)}, "graph")),
    ("wheel-rim-of-3-for-w5", "W5,W5", K10,
     Violation("", {"hub": (0,), "rim": (1, 2, 3, 4)}, "graph"),
     Violation("", {"hub": (0,), "rim": (1, 2, 3)}, "graph")),
    ("gr-clique-of-2", "GR:3,K4,2", MONO5,
     Violation("", {"clique": (0, 1, 2, 3)}, colors=(1,)),
     Violation("", {"clique": (0, 1)}, colors=(1,))),
    ("book-spine-end-as-page", "B2,B2", K10,
     Violation("", {"spine": (0, 1), "pages": (2, 3)}, "graph"),
     Violation("", {"spine": (0, 1), "pages": (1, 3)}, "graph")),
    ("book-three-spine-ends", "B2,B2", K10,
     Violation("", {"spine": (0, 1), "pages": (2, 3)}, "graph"),
     Violation("", {"spine": (0, 1, 4), "pages": (2, 3)}, "graph")),
    ("book-missing-pages", "B2,B2", K10,
     Violation("", {"spine": (0, 1), "pages": (2, 3)}, "graph"),
     Violation("", {"spine": (0, 1)}, "graph")),
    ("wheel-hub-on-rim", "W5,W5", K10,
     Violation("", {"hub": (0,), "rim": (1, 2, 3, 4)}, "graph"),
     Violation("", {"hub": (1,), "rim": (1, 2, 3, 4)}, "graph")),
    ("wheel-two-hubs", "W5,W5", K10,
     Violation("", {"hub": (0,), "rim": (1, 2, 3, 4)}, "graph"),
     Violation("", {"hub": (0, 5), "rim": (1, 2, 3, 4)}, "graph")),
    ("clique-vertex-twice", "K4,K4", K10,
     Violation("", {"clique": (0, 1, 2, 3)}, "graph"),
     Violation("", {"clique": (0, 1, 2, 2)}, "graph")),
    ("clique-vertex-out-of-range", "K4,K4", K10,
     Violation("", {"clique": (0, 1, 2, 3)}, "graph"),
     Violation("", {"clique": (0, 1, 2, -1)}, "graph")),
    ("clique-extra-role", "K4,K4", K10,
     Violation("", {"clique": (0, 1, 2, 3)}, "graph"),
     Violation("", {"clique": (0, 1, 2, 3), "hub": (4,)}, "graph")),
    ("side-unknown", "K4,K4", K10,
     Violation("", {"clique": (0, 1, 2, 3)}, "graph"),
     Violation("", {"clique": (0, 1, 2, 3)}, "both")),
    ("side-missing", "K4,K4", Graph(10),
     Violation("", {"clique": (0, 1, 2, 3)}, "complement"),
     Violation("", {"clique": (0, 1, 2, 3)})),
    ("gr-colors-not-used", "GR:3,K4,2", MONO5,
     Violation("", {"clique": (0, 1, 2, 3)}, colors=(1,)),
     Violation("", {"clique": (0, 1, 2, 3)}, colors=(1, 2))),
    ("gr-color-outside-palette", "GR:3,K4,2", MONO5,
     Violation("", {"clique": (0, 1, 2, 3)}, colors=(1,)),
     Violation("", {"clique": (0, 1, 2, 3)}, colors=(1, 9))),
    ("gr-vertex-twice", "GR:3,K4,2", MONO5,
     Violation("", {"clique": (0, 1, 2, 3)}, colors=(1,)),
     Violation("", {"clique": (0, 1, 2, 2)}, colors=(1,))),
    ("gr-wrong-role", "GR:3,K4,2", MONO5,
     Violation("", {"clique": (0, 1, 2, 3)}, colors=(1,)),
     Violation("", {"hub": (0,), "rim": (1, 2, 3)}, colors=(1,))),
]


@pytest.mark.parametrize(
    "text, obj, genuine, forged", [case[1:] for case in FORGED], ids=[case[0] for case in FORGED]
)
def test_forged_certificates_are_rejected(text, obj, genuine, forged):
    problem = parse_problem(text)
    assert violation_holds(obj, problem, genuine)
    assert not violation_holds(obj, problem, forged)


class TestDispatch:
    def test_two_color_accepts_r2_coloring(self):
        rec = FIXTURES["RB2B8-20"]
        g = rec.load()
        mc = MultiColoring(g.n, 2)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                mc.set_color(u, v, 1 if g.has_edge(u, v) else 2)
        assert verify_witness(mc, rec.problem).valid
        assert verify_witness(g, rec.problem).valid

    def test_two_color_rejects_r3_coloring(self):
        with pytest.raises(InputError):
            verify_witness(MultiColoring(4, 3), parse_problem("B2,B3"))

    def test_gr_rejects_plain_graph(self):
        with pytest.raises(InputError):
            verify_witness(Graph(4).complement(), parse_problem("GR:3,K4,2"))

    @pytest.mark.parametrize(
        "text, obj, viol",
        [
            ("GR:3,K4,2", Graph(5).complement(),
             Violation("", {"clique": (0, 1, 2, 3)}, colors=(1,))),
            ("GR:3,K4,2", MultiColoring(5, 4),
             Violation("", {"clique": (0, 1, 2, 3)}, colors=(1,))),
            ("K3,K3", MultiColoring(6, 3), Violation("", {"clique": (0, 1, 2)}, "graph")),
        ],
        ids=["gr-plain-graph", "gr-r4-coloring", "two-color-r3-coloring"],
    )
    def test_certificate_check_takes_the_objects_verify_takes(self, text, obj, viol):
        # each certificate would be a real embedding if the object were read
        # as some other problem's; the check refuses the object as verify does
        problem = parse_problem(text)
        with pytest.raises(InputError) as refused:
            verify_witness(obj, problem)
        with pytest.raises(InputError) as also:
            violation_holds(obj, problem, viol)
        assert str(also.value) == str(refused.value)

    def test_violation_str_mentions_roles(self):
        v = verify(Graph(6).complement(), parse_problem("K3,K3")).violation
        assert "clique=" in str(v)
        v = verify_witness(MultiColoring(5, 3), parse_problem("GR:3,K4,2")).violation
        assert "colors={1}" in str(v)
