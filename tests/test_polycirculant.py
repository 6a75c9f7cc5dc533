import hashlib
import os
import random
import subprocess
import sys

import pytest

import ramseykit

from ramseykit.canon import are_isomorphic, canonical_key
from ramseykit.errors import (
    BudgetExceededError,
    CapabilityError,
    InputError,
    VerificationError,
)
from ramseykit.fixtures import load_fixtures
from ramseykit.formats import graph6_encode
from ramseykit.graphs import Graph
from ramseykit.polycirculant import (
    PolycirculantSpec,
    build,
    enumerate_census,
    lemma_witness,
)
from ramseykit.problems import parse_problem
from ramseykit.verify import verify

from oracles import polycirculant_naive

K33 = parse_problem("K3,K3")
B2B8 = parse_problem("B2,B8")
FIXTURES = {rec.id: rec for rec in load_fixtures()}


def pair_classes(m):
    """The symmetric difference classes {d, m-d} of Z_m, d = 1 .. m//2."""
    return [frozenset({d, m - d}) for d in range(1, m // 2 + 1)]


def rotation(k, m):
    """The block rotation rho: (a, i) -> (a, i+1 mod m)."""
    return [a * m + (i + 1) % m for a in range(k) for i in range(m)]


PETERSEN = PolycirculantSpec(2, 5, (frozenset({1, 4}), frozenset({2, 3})), (frozenset({0}),))


def all_diag_sets(m):
    classes = pair_classes(m)
    out = []
    for mask in range(1 << len(classes)):
        s = set()
        for i, cl in enumerate(classes):
            if mask >> i & 1:
                s |= cl
        out.append(frozenset(s))
    return out


def census_oracle_k2(m, problem):
    """Every (S11, S22, S12) combination, no pruning, dedup by iso class."""
    keys = set()
    for S1 in all_diag_sets(m):
        for S2 in all_diag_sets(m):
            for mask in range(1 << m):
                S12 = frozenset(d for d in range(m) if mask >> d & 1)
                g = polycirculant_naive(PolycirculantSpec(2, m, (S1, S2), (S12,)))
                if verify(g, problem).valid:
                    keys.add(canonical_key(g))
    return len(keys)


def random_spec(rng, k, m, p=0.5):
    """Keep each pair class and each difference with probability p (0: empty, 1: full)."""
    def pick(pool):
        return [x for x in pool if rng.random() < p]

    diag = tuple(frozenset().union(*pick(pair_classes(m))) for _ in range(k))
    off = tuple(frozenset(pick(range(m))) for _ in range(k * (k - 1) // 2))
    return PolycirculantSpec(k, m, diag, off)


class TestSpec:
    def test_roundtrip(self):
        assert PETERSEN.serialize() == "k=2;m=5;S11=1,4;S22=2,3;S12=0"
        assert PETERSEN.n == 10

    def test_empty_sets_serialize(self):
        spec = PolycirculantSpec(2, 3, (frozenset(), frozenset()), (frozenset(),))
        assert spec.serialize() == "k=2;m=3;S11=;S22=;S12="

    def test_constructor_validation(self):
        with pytest.raises(InputError):
            PolycirculantSpec(0, 5, ())
        with pytest.raises(InputError):
            PolycirculantSpec(1, 1, (frozenset(),))
        with pytest.raises(InputError):
            PolycirculantSpec(1, 5, (frozenset({1}),))  # 4 missing
        with pytest.raises(InputError):
            PolycirculantSpec(1, 5, (frozenset({5}),))  # out of range
        with pytest.raises(InputError):
            PolycirculantSpec(2, 5, (frozenset(), frozenset()))  # no S12
        with pytest.raises(InputError):
            PolycirculantSpec(2, 5, (frozenset(), frozenset()), (frozenset({5}),))


class TestBuild:
    def test_petersen(self):
        g = build(PETERSEN)
        assert g.n == 10
        assert all(g.degree(v) == 3 for v in range(10))
        petersen = Graph.from_edges(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
        )
        assert are_isomorphic(g, petersen)

    def test_complete_graph_as_circulant(self):
        spec = PolycirculantSpec(1, 7, (frozenset(range(1, 7)),))
        assert build(spec).rows == Graph.complete(7).rows

    def test_cycle_as_circulant(self):
        spec = PolycirculantSpec(1, 6, (frozenset({1, 5}),))
        assert are_isomorphic(build(spec), Graph.cycle(6))

    def test_rotation_is_always_an_automorphism(self):
        for spec in (
            PETERSEN,
            PolycirculantSpec(
                3, 4, (frozenset({2}), frozenset({1, 3}), frozenset()),
                (frozenset({0, 1}), frozenset({2}), frozenset({1, 3})),
            ),
            PolycirculantSpec(1, 9, (frozenset({1, 2, 7, 8}),)),
        ):
            g = build(spec)
            assert g.relabel(rotation(spec.k, spec.m)).rows == g.rows

    def test_known_circulant_matches_fixture_color_classes(self):
        # each color class of the 19-vertex 3-coloring is the same circulant
        mc = FIXTURES["GR3K5T2-19"].load()
        ref = build(PolycirculantSpec(1, 19, (frozenset({1, 7, 8, 11, 12, 18}),)))
        for c in (1, 2, 3):
            assert are_isomorphic(mc.color_class(c), ref)

    def test_matches_naive_oracle(self):
        rng = random.Random(20260)
        for k in (1, 2, 3):
            for m in range(2, 17):
                specs = [random_spec(rng, k, m, p=0), random_spec(rng, k, m, p=1)]
                specs += [random_spec(rng, k, m) for _ in range(4)]
                for spec in specs:
                    assert build(spec).rows == polycirculant_naive(spec).rows, spec.serialize()

    def test_oracle_on_petersen(self):
        g = polycirculant_naive(PETERSEN)
        assert g.edge_count() == 15 and all(g.degree(v) == 3 for v in range(10))
        assert g.has_edge(0, 1) and g.has_edge(5, 7) and g.has_edge(3, 8)


# sha256 of "\n".join(lines) + "\n", computed on the census code that built
# every graph edge by edge; a faster scan must reproduce each one exactly
CENSUS_DIGESTS = [
    ("k1-m5-K3,K3", 1, 5, "K3,K3", {},
     "eb10bc42e8207c0c6563f1835c78151c74d46fdc2e5c17fac316f4db257d61b7"),
    ("k1-m13-K4,K4", 1, 13, "K4,K4", {},
     "92278052017546e9f070c5ae7aedd7e8792dbf3a1111399fb736723f23baaedb"),
    ("k1-m13-K4,K4-workers3", 1, 13, "K4,K4", {'workers': 3},
     "92278052017546e9f070c5ae7aedd7e8792dbf3a1111399fb736723f23baaedb"),
    ("k1-m16-B3,B6", 1, 16, "B3,B6", {},
     "36b7be49cb3730a669276121024b64a1046e7daa41b0b3cff2341e1b7c86990f"),
    ("k2-m5-K3,K3-empty", 2, 5, "K3,K3", {},
     "a1fdb1a309ac73a6638a41f7449431c3a4c43617886465de82e411f5f3b769be"),
    ("k2-m5-B2,B8", 2, 5, "B2,B8", {},
     "6615ac0672da1b4cd4dd033b2d9181ab08c5b77cf3717b22865d8dae80c657c7"),
    ("k2-m5-B2,B8-workers2", 2, 5, "B2,B8", {'workers': 2},
     "6615ac0672da1b4cd4dd033b2d9181ab08c5b77cf3717b22865d8dae80c657c7"),
    ("k2-m5-B2,B8-complement", 2, 5, "B2,B8", {'complement_blocks': True},
     "15831ad28a014ed3bf0195f2bcc09dc749cf643789e6665fcb2abd83a8c8bd07"),
    ("k2-m5-B2,B8-budget20", 2, 5, "B2,B8", {'budget': 20},
     "3f9d7bed35b2404caa916d4a951184248363509a5a45d395671b6fa05a2d2d11"),
    ("k2-m6-B2,B9", 2, 6, "B2,B9", {},
     "2f4c2964d3514665e27a911d58129eb9092d8c4f363db4636ee3243ca33aa548"),
    ("k2-m7-B3,B7", 2, 7, "B3,B7", {},
     "1440526ad1a10ec6b40fad8831b37506415f097a6bec2d0bd3145dee05d7f564"),
    ("k2-m7-B3,B7-complement-workers2", 2, 7, "B3,B7",
     {'complement_blocks': True, 'workers': 2},
     "7c28e477e9ddd794742469a417c5c9cc3a71325a935dc96c9feb94dd75fd4015"),
    ("k3-m3-B2,B6", 3, 3, "B2,B6", {},
     "abec9a998ead2baee530c89a0ae0f87c8972341e203bb302c2fa7a03d7eb03b5"),
    ("k3-m3-B2,B6-workers3", 3, 3, "B2,B6", {'workers': 3},
     "abec9a998ead2baee530c89a0ae0f87c8972341e203bb302c2fa7a03d7eb03b5"),
    ("k3-m3-K3,K5", 3, 3, "K3,K5", {},
     "ce2b41d0b0b7db8629ffd004704d126f4542f18b4aefea83439bd9236beec76d"),
    ("k3-m4-K3,K5-workers2", 3, 4, "K3,K5", {'workers': 2},
     "d6a35eb97cbeedfc17b747ae02937fd450fcdd89e6fe75796392b73534c95e67"),
    ("k3-m5-B2,B8-budget300", 3, 5, "B2,B8", {'budget': 300},
     "f6b1eaf9a3b3498cd87e1efe93c8f50465f1015994de9c15479ca3c54816ebfb"),
    ("k3-m4-K3,K5-workers2-budget2000", 3, 4, "K3,K5", {'workers': 2, 'budget': 2000},
     "06e7f2a0a29f5a0dc199097c6d032fba9b9002874ae73090517467032491a747"),
]


def census_lines(k, m, text, kwargs):
    try:
        return enumerate_census(k, m, parse_problem(text), **kwargs).lines()
    except BudgetExceededError as exc:
        return exc.partial.lines()


@pytest.mark.parametrize(
    "k, m, text, kwargs, digest",
    [case[1:] for case in CENSUS_DIGESTS],
    ids=[case[0] for case in CENSUS_DIGESTS],
)
def test_census_output_matches_pinned_digest(k, m, text, kwargs, digest):
    lines = census_lines(k, m, text, kwargs)
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == digest


class TestCensus:
    def test_matches_no_pruning_oracle_m4(self):
        p = parse_problem("B2,B2")
        res = enumerate_census(2, 4, p)
        assert res.count == census_oracle_k2(4, p) == 1

    def test_matches_no_pruning_oracle_m5(self):
        res = enumerate_census(2, 5, B2B8)
        assert res.count == census_oracle_k2(5, B2B8) == 14

    def test_k1_census_finds_c5(self):
        res = enumerate_census(1, 5, K33)
        assert res.count == 1 and res.examined == 2
        assert are_isomorphic(res.graphs[0], Graph.cycle(5))
        assert res.complete

    def test_empty_census(self):
        # R(3,3) = 6 rules out any 10-vertex witness
        res = enumerate_census(2, 5, K33)
        assert res.count == 0
        assert res.lines()[-1].startswith("census k=2 m=5")

    def test_deterministic_and_worker_invariant(self):
        a = enumerate_census(2, 5, B2B8)
        b = enumerate_census(2, 5, B2B8)
        c = enumerate_census(2, 5, B2B8, workers=2)
        assert a.lines() == b.lines() == c.lines()
        assert a.examined == c.examined

    def test_workers_beyond_the_diagonal_sets_start_no_stripes(self, monkeypatch):
        # m = 3 has two diagonal sets, so at most two stripes have work
        import ramseykit.polycirculant as poly

        p = parse_problem("B1,B2")
        serial = enumerate_census(1, 3, p).lines()
        made = []

        def in_process(fn, jobs):
            made.append(len(jobs))
            return [fn(*args) for args in jobs]

        monkeypatch.setattr(poly, "map_jobs", in_process)
        assert enumerate_census(1, 3, p, workers=64).lines() == serial
        assert made == [2]

    def test_stage_counts_by_hand(self):
        # C5 and its complement pass among the 4 circulants on 5 vertices
        res = enumerate_census(1, 5, K33)
        assert res.stages == {
            "singles_tried": 4, "singles_passed": 2,
            "pairs_tried": 0, "pairs_passed": 0, "leaves": 2,
        }
        assert res.examined == 2

    @pytest.mark.parametrize("k, m, text", [(2, 5, "B2,B8"), (3, 3, "B2,B6"), (3, 4, "K3,K5")])
    def test_stage_counts_repeat_and_ignore_workers(self, k, m, text):
        p = parse_problem(text)
        a = enumerate_census(k, m, p)
        b = enumerate_census(k, m, p)
        c = enumerate_census(k, m, p, workers=2)
        assert a.stages == b.stages == c.stages
        counts = a.stages
        assert counts["leaves"] == a.examined
        assert 0 < counts["singles_passed"] <= counts["singles_tried"]
        assert 0 < counts["pairs_passed"] <= counts["pairs_tried"]

    def test_filter_selects_subset(self):
        full = enumerate_census(2, 5, B2B8)
        filt = enumerate_census(2, 5, B2B8, complement_blocks=True)
        full_keys = {canonical_key(g) for g in full.graphs}
        filt_keys = {canonical_key(g) for g in filt.graphs}
        assert filt_keys <= full_keys
        assert filt.examined <= full.examined

    def test_budget_raises_with_partial(self):
        with pytest.raises(BudgetExceededError) as ei:
            enumerate_census(2, 5, B2B8, budget=20)
        partial = ei.value.partial
        assert partial.complete is False
        assert partial.examined <= 21
        assert all(verify(g, B2B8).valid for g in partial.graphs)
        assert partial.lines()[-1].endswith("[truncated]")

    def test_validation(self):
        with pytest.raises(InputError):
            enumerate_census(2, 5, parse_problem("GR:3,K4,2"))
        with pytest.raises(CapabilityError):
            enumerate_census(4, 5, K33)
        with pytest.raises(InputError):
            enumerate_census(2, 1, K33)
        with pytest.raises(CapabilityError):
            enumerate_census(2, 17, K33)
        with pytest.raises(CapabilityError, match="capped at 32"):
            enumerate_census(3, 11, K33)  # 33 vertices, past the canonical-form cap
        with pytest.raises(InputError):
            enumerate_census(1, 5, K33, complement_blocks=True)

    def test_census_lines_parse_back(self):
        # each line is its graph's graph6 and the spec that builds it
        res = enumerate_census(2, 5, B2B8)
        lines = res.lines()[:-1]
        assert len(lines) == len(res.specs) == len(res.graphs) == 14
        for line, spec, g in zip(lines, res.specs, res.graphs):
            assert build(spec).rows == g.rows
            assert line == graph6_encode(g) + "  # " + spec.serialize()


class TestLemmaWitness:
    def test_small_orders_verified_and_symmetric(self):
        for n in (2, 3, 5, 6):
            g = lemma_witness(n)
            problem = parse_problem(f"B{n - 1},B{n}")
            assert g.n == 4 * n - 2
            assert verify(g, problem).valid
            assert g.relabel(rotation(2, 2 * n - 1)).rows == g.rows

    @pytest.mark.parametrize(
        "n, g6",
        [
            (2, "EDp_"),
            (3, "IheMBGuEo"),
            (5, "QzKW[NBamIKSkSUMTbak{IroTf_"),
            (6, "UzKWWKB_]@ojoiwSMDdokVBqmFamN`VNoTr{Am^_"),
        ],
    )
    def test_two_block_witnesses_pinned(self, n, g6):
        # graph6 strings from the construction that built each graph edge by edge
        assert graph6_encode(lemma_witness(n)) == g6

    @pytest.mark.slow
    def test_order_14_case_needs_search(self):
        # no 2-block construction exists here; the witness still must verify
        g = lemma_witness(4)
        assert g.n == 14
        assert verify(g, parse_problem("B3,B4")).valid

    def test_range_validation(self):
        with pytest.raises(InputError):
            lemma_witness(1)
        with pytest.raises(CapabilityError):
            lemma_witness(9)


class TestReverification:
    """A witness that fails its re-verification raises, also under python -O."""

    @staticmethod
    def reject(monkeypatch):
        import ramseykit.polycirculant as poly
        from ramseykit.verify import Verdict

        monkeypatch.setattr(poly, "verify", lambda g, problem: Verdict(False))

    def test_census_raises_on_invalid_witness(self, monkeypatch):
        self.reject(monkeypatch)
        with pytest.raises(VerificationError, match="census"):
            enumerate_census(2, 5, B2B8)

    def test_lemma_witness_raises_on_invalid_witness(self, monkeypatch):
        self.reject(monkeypatch)
        with pytest.raises(VerificationError, match="lemma"):
            lemma_witness(2)

    def test_checks_survive_optimized_mode(self):
        script = """
if __debug__:
    raise SystemExit("asserts are live: not running under -O")
import ramseykit.polycirculant as poly, ramseykit.tabu as tabu
from ramseykit.errors import VerificationError
from ramseykit.problems import parse_problem
from ramseykit.verify import Verdict
poly.verify = tabu.verify_witness = lambda obj, problem: Verdict(False)
for run in (lambda: poly.enumerate_census(2, 5, parse_problem("B2,B8")),
            lambda: tabu.run_search(parse_problem("K3,K3"), 5, seed=1)):
    try:
        run()
    except VerificationError:
        continue
    raise SystemExit("invalid witness accepted")
print("ok")
"""
        # the child imports the same ramseykit as this process
        src = os.path.dirname(os.path.dirname(ramseykit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"
