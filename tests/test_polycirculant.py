import hashlib
import itertools
import math
import os
import random
import signal
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
from ramseykit.graphs import LEFT, VALID, Graph, mask_state
from ramseykit.polycirculant import (
    PolycirculantSpec,
    build,
    enumerate_census,
    lemma_witness,
)
from ramseykit.problems import Book, Clique, Wheel, parse_problem
from ramseykit.verify import find_shape, verify

from oracles import (
    census_stripe_naive,
    cycle_graph,
    least_dihedral_image,
    least_row_image,
    polycirculant_naive,
)

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
        assert all(g.rows[v].bit_count() == 3 for v in range(10))
        petersen = Graph.from_edges(
            10,
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)],
        )
        assert are_isomorphic(g, petersen)

    def test_complete_graph_as_circulant(self):
        spec = PolycirculantSpec(1, 7, (frozenset(range(1, 7)),))
        assert build(spec).rows == Graph(7).complement().rows

    def test_cycle_as_circulant(self):
        spec = PolycirculantSpec(1, 6, (frozenset({1, 5}),))
        assert are_isomorphic(build(spec), cycle_graph(6))

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
        assert g.edge_count() == 15 and all(g.rows[v].bit_count() == 3 for v in range(10))
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


def census_run(k, m, problem, **kwargs):
    """The census's output lines and stage counts, also when a budget cuts it."""
    try:
        res = enumerate_census(k, m, problem, **kwargs)
    except BudgetExceededError as exc:
        res = exc.partial
    return res.lines(), res.stages


def census_lines(k, m, text, kwargs):
    return census_run(k, m, parse_problem(text), **kwargs)[0]


@pytest.mark.parametrize(
    "k, m, text, kwargs, digest",
    [case[1:] for case in CENSUS_DIGESTS],
    ids=[case[0] for case in CENSUS_DIGESTS],
)
def test_census_output_matches_pinned_digest(k, m, text, kwargs, digest):
    lines = census_lines(k, m, text, kwargs)
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == digest


# the lines digest (as above) and the stage counts, in ``_STAGES`` order, of
# each census as the scan gave them when it probed every pair of diagonal
# sets and keyed every spec it kept: one probe and one key per multiplier
# class must reproduce both
CENSUS_STAGES = [
    (1, 7, "K3,K4", {}, (8, 3, 0, 0, 3),
     "b065af576cdb417bfc4b4857bbfb1e4cc536fb4d0ef6ccfdf0578cecaa2e3347"),
    (1, 13, "K4,K4", {}, (64, 8, 0, 0, 8),
     "92278052017546e9f070c5ae7aedd7e8792dbf3a1111399fb736723f23baaedb"),
    (1, 16, "B3,B6", {}, (256, 4, 0, 0, 4),
     "36b7be49cb3730a669276121024b64a1046e7daa41b0b3cff2341e1b7c86990f"),
    (2, 5, "B2,B8", {}, (16, 12, 288, 165, 165),
     "6615ac0672da1b4cd4dd033b2d9181ab08c5b77cf3717b22865d8dae80c657c7"),
    (2, 5, "B2,B8", {'complement_blocks': True}, (16, 12, 288, 165, 165),
     "15831ad28a014ed3bf0195f2bcc09dc749cf643789e6665fcb2abd83a8c8bd07"),
    (2, 5, "B2,B8", {'budget': 100}, (8, 7, 147, 101, 100),
     "8a6646ca9db7b11dd306cea77c5eabddd8336d80ec4bac8247606f851f5f3e75"),
    (2, 6, "W5,K4", {}, (48, 30, 1600, 415, 415),
     "eada15e3c8031da24dd3f47ad90e6933b08696baf5eb7880f3be19dfd0594277"),
    (2, 7, "B3,B7", {}, (64, 56, 6272, 1072, 1072),
     "1440526ad1a10ec6b40fad8831b37506415f097a6bec2d0bd3145dee05d7f564"),
    (2, 7, "B3,B7", {'complement_blocks': True, 'workers': 2}, (64, 56, 6272, 1072, 1072),
     "7c28e477e9ddd794742469a417c5c9cc3a71325a935dc96c9feb94dd75fd4015"),
    (2, 7, "W5,K5", {}, (56, 42, 4608, 1101, 1101),
     "6bfabc57cef2089c60f12d3f2dee39672d43463d2b531524001a0146c5fa31e5"),
    (2, 8, "B2,B8", {}, (144, 72, 16384, 675, 675),
     "904a87061c67221bb8f5d4d635d4cbbe4c02dc7ff9bd0c0729367c80e8e75679"),
    (2, 8, "B2,B8", {'complement_blocks': True, 'budget': 300}, (72, 39, 8611, 301, 300),
     "84e6fb4c8aaf715bbcdc8876efa40c00d873a3c9873270788b6127f97f50220e"),
    (2, 9, "B2,B9", {}, (144, 72, 32768, 829, 829),
     "9e3d890c7b266111b8d1f0006f9b6e4cda0f87aac754f936c31fa0ec5ecf96a7"),
    (2, 10, "B2,B9", {}, (480, 210, 200704, 189, 189),
     "5239af710938eb3bd94770e2391a32bfcecd953e1abfafca8e3ba06a4d60d63e"),
    (3, 3, "B2,B6", {}, (14, 14, 2048, 1400, 1152),
     "abec9a998ead2baee530c89a0ae0f87c8972341e203bb302c2fa7a03d7eb03b5"),
    (3, 4, "W5,K4", {}, (52, 39, 40752, 23765, 21245),
     "50d91c83f58ed9446b04bf27e4e5cbb20d1db316f132f0922b4fb5e1bcc75f7e"),
    (3, 4, "B2,B7", {'budget': 5000, 'workers': 2}, (14, 13, 13678, 10853, 10000),
     "ec4a16f3b69613ae4d3e901a8b3fc6ba50ce613acd9b8a01eb55fdbc8052abaa"),
    (3, 5, "W5,K4", {}, (28, 14, 83136, 45340, 42750),
     "a57019487118b6a529d3af02690ab9e384834e31853609b35a06a01a636f1c14"),
    (3, 6, "B2,B9", {'budget': 20000}, (3, 3, 20650, 20325, 20000),
     "08c3e7d94f10b05be14e8220446b3472323ae0a65696a391ca285a37693c3b17"),
    (3, 7, "B2,B9", {'budget': 3000}, (3, 3, 3954, 3033, 3000),
     "b151408201fc5e5aa2765b069a45158f28d05dc8b130182476b74e9e62743c97"),
]


@pytest.mark.parametrize(
    "k, m, text, kwargs, stages, digest",
    CENSUS_STAGES,
    ids=["-".join([f"k{c[0]}", f"m{c[1]}", c[2], *(f"{kw}={v}" for kw, v in c[3].items())])
         for c in CENSUS_STAGES],
)
def test_census_lines_and_stages_match_per_pair_probes(k, m, text, kwargs, stages, digest):
    import ramseykit.polycirculant as poly

    lines, got = census_run(k, m, parse_problem(text), **kwargs)
    assert hashlib.sha256(("\n".join(lines) + "\n").encode()).hexdigest() == digest
    assert tuple(got[name] for name in poly._STAGES) == stages


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
        assert are_isomorphic(res.graphs[0], cycle_graph(5))
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

    def test_no_blocks_and_nan_budget_are_input_errors(self):
        # a lower bound is an input error, as PolycirculantSpec says; only
        # k > 3 is a capability limit
        with pytest.raises(InputError, match="census needs at least one block"):
            enumerate_census(0, 5, K33)
        with pytest.raises(InputError, match="census budget must be at least 0, not nan"):
            enumerate_census(1, 5, K33, budget=math.nan)

    def test_census_lines_parse_back(self):
        # each line is its graph's graph6 and the spec that builds it
        res = enumerate_census(2, 5, B2B8)
        lines = res.lines()[:-1]
        assert len(lines) == len(res.specs) == len(res.graphs) == 14
        for line, spec, g in zip(lines, res.specs, res.graphs):
            assert build(spec).rows == g.rows
            assert line == graph6_encode(g) + "  # " + spec.serialize()


class TestAgainstStripeOracle:
    """The census matches a stripe that runs ``mask_state`` on every mask of
    every block-pair slot and probes every 3-block leaf."""

    @staticmethod
    def oracle_run(monkeypatch, k, m, problem, **kwargs):
        import ramseykit.polycirculant as poly

        with monkeypatch.context() as patch:
            patch.setattr(poly, "_scan_stripe", census_stripe_naive)
            return census_run(k, m, problem, **kwargs)

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("text", ["K3,K5", "B1,B5", "W5,K4"])
    def test_complete_runs_match(self, text, k, monkeypatch):
        problem = parse_problem(text)
        for m in (3, 4, 5):
            want = self.oracle_run(monkeypatch, k, m, problem)
            for workers in (None, 2):
                assert census_run(k, m, problem, workers=workers) == want, (m, workers)

    def test_every_budget_matches(self, monkeypatch):
        import ramseykit.polycirculant as poly

        problem = parse_problem("K3,K5")
        _, _, found = census_stripe_naive(
            3, 3, problem, False, list(enumerate(poly._diag_options(3))), None
        )
        rows = [tuple(sum(1 << d for d in S) for S in spec.off[:2]) for _, _, spec, _ in found]
        # most valid leaves lie in rows that are not their own least image,
        # which the census counts but does not probe
        assert sum(not poly._is_least_row(3, *row) for row in rows) == 40
        examined = enumerate_census(3, 3, problem).examined
        for budget in range(examined + 1):
            want = self.oracle_run(monkeypatch, 3, 3, problem, budget=budget)
            assert census_run(3, 3, problem, budget=budget) == want, budget

    def test_row_images_relabel_the_graph(self):
        # rotating block b by t_b and reflecting every block maps S_ab to
        # s*S_ab + t_b - t_a and fixes every symmetric diagonal set, so a
        # row's image has, leaf for leaf, the same graphs up to relabeling
        rng = random.Random("row images")
        for m in range(3, 9):
            for _ in range(20):
                spec = random_spec(rng, 3, m)
                s, t = rng.choice((1, -1)), (0, rng.randrange(m), rng.randrange(m))
                off = tuple(
                    frozenset((s * d + t[b] - t[a]) % m for d in S)
                    for (a, b), S in zip([(0, 1), (0, 2), (1, 2)], spec.off)
                )
                image = PolycirculantSpec(3, m, spec.diag, off)
                perm = [b * m + (s * i + t[b]) % m for b in range(3) for i in range(m)]
                assert build(spec).relabel(perm).rows == build(image).rows, spec.serialize()

    def test_least_rows_match_explicit_orbits(self):
        import ramseykit.polycirculant as poly

        # from m = 6 on, some masks are not rotations of their reflections
        for m in range(2, 7):
            for S12, S13 in itertools.product(range(1 << m), repeat=2):
                row = [frozenset(d for d in range(m) if S >> d & 1) for S in (S12, S13)]
                want = least_row_image(*row, m) == (S12, S13)
                assert poly._is_least_row(m, S12, S13) == want, (m, S12, S13)

    @pytest.mark.parametrize("text", ["K3,K5", "B2,B6", "W5,K4"])
    def test_valid_masks_are_the_probed_ones_in_either_block_order(self, text):
        import ramseykit.polycirculant as poly

        problem = parse_problem(text)
        for m in (3, 4, 5, 6):
            for diag in itertools.product(poly._diag_options(m), repeat=2):
                probed = [
                    S for S in range(1 << m) if poly._probe(2, m, diag, (S,), problem) is not None
                ]
                assert list(poly._valid_masks(m, diag, problem)) == probed, (m, diag)
                # swapping the blocks maps each mask S to -S, and so does
                # reflecting both: one list serves both orders
                negated = sorted(poly._rotations(S, m, 0, True)[0] for S in probed)
                assert negated == probed, (m, diag)


def count_realized(monkeypatch) -> list:
    """Patch the polycirculant realizer to log each graph it makes."""
    import ramseykit.polycirculant as poly

    realized = []
    real = poly._realize

    def logged(k, m, diag, off):
        realized.append((k, m))
        return real(k, m, diag, off)

    monkeypatch.setattr(poly, "_realize", logged)
    return realized


class TestPairTable:
    """A pair table's verdicts, inferred from one-bit subsets or least
    images, or probed, are the verdicts of a full probe, in whatever order
    the masks are visited."""

    @pytest.mark.parametrize("text", ["B2,B4", "W5,K4", "K3,W5", "B1,W6", "K4,B3", "W4,W5"])
    def test_verdicts_match_full_probe(self, text, monkeypatch):
        import ramseykit.polycirculant as poly

        problem = parse_problem(text)
        rng = random.Random(f"pair-table {text}")
        realized = count_realized(monkeypatch)
        inferred = by_image = 0
        for m in (4, 5, 6):
            least = poly._least_images(m)
            for diag in itertools.product(poly._diag_options(m), repeat=2):
                masks = list(range(1 << m))
                want = {S: poly._probe(2, m, diag, (S,), problem) is not None for S in masks}
                shuffled = rng.sample(masks, len(masks))
                for order in (masks, shuffled):
                    table, left, right, _ = poly._slot_table(2, m, diag, (), problem)
                    got = {}
                    for S in order:
                        before = len(realized)
                        got[S] = mask_state(table, least, S, left, right) == VALID
                        if len(realized) > before:
                            continue
                        inferred += 1
                        # in ascending order every one-bit subset is decided,
                        # so with no left shape among them only an image settled S
                        subsets = (table[S & ~(1 << d)] for d in range(m) if S >> d & 1)
                        if order is masks and not any(state & LEFT for state in subsets):
                            by_image += 1
                    assert got == want, (m, diag, order is shuffled)
        # some verdicts were settled from subsets or images, with no graph
        # realized, and some of the ascending ones by an image alone
        assert inferred > by_image > 0

    def test_census_realizes_fewer_pairs_than_it_checks(self, monkeypatch):
        realized = count_realized(monkeypatch)
        stages = enumerate_census(2, 5, B2B8).stages
        assert stages["pairs_tried"] == 288 and stages["leaves"] == 165
        # a leaf is realized once unless its off-diagonal set is the image
        # of a smaller one (128 of the 165 are); the rest are single and pair
        # probes, which the subset and image rules keep below the 288 pair
        # checks.  A swapped block pair reuses its pair's passing masks, and
        # a pair that a multiplier maps onto a smaller one maps that one's
        # list back, both with no probe at all
        assert len(realized) == 65
        assert len(realized) - (stages["leaves"] - 128) < stages["pairs_tried"]

    def test_orbits_partition_the_masks_by_least_image(self):
        import ramseykit.polycirculant as poly

        for m in range(2, 11):
            least = poly._least_images(m)
            orbits = poly._orbits(m)
            assert sorted(S for orbit in orbits for S in orbit) == list(range(1 << m))
            assert [orbit[0] for orbit in orbits] == sorted(set(least))
            for orbit in orbits:
                assert orbit == sorted(orbit)
                assert all(least[S] == orbit[0] for S in orbit), (m, orbit)

    def test_least_images_match_explicit_orbits(self):
        import ramseykit.polycirculant as poly

        for m in range(2, 11):
            least = poly._least_images(m)
            assert len(least) == 1 << m
            for S in range(1 << m):
                diffs = frozenset(d for d in range(m) if S >> d & 1)
                assert least[S] == least_dihedral_image(diffs, m), (m, S)

    def test_image_tables_are_built_on_first_use_only(self):
        script = """
import ramseykit.polycirculant as poly
from ramseykit.problems import parse_problem
assert poly._least_images.cache_info().currsize == 0, "built at import"
poly.enumerate_census(2, 5, parse_problem("B2,B8"))
built = poly._least_images.cache_info()
poly._least_images(5)
assert built.currsize == 1, built
assert poly._least_images.cache_info().misses == built.misses, "m = 5 was not built"
print("ok")
"""
        # the child imports the same ramseykit as this process
        src = os.path.dirname(os.path.dirname(ramseykit.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=env
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "ok"


def times(a, S, m):
    """The mask of {a*d mod m : d in S}."""
    return sum(1 << (a * d % m) for d in range(m) if S >> d & 1)


class TestMultipliers:
    """Multiplying every block by a unit of Z_m maps a polycirculant graph
    onto another: the census probes one pair of diagonal sets and keys one
    spec per class of that map."""

    def test_tables_multiply_by_units_and_their_inverses(self):
        import ramseykit.polycirculant as poly

        rng = random.Random("multiplier tables")
        for m in range(2, 17):
            units = [a for a in range(1, m // 2 + 1) if math.gcd(a, m) == 1]
            assert poly._units(m) == units
            tables = poly._multipliers(m)
            assert len(tables) == len(units)
            masks = [1 << d for d in range(m)] + [rng.randrange(1 << m) for _ in range(100)]
            for a, (mul, back) in zip(units, tables):
                assert mul.itemsize == 2 and len(mul) == 1 << m
                # a unit permutes the masks
                assert sorted(mul) == list(range(1 << m)), (m, a)
                for S in masks:
                    assert mul[S] == times(a, S, m), (m, a, S)
                    # back undoes a, up to the sign that every list ignores
                    assert back[mul[S]] in (S, times(-1, S, m)), (m, a, S)

    @pytest.mark.parametrize("text", ["B2,B6", "W5,K4", "K3,K5"])
    def test_pass_lists_match_valid_masks(self, text, monkeypatch):
        import ramseykit.polycirculant as poly

        problem = parse_problem(text)
        rng = random.Random(f"pass lists {text}")
        mapped = 0
        for m in range(3, 9):
            probed = []
            real = poly._valid_masks

            def logged(m, diag, problem):
                probed.append(diag)
                return real(m, diag, problem)

            pairs = list(itertools.product(poly._diag_options(m), repeat=2))
            with monkeypatch.context() as patch:
                patch.setattr(poly, "_valid_masks", logged)
                pass_list = poly._pair_lists(m, problem)
                got = {diag: list(pass_list(*diag)) for diag in rng.sample(pairs, len(pairs))}
            for diag in pairs:
                assert got[diag] == real(m, diag, problem), (m, diag)
            # one probe per class under all the units, never twice for one pair
            units = [a for a in range(1, m) if math.gcd(a, m) == 1]
            classes = {
                min(tuple(sorted(times(a, S, m) for S in diag)) for a in units) for diag in pairs
            }
            assert len(probed) == len(set(probed)) == len(classes)
            mapped += len(pairs) - len(probed)
        assert mapped > 0

    def test_multiplied_and_swapped_specs_are_relabelings(self):
        import ramseykit.polycirculant as poly

        rng = random.Random("multiplied specs")
        for m in range(3, 12):
            for _ in range(10):
                spec = random_spec(rng, 2, m)
                diag = [poly._mask(S) for S in spec.diag]
                (S12,) = [poly._mask(S) for S in spec.off]
                a = rng.choice([a for a in range(1, m) if math.gcd(a, m) == 1])
                image = poly._realize(2, m, [times(a, S, m) for S in diag], [times(a, S12, m)])
                perm = [b * m + a * i % m for b in range(2) for i in range(m)]
                assert build(spec).relabel(perm).rows == image.rows, (spec.serialize(), a)
                swapped = poly._realize(2, m, diag[::-1], [times(-1, S12, m)])
                perm = [(1 - b) * m + i for b in range(2) for i in range(m)]
                assert build(spec).relabel(perm).rows == swapped.rows, spec.serialize()
                form = poly._form(m, diag, [S12])
                assert poly._form(m, [times(a, S, m) for S in diag], [times(a, S12, m)]) == form
                assert poly._form(m, diag[::-1], [times(-1, S12, m)]) == form

    @pytest.mark.parametrize("k, m", [(1, 7), (1, 9), (2, 4), (2, 5), (2, 6)])
    def test_specs_with_one_form_are_isomorphic(self, k, m):
        import ramseykit.polycirculant as poly

        rng = random.Random(f"forms {k} {m}")
        options = poly._diag_options(m)
        specs = [(diag, ()) for diag in itertools.product(options, repeat=k)] if k == 1 else [
            ((rng.choice(options), rng.choice(options)), (rng.randrange(1 << m),))
            for _ in range(300)
        ]
        keys: dict[tuple, set] = {}
        for diag, off in specs:
            g = poly._realize(k, m, diag, off)
            keys.setdefault(poly._form(m, diag, off), set()).add(canonical_key(g))
        assert all(len(group) == 1 for group in keys.values())
        # the forms do merge specs
        assert len(keys) < len(set(specs))

    # (k, m, problem, options, graphs kept, keys made): before multiplier
    # forms the census keyed every spec it kept, 8, 37, 14, 138, 59, 81 and 19
    @pytest.mark.parametrize("k, m, text, kwargs, count, keys", [
        (1, 13, "K4,K4", {}, 2, 2),
        (2, 5, "B2,B8", {}, 14, 15),
        (2, 5, "B2,B8", {"complement_blocks": True}, 5, 6),
        (2, 7, "B3,B7", {}, 31, 31),
        (2, 6, "W5,K4", {}, 32, 37),
        (2, 8, "B2,B8", {}, 23, 29),
        (2, 10, "B2,B9", {}, 7, 10),
    ])
    def test_census_keys_one_spec_per_form(self, k, m, text, kwargs, count, keys, monkeypatch):
        import ramseykit.polycirculant as poly

        made = []
        real = poly.canonical_key

        def logged(g, known=()):
            made.append(g)
            return real(g, known)

        monkeypatch.setattr(poly, "canonical_key", logged)
        res = enumerate_census(k, m, parse_problem(text), **kwargs)
        assert (res.count, len(made)) == (count, keys)

    @pytest.mark.parametrize("k, m, text", [
        (1, 7, "K3,K4"), (1, 13, "K4,K4"), (2, 5, "B2,B8"), (2, 7, "B3,B7"), (2, 10, "B2,B9"),
        (3, 3, "B2,B6"), (3, 4, "W5,K4"),
    ])
    def test_seeded_census_keys_are_plain_keys(self, k, m, text, monkeypatch):
        import ramseykit.polycirculant as poly

        rho = poly._rotation(k, m)
        assert list(rho) == rotation(k, m)
        seeded = []
        real = poly.canonical_key

        def logged(g, known=()):
            assert known == [rho]
            seeded.append((g, real(g, known)))
            return seeded[-1][1]

        monkeypatch.setattr(poly, "canonical_key", logged)
        res = enumerate_census(k, m, parse_problem(text))
        assert res.count > 0
        kept = {id(g) for g in res.graphs}
        assert kept <= {id(g) for g, _ in seeded}
        for g, key in seeded:
            assert key == real(g), g


class TestRowTable:
    """A least 3-block row's table decides its S23 leaves by the subset rule:
    with S12 and S13 fixed, adding S23 bits only adds edges."""

    def test_row_leaves_settle_from_subsets(self, monkeypatch):
        import ramseykit.polycirculant as poly

        problem = parse_problem("W5,K4")
        m = 4
        realized = count_realized(monkeypatch)
        rows: dict[int, tuple] = {}
        real_slot_table, real_mask_state = poly._slot_table, poly.mask_state

        def slot_table(k, m, diag, fixed, problem):
            made = real_slot_table(k, m, diag, fixed, problem)
            if k == 3:
                # the table stays alive here, so its id names one row
                rows[id(made[0])] = made[0], diag, fixed
            return made

        settled = probed = 0

        def state(table, least, S, left, right):
            nonlocal settled, probed
            if id(table) not in rows:
                return real_mask_state(table, least, S, left, right)
            below = 0
            for d in range(m):
                if S >> d & 1:
                    below |= table[S & ~(1 << d)]
            before = len(realized)
            got = real_mask_state(table, least, S, left, right)
            if len(realized) == before:
                # nothing realized: a one-bit subset already held a left shape
                settled += 1
                assert got == LEFT and below & LEFT, S
            else:
                probed += 1
            _, diag, fixed = rows[id(table)]
            want = poly._probe(3, m, diag, fixed + (S,), problem) is not None
            assert (got == VALID) == want, (diag, fixed, S)
            return got

        monkeypatch.setattr(poly, "_slot_table", slot_table)
        monkeypatch.setattr(poly, "mask_state", state)
        res = enumerate_census(3, m, problem)
        assert res.complete
        assert settled > 0 and probed > 0, (settled, probed)


class TestRootedAtReps:
    """A polycirculant graph holds a shape iff some copy of it is rooted at a
    block representative, because the block rotation moves the
    representatives onto every vertex."""

    def test_reps_decide_existence_on_both_sides(self):
        import ramseykit.polycirculant as poly

        shapes = [Book(1), Book(2), Book(3), Wheel(4), Wheel(5), Wheel(6), Clique(3), Clique(4)]
        rng = random.Random("rooted at reps")
        for k in (1, 2, 3):
            for m in range(2, 8):
                for _ in range(6):
                    g = build(random_spec(rng, k, m, rng.uniform(0.2, 0.8)))
                    for side in (g, g.complement()):
                        for shape in shapes:
                            want = find_shape(side, shape) is not None
                            assert poly._through_reps(side, m, shape) == want, (k, m, shape)


class TestLemmaWitness:
    @pytest.fixture(autouse=True)
    def time_limit(self):
        # lemma_witness falls back on up to 8 x 400,000 tabu steps when its
        # constructions fail, so a broken pair-table rule would run for many
        # minutes; each test here takes seconds when the rule holds
        def expire(signum, frame):
            pytest.fail("lemma_witness ran past 120 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(120)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

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
