import os
import subprocess
import sys

import pytest

import ramseykit

from ramseykit.canon import are_isomorphic, canonical_key
from ramseykit.errors import (
    BudgetExceededError,
    CapabilityError,
    InputError,
    ParseError,
    VerificationError,
)
from ramseykit.fixtures import fixture_by_id
from ramseykit.graphs import Graph
from ramseykit.polycirculant import (
    KNOWN_FILTERS,
    PolycirculantSpec,
    build,
    enumerate_census,
    lemma_witness,
    pair_classes,
    rotation_perm,
)
from ramseykit.problems import parse_problem
from ramseykit.verify import verify

K33 = parse_problem("K3,K3")
B2B8 = parse_problem("B2,B8")


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
                g = build(PolycirculantSpec(2, m, (S1, S2), (S12,)))
                if verify(g, problem).valid:
                    keys.add(canonical_key(g))
    return len(keys)


class TestSpec:
    def test_roundtrip(self):
        spec = PolycirculantSpec(
            2, 5, (frozenset({1, 4}), frozenset({2, 3})), (frozenset({0}),)
        )
        assert spec.serialize() == "k=2;m=5;S11=1,4;S22=2,3;S12=0"
        assert PolycirculantSpec.parse(spec.serialize()) == spec
        assert spec.n == 10

    def test_empty_sets_serialize(self):
        spec = PolycirculantSpec(2, 3, (frozenset(), frozenset()), (frozenset(),))
        assert PolycirculantSpec.parse(spec.serialize()) == spec

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "k=2;m=5",
            "k=2;m=5;S11=;S22=;S12=;S13=",
            "k=2;m=5;S11=;S11=;S12=",
            "k=x;m=5;S11=;S22=;S12=",
            "k=2;m=5;S11=a;S22=;S12=",
            "garbage",
        ],
    )
    def test_malformed_text_rejected(self, text):
        with pytest.raises(ParseError):
            PolycirculantSpec.parse(text)

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

    def test_parsed_symmetry_violation_is_input_error(self):
        with pytest.raises(InputError):
            PolycirculantSpec.parse("k=1;m=5;S11=1")


class TestBuild:
    def test_petersen(self):
        spec = PolycirculantSpec.parse("k=2;m=5;S11=1,4;S22=2,3;S12=0")
        g = build(spec)
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
        for text in (
            "k=2;m=5;S11=1,4;S22=2,3;S12=0",
            "k=3;m=4;S11=2;S22=1,3;S33=;S12=0,1;S13=2;S23=1,3",
            "k=1;m=9;S11=1,2,7,8",
        ):
            g = build(PolycirculantSpec.parse(text))
            spec = PolycirculantSpec.parse(text)
            rho = rotation_perm(spec.k, spec.m)
            assert g.relabel(rho).rows == g.rows

    def test_known_circulant_matches_fixture_color_classes(self):
        # each color class of the 19-vertex 3-coloring is the same circulant
        mc = fixture_by_id("GR3K5T2-19").load()
        ref = build(PolycirculantSpec(1, 19, (frozenset({1, 7, 8, 11, 12, 18}),)))
        for c in (1, 2, 3):
            assert are_isomorphic(mc.color_class(c), ref)


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

    def test_filter_selects_subset(self):
        full = enumerate_census(2, 5, B2B8)
        filt = enumerate_census(2, 5, B2B8, filters=("complement-blocks",))
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
        with pytest.raises(InputError):
            enumerate_census(2, 5, K33, filters=("no-such-filter",))
        with pytest.raises(InputError):
            enumerate_census(1, 5, K33, filters=KNOWN_FILTERS)

    def test_census_lines_parse_back(self):
        res = enumerate_census(2, 5, B2B8)
        for line in res.lines()[:-1]:
            g6, _, tail = line.partition("  # ")
            spec = PolycirculantSpec.parse(tail)
            from ramseykit.formats import graph6_decode

            assert graph6_decode(g6).rows == build(spec).rows


class TestLemmaWitness:
    def test_small_orders_verified_and_symmetric(self):
        for n in (2, 3, 5, 6):
            g = lemma_witness(n)
            problem = parse_problem(f"B{n - 1},B{n}")
            assert g.n == 4 * n - 2
            assert verify(g, problem).valid
            rho = rotation_perm(2, 2 * n - 1)
            assert g.relabel(rho).rows == g.rows

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
