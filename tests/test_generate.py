import random

import pytest

from ramseykit.canon import canonical_key, coloring_canonical_key
from ramseykit.errors import BudgetExceededError, CapabilityError, InputError, VerificationError
from ramseykit.formats import read_graph6_lines
from ramseykit.generate import extend_one, generate_levels
from ramseykit.graphs import Graph, MultiColoring, all_graphs
from ramseykit.problems import parse_problem
from ramseykit.verify import verify_witness

K33 = parse_problem("K3,K3")
B2B8 = parse_problem("B2,B8")
GR443 = parse_problem("GR:4,K4,3")


def brute_force_level_counts(problem, n_max):
    """Filter every graph on n vertices, dedup by canonical key."""
    counts = []
    for n in range(1, n_max + 1):
        keys = set()
        for g in all_graphs(n):
            if verify_witness(g, problem).valid:
                keys.add(canonical_key(g))
        counts.append(len(keys))
    return counts


class TestAgainstBruteForce:
    def test_k3_k3_matches_full_filtration(self):
        got = generate_levels(K33, 5).counts
        assert got == brute_force_level_counts(K33, 5)

    def test_b2_b3_matches_full_filtration(self):
        p = parse_problem("B2,B3")
        got = generate_levels(p, 5).counts
        assert got == brute_force_level_counts(p, 5)

    def test_w5_w5_matches_full_filtration(self):
        p = parse_problem("W5,W5")
        got = generate_levels(p, 5).counts
        assert got == brute_force_level_counts(p, 5)


class TestKnownSequences:
    def test_k3_k3_sequence_terminates(self):
        # R(3,3) = 6: nothing survives at order 6
        got = generate_levels(K33, 7).counts
        assert got == [1, 2, 2, 3, 1, 0, 0]

    def test_gr_4_k4_3_sequence(self):
        got = generate_levels(GR443, 10).counts
        assert got == [1, 1, 3, 7, 11, 12, 1, 1, 1, 0]

    def test_b2_b8_prefix(self):
        got = generate_levels(B2B8, 7).counts
        assert got == [1, 2, 4, 9, 22, 69, 255]


class TestLevelContents:
    def test_levels_hold_verified_pairwise_nonisomorphic_witnesses(self):
        res = generate_levels(K33, 5, keep_levels=True)
        assert res.levels is not None
        for level in res.levels:
            assert level.count == len(level.objects)
            keys = [canonical_key(g) for g in level.objects]
            assert len(set(keys)) == len(keys)
            for g in level.objects:
                assert g.n == level.order
                assert verify_witness(g, K33).valid

    def test_multicolor_levels_verified(self):
        res = generate_levels(GR443, 6, keep_levels=True)
        for level in res.levels:
            keys = [coloring_canonical_key(mc, swap_colors=True) for mc in level.objects]
            assert len(set(keys)) == len(keys)
            for mc in level.objects:
                assert verify_witness(mc, GR443).valid

    def test_hereditary_soundness(self):
        # any witness minus a vertex is again a witness, so levels nest
        rng = random.Random(33)
        res = generate_levels(B2B8, 6, keep_levels=True)
        tops = res.levels[-1].objects
        for g in rng.sample(tops, min(10, len(tops))):
            x = rng.randrange(g.n)
            assert verify_witness(g.delete_vertex(x), B2B8).valid

    def test_counts_only_by_default(self):
        res = generate_levels(K33, 4)
        assert res.levels is None
        assert res.counts == [1, 2, 2, 3]

    def test_table_output(self):
        res = generate_levels(K33, 3)
        lines = res.table().splitlines()
        assert "K3,K3" in lines[0]
        assert lines[1].split() == ["1", "1"]
        assert lines[3].split() == ["3", "2"]


class TestExtendOne:
    def test_children_are_one_larger_and_valid(self):
        g = Graph.cycle(5)
        kids = extend_one(g, K33)
        assert kids == []  # C5 is the unique 5-vertex witness; R(3,3)=6
        kids = extend_one(Graph(2), K33)
        assert kids and all(k.n == 3 for k in kids)
        assert all(verify_witness(k, K33).valid for k in kids)

    def test_type_mismatch_rejected(self):
        with pytest.raises(InputError):
            extend_one(MultiColoring(3, 2), K33)
        with pytest.raises(InputError):
            extend_one(Graph(3), GR443)


class TestLimitsAndModes:
    def test_range_validation(self):
        with pytest.raises(InputError):
            generate_levels(K33, 0)
        with pytest.raises(CapabilityError):
            generate_levels(K33, 13)
        with pytest.raises(CapabilityError):
            generate_levels(parse_problem("GR:5,K4,2"), 6)

    def test_budget_carries_partial_counts(self):
        with pytest.raises(BudgetExceededError) as ei:
            generate_levels(B2B8, 7, child_budget=300)
        partial = ei.value.partial
        assert partial[: len(partial)] == [1, 2, 4, 9, 22, 69, 255][: len(partial)]

    def test_workers_match_serial(self):
        # same counts and the same frontier, object for object, in the same order
        for problem, n, key in ((GR443, 7, coloring_canonical_key), (B2B8, 6, canonical_key)):
            serial = generate_levels(problem, n, keep_levels=True)
            par = generate_levels(problem, n, keep_levels=True, workers=2)
            assert par.counts == serial.counts
            for a, b in zip(serial.levels, par.levels):
                assert [key(x) for x in b.objects] == [key(x) for x in a.objects]
                assert b.objects == a.objects

    def test_dumped_levels_are_reverified(self, tmp_path, monkeypatch):
        # with every child accepted, K3 turns up at order 3: the dump must
        # refuse it, while a run without a dump does no full check
        import ramseykit.generate as gen

        monkeypatch.setattr(gen, "has_shape_through", lambda g, x, shape: False)
        assert generate_levels(K33, 5).counts == [1, 2, 4, 11, 34]
        with pytest.raises(VerificationError, match="generation"):
            generate_levels(K33, 5, dump_dir=str(tmp_path))

    def test_dump_dir_roundtrips(self, tmp_path):
        generate_levels(K33, 5, dump_dir=str(tmp_path))
        found = sorted(p.name for p in tmp_path.iterdir())
        assert found == ["n1.g6", "n2.g6", "n3.g6", "n4.g6", "n5.g6"]
        rows = read_graph6_lines((tmp_path / "n5.g6").read_text())
        assert len(rows) == 1
        _, g = rows[0]
        assert verify_witness(g, K33).valid
