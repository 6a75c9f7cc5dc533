import math
import random
from collections import Counter
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ramseykit.canon import canonical_key, coloring_canonical_key
from ramseykit.errors import BudgetExceededError, CapabilityError, InputError, VerificationError
from ramseykit.formats import read_color_matrices, read_graph6_lines
from ramseykit.generate import _NEW_CLASS, _keyed_stripe, extend_one, generate_levels
from ramseykit.graphs import Graph, MultiColoring, pair_iter
from ramseykit.problems import TwoColorProblem, parse_problem
from ramseykit.verify import verify_witness

from oracles import (
    all_graphs,
    cycle_graph,
    delete_vertex,
    generate_keys_naive,
    multicolor_children_naive,
    random_coloring,
    random_graph,
    two_color_children_naive,
    vertex_invariants,
)

K33 = parse_problem("K3,K3")
B2B8 = parse_problem("B2,B8")
W5W7 = parse_problem("W5,W7")
GR443 = parse_problem("GR:4,K4,3")


def dumped_levels(problem, n_max, dump_dir):
    """Run generate_levels with a dump and read each level file back, in
    order; the files stop at the first empty level."""
    counts = generate_levels(problem, n_max, dump_dir=str(dump_dir)).counts
    two_color = isinstance(problem, TwoColorProblem)
    levels = []
    for order in range(1, n_max + 1):
        path = dump_dir / (f"n{order}.g6" if two_color else f"n{order}.txt")
        if not path.exists():
            break
        text = path.read_text()
        rows = read_graph6_lines(text) if two_color else read_color_matrices(text, problem.r)
        levels.append([obj for _, obj in rows])
    assert [len(level) for level in levels] == counts[: len(levels)]
    return levels


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


class TestAgainstUnfilteredOracle:
    @pytest.mark.parametrize(
        "text, n_max",
        [
            ("K3,K3", 7), ("B1,K4", 7), ("W5,W5", 7), ("B2,B3", 8),
            ("GR:4,K4,3", 8), ("GR:3,K4,2", 7), ("GR:3,K5,2", 6),
            # s = 3: the look-ahead needs cliques of no vertices
            ("GR:2,K3,1", 7), ("GR:3,K3,1", 6), ("GR:4,K3,2", 6),
        ],
    )
    def test_level_key_sets_match(self, text, n_max, tmp_path):
        # the invariant filter may change which child represents a class,
        # never which classes there are
        problem = parse_problem(text)
        key = canonical_key if isinstance(problem, TwoColorProblem) else coloring_canonical_key
        levels = dumped_levels(problem, n_max, tmp_path)
        got = [{key(obj) for obj in level} for level in levels]
        want = generate_keys_naive(problem, n_max)
        assert got == want[: len(got)]
        assert all(not keys for keys in want[len(got):])


@hs.composite
def _relabeled(draw):
    """A random graph or coloring, a vertex permutation p, and the object
    relabeled by p (colors renamed too for a coloring)."""
    n = draw(hs.integers(1, 9))
    m = n * (n - 1) // 2
    p = draw(hs.permutations(range(n)))
    if draw(hs.booleans()):
        bits = draw(hs.integers(0, (1 << m) - 1))
        g = Graph.from_edges(n, [pair for i, pair in enumerate(pair_iter(n)) if bits >> i & 1])
        return g, p, g.relabel(p)
    r = draw(hs.integers(2, 4))
    mc = MultiColoring(n, r, draw(hs.lists(hs.integers(1, r), min_size=m, max_size=m)))
    names = draw(hs.permutations(range(1, r + 1)))
    rename = [0, *names]
    return mc, p, MultiColoring(n, r, [rename[c] for c in mc.relabel(p).colors])


class TestVertexInvariants:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(_relabeled())
    def test_relabeling_moves_the_invariant_with_the_vertex(self, case):
        # an invariant that saw labels or color names could lose a class
        obj, p, moved = case
        before, after = vertex_invariants(obj), vertex_invariants(moved)
        assert all(after[p[v]] == before[v] for v in range(obj.n))

    def test_graph_invariant_is_degree_then_neighbor_degrees(self):
        # a path 0-1-2 plus the edge 1-3
        inv = vertex_invariants(Graph.from_edges(4, [(0, 1), (1, 2), (1, 3)]))
        assert inv[1] == ((3,), ((3, (1, 1, 1)),))
        assert inv[0] == ((1,), ((1, (3,)),))


def filter_naive(children):
    """The labeled children the invariant filter keeps, in order, and the
    positions among them of those whose new vertex is strictly the largest,
    from invariants computed on each child's own rows."""
    kept, strict = [], set()
    for child in children:
        inv = vertex_invariants(child)
        if inv[-1] == max(inv):
            if inv.count(inv[-1]) == 1:
                strict.add(len(kept))
            kept.append(child)
    return kept, strict


class TestInvariantFilter:
    # problems no child of these parents can break, so that extend_one
    # returns every child the filter keeps
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(hs.integers(1, 7), hs.floats(0, 1), hs.integers(0, 2**32))
    def test_graph_parents_over_every_mask(self, n, p, seed):
        import ramseykit.generate as gen

        g = random_graph(random.Random(seed), n, p)
        with pytest.MonkeyPatch.context() as mp:
            # no images: every kept child then has a strict decision
            mp.setattr(gen, "automorphisms", lambda g: [])
            children = extend_one(g, parse_problem("K9,K9"))
        kept, strict = filter_naive(g.add_vertex(mask) for mask in range(1 << n))
        assert children == kept
        assert set(children.strict) == strict

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(hs.integers(1, 5), hs.integers(2, 4), hs.integers(0, 2**32))
    def test_coloring_parents_over_every_vector(self, n, r, seed):
        mc = random_coloring(random.Random(seed), n, r)
        children = extend_one(mc, parse_problem(f"GR:{r},K9,1"))
        # every vector is a valid child, met in the DFS's order
        vectors = product(range(1, r + 1), repeat=n)
        kept, strict = filter_naive(mc.add_vertex(list(vec)) for vec in vectors)
        assert children == kept
        assert set(children.strict) == strict


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
    def test_levels_hold_verified_pairwise_nonisomorphic_witnesses(self, tmp_path):
        levels = dumped_levels(K33, 5, tmp_path)
        assert len(levels) == 5
        for order, level in enumerate(levels, 1):
            keys = [canonical_key(g) for g in level]
            assert len(set(keys)) == len(keys)
            for g in level:
                assert g.n == order
                assert verify_witness(g, K33).valid

    def test_multicolor_levels_verified(self, tmp_path):
        levels = dumped_levels(GR443, 6, tmp_path)
        assert len(levels) == 6
        for order, level in enumerate(levels, 1):
            keys = [coloring_canonical_key(mc) for mc in level]
            assert len(set(keys)) == len(keys)
            for mc in level:
                assert mc.n == order
                assert verify_witness(mc, GR443).valid

    def test_hereditary_soundness(self, tmp_path):
        # any witness minus a vertex is again a witness, so levels nest
        rng = random.Random(33)
        levels = dumped_levels(B2B8, 6, tmp_path)
        tops = levels[-1]
        for g in rng.sample(tops, min(10, len(tops))):
            x = rng.randrange(g.n)
            assert verify_witness(delete_vertex(g, x), B2B8).valid

    def test_counts_only_by_default(self):
        res = generate_levels(K33, 4)
        assert res.counts == [1, 2, 2, 3]

    def test_table_output(self):
        lines = generate_levels(K33, 3).lines()
        assert "K3,K3" in lines[0]
        assert lines[1].split() == ["1", "1"]
        assert lines[3].split() == ["3", "2"]
        assert lines[-1] == "counts: 1,2,2"


class TestExtendOne:
    def test_children_are_one_larger_and_valid(self):
        g = cycle_graph(5)
        kids = extend_one(g, K33)
        assert kids == []  # C5 is the unique 5-vertex witness; R(3,3)=6
        kids = extend_one(Graph(2), K33)
        assert kids and all(k.n == 3 for k in kids)
        assert all(verify_witness(k, K33).valid for k in kids)

    @pytest.mark.parametrize("text", ["B2,B8", "GR:4,K4,3"])
    def test_children_end_at_the_largest_invariant(self, text, tmp_path):
        problem = parse_problem(text)
        parents = dumped_levels(problem, 5, tmp_path)[-1]
        total = 0
        for parent in parents:
            for child in extend_one(parent, problem):
                assert child.n == parent.n + 1
                assert delete_vertex(child, parent.n) == parent
                assert verify_witness(child, problem).valid
                inv = vertex_invariants(child)
                assert inv[-1] == max(inv)
                total += 1
        assert total

    def test_type_mismatch_rejected(self):
        with pytest.raises(InputError):
            extend_one(MultiColoring(3, 2), K33)
        with pytest.raises(InputError):
            extend_one(Graph(3), GR443)

    def test_gr_parent_with_another_colour_count_rejected(self):
        # the colour count is checked as verify_witness checks it
        with pytest.raises(InputError, match="coloring has 5 colors, problem wants 3"):
            extend_one(MultiColoring(3, 5), parse_problem("GR:3,K4,2"))


class TestSymmetrySkip:
    @pytest.mark.parametrize("problem", [W5W7, B2B8], ids=str)
    def test_no_automorphisms_give_the_same_levels(self, problem, tmp_path, monkeypatch):
        # with no automorphisms every child is checked and keyed
        import ramseykit.generate as gen

        one, two = tmp_path / "skip", tmp_path / "plain"
        skip = generate_levels(problem, 7, dump_dir=str(one))
        monkeypatch.setattr(gen, "automorphisms", lambda g: [])
        plain = generate_levels(problem, 7, dump_dir=str(two))
        assert skip.counts == plain.counts
        names = sorted(p.name for p in one.iterdir())
        assert names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_images_are_isomorphic_to_an_earlier_keyed_sibling(self, tmp_path):
        images = 0
        for level in dumped_levels(W5W7, 7, tmp_path):
            for parent in level:
                children = extend_one(parent, W5W7)
                keyed = set()
                for i, child in enumerate(children):
                    key = canonical_key(child)
                    if i in children.images:
                        assert key in keyed
                        images += 1
                    else:
                        keyed.add(key)
        assert images


class TestUnkeyedChildren:
    @pytest.mark.parametrize("symmetry", ["automorphisms", "none"])
    @pytest.mark.parametrize(
        "text, n_max", [("W5,W7", 7), ("B2,B8", 7), ("GR:3,K4,2", 10), ("GR:4,K4,3", 10)]
    )
    def test_children_kept_without_a_key_have_a_class_of_their_own(
        self, text, n_max, symmetry, monkeypatch
    ):
        # each child kept without a key has a key that no other child of
        # its level has, other parents' children included.  Images are left
        # out: each is isomorphic to the sibling it is an image of, which
        # may be this very child
        import ramseykit.generate as gen

        if symmetry == "none":
            monkeypatch.setattr(gen, "automorphisms", lambda g: [])
        real = gen._keyed_children
        batches = []

        def recorded(parent, problem):
            batches.append(real(parent, problem))
            return batches[-1]

        monkeypatch.setattr(gen, "_keyed_children", recorded)
        problem = parse_problem(text)
        key = canonical_key if isinstance(problem, TwoColorProblem) else coloring_canonical_key
        generate_levels(problem, n_max)
        levels = {}
        for batch in batches:
            for given, child in batch:
                if given is not None:
                    levels.setdefault(child.n, []).append((given, key(child)))
        unkeyed = 0
        for level in levels.values():
            shared = Counter(k for _, k in level)
            for given, k in level:
                if given == _NEW_CLASS:
                    assert shared[k] == 1
                    unkeyed += 1
        assert unkeyed


class TestSubsetRule:
    @pytest.mark.parametrize(
        "text, n_max", [("W5,W7", 7), ("B2,B8", 7), ("K3,K3", 6), ("K4,B3", 7)]
    )
    def test_children_match_full_verification(self, text, n_max, tmp_path):
        # every parent of a run to n_max, children compared in order, with
        # states read from subsets and images against every child verified
        problem = parse_problem(text)
        for level in dumped_levels(problem, n_max - 1, tmp_path):
            for parent in level:
                assert extend_one(parent, problem) == two_color_children_naive(parent, problem)

    def test_through_checks_pinned(self, monkeypatch):
        # 1,591 with only the symmetry skip; the subset rule leaves 970
        import ramseykit.generate as gen

        calls = []
        real = gen.has_shape_through

        def logged(g, x, shape):
            calls.append(x)
            return real(g, x, shape)

        monkeypatch.setattr(gen, "has_shape_through", logged)
        assert generate_levels(B2B8, 7).counts == [1, 2, 4, 9, 22, 69, 255]
        assert len(calls) == 970


class TestForwardChecking:
    @pytest.mark.parametrize(
        "text, n_max", [("GR:4,K4,3", 10), ("GR:3,K4,2", 8), ("GR:3,K5,2", 6)]
    )
    def test_children_match_the_subset_dfs(self, text, n_max, tmp_path):
        # every parent of a run to n_max, children compared in order; K5
        # looks ahead through a K2, not a single vertex
        problem = parse_problem(text)
        for level in dumped_levels(problem, n_max - 1, tmp_path):
            for parent in level:
                assert extend_one(parent, problem) == multicolor_children_naive(parent, problem)


class TestLimitsAndModes:
    def test_range_validation(self):
        with pytest.raises(InputError):
            generate_levels(K33, 0)
        with pytest.raises(CapabilityError):
            generate_levels(K33, 13)
        with pytest.raises(CapabilityError):
            generate_levels(parse_problem("GR:5,K4,2"), 6)

    def test_negative_budget_is_refused(self):
        # as the census refuses a negative budget, before any level is built
        with pytest.raises(InputError, match="child budget must be at least 0, not -1"):
            generate_levels(B2B8, 7, child_budget=-1)

    def test_nan_budget_is_refused(self):
        # NaN compares false with everything, so it used to turn the cap off
        with pytest.raises(InputError, match="child budget must be at least 0, not nan"):
            generate_levels(B2B8, 7, child_budget=math.nan)

    def test_budget_carries_partial_counts(self):
        with pytest.raises(BudgetExceededError) as ei:
            generate_levels(B2B8, 7, child_budget=300)
        assert "at order 7" in str(ei.value)
        partial = ei.value.partial
        assert partial.problem == B2B8
        assert partial.counts == [1, 2, 4, 9, 22, 69]

    def test_workers_obey_the_budget_like_serial(self):
        # stripes cut short by the budget raise at the same order, with the
        # same finished levels, as the serial run
        errors = []
        for workers in (None, 2):
            with pytest.raises(BudgetExceededError) as ei:
                generate_levels(B2B8, 7, workers=workers, child_budget=300)
            errors.append((str(ei.value), ei.value.partial.counts))
        assert errors[0] == errors[1]

    def test_stripe_stops_past_its_budget(self, tmp_path):
        # a stripe keys no parent after the one that takes it past budget
        parents = dumped_levels(B2B8, 5, tmp_path)[-1]
        full = _keyed_stripe(parents, B2B8, 10**9)
        cut = _keyed_stripe(parents, B2B8, 10)
        assert len(full) == len(parents)
        assert len(cut) < len(parents)
        assert cut == full[: len(cut)]
        assert sum(map(len, cut[:-1])) <= 10 < sum(map(len, cut))

    def test_workers_match_serial(self, tmp_path):
        # the same counts and the same level files, byte for byte
        for problem, n in ((GR443, 7), (B2B8, 6)):
            one, two = tmp_path / f"{problem}-serial", tmp_path / f"{problem}-workers"
            serial = generate_levels(problem, n, dump_dir=str(one))
            par = generate_levels(problem, n, dump_dir=str(two), workers=2)
            assert par.counts == serial.counts
            names = sorted(p.name for p in one.iterdir())
            assert len(names) == n
            assert names == sorted(p.name for p in two.iterdir())
            for name in names:
                assert (two / name).read_bytes() == (one / name).read_bytes()

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
