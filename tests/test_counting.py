import random
from functools import partial
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from ramseykit.counting import (
    CodegreeCache,
    WheelCache,
    book_toggle_delta,
    clique_toggle_delta,
    count_books,
    count_cliques,
    count_cliques_in_mask,
    count_shape,
    count_wheels,
    gr_score,
    shape_toggle_delta,
    update_book_table,
    update_clique_table,
    update_wheel_table,
    wheel_toggle_delta,
)
from ramseykit.errors import InputError
from ramseykit.fixtures import load_fixtures
from ramseykit.graphs import Graph, MultiColoring, bits_of, pair_index, pair_iter
from ramseykit.problems import Book, Clique, GeneralizedProblem, Wheel
from ramseykit.tabu import _Scorer

from oracles import (
    all_graphs,
    count_books_naive,
    count_cliques_naive,
    count_wheels_naive,
    cycle_graph,
    gr_score_naive,
    induced,
    random_coloring,
    random_graph,
)

FIXTURES = {rec.id: rec for rec in load_fixtures()}


@hs.composite
def _graph_mask_order(draw):
    """A graph on at most 10 vertices, a vertex mask and a clique order 0..6."""
    n = draw(hs.integers(1, 10))
    g = Graph(n)
    for u, v in combinations(range(n), 2):
        if draw(hs.booleans()):
            g.add_edge(u, v)
    return g, draw(hs.integers(0, (1 << n) - 1)), draw(hs.integers(0, 6))


def wheel_graph(k):
    """Hub k-1 joined to a (k-1)-cycle on 0..k-2."""
    g = cycle_graph(k - 1)
    g = g.add_vertex((1 << (k - 1)) - 1)
    return g


class TestSpotValues:
    def test_k4_books(self):
        # every edge of K4 has codegree 2: 6 spines, one page pair each
        assert count_books(Graph(4).complement(), 2) == 6
        assert count_books(Graph(4).complement(), 1) == 12

    def test_fixture_has_zero_books(self):
        g = FIXTURES["RB2B8-20"].load()
        assert count_books(g, 2) == 0
        assert count_books(g.complement(), 8) == 0

    def test_single_wheel(self):
        assert count_wheels(wheel_graph(5), 5) == 1
        assert count_wheels(wheel_graph(6), 6) == 1

    def test_k5_wheels(self):
        # hub choices x cycles on the remaining K4: 5 * 3
        assert count_wheels(Graph(5).complement(), 5) == 15

    def test_k5_triangles(self):
        assert count_cliques(Graph(5).complement(), 3) == 10

    def test_c5_is_triangle_free(self):
        assert count_cliques(cycle_graph(5), 3) == 0
        assert count_cliques(cycle_graph(5).complement(), 3) == 0

    def test_monochromatic_k4_scores_two(self):
        # all edges color 1, r=3, t=2: the K4 is covered by {1,2} and {1,3}
        mc = MultiColoring(4, 3)
        assert gr_score(mc, 4, 2) == 2

    def test_gr_fixture_scores_zero(self):
        mc = FIXTURES["GR3K4T2-9"].load()
        assert gr_score(mc, 4, 2) == 0


class TestOracleAgreement:
    def test_books_exhaustive_n_le_6(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                for k in (1, 2, 3):
                    assert count_books(g, k) == count_books_naive(g, k)

    def test_cliques_exhaustive_n_le_6(self):
        for n in range(1, 7):
            for g in all_graphs(n):
                for s in (2, 3, 4, 5):
                    assert count_cliques(g, s) == count_cliques_naive(g, s)

    def test_wheels_exhaustive_small(self):
        for n in range(4, 7):
            for g in all_graphs(n):
                for k in (4, 5, 6):
                    assert count_wheels(g, k) == count_wheels_naive(g, k)

    def test_books_random_samples(self):
        rng = random.Random(60)
        for _ in range(220):
            g = random_graph(rng, rng.randint(2, 12), rng.random())
            k = rng.randint(1, 5)
            assert count_books(g, k) == count_books_naive(g, k)

    def test_wheels_random_samples(self):
        rng = random.Random(61)
        for _ in range(220):
            g = random_graph(rng, rng.randint(4, 12), rng.random())
            k = rng.randint(4, 7)
            assert count_wheels(g, k) == count_wheels_naive(g, k)

    def test_cliques_random_samples(self):
        rng = random.Random(62)
        for _ in range(220):
            g = random_graph(rng, rng.randint(2, 12), rng.random())
            s = rng.randint(2, 6)
            assert count_cliques(g, s) == count_cliques_naive(g, s)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_graph_mask_order())
    def test_cliques_in_mask_match_naive(self, case):
        g, mask, s = case
        # induced() refuses an empty vertex set, so mask 0 is checked
        # against its own answer: only the empty clique
        expected = count_cliques_naive(induced(g, bits_of(mask)), s) if mask else int(s == 0)
        assert count_cliques_in_mask(g.rows, mask, s) == expected

    def test_gr_random_samples(self):
        rng = random.Random(63)
        cases = [(3, 4, 2), (3, 3, 1), (4, 4, 3), (3, 5, 2), (4, 4, 2)]
        for _ in range(220):
            r, s, t = cases[rng.randrange(len(cases))]
            mc = random_coloring(rng, rng.randint(3, 10), r)
            assert gr_score(mc, s, t) == gr_score_naive(mc, s, t)


class TestStructuralProperties:
    def test_edge_rooted_clique_sum(self):
        # each K_s contains C(s,2) edges, so edge-rooted counts overcount that way
        rng = random.Random(64)
        for _ in range(60):
            g = random_graph(rng, rng.randint(3, 11))
            s = rng.randint(3, 5)
            total = sum(
                count_cliques_in_mask(g.rows, g.rows[u] & g.rows[v], s - 2) for u, v in g.edges()
            )
            assert total == comb(s, 2) * count_cliques(g, s)

    def test_books_monotone_in_k(self):
        rng = random.Random(65)
        for _ in range(40):
            g = random_graph(rng, rng.randint(3, 11))
            counts = [count_books(g, k) for k in range(1, 6)]
            assert all(
                a == 0 or b <= a * g.n for a, b in zip(counts, counts[1:])
            )
            # a B_{k+1} contains a B_k on the same spine, so zero propagates up
            for a, b in zip(counts, counts[1:]):
                if a == 0:
                    assert b == 0

    def test_gr_score_color_permutation_invariant(self):
        rng = random.Random(66)
        for _ in range(60):
            r = rng.randint(3, 4)
            mc = random_coloring(rng, rng.randint(4, 9), r)
            colors = list(range(1, r + 1))
            rng.shuffle(colors)
            mapping = {c: colors[c - 1] for c in range(1, r + 1)}
            renamed = MultiColoring(mc.n, r, [mapping[c] for c in mc.colors])
            assert gr_score(mc, 4, 2) == gr_score(renamed, 4, 2)

    def test_count_shape_dispatch(self):
        g = Graph(5).complement()
        assert count_shape(g, Clique(3)) == 10
        assert count_shape(g, Wheel(5)) == 15
        assert count_shape(g, Book(3)) == count_books(g, 3)

    def test_gr_score_requires_consistent_r(self):
        mc = MultiColoring(5, 2)
        with pytest.raises(InputError):
            gr_score(mc, 4, 2)  # r must exceed t


class TestDeltas:
    """Pure toggle deltas must equal recount differences."""

    def test_k4_book_delta_example(self):
        g = Graph(4).complement()
        g.toggle_edge(0, 1)
        # adding the missing edge back creates 5 new B_2 spine placements
        assert book_toggle_delta(g, 0, 1, 2) == 5

    def test_book_delta_random(self):
        rng = random.Random(70)
        g = random_graph(rng, 10)
        cache = CodegreeCache(g)
        k = 2
        before = count_books(g, k)
        for _ in range(10_000):
            u = rng.randrange(10)
            v = rng.randrange(10)
            if u == v:
                continue
            d = book_toggle_delta(g, u, v, k, cache)
            assert book_toggle_delta(g, u, v, k) == d  # cached and uncached agree
            g.toggle_edge(u, v)
            cache.apply_toggle(g, u, v)
            after = count_books(g, k)
            assert after - before == d
            assert book_toggle_delta(g, u, v, k, cache) == -d  # toggling back undoes it
            before = after
        assert cache.cd == CodegreeCache(g).cd

    def test_wheel_delta_random(self):
        rng = random.Random(71)
        g = random_graph(rng, 9)
        k = 5
        before = count_wheels(g, k)
        for _ in range(2_000):
            u = rng.randrange(9)
            v = rng.randrange(9)
            if u == v:
                continue
            d = wheel_toggle_delta(g, u, v, k)
            g.toggle_edge(u, v)
            after = count_wheels(g, k)
            assert after - before == d
            assert wheel_toggle_delta(g, u, v, k) == -d  # toggling back undoes it
            before = after

    def test_wheel_delta_k5_minus_edge(self):
        g = Graph(5).complement()
        g.toggle_edge(0, 1)
        assert count_wheels(g, 5) == 3
        assert wheel_toggle_delta(g, 0, 1, 5) == 12

    def test_clique_delta_random(self):
        rng = random.Random(72)
        g = random_graph(rng, 10)
        s = 4
        before = count_cliques(g, s)
        for _ in range(10_000):
            u = rng.randrange(10)
            v = rng.randrange(10)
            if u == v:
                continue
            d = clique_toggle_delta(g, u, v, s)
            g.toggle_edge(u, v)
            after = count_cliques(g, s)
            assert after - before == d
            before = after

    def test_shape_toggle_delta_dispatch(self):
        rng = random.Random(73)
        for shape in (Book(2), Wheel(5), Clique(4)):
            g = random_graph(rng, 8)
            before = count_shape(g, shape)
            d = shape_toggle_delta(g, 0, 1, shape)
            g.toggle_edge(0, 1)
            assert count_shape(g, shape) - before == d

    def test_gr_delta_random(self):
        # the tabu GR scorer holds the only GR delta; check it against gr_score
        rng = random.Random(74)
        s, t, r = 4, 2, 3
        mc = random_coloring(rng, 9, r)
        scorer = _Scorer(GeneralizedProblem(r, s, t), mc)
        before = gr_score(mc, s, t)
        for _ in range(4_000):
            u = rng.randrange(9)
            v = rng.randrange(9)
            if u == v:
                continue
            new = rng.randint(1, r)
            old = mc.get(u, v)
            if new == old:
                continue
            d = scorer.sums[old, new][pair_index(u, v)]
            scorer.apply(u, v, new)
            after = gr_score(mc, s, t)
            assert after - before == d
            assert scorer.sums[new, old][pair_index(u, v)] == -d  # recoloring back undoes it
            before = after

    def test_book_delta_rejects_zero_pages(self):
        with pytest.raises(InputError):
            book_toggle_delta(Graph(5).complement(), 0, 1, 0)

    def test_wheel_delta_rejects_order_3(self):
        with pytest.raises(InputError):
            wheel_toggle_delta(Graph(5).complement(), 0, 1, 3)

    def test_clique_delta_rejects_order_1(self):
        with pytest.raises(InputError):
            clique_toggle_delta(Graph(5).complement(), 0, 1, 1)

    @pytest.mark.parametrize(
        "shape, cache", [(Book(2), WheelCache), (Wheel(5), CodegreeCache)], ids=["book", "wheel"]
    )
    def test_delta_rejects_a_cache_of_the_other_kind(self, shape, cache):
        g = Graph(5).complement()
        wrong = cache(g, 5) if cache is WheelCache else cache(g)
        with pytest.raises(InputError):
            shape_toggle_delta(g, 0, 1, shape, wrong)

    def test_gr_delta_mono_k4(self):
        scorer = _Scorer(GeneralizedProblem(3, 4, 2), MultiColoring(4, 3))
        # recoloring one edge of the monochromatic K4 drops the score by 1
        assert scorer.sums[1, 2][pair_index(0, 1)] == -1


class TestCodegreeCache:
    def test_tracks_toggles(self):
        rng = random.Random(75)
        g = random_graph(rng, 11)
        cache = CodegreeCache(g)
        for _ in range(3_000):
            u = rng.randrange(11)
            v = rng.randrange(11)
            if u == v:
                continue
            g.toggle_edge(u, v)
            cache.apply_toggle(g, u, v)
        assert cache.cd == CodegreeCache(g).cd

    def test_entries_match_codegree(self):
        rng = random.Random(76)
        g = random_graph(rng, 9)
        cache = CodegreeCache(g)
        for u, v in combinations(range(9), 2):
            assert cache.cd[u][v] == (g.rows[u] & g.rows[v]).bit_count()


class TestWheelCache:
    """The cached wheel delta against the uncached DFS, on graphs that hold
    W8 and W9, which the tabu scorer properties (n <= 8) cannot reach."""

    @pytest.mark.parametrize("k", range(4, 10))
    def test_matches_uncached_delta_across_toggles(self, k):
        rng = random.Random(f"wheel-cache:{k}")
        for n in range(6, 14):
            pairs = list(combinations(range(n), 2))
            for p in (0.35, 0.5, 0.65):
                g = random_graph(rng, n, p)
                cache = WheelCache(g, k)
                for _ in range(3):
                    before = count_wheels_naive(g, k) if n <= 8 else None
                    for u, v in pairs:
                        d = wheel_toggle_delta(g, u, v, k, cache)
                        assert d == wheel_toggle_delta(g, u, v, k)
                        assert d == wheel_toggle_delta(g, v, u, k, cache)
                        if before is not None:
                            g.toggle_edge(u, v)
                            assert count_wheels_naive(g, k) - before == d
                            g.toggle_edge(u, v)
                    for _ in range(3):
                        u, v = rng.sample(range(n), 2)
                        g.toggle_edge(u, v)
                        cache.apply_toggle(g, u, v)
                fresh = WheelCache(g, k)
                assert (cache.P, cache.Q, cache.C) == (fresh.P, fresh.Q, fresh.C)

    def test_tables_on_the_wheel(self):
        # W6: hub 5 on the rim cycle 0-1-2-3-4, so L = 5
        cache = WheelCache(wheel_graph(6), 6)
        assert cache.C[5] == [1, 1, 1, 1, 1, 0]
        assert cache.P[5][0][1] == 1  # the rim minus the edge 01
        assert cache.Q[5][0][2] == 1  # 0-4-3-2
        assert cache.Q[5][0][1] == 0

    def test_rejects_bad_orders(self):
        g = Graph(5).complement()
        with pytest.raises(InputError):
            WheelCache(g, 3)
        with pytest.raises(InputError):
            wheel_toggle_delta(g, 0, 1, 5, WheelCache(g, 6))


class _Written(list):
    """A delta table that records the indices written to it."""

    def __init__(self, values):
        super().__init__(values)
        self.at = set()

    def __setitem__(self, i, value):
        self.at.add(i)
        super().__setitem__(i, value)


def _correct(shape, g, table, a, b, cache=None):
    """Toggle (a, b) in `g`, bring `cache` up to date (a book or wheel side
    builds a fresh one when none is given), and run the shape's corrector
    on `table`."""
    if cache is None and not isinstance(shape, Clique):
        cache = CodegreeCache(g) if isinstance(shape, Book) else WheelCache(g, shape.k)
    old = cache.P[:] if isinstance(shape, Wheel) else None
    g.toggle_edge(a, b)
    if cache is not None:
        cache.apply_toggle(g, a, b)
    if isinstance(shape, Book):
        pages = [comb(i, shape.k - 1) for i in range(g.n)]
        update_book_table(g.rows, table, a, b, cache.cd, pages)
    elif isinstance(shape, Wheel):
        update_wheel_table(g.rows, table, a, b, cache, old)
    else:
        update_clique_table(g.rows, table, a, b, shape.k)


CLIQUES = [Clique(2), Clique(3), Clique(4), Clique(5), Clique(6)]
WHEELS = [Wheel(4), Wheel(5), Wheel(6), Wheel(7)]


class TestChangedPairs:
    """A toggle of (a, b) makes each corrector write only inside its rule:
    for books the pairs meeting {a, b} and those joining I = N(a) ∩ N(b) to
    N(a) ∪ N(b), for cliques the pairs meeting {a, b} and those inside I,
    for wheels the pairs meeting R = {a, b} ∪ I and those inside N(h) for
    some h in R."""

    @pytest.mark.parametrize(
        "shape",
        [Book(1), Book(2), Book(3), Clique(2), Clique(3), Clique(4), Clique(5), *WHEELS],
        ids=repr,
    )
    def test_changed_deltas_lie_inside_the_rule(self, shape):
        # the rule is written out here from its definition: every uncached
        # delta a toggle moves lies inside it, and the corrector writes
        # nowhere else
        rng = random.Random(f"changed-pairs:{shape!r}")
        for n in range(4, 10):
            pairs = list(pair_iter(n))
            for p in (0.35, 0.5, 0.65):
                g = random_graph(rng, n, p)
                for _ in range(4):
                    a, b = sorted(rng.sample(range(n), 2))
                    ends = 1 << a | 1 << b
                    inter = set(bits_of(g.rows[a] & g.rows[b] & ~ends))
                    union = set(bits_of((g.rows[a] | g.rows[b]) & ~ends))
                    meet = {a, b}
                    if isinstance(shape, Book):
                        off = {(x, y) for x, y in pairs if {x, y} <= union and {x, y} & inter}
                    elif isinstance(shape, Wheel):
                        meet |= inter
                        nbhds = [set(bits_of(g.rows[h])) for h in meet]
                        off = {(x, y) for x, y in pairs if any({x, y} <= nb for nb in nbhds)}
                    else:
                        off = {(x, y) for x, y in pairs if {x, y} <= inter}
                    rule = off | {(x, y) for x, y in pairs if {x, y} & meet}
                    before = [shape_toggle_delta(g, x, y, shape) for x, y in pairs]
                    table = _Written(before)
                    _correct(shape, g, table, a, b)
                    assert {pairs[i] for i in table.at} <= rule, (n, (a, b))
                    for (x, y), d in zip(pairs, before):
                        if shape_toggle_delta(g, x, y, shape) != d:
                            assert (x, y) in rule, (n, (a, b), (x, y))

    def test_rule_sets(self):
        # toggling (0, 3) has N(0) ∩ N(3) = {1, 2} and N(0) ∪ N(3) = {1, 2, 4};
        # toggling (0, 4) has no common neighbour
        g = Graph(5)
        for u, v in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (3, 4)):
            g.add_edge(u, v)

        pairs = list(pair_iter(5))

        def ruled(shape, a, b):
            h = g.copy()
            table = _Written(shape_toggle_delta(h, x, y, shape) for x, y in pairs)
            _correct(shape, h, table, a, b)
            return {pairs[i] for i in table.at}

        def meeting(a, b):
            return {(x, y) for x, y in pair_iter(5) if {x, y} & {a, b}}

        assert ruled(Book(2), 0, 3) <= meeting(0, 3) | {(1, 2), (1, 4), (2, 4)}
        assert ruled(Clique(4), 0, 3) <= meeting(0, 3) | {(1, 2)}
        assert ruled(Book(2), 0, 4) <= meeting(0, 4)
        assert ruled(Clique(4), 0, 4) <= meeting(0, 4)


class TestUpdateTable:
    """A delta table corrected in place after a toggle equals a fresh one,
    computed without a cache, at every pair, so the corrections, not only
    the rule, are exact."""

    @pytest.mark.parametrize(
        "shape",
        [Book(1), Book(2), Book(3), Book(4), *CLIQUES, *WHEELS],
        ids=repr,
    )
    def test_corrected_table_equals_a_fresh_one(self, shape):
        rng = random.Random(f"update-table:{shape!r}")
        for n in range(5, 15):
            pairs = list(pair_iter(n))
            for p in (0.35, 0.5, 0.65):
                g = random_graph(rng, n, p)
                cache = None
                if isinstance(shape, Book):
                    cache = CodegreeCache(g)
                elif isinstance(shape, Wheel):
                    cache = WheelCache(g, shape.k)
                delta = partial(shape_toggle_delta, g, shape=shape, cache=cache)
                table = [delta(x, y) for x, y in pairs]
                for _ in range(6):
                    a, b = rng.sample(range(n), 2)
                    _correct(shape, g, table, a, b, cache)
                    fresh = [shape_toggle_delta(g, x, y, shape) for x, y in pairs]
                    assert table == fresh, (n, p, (a, b))

    @pytest.mark.parametrize(
        "shape",
        [Book(1), Book(2), Book(3), Book(4), *CLIQUES],
        ids=repr,
    )
    def test_sparse_and_dense_corrections_read_no_wrapped_page_or_delta(self, shape):
        # a negative pages index would wrap silently on a list; the correctors
        # take no delta, so a book or clique entry cannot be recomputed
        rng = random.Random(f"update-table-strict:{shape!r}")
        book = isinstance(shape, Book)

        class Pages(list):
            def __getitem__(self, i):
                if i < 0:
                    raise IndexError(f"negative pages index {i}")
                return super().__getitem__(i)

        for n in range(5, 15):
            pairs = list(pair_iter(n))
            for p in (0.1, 0.35, 0.5, 0.65, 0.9):
                g = random_graph(rng, n, p)
                cache = CodegreeCache(g) if book else None
                pages = Pages(comb(i, shape.k - 1) for i in range(n)) if book else None
                table = [shape_toggle_delta(g, x, y, shape) for x, y in pairs]
                for _ in range(6):
                    a, b = rng.sample(range(n), 2)
                    g.toggle_edge(a, b)
                    if book:
                        cache.apply_toggle(g, a, b)
                    if book:
                        update_book_table(g.rows, table, a, b, cache.cd, pages)
                    else:
                        update_clique_table(g.rows, table, a, b, shape.k)
                    fresh = [shape_toggle_delta(g, x, y, shape) for x, y in pairs]
                    assert table == fresh, (n, p, (a, b))
