import random

import pytest

from ramseykit.graphs import (
    Graph,
    MultiColoring,
    edge_color_hash,
    least_masks,
    mask_images,
    pair_index,
    pair_iter,
    state_hash,
)

from oracles import (
    all_colorings,
    all_graphs,
    cycle_graph,
    delete_vertex,
    induced,
    random_graph,
)


def test_least_masks_match_orbit_closure():
    # any generators, not only automorphisms or rotations: each mask's entry
    # is the least mask reachable by applying them, 2 bytes a mask
    rng = random.Random("least masks")
    for n in range(1, 8):
        for ngens in (0, 1, 2, 3):
            gens = [rng.sample(range(n), n) for _ in range(ngens)]
            least = least_masks(n, gens)
            assert least.itemsize == 2 and len(least) == 1 << n
            for mask in range(1 << n):
                orbit = {mask}
                todo = [mask]
                while todo:
                    x = todo.pop()
                    for perm in gens:
                        y = sum(1 << perm[v] for v in range(n) if x >> v & 1)
                        if y not in orbit:
                            orbit.add(y)
                            todo.append(y)
                assert least[mask] == min(orbit), (n, gens, mask)


def test_mask_images_apply_the_bit_permutation():
    rng = random.Random("mask images")
    for n in range(0, 11):
        perm = rng.sample(range(n), n)
        img = mask_images(n, perm)
        assert len(img) == 1 << n
        for mask in range(1 << n):
            assert img[mask] == sum(1 << perm[v] for v in range(n) if mask >> v & 1), (n, mask)


def test_pair_index_is_column_major():
    # (0,1)=0, (0,2)=1, (1,2)=2, (0,3)=3 ...
    seen = {}
    for v in range(1, 8):
        for u in range(v):
            seen[(u, v)] = pair_index(u, v)
    ordered = sorted(seen, key=seen.get)
    assert ordered[:6] == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert sorted(seen.values()) == list(range(len(seen)))
    assert pair_index(3, 1) == pair_index(1, 3)


def test_graph_edge_ops():
    g = Graph(5)
    g.add_edge(0, 3)
    assert g.has_edge(3, 0)
    assert g.edge_count() == 1
    g.toggle_edge(0, 3)
    assert not g.has_edge(0, 3)
    g.toggle_edge(2, 4)
    assert g.has_edge(4, 2)
    g.toggle_edge(2, 4)
    assert g.edge_count() == 0
    with pytest.raises(ValueError):
        g.add_edge(1, 1)


def test_complete_and_cycle():
    # the complete graph is the complement of the empty one
    k6 = Graph(6).complement()
    assert k6.edge_count() == 15
    c = cycle_graph(5)
    assert c.edge_count() == 5
    assert all(c.rows[v].bit_count() == 2 for v in range(5))
    assert (c.rows[0] & c.rows[1]).bit_count() == 0
    k4 = Graph(4).complement()
    assert (k4.rows[0] & k4.rows[1]).bit_count() == 2


def test_complement_involution():
    rng = random.Random(11)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12))
        assert g.complement().complement() == g
        assert g.edge_count() + g.complement().edge_count() == g.n * (g.n - 1) // 2


def test_relabel_roundtrip():
    rng = random.Random(5)
    for _ in range(50):
        n = rng.randint(2, 10)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabel(perm)
        assert h.edge_count() == g.edge_count()
        for u, v in g.edges():
            assert h.has_edge(perm[u], perm[v])
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        assert h.relabel(inv) == g


def test_induced_subgraph():
    g = Graph(6).complement()
    g.toggle_edge(0, 5)
    h = induced(g, [0, 2, 5])
    assert h.n == 3
    assert h.edge_count() == 2  # the 0-5 edge is gone


def test_induced_on_no_vertices_is_refused():
    # like Graph(0): there is no graph without vertices
    with pytest.raises(ValueError):
        induced(Graph(4).complement(), [])
    with pytest.raises(ValueError):
        delete_vertex(Graph(1), 0)
    with pytest.raises(ValueError):
        Graph(0)


def test_add_then_delete_vertex():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = random_graph(rng, n)
        mask = rng.randrange(1 << n)
        h = g.add_vertex(mask)
        assert h.n == n + 1
        assert h.rows[n].bit_count() == bin(mask).count("1")
        assert delete_vertex(h, n) == g


def test_multicoloring_roundtrip():
    mc = MultiColoring(4, 3)
    mc.set_color(1, 3, 2)
    assert mc.get(3, 1) == 2
    assert [mc.colors.count(c) for c in (1, 2, 3)] == [5, 1, 0]
    with pytest.raises(ValueError):
        mc.set_color(0, 0, 1)
    with pytest.raises(ValueError):
        mc.set_color(0, 1, 4)


def test_mutable_carriers_are_unhashable():
    # toggle_edge and set_color change them in place, so a value hash
    # would lose them in any set they were put in before
    for obj in (Graph(3), MultiColoring(3, 2)):
        with pytest.raises(TypeError):
            hash(obj)
    assert Graph(3) == Graph(3) and MultiColoring(3, 2) == MultiColoring(3, 2)


def test_union_graph_and_color_class():
    rng = random.Random(9)
    mc = MultiColoring(7, 3)
    for u in range(7):
        for v in range(u + 1, 7):
            mc.set_color(u, v, rng.randint(1, 3))
    full = mc.union_graph((1, 2, 3))
    assert full == Graph(7).complement()
    for c in (1, 2, 3):
        cls = mc.color_class(c)
        for u, v in cls.edges():
            assert mc.get(u, v) == c
    # the color classes partition the edges of K_7
    assert sum(mc.color_class(c).edge_count() for c in (1, 2, 3)) == 21


def test_state_hash_is_incremental_xor():
    """Recoloring one edge changes the hash by exactly the two edge terms."""
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 10)
        r = rng.randint(2, 5)
        mc = MultiColoring(n, r)
        for u in range(n):
            for v in range(u + 1, n):
                mc.set_color(u, v, rng.randint(1, r))
        h0 = state_hash(mc)
        u = rng.randrange(n)
        v = rng.randrange(n)
        while v == u:
            v = rng.randrange(n)
        old = mc.get(u, v)
        new = rng.randint(1, r)
        idx = pair_index(min(u, v), max(u, v))
        mc.set_color(u, v, new)
        predicted = h0 ^ edge_color_hash(idx, old) ^ edge_color_hash(idx, new)
        assert state_hash(mc) == predicted


def test_state_hash_no_trivial_collisions():
    seen = {}
    for g in all_graphs(5):
        # the graph as a 2-coloring: edges color 1, non-edges color 2
        colors = [1 if g.has_edge(u, v) else 2 for u, v in pair_iter(5)]
        h = state_hash(MultiColoring(5, 2, colors))
        assert h not in seen
        seen[h] = g


def test_exhaustive_generators_sizes():
    assert sum(1 for _ in all_graphs(4)) == 2 ** 6
    assert sum(1 for _ in all_colorings(3, 3)) == 3 ** 3
