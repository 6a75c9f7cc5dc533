import hashlib
import random
from collections import defaultdict
from itertools import combinations, permutations

import networkx as nx
import pytest
from networkx.algorithms.isomorphism import GraphMatcher

import ramseykit.canon as canon
import ramseykit.generate as generate
from ramseykit.canon import (
    N_CAP,
    are_isomorphic,
    canonical_form,
    canonical_key,
    coloring_canonical_key,
)
from ramseykit.errors import CapabilityError
from ramseykit.fixtures import load_fixtures
from ramseykit.formats import graph6_decode, read_color_matrices
from ramseykit.generate import generate_levels
from ramseykit.graphs import Graph, MultiColoring, pair_iter
from ramseykit.problems import parse_problem

from oracles import (
    all_graphs,
    coloring_key_all_renamings,
    cycle_graph,
    random_coloring,
    random_graph,
)


def test_relabel_invariance():
    rng = random.Random(42)
    for _ in range(300):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        assert canonical_key(g) == canonical_key(g.relabel(perm))


def canonical_relabel(g):
    """g relabeled into the order canonical_form returns (vertex order[i] -> i)."""
    _, order = canonical_form(g)
    return g.relabel([order.index(v) for v in range(g.n)])


def test_canonical_graph_is_isomorphic_representative():
    # isomorphic graphs relabel into one and the same graph
    rng = random.Random(43)
    for _ in range(100):
        n = rng.randint(1, 10)
        g = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        cg = canonical_relabel(g)
        assert canonical_relabel(g.relabel(perm)) == cg
        assert canonical_key(cg) == canonical_key(g)


def test_canonical_order_realizes_key():
    rng = random.Random(44)
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 10))
        key, order = canonical_form(g)
        assert sorted(order) == list(range(g.n))
        # the relabeled graph's upper triangle, column-major, is the key body
        cg = canonical_relabel(g)
        assert key == b"G" + bytes([g.n]) + bytes(cg.has_edge(u, v) for u, v in pair_iter(g.n))


def test_key_separates_classes_exhaustively_n4():
    """Keys agree exactly on isomorphism classes: brute-force check, n = 4."""
    graphs = list(all_graphs(4))
    for a in graphs:
        for b in graphs:
            brute = any(a.relabel(list(p)) == b for p in permutations(range(4)))
            assert (canonical_key(a) == canonical_key(b)) == brute


def test_class_counts_match_known_sequence():
    # nonisomorphic simple graphs on 1..6 vertices
    expected = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
    for n, want in expected.items():
        keys = {canonical_key(g) for g in all_graphs(n)}
        assert len(keys) == want


def test_are_isomorphic_spot_cases():
    c6 = cycle_graph(6)
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not are_isomorphic(c6, two_triangles)
    assert are_isomorphic(c6, c6.relabel([3, 1, 4, 0, 5, 2]))
    # Petersen is vertex-transitive, self-complementary it is not
    assert not are_isomorphic(cycle_graph(5), Graph(5).complement())


@pytest.mark.parametrize("gen_cap", [canon.GEN_CAP, 0])
def test_trivial_inputs_take_the_constant_key(monkeypatch, gen_cap):
    # edgeless and complete graphs and one-color colorings have one key per
    # order, whatever automorphisms the search keeps
    monkeypatch.setattr(canon, "GEN_CAP", gen_cap)
    for n in list(range(1, 13)) + [N_CAP]:
        pairs = n * (n - 1) // 2
        for g, bit in ((Graph(n), 0), (Graph(n).complement(), 1)):
            key, order = canonical_form(g)
            assert key == b"G" + bytes([n]) + bytes([bit]) * pairs
            # every ordering of these graphs realizes the key
            assert sorted(order) == list(range(n))
    for n in range(1, 9):
        pairs = n * (n - 1) // 2
        for r in range(2, 5):
            head = b"C" + bytes([n, r])
            for c in range(1, r + 1):
                mc = MultiColoring(n, r, [c] * pairs)
                assert coloring_canonical_key(mc) == head + bytes([1]) * pairs


def test_cap_enforced():
    with pytest.raises(CapabilityError):
        canonical_key(Graph(N_CAP + 1))
    canonical_key(Graph(N_CAP))  # boundary is allowed


def test_coloring_key_relabel_invariance():
    rng = random.Random(45)
    for _ in range(150):
        n = rng.randint(2, 8)
        r = rng.randint(2, 4)
        mc = random_coloring(rng, n, r)
        perm = list(range(n))
        rng.shuffle(perm)
        assert coloring_canonical_key(mc) == coloring_canonical_key(mc.relabel(perm))


def test_coloring_key_color_swap_invariance():
    rng = random.Random(46)
    for _ in range(100):
        n = rng.randint(2, 7)
        r = rng.randint(2, 4)
        mc = random_coloring(rng, n, r)
        colors = list(range(1, r + 1))
        rng.shuffle(colors)
        mapping = {c: colors[c - 1] for c in range(1, r + 1)}
        swapped = MultiColoring(n, r, [mapping[c] for c in mc.colors])
        assert coloring_canonical_key(mc) == coloring_canonical_key(swapped)


def test_coloring_key_distinguishes_plain_difference():
    a = MultiColoring(3, 2, [1, 1, 2])
    b = MultiColoring(3, 2, [1, 1, 1])
    assert coloring_canonical_key(a) != coloring_canonical_key(b)


def test_two_color_swap_matches_complement():
    """For r=2 colorings, swapping colors is graph complementation."""
    rng = random.Random(47)
    for _ in range(50):
        n = rng.randint(2, 8)
        g = random_graph(rng, n)
        mc = MultiColoring(n, 2)
        for u, v in g.edges():
            mc.set_color(u, v, 2)
        swapped = MultiColoring(n, 2, [3 - c for c in mc.colors])
        assert swapped.color_class(2) == g.complement()
        assert coloring_canonical_key(mc) == coloring_canonical_key(swapped)


# ---------------------------------------------------------------------------
# Pinned keys and an independent isomorphism cross-check

# the seven criterion-3 census witnesses (k=2, m=10, B2,B9), then three
# census graphs isomorphic to witnesses whose search trees run to thousands
# of nodes unless automorphisms prune them
CENSUS_WITNESSES = (
    "S???????D~z}z{|{^]Fz_~kB~OF~?B~_?",
    "S???????F~~}~{~{^}F~_~{B~oF~_F~_?",
    "SQGOOIAOSEwKWKkCZ@BWGLa_ZD?ZD?La_",
    "SQGOOIAOSHwQwO[GFBCwGRa_fD?fD?Ra_",
    "SQGOOIAOSEwKWKkCZ@BWWLb_ZF?ZF?Lb_",
    "SlSgkTDglTIjihTUtSiitihTTYlTIiitS",
    "SQIQPIQQSEwKWKkCZ@BWWLb_ZF?ZF?Lb_",
)
CENSUS_HARD = (
    "SlUilTTilPIbi`TQdSgitahTDYlDIiatS",
    "SlUilTTiiatDTDiaighTTDTUIiiIilDTS",
    "SlUilTTilDIJiHTEtOiiTIhSTYkTIiItS",
)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def circulant(n, jumps):
    return Graph.from_edges(n, [(i, (i + d) % n) for i in range(n) for d in jumps])


def hypercube(d):
    edges = [(v, v | 1 << b) for v in range(1 << d) for b in range(d) if not v >> b & 1]
    return Graph.from_edges(1 << d, edges)


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def group_order(n, gens):
    """The order of the permutation group that gens generate, by closure."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for gen in gens:
            q = tuple(gen[p[v]] for v in range(n))
            if q not in group:
                group.add(q)
                todo.append(q)
    return len(group)


@pytest.mark.parametrize(
    "g, order",
    [
        (cycle_graph(8), 16),
        (complete_bipartite(3, 3), 72),
        (petersen(), 120),
        (Graph(4), 24),
        (Graph(5).complement(), 120),
        (Graph(2), 2),
        (Graph(1), 1),
        (Graph(6), 720),
        (Graph(3).complement(), 6),
    ],
)
def test_automorphisms_generate_the_group(g, order):
    gens = canon.automorphisms(g)
    assert all(g.relabel(p) == g for p in gens)
    assert group_order(g.n, gens) == order


def test_asymmetric_graph_has_no_automorphisms():
    # a path 0-1-2-3-4 with 5 joined to 2 and 3: the smallest asymmetric order
    g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (3, 5)])
    assert canon.automorphisms(g) == []


def symmetric_graphs():
    return [petersen(), circulant(20, (1, 4, 9)), hypercube(4), complete_bipartite(5, 5)]


def census_graphs():
    return [graph6_decode(text) for text in CENSUS_WITNESSES + CENSUS_HARD]


def fixture_objects(kind):
    return [rec.load() for rec in load_fixtures() if rec.kind == kind]


def pinned_graphs():
    rng = random.Random(20240710)
    graphs = [random_graph(rng, rng.randint(1, 14), rng.random()) for _ in range(150)]
    graphs += [Graph(1), Graph(6), Graph(7).complement(), cycle_graph(9)]
    return graphs + fixture_objects("graph6") + census_graphs() + symmetric_graphs()


def pinned_colorings():
    rng = random.Random(20240711)
    colorings = [random_coloring(rng, rng.randint(2, 8), rng.randint(2, 4)) for _ in range(80)]
    colorings += [MultiColoring(5, 3), MultiColoring(1, 2)]
    return colorings + fixture_objects("matrix")


def key_digest(keys):
    """sha256 over keys in order, each preceded by its length as two
    big-endian bytes."""
    h = hashlib.sha256()
    for key in keys:
        h.update(len(key).to_bytes(2, "big") + key)
    return h.hexdigest()


# the graph keys above are those of the canonical labeling the package
# shipped before automorphism pruning cut the search tree
GRAPH_KEY_DIGEST = "92d8bf3dc896f8fefd4a6b4df9385d509858af9e819e3ec7b2b39b38a390f1c4"
# the color keys above, searched over the degree-ordered color renamings
COLOR_KEY_DIGEST = "07c751aca73fbcf222002f721ad39d07abb749141a9bb57e87aa29af717b4775"
# the same colorings keyed over all r! renamings, as the package keyed them
# before; coloring_key_all_renamings must still give these bytes
ALL_RENAMINGS_DIGEST = "7f438173e599985c22ac2172edc6d410c910a431ba0617299fa5100ed4ee385f"


def test_keys_match_pinned_digest():
    assert key_digest(canonical_key(g) for g in pinned_graphs()) == GRAPH_KEY_DIGEST
    assert key_digest(coloring_canonical_key(mc) for mc in pinned_colorings()) == COLOR_KEY_DIGEST


def test_keys_do_not_depend_on_stored_automorphisms(monkeypatch):
    # with nothing stored, each automorphism still prunes the current path
    monkeypatch.setattr(canon, "GEN_CAP", 0)
    test_keys_match_pinned_digest()


def test_keys_do_not_depend_on_known_automorphisms():
    # automorphisms handed in beforehand only prune, as found ones do
    graphs = pinned_graphs()
    keys = [canonical_key(g, canon.automorphisms(g)) for g in graphs]
    assert key_digest(keys) == GRAPH_KEY_DIGEST


def renamed_copies(mc, rng):
    """mc relabeled, and mc relabeled with its colors renamed."""
    perm = list(range(mc.n))
    rng.shuffle(perm)
    names = list(range(1, mc.r + 1))
    rng.shuffle(names)
    moved = mc.relabel(perm)
    return [moved, MultiColoring(mc.n, mc.r, [names[c - 1] for c in moved.colors])]


def classes(keys):
    """The partition of positions that equal keys make."""
    groups = defaultdict(list)
    for i, key in enumerate(keys):
        groups[key].append(i)
    return sorted(groups.values())


def test_degree_ordered_renamings_split_as_all_renamings(gr_runs):
    # the color key searches only the renamings that order the color
    # classes by degree sequence; it must make the same classes as the
    # search over every renaming, whose bytes are pinned as the old key's
    rng = random.Random(20240713)
    pinned = pinned_colorings()
    assert key_digest(map(coloring_key_all_renamings, pinned)) == ALL_RENAMINGS_DIGEST
    inputs = list(pinned)
    for mc in pinned:
        inputs += renamed_copies(mc, rng)
    for _, keyed, _ in gr_runs.values():
        inputs += [mc for _, mc in keyed]
    new = classes(map(coloring_canonical_key, inputs))
    assert new == classes(map(coloring_key_all_renamings, inputs))
    assert len(new) < len(inputs)


def to_nx(g):
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges())
    return out


def moved_edge(g, rng):
    """g with one edge moved onto a non-edge: same order and edge count."""
    edges = list(g.edges())
    non_edges = [(u, v) for u, v in pair_iter(g.n) if not g.has_edge(u, v)]
    out = g.copy()
    if edges and non_edges:
        out.toggle_edge(*rng.choice(edges))
        out.add_edge(*rng.choice(non_edges))
    return out


def cross_check_inputs():
    rng = random.Random(20240712)
    bases = census_graphs() + fixture_objects("graph6") + symmetric_graphs()
    bases += [random_graph(rng, rng.randint(2, 12), rng.random()) for _ in range(60)]
    for g in bases:
        perm = list(range(g.n))
        rng.shuffle(perm)
        flipped = g.copy()
        flipped.toggle_edge(*rng.sample(range(g.n), 2))
        # two independent edge moves of the same graph are isomorphic to
        # each other now and then, and to the base only rarely
        yield g, [g.relabel(perm), flipped, moved_edge(g, rng), moved_edge(g, rng)]


def test_keys_agree_with_networkx_isomorphism():
    positives = negatives = 0
    for g, variants in cross_check_inputs():
        family = [g] + variants
        keys = [canonical_key(x) for x in family]
        graphs = [to_nx(x) for x in family]
        for i in range(len(family)):
            for j in range(i + 1, len(family)):
                iso = nx.is_isomorphic(graphs[i], graphs[j])
                assert (keys[i] == keys[j]) == iso, (i, j, g.n)
                positives += iso
                negatives += not iso
    assert positives and negatives


def test_census_graph_keys_agree_with_networkx():
    graphs = census_graphs()
    keys = [canonical_key(g) for g in graphs]
    nxg = [to_nx(g) for g in graphs]
    for i in range(len(graphs)):
        for j in range(i + 1, len(graphs)):
            assert (keys[i] == keys[j]) == nx.is_isomorphic(nxg[i], nxg[j])
    assert len(set(keys[: len(CENSUS_WITNESSES)])) == len(CENSUS_WITNESSES)


def test_canonical_form_order_realizes_key_on_cross_check_inputs():
    for g, variants in cross_check_inputs():
        for x in [g] + variants:
            key, order = canonical_form(x)
            assert sorted(order) == list(range(x.n))
            inv = [0] * x.n
            for pos, v in enumerate(order):
                inv[v] = pos
            y = x.relabel(inv)
            realized = bytes(y.rows[u] >> v & 1 for u, v in pair_iter(x.n))
            assert key == b"G" + bytes([x.n]) + realized


# Colour keys against VF2: the GR generation counts, among them the 0 at
# order 10 behind GR(3,K4,2) = 10 and GR(4,K4,3) = 10, rest on
# coloring_canonical_key, so its merges and splits are checked here by an
# isomorphism test that canon does not compute.


def colored_nx(mc, names):
    """mc as a complete networkx graph, the edge of color c labeled names[c - 1]."""
    out = nx.Graph()
    out.add_nodes_from(range(mc.n))
    out.add_edges_from(
        (u, v, {"c": names[c - 1]}) for (u, v), c in zip(pair_iter(mc.n), mc.colors)
    )
    return out


def _same_color(e1, e2):
    return e1["c"] == e2["c"]


def isomorphic_colorings(a, b):
    """a and b are isomorphic under some vertex relabeling and color renaming."""
    ga = colored_nx(a, range(1, a.r + 1))
    return any(
        GraphMatcher(ga, colored_nx(b, names), edge_match=_same_color).is_isomorphic()
        for names in permutations(range(1, b.r + 1))
    )


def least_wl_hash(mc):
    """The least Weisfeiler-Lehman hash of mc over color renamings: equal
    for isomorphic colorings."""
    return min(
        nx.weisfeiler_lehman_graph_hash(colored_nx(mc, names), edge_attr="c")
        for names in permutations(range(1, mc.r + 1))
    )


@pytest.fixture(scope="module")
def gr_runs(tmp_path_factory):
    """Per problem, a generation run to order 10: its counts, every
    (key, child) that it keys, in keying order, and the kept colorings of
    each level, read back from its dump."""
    runs = {}
    with pytest.MonkeyPatch.context() as mp:
        for text in ("GR:3,K4,2", "GR:4,K4,3"):
            problem = parse_problem(text)
            keyed = []

            def record(mc, keyed=keyed):
                key = coloring_canonical_key(mc)
                keyed.append((key, mc))
                return key

            mp.setattr(generate, "coloring_canonical_key", record)
            out = tmp_path_factory.mktemp("levels")
            counts = generate_levels(problem, 10, dump_dir=str(out)).counts
            levels = []
            for order in range(1, 11):
                path = out / f"n{order}.txt"
                if path.exists():
                    rows = read_color_matrices(path.read_text(), problem.r)
                    levels.append([mc for _, mc in rows])
            runs[text] = counts, keyed, levels
    return runs


@pytest.mark.parametrize("text", ["GR:3,K4,2", "GR:4,K4,3"])
def test_repeated_color_keys_are_isomorphic(gr_runs, text):
    # no false merge: a child whose key repeats is dropped as a duplicate
    _, keyed, _ = gr_runs[text]
    first = {}
    repeats = 0
    for key, mc in keyed:
        if key in first:
            assert isomorphic_colorings(first[key], mc), (text, mc.n)
            repeats += 1
        else:
            first[key] = mc
    assert repeats


@pytest.mark.parametrize("text", ["GR:3,K4,2", "GR:4,K4,3"])
def test_kept_colorings_are_pairwise_non_isomorphic(gr_runs, text):
    # no false split: no two kept children of a level are isomorphic
    counts, _, levels = gr_runs[text]
    assert [len(level) for level in levels] == counts[: len(levels)]
    assert not any(counts[len(levels):])
    for level in levels:
        buckets = defaultdict(list)
        for mc in level:
            buckets[least_wl_hash(mc)].append(mc)
        for bucket in buckets.values():
            for a, b in combinations(bucket, 2):
                assert not isomorphic_colorings(a, b), (text, a.n)
