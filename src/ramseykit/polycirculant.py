"""Polycirculant witness construction, census enumeration, book-family lemma.

A k-polycirculant graph on n = k*m vertices carries an automorphism rho
rotating each of k blocks of size m by one position.  Adjacency is fixed by
connection sets: a symmetric difference set per block (diagonal) and an
arbitrary difference set per block pair (off-diagonal).  Vertex (a, i) for
block a in 1..k and index i in Z_m is labeled (a-1)*m + i.

Internally a connection set S_ab is an int mask (bit d set iff d in S_ab),
and one realizer, ``_realize``, makes every graph from masks by rotation:
the row of (a, i) is the row of (a, 0) with each block rotated left by i,
where block b of the row of (a, 0) holds S_ab, and S_ba is the negated mask
{-d mod m}.  The census scan works on masks from its option lists to its
state tables and probe graphs; only the specs it emits become
frozenset-based ``PolycirculantSpec`` objects.

Because rho moves the block representatives 0, m, 2m, ... onto every
vertex, a forbidden shape exists in a realized graph iff some copy of it is
rooted at a representative: a book's spine end, a wheel's hub, a clique's
vertex (``verify.has_shape_at``).  So one probe checks a candidate with k
rooted checks per colour.  The census descends through k diagonal sets,
each a union of the pair classes {d, m-d}, then one set per block pair,
probing each set on the blocks it joins.

A block pair's passing sets are listed once per scan from a state table
filled by ``graphs.mask_state``.  The left check is a left shape in the
2-block graph, and the right check a right shape in its complement; a bit
added to the mask adds edges, so a left shape in a one-bit subset is one in
the mask, and a valid subset leaves only the left check.  The symmetry is
the dihedral group of order 2m: rotating the second block by t maps the
2-block graph with off-diagonal set S to the one with S + t, and reflecting
both blocks, i -> -i, maps it to the one with -S; both fix every symmetric
diagonal set.  So only the least mask of each orbit is decided, in
ascending order, and its state is written into every mask of the orbit,
where the subsets of later masks read it.  Swapping the two blocks also
maps S to -S, so the list for diagonal sets (Sb, Sa) is the one for
(Sa, Sb).

Multiplying every block by a unit a of Z_m, i -> a*i, maps the graph with
masks diag and off onto the one with masks a*diag and a*off (the
multiplier isomorphism of circulants).  So a pair's list is filled only
for the least pair of its class under the units, blocks in either order;
any other pair maps that list back by a^-1.  At the end of a census with
one or two blocks, a spec whose form, its least image under the units and
the dihedral maps, an earlier spec already had is isomorphic to that spec
and gets no canonical key.  Every key search is handed the block rotation
as a known automorphism, which prunes it from its first node on and leaves
the key as it is.

For the same reason a leaf whose row is not its own least image is
isomorphic to the leaf of that image, found before it in the same stripe:
it is counted but neither probed, realized nor keyed.  With two blocks the
row is the mask S12.  With three it is (S12, S13), whose images under
rotations of blocks 2 and 3 by t2 and t3 and one reflection of all three
blocks are (+-S12 + t2, +-S13 + t3), mapping each leaf's S23 to
+-S23 + t3 - t2.  Only the leaves of a least row are probed, through a
fresh state table over S23 with the row fixed: adding S23 bits only adds
edges, so the subset rule of a pair table holds there too.  A non-least
row's leaves are counted in one step.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import or_

from .canon import N_CAP, are_isomorphic, canonical_key
from .errors import (
    BudgetExceededError,
    CapabilityError,
    InputError,
    VerificationError,
    WitnessNotFoundError,
)
from .formats import graph6_encode
from .graphs import VALID, Graph, bits_of, least_masks, mask_images, mask_state
from .pool import check_limit, check_workers, map_jobs
from .problems import Book, TwoColorProblem
# has_shape_through stays bound here, as build does, for perfbench/tracing.py
from .verify import has_shape_at, has_shape_through, verify


def block_pairs(k: int) -> list[tuple[int, int]]:
    """Block-label pairs (a, b), a < b, in the serialization order."""
    return list(combinations(range(1, k + 1), 2))


@dataclass(frozen=True)
class PolycirculantSpec:
    k: int
    m: int
    diag: tuple[frozenset[int], ...]
    off: tuple[frozenset[int], ...] = ()

    def __post_init__(self):
        if self.k < 1:
            raise InputError("need at least one block")
        if self.m < 2:
            raise InputError("blocks need at least 2 vertices for rho to move them")
        if len(self.diag) != self.k:
            raise InputError(f"expected {self.k} diagonal sets, got {len(self.diag)}")
        if len(self.off) != self.k * (self.k - 1) // 2:
            raise InputError(
                f"expected {self.k * (self.k - 1) // 2} off-diagonal sets, got {len(self.off)}"
            )
        for a, S in enumerate(self.diag, 1):
            for d in S:
                if not 1 <= d <= self.m - 1:
                    raise InputError(f"S{a}{a} element {d} outside 1..{self.m - 1}")
                if (self.m - d) % self.m not in S:
                    raise InputError(f"S{a}{a} not symmetric: {d} in, {self.m - d} out")
        for (a, b), S in zip(block_pairs(self.k), self.off):
            for d in S:
                if not 0 <= d <= self.m - 1:
                    raise InputError(f"S{a}{b} element {d} outside 0..{self.m - 1}")

    @property
    def n(self) -> int:
        return self.k * self.m

    def serialize(self) -> str:
        parts = [f"k={self.k}", f"m={self.m}"]
        for a, S in enumerate(self.diag, 1):
            parts.append(f"S{a}{a}=" + ",".join(str(d) for d in sorted(S)))
        for (a, b), S in zip(block_pairs(self.k), self.off):
            parts.append(f"S{a}{b}=" + ",".join(str(d) for d in sorted(S)))
        return ";".join(parts)


def _mask(S) -> int:
    return sum(1 << d for d in S)


@lru_cache(maxsize=1 << 13)
def _rotations(S: int, m: int, shift: int, negate: bool) -> tuple[int, ...]:
    """Mask S, or {-d mod m : d in S} if negate, rotated left by 0..m-1
    within m bits and moved up by shift bits.

    Only the masks a scan asks for are cached; at m = 16 a full cache holds
    about 130k ints, where a table over every mask would hold a million.
    """
    full = (1 << m) - 1
    if negate:
        rev = int(format(S, f"0{m}b")[::-1], 2)  # d -> m-1-d
        S = (rev << 1 | rev >> (m - 1)) & full  # then -> m-d mod m
    return tuple(((S << i | S >> (m - i)) & full) << shift for i in range(m))


@lru_cache(maxsize=None)
def _least_images(m: int):
    """The least image of each m-bit mask under S -> S + t and S -> -S + t."""
    return least_masks(m, [[(d + 1) % m for d in range(m)], [-d % m for d in range(m)]])


@lru_cache(maxsize=None)
def _orbits(m: int) -> list[list[int]]:
    """The orbits of ``_least_images(m)``, each ascending and led by its
    least mask, in ascending order of that mask."""
    orbits: dict[int, list[int]] = {}
    for S, least in enumerate(_least_images(m)):
        orbits.setdefault(least, []).append(S)
    return list(orbits.values())


def _units(m: int) -> list[int]:
    """The units of Z_m up to sign: 1 <= a <= m/2, coprime to m.  A unit
    and its negation fix the same symmetric sets and send an off-diagonal
    mask to negated images, so one of the two serves for both."""
    return [a for a in range(1, m // 2 + 1) if gcd(a, m) == 1]


@lru_cache(maxsize=None)
def _multipliers(m: int) -> list[tuple[array, array]]:
    """For each of ``_units(m)``, a, the image tables of the m-bit masks
    under S -> a*S and under S -> b*S, where b is the unit with a*b = +-1
    (the same table when a = b)."""
    units = _units(m)
    tables = {a: array("H", mask_images(m, [a * d % m for d in range(m)])) for a in units}
    inverse = {a: min(pow(a, -1, m), -pow(a, -1, m) % m) for a in units}
    return [(tables[a], tables[inverse[a]]) for a in units]


def _form(m: int, diag, off) -> tuple[int, ...]:
    """The least image of the masks of a spec with one or two blocks under
    the units, taking the diagonal masks in either order and the
    off-diagonal mask by its least image.  Specs with one form are
    isomorphic: swapping the blocks maps S12 to -S12, which has the same
    least image."""
    least = _least_images(m) if off else ()
    return min(
        (*sorted(mul[S] for S in diag), *(least[mul[S]] for S in off))
        for mul, _ in _multipliers(m)
    )


def _rotation(k: int, m: int) -> tuple[int, ...]:
    """The block rotation, vertex (a, i) to (a, i + 1 mod m)."""
    return tuple(a * m + (i + 1) % m for a in range(k) for i in range(m))


def _realize(k: int, m: int, diag, off) -> Graph:
    """The k-polycirculant graph with connection masks diag and off; the
    block rotation is an automorphism by construction.

    The row of (a, i) is, over every block b, S_ab rotated left by i and
    placed in block b, where S_ba is S_ab negated; blocks share no bits, so
    the placed rotations are ORed together.
    """
    tables = [[_rotations(S, m, a * m, False)] for a, S in enumerate(diag)]
    for (a, b), S in zip(combinations(range(k), 2), off):
        tables[a].append(_rotations(S, m, b * m, False))
        tables[b].append(_rotations(S, m, a * m, True))
    rows: list[int] = []
    for first, *rest in tables:
        for table in rest:
            first = map(or_, first, table)
        rows += first
    return Graph(k * m, rows)


def build(spec: PolycirculantSpec) -> Graph:
    """Realize the spec."""
    return _realize(spec.k, spec.m, [_mask(S) for S in spec.diag], [_mask(S) for S in spec.off])


def _diag_options(m: int) -> list[int]:
    """Masks of every symmetric set, as unions of the pair classes {d, m-d}."""
    classes = [1 << d | 1 << (m - d) for d in range(1, m // 2 + 1)]
    return [
        sum(cl for idx, cl in enumerate(classes) if pick >> idx & 1)
        for pick in range(1 << len(classes))
    ]


def _through_reps(g: Graph, m: int, shape) -> bool:
    """Is shape in g, a polycirculant graph with blocks of size m?  The block
    rotation moves the representatives 0, m, 2m, ... onto every vertex, so
    some copy of any shape in g is rooted at one of them."""
    return any(has_shape_at(g, x, shape) for x in range(0, g.n, m))


def _probe(k: int, m: int, diag, off, problem: TwoColorProblem) -> Graph | None:
    """The realized graph, or None when a left shape passes through a block
    representative in it, or a right shape does in its complement."""
    g = _realize(k, m, diag, off)
    if _through_reps(g, m, problem.left) or _through_reps(g.complement(), m, problem.right):
        return None
    return g


def _slot_table(k: int, m: int, diag, fixed, problem):
    """An empty state table over the masks of the last off-diagonal slot of
    the k-block graphs with diagonal masks diag and the other off-diagonal
    masks fixed, its ``mask_state`` checks, and a one-item list that holds
    the graph the last left check realized."""
    last = [None]

    def left(S: int) -> bool:
        g = last[0] = _realize(k, m, diag, fixed + (S,))
        return _through_reps(g, m, problem.left)

    def right(S: int) -> bool:
        return _through_reps(last[0].complement(), m, problem.right)

    return bytearray(1 << m), left, right, last


def _valid_masks(m: int, diag: tuple[int, int], problem) -> list[int]:
    """The off-diagonal masks of the valid 2-block graphs with diagonal masks
    diag, ascending.  ``mask_state`` decides each least mask, ascending, and
    its state is written into every mask of its orbit, so the one-bit
    subsets of later masks read it; no other mask is realized."""
    table, left, right, _ = _slot_table(2, m, diag, (), problem)
    least = _least_images(m)
    valid = []
    for orbit in _orbits(m):
        state = mask_state(table, least, orbit[0], left, right)
        for S in orbit:
            table[S] = state
        if state == VALID:
            valid += orbit
    return sorted(valid)


def _pair_lists(m: int, problem):
    """``pass_list(Sa, Sb)``: the ``_valid_masks`` of the diagonal masks
    (Sa, Sb), ascending, each list made once.

    Only the least pair of each class under the multipliers, with its masks
    in either order, is probed.  If a maps (Sa, Sb) onto that pair, a mask
    S passes on (Sa, Sb) iff a*S passes on it, so the pair's list is the
    representative's mapped by the inverse of a, and re-sorted.  Every list
    is closed under negation, which maps each list of a swapped pair, and
    of a unit's negation, onto itself."""
    mults = _multipliers(m)
    lists: dict[tuple[int, int], array] = {}

    def pass_list(Sa: int, Sb: int) -> array:
        key = (Sa, Sb) if Sa <= Sb else (Sb, Sa)
        if key not in lists:
            rep, i = min(
                (tuple(sorted((mul[Sa], mul[Sb]))), i) for i, (mul, _) in enumerate(mults)
            )
            if rep not in lists:
                lists[rep] = array("H", _valid_masks(m, rep, problem))
            if rep != key:
                back = mults[i][1]
                lists[key] = array("H", sorted([back[S] for S in lists[rep]]))
        return lists[key]

    return pass_list


def _is_least_row(m: int, S12: int, S13: int) -> bool:
    """Is (S12, S13) the least of its images (+-S12 + t2, +-S13 + t3), one
    sign for both?"""
    return all(
        (min(_rotations(S12, m, 0, negate)), min(_rotations(S13, m, 0, negate))) >= (S12, S13)
        for negate in (False, True)
    )


def _spec(k: int, m: int, diag, off) -> PolycirculantSpec:
    return PolycirculantSpec(
        k, m, tuple(frozenset(bits_of(S)) for S in diag), tuple(frozenset(bits_of(S)) for S in off)
    )


_STAGES = ("singles_tried", "singles_passed", "pairs_tried", "pairs_passed", "leaves")


@dataclass
class CensusResult:
    """The census, plus how many candidates each scan stage tried and passed.

    ``stages`` maps each of ``_STAGES`` to its count.  Probe counts count
    every single-block and pair check the scan asks for, memo and table hits
    included, so they do not depend on how the scan is striped across workers;
    ``examined`` reads ``stages["leaves"]``, the number of assembled specs.
    """

    k: int
    m: int
    problem: TwoColorProblem
    specs: list[PolycirculantSpec] = field(default_factory=list)
    graphs: list[Graph] = field(default_factory=list)
    complete: bool = True
    stages: dict[str, int] = field(default_factory=dict)

    @property
    def examined(self) -> int:
        return self.stages.get("leaves", 0)

    @property
    def count(self) -> int:
        return len(self.graphs)

    def lines(self) -> list[str]:
        out = [graph6_encode(g) + "  # " + s.serialize() for s, g in zip(self.specs, self.graphs)]
        tag = "" if self.complete else "  [truncated]"
        out.append(
            f"census k={self.k} m={self.m} problem={self.problem} "
            f"count={self.count} examined={self.examined}{tag}"
        )
        return out


Found = list[tuple[int, int, PolycirculantSpec, Graph]]


def _scan_stripe(k, m, problem, complement_blocks, outers, budget) -> tuple[dict, bool, Found]:
    """Scan every spec whose first diagonal set is in ``outers``, a list of
    ``(outer index, mask)`` pairs dealt from ``_diag_options(m)``.  One
    descent fills k diagonal slots, each with a set that probes valid as a
    circulant, then one slot per block pair, with a set that probes valid on
    the pair's two diagonal sets.  With three blocks the full specs of a
    least row are decided in one state table over S23.

    A block pair's passing masks, from ``_pair_lists``, are listed once per
    stripe and probed once per multiplier class of pairs.  A slot walks
    only its passing masks but counts every mask below each one as tried,
    as a scan of all 2^m masks would, so a budget stop leaves the same
    partial counts.  A leaf
    whose row (S12, or S12 and S13) is not its own least image is counted
    and nothing more; see the module docstring.  A non-least 3-block row
    adds its leaves and its S23 pair counts in one step, unless the budget
    stops inside it; then it is walked leaf by leaf to the same cut.

    Returns (stage counts, truncated, [(outer_index, seq, spec, graph), ...])
    with seq ascending, so merged results sorted by (outer_index, seq)
    reproduce the serial discovery order exactly.  Connection sets are
    masks throughout; a spec is made only for a graph the stripe keeps.
    """
    diag_opts = _diag_options(m)
    counts = dict.fromkeys(_STAGES, 0)

    single_memo: dict[int, bool] = {}
    pass_list = _pair_lists(m, problem) if k >= 2 else None
    least = _least_images(m) if k == 2 else None
    # a row table is fresh for each row, so no mask has an image to read
    identity = range(1 << m)

    def single_ok(S: int) -> bool:
        counts["singles_tried"] += 1
        if S not in single_memo:
            single_memo[S] = _probe(1, m, (S,), (), problem) is not None
        counts["singles_passed"] += single_memo[S]
        return single_memo[S]

    def passing(Sa: int, Sb: int):
        tried = 0
        for S in pass_list(Sa, Sb):
            counts["pairs_tried"] += S + 1 - tried
            counts["pairs_passed"] += 1
            tried = S + 1
            yield S
        counts["pairs_tried"] += (1 << m) - tried

    def leaf():
        if budget is not None and counts["leaves"] >= budget:
            raise BudgetExceededError(f"census budget {budget} exhausted")
        counts["leaves"] += 1

    found: Found = []

    def keep(outer: int, diag: tuple[int, ...], off: tuple[int, ...], g: Graph):
        found.append((outer, len(found), _spec(k, m, diag, off), g))

    def descend(outer: int, diag: tuple[int, ...]):
        if len(diag) < k:
            for S in diag_opts:
                if single_ok(S):
                    descend(outer, diag + (S,))
        elif k == 1:
            leaf()
            keep(outer, diag, (), _realize(1, m, diag, ()))
        elif k == 2:
            for S12 in passing(*diag):
                leaf()
                if least[S12] == S12 and (not complement_blocks or are_isomorphic(
                    _realize(1, m, diag[:1], ()), _realize(1, m, diag[1:], ()).complement()
                )):
                    keep(outer, diag, (S12,), _realize(2, m, diag, (S12,)))
        else:
            S1, S2, S3 = diag
            for S12 in passing(S1, S2):
                for S13 in passing(S1, S3):
                    if _is_least_row(m, S12, S13):
                        table, left, right, last = _slot_table(3, m, diag, (S12, S13), problem)
                        for S23 in passing(S2, S3):
                            leaf()
                            if mask_state(table, identity, S23, left, right) == VALID:
                                keep(outer, diag, (S12, S13, S23), last[0])
                        continue
                    # counted as a walk of the row's passing masks counts it
                    row = pass_list(S2, S3)
                    if budget is None or counts["leaves"] + len(row) <= budget:
                        counts["leaves"] += len(row)
                        counts["pairs_passed"] += len(row)
                        counts["pairs_tried"] += 1 << m
                    else:
                        # the budget stops inside this row: walk it to the cut
                        for _ in passing(S2, S3):
                            leaf()

    try:
        for outer, S0 in outers:
            if single_ok(S0):
                descend(outer, (S0,))
    except BudgetExceededError:
        return counts, True, found
    return counts, False, found


def enumerate_census(
    k: int,
    m: int,
    problem: TwoColorProblem,
    complement_blocks: bool = False,
    budget: int | None = None,
    workers: int | None = None,
) -> CensusResult:
    """All valid k-polycirculant witnesses with block size m, up to isomorphism.

    Scanning is staged: each diagonal set must realize a valid circulant on
    its own block, each off-diagonal set a valid 2-block graph, before the
    full spec is assembled.  ``budget`` caps the number of fully assembled
    specs; exceeding it raises with the partial census attached.
    ``complement_blocks`` (k = 2 only) keeps the specs whose second block is
    isomorphic to the complement of the first.  ``workers`` (1 to
    ``pool.MAX_JOBS``) deals the first diagonal sets round-robin to at most
    that many processes, as generation deals its frontier (budget is then
    enforced per worker, and stage counts are summed).
    """
    if not isinstance(problem, TwoColorProblem):
        raise InputError("census enumeration covers two-color problems only")
    if k < 1:
        raise InputError("census needs at least one block")
    if k > 3:
        raise CapabilityError("census supports k in {1, 2, 3}")
    if m < 2:
        raise InputError("m must be at least 2")
    if m > 16:
        raise CapabilityError("census is desk-scale only: m capped at 16")
    if k * m > N_CAP:
        raise CapabilityError(f"census graphs need exact canonical forms: k*m capped at {N_CAP}")
    if complement_blocks and k != 2:
        raise InputError("complement-blocks filter needs exactly 2 blocks")
    check_limit("census budget", budget)
    workers = check_workers(workers)

    outers = list(enumerate(_diag_options(m)))
    # a stripe past the number of outer diagonal sets would scan nothing
    nstripes = min(workers, len(outers))
    jobs = [
        (k, m, problem, complement_blocks, outers[w::nstripes], budget) for w in range(nstripes)
    ]
    outcomes = map_jobs(_scan_stripe, jobs)

    stages = {name: sum(c[name] for c, _, _ in outcomes) for name in _STAGES}
    truncated = any(t for _, t, _ in outcomes)
    # (outer_index, seq) pairs are distinct, so the sort never compares specs
    merged = sorted(item for _, _, items in outcomes for item in items)
    result = CensusResult(k=k, m=m, problem=problem, stages=stages)
    rotation = [_rotation(k, m)]
    forms: set[tuple[int, ...]] = set()
    seen: set[bytes] = set()
    for _, _, spec, g in merged:
        if k <= 2:
            # a spec with an earlier spec's form is isomorphic to it, and
            # that spec's class is already represented
            form = _form(m, [_mask(S) for S in spec.diag], [_mask(S) for S in spec.off])
            if form in forms:
                continue
            forms.add(form)
        key = canonical_key(g, rotation)
        if key in seen:
            continue
        seen.add(key)
        verdict = verify(g, problem)
        if not verdict.valid:
            raise VerificationError(f"census produced an invalid graph: {verdict.violation}")
        result.specs.append(spec)
        result.graphs.append(g)
    if truncated:
        result.complete = False
        raise BudgetExceededError(f"census budget {budget} exhausted", partial=result)
    return result


def lemma_witness(n: int) -> Graph:
    """A verified witness showing R(B_{n-1}, B_n) >= 4n-1, order 4n-2.

    Tries 2-polycirculant constructions with blocks of size m = 2n-1 first:
    the ansatz that the second block is the complementary circulant of the
    first, then the first graph of the 2-block census, which scans the
    whole space in the same order.  Every case from n = 5 on lands in the
    ansatz; at n = 4 the whole 2-block space is empty (exhaustively
    checked), even though 14-vertex witnesses exist, so as a last resort
    the bound is re-established by seeded local search.  Whatever strategy
    hits, the returned graph has been re-verified.
    """
    if n < 2:
        raise InputError("book index n must be at least 2")
    if n > 8:
        raise CapabilityError("lemma witness search is desk-scale only: n capped at 8")
    m = 2 * n - 1
    problem = TwoColorProblem(Book(n - 1), Book(n))
    full = (1 << m) - 2  # every difference 1..m-1
    for S in _diag_options(m):
        diag = (S, full ^ S)
        if any(_probe(1, m, (D,), (), problem) is None for D in diag):
            continue
        valid = _valid_masks(m, diag, problem)
        if valid:
            g = _realize(2, m, diag, valid[:1])
            verdict = verify(g, problem)
            if not verdict.valid:
                raise VerificationError(f"lemma witness failed verification: {verdict.violation}")
            return g
    try:
        census = enumerate_census(2, m, problem)
    except VerificationError as exc:
        raise VerificationError(f"lemma witness failed verification: {exc}") from exc
    if census.graphs:
        return census.graphs[0]
    from .tabu import run_search

    for seed in range(8):
        outcome = run_search(problem, 4 * n - 2, seed=seed, max_steps=400_000)
        if outcome.found:
            return outcome.witness
    raise WitnessNotFoundError(
        f"no witness of order {4 * n - 2} found for {problem}; "
        "the book lower-bound family should contain one"
    )
