"""Polycirculant witness construction, census enumeration, book-family lemma.

A k-polycirculant graph on n = k*m vertices carries an automorphism rho
rotating each of k blocks of size m by one position.  Adjacency is fixed by
connection sets: a symmetric difference set per block (diagonal) and an
arbitrary difference set per block pair (off-diagonal).  Vertex (a, i) for
block a in 1..k and index i in Z_m is labeled (a-1)*m + i.

Internally a connection set S_ab is an int mask (bit d set iff d in S_ab),
and the realizer builds rows by rotation: the row of (a, i) is the row of
(a, 0) with each block rotated left by i, where block b of the row of (a, 0)
holds S_ab, and S_ba is the negated mask {-d mod m}.  The census scan works
on masks from its option lists to its memo keys and probe graphs; only the
specs it emits become frozenset-based ``PolycirculantSpec`` objects.

Because rho is vertex-transitive on each block, a forbidden shape exists in
a realized graph iff one exists through some block representative, so one
probe checks a candidate with k through-vertex checks per colour.  The census
descends through k diagonal sets, each a union of the pair classes {d, m-d},
then one set per block pair, probing each set on the blocks it joins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations
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
from .graphs import Graph, bits_of
from .pool import check_workers, map_jobs
from .problems import Book, TwoColorProblem
from .verify import has_shape_through, verify


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


def _realize(k: int, m: int, diag, off) -> list[int]:
    """Rows of the k-polycirculant graph with connection masks diag and off.

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
    return rows


def build(spec: PolycirculantSpec) -> Graph:
    """Realize the spec; the block rotation is an automorphism by construction."""
    diag = [_mask(S) for S in spec.diag]
    off = [_mask(S) for S in spec.off]
    return Graph(spec.n, _realize(spec.k, spec.m, diag, off))


def _diag_options(m: int) -> list[int]:
    """Masks of every symmetric set, as unions of the pair classes {d, m-d}."""
    classes = [1 << d | 1 << (m - d) for d in range(1, m // 2 + 1)]
    return [
        sum(cl for idx, cl in enumerate(classes) if pick >> idx & 1)
        for pick in range(1 << len(classes))
    ]


def _circulant(m: int, S: int) -> Graph:
    return Graph(m, _realize(1, m, (S,), ()))


def _probe(k: int, m: int, diag, off, problem: TwoColorProblem) -> Graph | None:
    """The realized graph, or None when a left shape passes through a block
    representative in it, or a right shape does in its complement."""
    g = Graph(k * m, _realize(k, m, diag, off))
    reps = range(0, k * m, m)
    if any(has_shape_through(g, x, problem.left) for x in reps):
        return None
    comp = g.complement()
    if any(has_shape_through(comp, x, problem.right) for x in reps):
        return None
    return g


def _spec(k: int, m: int, diag, off) -> PolycirculantSpec:
    return PolycirculantSpec(
        k, m, tuple(frozenset(bits_of(S)) for S in diag), tuple(frozenset(bits_of(S)) for S in off)
    )


_STAGES = ("singles_tried", "singles_passed", "pairs_tried", "pairs_passed", "leaves")


@dataclass
class CensusResult:
    """The census, plus how many candidates each scan stage tried and passed.

    ``stages`` maps each of ``_STAGES`` to its count.  Probe counts count
    every single-block and pair check the scan asks for, memo hits included,
    so they do not depend on how the scan is striped across workers;
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
    the pair's two diagonal sets.  With three blocks a full spec is probed.

    Returns (stage counts, truncated, [(outer_index, seq, spec, graph), ...])
    with seq ascending, so merged results sorted by (outer_index, seq)
    reproduce the serial discovery order exactly.  Connection sets are
    masks throughout; a spec is made only for a graph the stripe keeps.
    """
    diag_opts = _diag_options(m)
    slots = [None] * k + block_pairs(k)
    counts = dict.fromkeys(_STAGES, 0)

    single_memo: dict[int, bool] = {}
    pair_memo: dict[tuple[int, int, int], bool] = {}

    def single_ok(S: int) -> bool:
        counts["singles_tried"] += 1
        if S not in single_memo:
            single_memo[S] = _probe(1, m, (S,), (), problem) is not None
        counts["singles_passed"] += single_memo[S]
        return single_memo[S]

    def pair_ok(Sa: int, Sb: int, Sab: int) -> bool:
        counts["pairs_tried"] += 1
        key = (Sa, Sb, Sab)
        ok = pair_memo.get(key)
        if ok is None:
            ok = _probe(2, m, (Sa, Sb), (Sab,), problem) is not None
            if k >= 3:  # with two blocks each (Sa, Sb) is scanned once: no key repeats
                pair_memo[key] = ok
        counts["pairs_passed"] += ok
        return ok

    found: Found = []

    def leaf(outer: int, diag: tuple[int, ...], off: tuple[int, ...]):
        if budget is not None and counts["leaves"] >= budget:
            raise BudgetExceededError(f"census budget {budget} exhausted")
        counts["leaves"] += 1
        g = _probe(k, m, diag, off, problem) if k >= 3 else Graph(k * m, _realize(k, m, diag, off))
        if g is None or (complement_blocks and not are_isomorphic(
            _circulant(m, diag[0]), _circulant(m, diag[1]).complement()
        )):
            return
        found.append((outer, len(found), _spec(k, m, diag, off), g))

    def descend(outer: int, chosen: tuple[int, ...]):
        if len(chosen) == len(slots):
            leaf(outer, chosen[:k], chosen[k:])
        elif (slot := slots[len(chosen)]) is None:
            for S in diag_opts:
                if single_ok(S):
                    descend(outer, chosen + (S,))
        else:
            Sa, Sb = chosen[slot[0] - 1], chosen[slot[1] - 1]
            for S in range(1 << m):
                if pair_ok(Sa, Sb, S):
                    descend(outer, chosen + (S,))

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
    if k not in (1, 2, 3):
        raise CapabilityError("census supports k in {1, 2, 3}")
    if m < 2:
        raise InputError("m must be at least 2")
    if m > 16:
        raise CapabilityError("census is desk-scale only: m capped at 16")
    if k * m > N_CAP:
        raise CapabilityError(f"census graphs need exact canonical forms: k*m capped at {N_CAP}")
    if complement_blocks and k != 2:
        raise InputError("complement-blocks filter needs exactly 2 blocks")
    if budget is not None and budget < 0:
        raise InputError(f"census budget must be at least 0, not {budget}")
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
    seen: set[bytes] = set()
    for _, _, spec, g in merged:
        key = canonical_key(g)
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
        if any(_probe(1, m, (D,), (), problem) is None for D in (S, full ^ S)):
            continue
        for S12 in range(1 << m):
            g = _probe(2, m, (S, full ^ S), (S12,), problem)
            if g is not None:
                verdict = verify(g, problem)
                if not verdict.valid:
                    raise VerificationError(
                        f"lemma witness failed verification: {verdict.violation}"
                    )
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
