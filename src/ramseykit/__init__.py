"""Witness graphs for Ramsey lower bounds: construction, search, verification.

The package revolves around two carrier types, ``Graph`` (bit-row adjacency)
and ``MultiColoring`` (an r-edge-coloring of a complete graph), a small
problem algebra (books, wheels, cliques, and few-color clique avoidance),
and four engines on top: exact counting with O(delta) edge-flip updates,
hash-tabu local search, exhaustive bottom-up generation with isomorph
rejection, and polycirculant census enumeration.
"""

from .canon import (
    are_isomorphic,
    canonical_key,
    coloring_canonical_key,
)
from .counting import (
    CodegreeCache,
    WheelCache,
    book_toggle_delta,
    clique_toggle_delta,
    count_books,
    count_cliques,
    count_shape,
    count_wheels,
    gr_score,
    shape_toggle_delta,
    wheel_toggle_delta,
)
from .errors import (
    BudgetExceededError,
    CapabilityError,
    InputError,
    MalformedInputError,
    ParseError,
    RamseyKitError,
    VerificationError,
    WitnessNotFoundError,
)
from .fixtures import (
    FixtureRecord,
    FixtureReport,
    FixtureResult,
    load_fixtures,
    run_fixture_suite,
)
from .formats import (
    emit_color_matrix,
    graph6_decode,
    graph6_encode,
    parse_color_matrix,
    read_color_matrices,
    read_graph6_lines,
)
from .generate import GenerationResult, extend_one, generate_levels
from .graphs import Graph, MultiColoring
from .polycirculant import (
    CensusResult,
    PolycirculantSpec,
    build,
    enumerate_census,
    lemma_witness,
)
from .problems import (
    Book,
    Clique,
    GeneralizedProblem,
    Problem,
    Shape,
    TwoColorProblem,
    Wheel,
    parse_problem,
    parse_shape,
)
from .tabu import (
    ParallelOutcome,
    SearchOutcome,
    SearchStats,
    run_parallel,
    run_search,
)
from .verify import (
    Verdict,
    Violation,
    find_shape,
    has_shape_through,
    verify_witness,
    violation_holds,
)

__version__ = "0.1.0"
