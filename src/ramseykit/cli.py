"""Command-line front end.

Exit codes: 0 success, 1 a checked object failed verification (an input, or
a witness the package built that failed its re-verification), 2 malformed
input or bad flags, 3 a search or budget limit was hit, 4 a worker process
was lost (killed, or out of memory) before reporting.  Subcommands wrap
the library modules one-to-one; anything randomized takes an explicit
--seed, and --deterministic makes the seed mandatory.  ``search`` is always
a ``run_parallel`` race, of one seed per worker: with --workers 1 the one
run is made in this process, and the messages are the same for any count.
"""

from __future__ import annotations

import argparse
import random
import sys

from .counting import count_shape, gr_score
from .errors import (
    BudgetExceededError,
    CapabilityError,
    InputError,
    MalformedInputError,
    ParseError,
    VerificationError,
    WorkerLost,
)
from .fixtures import run_fixture_suite
from .formats import emit_color_matrix, graph6_encode, read_color_matrices, read_graph6_lines
from .generate import generate_levels
from .graphs import Graph, MultiColoring
from .polycirculant import CensusResult, enumerate_census
from .pool import check_workers
from .problems import Problem, TwoColorProblem, parse_problem
from .tabu import run_parallel
from .verify import _checked_object, verify_witness, violation_holds


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise MalformedInputError(f"{path}: {exc}") from exc


def _load_inputs(args, command: str) -> tuple[Problem, list[tuple[str, Graph | MultiColoring]]]:
    """The problem of a verify or count run and its (path:line, object)
    pairs.  A file may hold many graph6 lines or many matrices, each matrix
    with the problem's color count; every object is read through verify's
    object rule, so a two-color problem gets a Graph, and a refused object
    is named at its path:line."""
    problem = parse_problem(args.problem)
    out: list[tuple[str, Graph | MultiColoring]] = []
    for path in args.inputs:
        text = _read_text(path)
        if args.format == "graph6":
            objs = read_graph6_lines(text)
        else:
            objs = read_color_matrices(text, problem.r)
        for lineno, obj in objs:
            label = f"{path}:{lineno}"
            try:
                out.append((label, _checked_object(obj, problem)))
            except InputError as exc:
                raise InputError(f"{label}: {exc}") from None
    if not out:
        raise InputError(f"no inputs to {command}")
    return problem, out


def cmd_verify(args) -> int:
    problem, inputs = _load_inputs(args, "verify")
    bad = 0
    for label, obj in inputs:
        verdict = verify_witness(obj, problem)
        if verdict.valid:
            print(f"{label}: ok n={obj.n} problem={problem}")
        else:
            if not violation_holds(obj, problem, verdict.violation):
                raise VerificationError(
                    f"{label}: certificate failed its re-check: {verdict.violation}"
                )
            bad += 1
            print(f"{label}: INVALID n={obj.n} problem={problem}: {verdict.violation}")
    return 1 if bad else 0


def cmd_count(args) -> int:
    problem, inputs = _load_inputs(args, "count")
    for label, obj in inputs:
        if isinstance(problem, TwoColorProblem):
            left = count_shape(obj, problem.left)
            right = count_shape(obj.complement(), problem.right)
            print(f"{label}: left={left} right={right} score={left + right}")
        else:
            print(f"{label}: score={gr_score(obj, problem.s, problem.t)}")
    return 0


def _emit_witness(obj: Graph | MultiColoring, out_path: str | None) -> None:
    # a colour matrix already ends in a newline; graph6 gets its one here
    text = graph6_encode(obj) + "\n" if isinstance(obj, Graph) else emit_color_matrix(obj)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _progress_to_stderr(msg: str) -> None:
    # a module-level function, not a lambda, so it pickles for workers
    # started by spawn or forkserver
    print(msg, file=sys.stderr)


def cmd_search(args) -> int:
    problem = parse_problem(args.problem)
    if args.deterministic and args.seed is None:
        raise InputError("--deterministic requires --seed")
    seed = args.seed
    if seed is None:
        seed = random.SystemRandom().randrange(2**32)
        print(f"seed: {seed}", file=sys.stderr)
    outcome = run_parallel(
        problem,
        args.n,
        seeds=[seed + i for i in range(check_workers(args.workers))],
        max_steps=args.max_steps,
        max_seconds=args.max_seconds,
        progress=_progress_to_stderr if args.progress else None,
    )
    if outcome.found:
        _emit_witness(outcome.witness, args.output)
        steps = next(o.stats.steps for o in outcome.outcomes if o.found)
        print(
            f"found by seed {outcome.winner_seed} in {steps} steps, {outcome.elapsed:.1f}s",
            file=sys.stderr,
        )
        return 0
    lost = [f"worker {i} {f}" for i, f in enumerate(outcome.fates) if f.startswith("lost")]
    if lost:
        print("no witness: " + "; ".join(lost), file=sys.stderr)
        return 4
    reasons = ",".join(sorted({o.reason for o in outcome.outcomes}))
    best = min(o.stats.best_score for o in outcome.outcomes)
    steps = max(o.stats.steps for o in outcome.outcomes)
    print(f"no witness ({reasons}): best score {best} after {steps} steps", file=sys.stderr)
    return 3


def cmd_generate(args) -> int:
    problem = parse_problem(args.problem)
    result = generate_levels(problem, args.max_n, dump_dir=args.dump, workers=args.workers)
    for line in result.lines():
        print(line)
    return 0


def cmd_polycirc(args) -> int:
    problem = parse_problem(args.problem)
    blocks = "complement-blocks" in (args.filter or ())
    result = enumerate_census(
        args.k, args.m, problem, complement_blocks=blocks, budget=args.budget, workers=args.workers
    )
    for line in _census_lines(result):
        print(line)
    return 0


def _census_lines(census: CensusResult) -> list[str]:
    """The census's lines with its summary as a '#' comment, so the output
    reads back through ``verify``."""
    *graphs, summary = census.lines()
    return graphs + ["# " + summary]


def cmd_fixtures(args) -> int:
    report = run_fixture_suite()
    for line in report.lines():
        print(line)
    return 0 if report.all_passed else 1


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="ramseykit",
        description="Construct, search, enumerate and verify Ramsey witness graphs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check witnesses against a problem")
    p.add_argument("--problem", required=True, help='e.g. "B2,B8", "W5,W9", "GR:3,K4,2"')
    p.add_argument("--format", choices=("graph6", "matrix"), default="graph6")
    p.add_argument("inputs", nargs="+", metavar="INPUT", help='files, or "-" for stdin')
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("count", help="count forbidden structures / score inputs")
    p.add_argument("--problem", required=True)
    p.add_argument("--format", choices=("graph6", "matrix"), default="graph6")
    p.add_argument("inputs", nargs="+", metavar="INPUT")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("search", help="tabu search for a witness of given order")
    p.add_argument("--problem", required=True)
    p.add_argument("-n", type=int, required=True, help="witness order to search for")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=None)
    p.add_argument("--max-seconds", type=float, default=None)
    p.add_argument("--deterministic", action="store_true", help="refuse to invent a seed")
    p.add_argument("--progress", action="store_true", help="stream progress to stderr")
    p.add_argument("-o", "--output", default=None, help="write the witness here instead of stdout")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("generate", help="exhaustive level-by-level witness counts")
    p.add_argument("--problem", required=True)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--dump", default=None, metavar="DIR", help="write each level to DIR")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("polycirc", help="enumerate polycirculant witnesses")
    p.add_argument("--problem", required=True)
    p.add_argument("-k", type=int, required=True, help="number of blocks")
    p.add_argument("-m", type=int, required=True, help="block size")
    p.add_argument(
        "--filter",
        action="append",
        choices=("complement-blocks",),
        help="restrict the census (repeatable)",
    )
    p.add_argument("--budget", type=int, default=None, help="cap on fully assembled specs")
    p.add_argument("--workers", type=int, default=None)
    p.set_defaults(func=cmd_polycirc)

    p = sub.add_parser("fixtures", help="re-verify the bundled witness corpus")
    p.set_defaults(func=cmd_fixtures)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, MalformedInputError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceededError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        partial = exc.partial
        lines = _census_lines(partial) if isinstance(partial, CensusResult) else partial.lines()
        for line in lines:
            print(line)
        return 3
    except CapabilityError as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 3
    except WorkerLost as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
