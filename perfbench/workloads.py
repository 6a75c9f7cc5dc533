"""The four benchmark workloads: inputs, one timed pass, output checks.

Each workload is a closed loop with a single caller in one process.  The
constructor is the set-up (problem parsing and input generation from the
workload seed); ``run()`` is the timed pass, the same work on every call;
``check`` runs after timing and tracing have ended and recounts every
output independently.

Calls into the package go through module attributes (``rk_tabu.run_search``
rather than a name imported here), so that the tracer's wrappers see them.
"""

from __future__ import annotations

import importlib
import random
import time
from dataclasses import dataclass, field

import ramseykit.fixtures as rk_fixtures
import ramseykit.formats as rk_formats
import ramseykit.generate as rk_generate
import ramseykit.polycirculant as rk_poly
import ramseykit.tabu as rk_tabu
from ramseykit.counting import count_shape, gr_score
from ramseykit.errors import BudgetExceededError
from ramseykit.graphs import Graph, MultiColoring
from ramseykit.problems import TwoColorProblem, parse_problem
from ramseykit.verify import verify, verify_witness, violation_holds

# the package re-exports a function named verify, which hides the submodule
# of that name from `import ramseykit.verify as ...`
rk_verify = importlib.import_module("ramseykit.verify")

# (problem, order, tabu steps per pass).  Searches run to a witness one
# after another, from seeds drawn from the workload seed, until the problem's
# step quota is spent; the last search of each problem is cut at the quota.
# Steps to a witness are heavy-tailed (from tens to thousands of steps for
# the same problem), so a fixed count of witnesses would make the run length
# follow the seed; a fixed step quota keeps the work per pass the same.
# Each quota is three to four times the steps per witness measured over 14
# workload seeds (483, 1,120, 75 and 91 steps), so a pass reaches several
# witnesses of every problem and does not time early search alone;
# perfbench/README.md gives the counts per problem.
SEARCH_JOBS = (
    ("B2,B8", 19, 2000),
    ("K4,K4", 16, 3000),
    ("W5,W7", 14, 300),
    ("GR:3,K5,2", 16, 300),
)

# the criterion-2 generation tables (acceptance numbers)
GENERATE_JOBS = (
    ("GR:3,K4,2", 10, [1, 1, 3, 9, 34, 154, 428, 556, 263, 0]),
    ("GR:4,K4,3", 10, [1, 1, 3, 7, 11, 12, 1, 1, 1, 0]),
    ("W5,W7", 8, [1, 2, 4, 11, 31, 130, 675, 4868]),
    ("B2,B8", 7, [1, 2, 4, 9, 22, 69, 255]),
)

# criterion 3 (count 7, examined 189) and a budgeted slice of the k=3
# stretch scan, which stops long before the scan's only witness
CENSUS = (2, 10, "B2,B9", 7, 189)
CENSUS_SLICE = (3, 8, "B2,B10", 10_000)

# corpus copies per bundled fixture: relabeled (accept path) and relabeled
# with one edge flipped or recolored (mostly the reject path)
AUDIT_COPIES = 16


@dataclass
class Checked:
    attempted: int = 0
    failed: int = 0
    messages: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


def _two_color_recount(g: Graph, problem: TwoColorProblem) -> int:
    return count_shape(g, problem.left) + count_shape(g.complement(), problem.right)


def _recount(obj, problem) -> int:
    if isinstance(problem, TwoColorProblem):
        g = obj.color_class(1) if isinstance(obj, MultiColoring) else obj
        return _two_color_recount(g, problem)
    return gr_score(obj, problem.s, problem.t)


class Workload:
    """Defaults for what a workload may leave out: a work rate (``ops`` per
    second of pass time, printed as ``rate_name``), per-item latencies, and
    facts from its outputs that the per-layer metrics use."""

    rate_name = None

    @staticmethod
    def latencies(out) -> list[float]:
        return []

    @staticmethod
    def facts(out) -> dict:
        return {}


class Search(Workload):
    """Seeded tabu searches to a witness; covers every scorer path."""

    rate_name = "steps_per_s"

    def __init__(self, seed: int):
        self.seed = seed
        self.jobs = [(parse_problem(text), n, quota) for text, n, quota in SEARCH_JOBS]

    def run(self) -> list[tuple]:
        searches = []
        for problem, n, quota in self.jobs:
            rng = random.Random(f"search:{self.seed}:{problem}")
            spent = 0
            while spent < quota:
                s = rng.randrange(1 << 31)
                out = rk_tabu.run_search(problem, n, seed=s, max_steps=quota - spent)
                spent += out.stats.steps
                searches.append((problem, n, s, out, spent >= quota))
        return searches

    @staticmethod
    def ops(out) -> int:
        return sum(o.stats.steps for _, _, _, o, _ in out)

    @staticmethod
    def facts(out) -> dict:
        return {"tabu_size": max(o.stats.tabu_size for _, _, _, o, _ in out)}

    @staticmethod
    def records(out) -> list[dict]:
        """Steps and time of each seed, so that a changed trajectory can be
        told apart from a changed speed."""
        return [
            {
                "problem": str(p),
                "n": n,
                "seed": s,
                "found": o.found,
                "reason": o.reason,
                "steps": o.stats.steps,
                "seconds": o.stats.elapsed,
            }
            for p, n, s, o, _ in out
        ]

    @staticmethod
    def check(out, chk: Checked) -> None:
        for problem, n, s, o, at_quota in out:
            label = f"{problem} n={n} seed={s}"
            if o.found:
                chk.expect(
                    verify_witness(o.witness, problem).valid
                    and _recount(o.witness, problem) == 0,
                    f"{label}: witness fails verification or recount",
                )
            else:
                # only the quota may stop a search short of a witness
                chk.expect(at_quota and o.reason == "max_steps", f"{label}: stopped ({o.reason})")


class Generate(Workload):
    """The criterion-2 tables: many small inputs through canonical labeling."""

    def __init__(self, seed: int):
        # the tables are fixed by the acceptance criteria; nothing is seeded
        self.seed = seed
        self.jobs = [(parse_problem(text), n, counts) for text, n, counts in GENERATE_JOBS]

    def run(self) -> list[tuple]:
        return [(p, n, want, rk_generate.generate_levels(p, n).counts) for p, n, want in self.jobs]

    @staticmethod
    def facts(out) -> dict:
        # every object kept past the root is one canonical key that was new
        return {"new_keys": sum(sum(got[1:]) for _, _, _, got in out)}

    @staticmethod
    def records(out) -> list[dict]:
        return [{"problem": str(p), "n": n, "counts": got} for p, n, _, got in out]

    @staticmethod
    def check(out, chk: Checked) -> None:
        for p, n, want, got in out:
            chk.expect(got == want, f"{p} to {n}: counts {got}, expected {want}")


class Census(Workload):
    """Criterion-3 census plus a budgeted slice of the 3-block scan."""

    def __init__(self, seed: int):
        # census and slice are fixed by the acceptance criteria; nothing is seeded
        self.seed = seed
        k, m, text, _, _ = CENSUS
        self.census = (k, m, parse_problem(text))
        k, m, text, budget = CENSUS_SLICE
        self.slice = (k, m, parse_problem(text), budget)

    def run(self) -> tuple:
        k, m, problem = self.census
        full = rk_poly.enumerate_census(k, m, problem)
        k, m, problem, budget = self.slice
        try:
            part = rk_poly.enumerate_census(k, m, problem, budget=budget)
        except BudgetExceededError as exc:
            part = exc.partial
        return full, part

    @staticmethod
    def facts(out) -> dict:
        # each graph the census keeps is one canonical key that was new
        return {"examined": sum(res.examined for res in out),
                "new_keys": sum(res.count for res in out)}

    @staticmethod
    def records(out) -> list[dict]:
        return [
            {"k": r.k, "m": r.m, "problem": str(r.problem), "count": r.count,
             "examined": r.examined, "complete": r.complete}
            for r in out
        ]

    @staticmethod
    def check(out, chk: Checked) -> None:
        full, part = out
        _, _, _, count, examined = CENSUS
        chk.expect(
            full.complete and full.count == count and full.examined == examined,
            f"census: count {full.count} examined {full.examined} complete {full.complete}",
        )
        budget = CENSUS_SLICE[3]
        chk.expect(
            not part.complete and part.examined == budget,
            f"slice: examined {part.examined} complete {part.complete}",
        )
        for res in out:
            for g in res.graphs:
                chk.expect(
                    verify(g, res.problem).valid and _two_color_recount(g, res.problem) == 0,
                    f"census k={res.k} m={res.m}: graph fails verification or recount",
                )


def _mutate(obj, rng: random.Random):
    """Flip one edge of a graph, or give one pair of a coloring another color."""
    n = obj.n
    u, v = rng.sample(range(n), 2)
    if isinstance(obj, Graph):
        out = obj.copy()
        out.toggle_edge(u, v)
        return out
    out = obj.copy()
    out.set_color(u, v, rng.choice([c for c in range(1, obj.r + 1) if c != obj.get(u, v)]))
    return out


class Audit(Workload):
    """The verify path over a seeded corpus built from the bundled fixtures."""

    rate_name = "witnesses_per_s"

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"audit:{seed}")
        self.corpus = []
        for rec in rk_fixtures.load_fixtures():
            obj = rec.load()
            for copy in range(2 * AUDIT_COPIES):
                perm = list(range(obj.n))
                rng.shuffle(perm)
                item = obj.relabel(perm)
                if copy % 2:
                    item = _mutate(item, rng)
                self.corpus.append((rec.problem, item))
        self._expected = None

    def run(self) -> tuple:
        perf = time.perf_counter
        # keep only each item's text and verdict: the decoded objects would
        # stay alive for the garbage collector to scan through the pass.  The
        # per-item clock reads give verify_us_p50/p99; two reads cost well
        # under a microsecond against about 300 us per item
        items, latencies = [], []
        for problem, obj in self.corpus:
            start = perf()
            if isinstance(obj, Graph):
                text = rk_formats.graph6_encode(obj)
                back = rk_formats.graph6_decode(text)
            else:
                text = rk_formats.emit_color_matrix(obj)
                back = rk_formats.parse_color_matrix(text, r=obj.r)
            verdict = rk_verify.verify_witness(back, problem)
            latencies.append(perf() - start)
            items.append((text, verdict))
        return items, latencies, rk_fixtures.run_fixture_suite()

    @staticmethod
    def ops(out) -> int:
        verdicts, _, report = out
        return len(verdicts) + len(report.results)

    @staticmethod
    def latencies(out) -> list[float]:
        """Seconds per corpus item: encode, decode and verify."""
        return out[1]

    @staticmethod
    def records(out) -> list[dict]:
        verdicts, _, report = out
        return [{"items": len(verdicts), "rejected": sum(not v.valid for _, v in verdicts),
                 "fixtures_passed": report.counts[0], "fixtures": report.counts[1]}]

    def check(self, out, chk: Checked) -> None:
        if self._expected is None:
            self._expected = [_recount(obj, p) == 0 for p, obj in self.corpus]
        verdicts, _, report = out
        for (problem, obj), want, (text, verdict) in zip(self.corpus, self._expected, verdicts):
            if isinstance(obj, Graph):
                back = rk_formats.graph6_decode(text)
            else:
                back = rk_formats.parse_color_matrix(text, r=obj.r)
            ok = back == obj and verdict.valid == want
            if ok and not verdict.valid:
                ok = violation_holds(back, problem, verdict.violation)
            chk.expect(ok, f"{problem} n={obj.n}: verdict {verdict.valid}, recount says {want}")
        chk.expect(report.all_passed, "fixture suite: " + "; ".join(report.lines()[-1:]))


WORKLOADS = {"search": Search, "generate": Generate, "census": Census, "audit": Audit}
