"""In-memory span tracing of ramseykit, done from outside the package.

``Tracer.install`` replaces module attributes with timing wrappers: each
wrapper patches the name under which the *calling* module bound the
function (``ramseykit.tabu.book_toggle_delta``, not
``ramseykit.counting.book_toggle_delta``), because ``from x import f``
copies the reference.  ``Tracer.uninstall`` puts the originals back.

Two kinds of wrapper share one stack of open frames:

* spans record ``(name, start, end, parent, self)``; they wrap coarse
  calls (a search, a tabu step, one canonical key, one extension);
* leaves aggregate ``calls``, ``busy`` and ``self`` per name without
  storing each call; they wrap the hot inner functions (deltas, codegree
  updates, through-vertex checks, polycirculant ``build``), which run
  millions of times in a search and would not fit in memory as spans.

Both add their duration to the enclosing frame, so a span's self time is
its duration minus everything traced inside it.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

import ramseykit.counting as rk_counting
import ramseykit.fixtures as rk_fixtures
import ramseykit.formats as rk_formats
import ramseykit.generate as rk_generate
import ramseykit.polycirculant as rk_poly
import ramseykit.tabu as rk_tabu

# the package re-exports a function named verify, which hides the submodule
# of that name from `import ramseykit.verify as ...`
rk_verify = importlib.import_module("ramseykit.verify")


def _clique_layer(rows, mask, s):
    # tabu's GR scorer counts cliques for both the full score (mask covers
    # every vertex) and the per-candidate delta (mask = N(u) & N(v), which
    # never holds u or v)
    return "counting.full" if mask.bit_count() == len(rows) else "counting.delta"


# (module or class, attribute, kind, layer name or classifier, result counter)
WRAPS = (
    (rk_tabu, "run_search", "span", "search.run", None),
    (rk_tabu, "init_state", "span", "tabu.init", None),
    (rk_tabu, "tabu_step", "span", "tabu.step", None),
    (rk_tabu, "book_toggle_delta", "leaf", "counting.delta", None),
    (rk_tabu, "shape_toggle_delta", "leaf", "counting.delta", None),
    (rk_tabu, "count_cliques_in_mask", "leaf", _clique_layer, None),
    (rk_tabu, "count_shape", "leaf", "counting.full", None),
    (rk_counting.CodegreeCache, "apply_toggle", "leaf", "counting.cache_update", None),
    (rk_tabu, "verify_witness", "span", "verify.witness", None),
    (rk_generate, "generate_levels", "span", "generate.table", None),
    (rk_generate, "extend_one", "span", "generate.extend", "generate.children"),
    (rk_generate, "canonical_key", "span", "canon.key", None),
    (rk_generate, "coloring_canonical_key", "span", "canon.color_key", None),
    (rk_generate, "has_shape_through", "leaf", "verify.through", None),
    (rk_poly, "enumerate_census", "span", "census.run", None),
    (rk_poly, "build", "leaf", "polycirculant.build", None),
    (rk_poly, "has_shape_through", "leaf", "verify.through", None),
    (rk_poly, "canonical_key", "span", "canon.key", None),
    (rk_poly, "verify", "span", "verify.witness", None),
    (rk_formats, "graph6_encode", "span", "formats.encode", None),
    (rk_formats, "emit_color_matrix", "span", "formats.encode", None),
    (rk_formats, "graph6_decode", "span", "formats.decode", None),
    (rk_formats, "parse_color_matrix", "span", "formats.decode", None),
    (rk_verify, "verify_witness", "span", "verify.witness", None),
    (rk_fixtures, "run_fixture_suite", "span", "fixtures.suite", None),
    (rk_fixtures, "graph6_decode", "span", "formats.decode", None),
    (rk_fixtures, "parse_color_matrix", "span", "formats.decode", None),
    (rk_fixtures, "verify_witness", "span", "verify.witness", None),
)

_KEY_LAYERS = ("canon.key", "canon.color_key")


class Tracer:
    """Span recorder; install() before the traced pass, uninstall() after."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, float, float, int, float]] = []
        self.leaves: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []   # [span index or -1, child time]
        self._saved: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, fn, name: str, counter: str | None):
        nid = self._id(name)
        stack, spans = self._stack, self.spans
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            frame = [len(spans), 0.0]
            spans.append(None)  # reserve the index so children can name it
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                spans[frame[0]] = (nid, start, end, parent, dur - frame[1])
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                self.counters[counter] += len(result)
            return result

        return wrapper

    def _leaf(self, fn, layer):
        stack, leaves = self._stack, self.leaves
        perf = time.perf_counter
        fixed = None if callable(layer) else leaves[layer]

        def wrapper(*args, **kwargs):
            acc = fixed if fixed is not None else leaves[layer(*args, **kwargs)]
            frame = [-1, 0.0]
            stack.append(frame)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, kind, layer, counter in WRAPS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            if kind == "span":
                setattr(owner, attr, self._span(fn, layer, counter))
            else:
                setattr(owner, attr, self._leaf(fn, layer))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- summaries ---------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """calls, busy and self seconds per span or leaf name.  No name is
        ever traced inside itself, so busy time is the plain sum."""
        out: dict[str, dict] = {}
        for nid, start, end, _, self_s in self.spans:
            rec = out.setdefault(self.names[nid], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            rec["busy_s"] += end - start
            rec["self_s"] += self_s
        for name, (calls, busy, self_s) in self.leaves.items():
            rec = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            rec["calls"] += calls
            rec["busy_s"] += busy
            rec["self_s"] += self_s
        return out

    def durations(self, *names: str) -> list[float]:
        ids = {self._ids[n] for n in names if n in self._ids}
        return [end - start for nid, start, end, _, _ in self.spans if nid in ids]

    def dump(self, path, extra: dict) -> None:
        """Write every span plus the per-name summary as one JSON file."""
        doc = dict(extra)
        doc["span_fields"] = ["name", "start_s", "end_s", "parent", "self_s"]
        t0 = self.spans[0][1] if self.spans else 0.0
        doc["spans"] = [
            [self.names[nid], round(s - t0, 9), round(e - t0, 9), p, round(self_s, 9)]
            for nid, s, e, p, self_s in self.spans
        ]
        doc["summary"] = self.by_name()
        doc["counters"] = dict(self.counters)
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _pct(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def layer_metrics(tr: Tracer, facts: dict) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json.

    ``facts`` holds what the workload's outputs tell directly: the largest
    tabu set, the candidates the census examined, and the canonical keys
    that were new (the objects generation kept, the graphs the census
    found).  The program computes every key once and keeps the new ones, so
    the rest of the keys are duplicates.
    """
    s = tr.by_name()

    def calls(name):
        return s.get(name, {}).get("calls", 0)

    def busy(name):
        return s.get(name, {}).get("busy_s", 0.0)

    steps = calls("tabu.step")
    delta_calls = calls("counting.delta")
    key_ms = [d * 1e3 for d in tr.durations(*_KEY_LAYERS)]
    keys = len(key_ms)
    children = tr.counters.get("generate.children", 0)
    witness_us = [d * 1e6 for d in tr.durations("verify.witness")]
    return {
        "counting.delta_calls": delta_calls,
        "counting.delta_s": busy("counting.delta"),
        "counting.full_s": busy("counting.full"),
        "counting.cache_update_s": busy("counting.cache_update"),
        "tabu.steps": steps,
        "tabu.step_self_s": s.get("tabu.step", {}).get("self_s", 0.0),
        "tabu.delta_per_step": delta_calls / steps if steps else 0.0,
        "tabu.tabu_size": facts.get("tabu_size", 0),
        "canon.keys": keys,
        "canon.key_s": busy("canon.key") + busy("canon.color_key"),
        "canon.key_ms_p50": _pct(key_ms, 50),
        "canon.key_ms_p90": _pct(key_ms, 90),
        "canon.key_ms_max": max(key_ms, default=0.0),
        "canon.color_keys": calls("canon.color_key"),
        "canon.color_key_s": busy("canon.color_key"),
        "canon.dup_frac": (keys - facts.get("new_keys", 0)) / keys if keys else 0.0,
        "generate.parents": calls("generate.extend"),
        "generate.children": children,
        "generate.extend_s": busy("generate.extend"),
        "generate.keep_frac": facts.get("new_keys", 0) / children if children else 0.0,
        "verify.through_calls": calls("verify.through"),
        "verify.through_s": busy("verify.through"),
        "verify.witness_calls": len(witness_us),
        "verify.witness_s": busy("verify.witness"),
        "verify.witness_us_p50": _pct(witness_us, 50),
        "verify.witness_us_p99": _pct(witness_us, 99),
        "polycirculant.builds": calls("polycirculant.build"),
        "polycirculant.build_s": busy("polycirculant.build"),
        "polycirculant.examined": facts.get("examined", 0),
        "formats.decode_s": busy("formats.decode"),
        "formats.encode_s": busy("formats.encode"),
        "fixtures.suite_s": busy("fixtures.suite"),
    }
