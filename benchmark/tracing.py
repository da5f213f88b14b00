"""Spans and memory probes around the layers of bernsched, installed from outside.

The benchmark never edits the package.  It replaces the public functions
where ``harness`` and ``policies`` look them up (and two ``TimeGrid``
methods on the class) with wrappers, and puts the originals back when the
traced section ends.

A span is (name, parent, start, end, value).  Spans live in flat arrays so
that the grid queries, which run hundreds of thousands of times per pass,
stay cheap to record; they are written out once, when the run ends.

Every span the benchmark opens itself has no parent and names one *unit*
of the workload's fixed work: ``setup``, ``op:<i>`` or ``check:<i>``.  A
unit runs several times in a run.  Layer figures are taken per unit as the
median over its runs and summed over units, so they describe one pass of
the fixed work whatever the number of passes a run managed.
"""

from __future__ import annotations

import contextlib
import time
import tracemalloc
from array import array

import numpy as np

from bernsched import harness, numerics, policies, timegrid

perf = time.perf_counter


@contextlib.contextmanager
def patched(replacements):
    """Set ``owner.name = new`` for each (owner, name, new); restore on exit."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in replacements]
    try:
        for owner, name, new in replacements:
            setattr(owner, name, new)
        yield
    finally:
        for owner, name, old in reversed(saved):
            setattr(owner, name, old)


class Capture:
    """Keeps what the two solvers return inside ``harness.compare``.

    ``compare`` reports values and state counts but drops the decision
    tables; the fingerprints need them.  Installed for the whole run, traced
    or not: it adds one Python call per solve.
    """

    def __init__(self):
        self.exact = []
        self.stratified = []  # (solution, instance, grid)

    def clear(self):
        self.exact.clear()
        self.stratified.clear()

    def installed(self):
        solve_exact = harness.solve_exact
        solve_stratified = harness.solve_stratified

        def exact(inst, **caps):
            sol = solve_exact(inst, **caps)
            self.exact.append(sol)
            return sol

        def stratified(inst, groups, grid, **caps):
            sol = solve_stratified(inst, groups, grid, **caps)
            self.stratified.append((sol, inst, grid))
            return sol

        return patched([
            (harness, "solve_exact", exact),
            (harness, "solve_stratified", stratified),
        ])


class MemProbe:
    """tracemalloc peak, in MiB above the start of the call, of each call
    to the two solvers and the grid build.  tracemalloc runs only inside
    these calls, which never nest in one another."""

    TARGETS = (
        ("dp_exact", harness, "solve_exact"),
        ("dp_stratified", harness, "solve_stratified"),
        ("timegrid.build", harness, "build_grid"),
    )

    def __init__(self):
        self.peak_mb = {layer: 0.0 for layer, _owner, _name in self.TARGETS}

    def _wrap(self, layer, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                self.peak_mb[layer] = max(self.peak_mb[layer], peak)
        return wrapper

    def installed(self):
        return patched([
            (owner, name, self._wrap(layer, getattr(owner, name)))
            for layer, owner, name in self.TARGETS
        ])


#: ``extra`` figures merged by maximum; every other one is summed.
MAX_FIELDS = {"max_profiles_per_timepoint", "bound_slack"}


def _policy_name(args):
    return "replay:" + args[0].name


def _solver_states(args, kwargs, sol):
    return sol.states


def _strat_states(args, kwargs, sol):
    return sol.diagnostics.states


def _strat_extra(args, kwargs, sol):
    return {
        "idle_states": sum(1 for d in sol.policy.values() if d[0] == "idle"),
        "time_points": sol.diagnostics.relevant_time_points,
        "max_profiles_per_timepoint": sol.diagnostics.max_profiles_per_timepoint,
    }


def _grid_extra(args, kwargs, grid):
    return {"prefix_points": len(grid.prefix)}


def _merges(args, kwargs, result):
    return len(result[2])


def _hit(args, kwargs, result):
    return int(result)


def _trials(args, kwargs, result):
    return kwargs["trials"] if "trials" in kwargs else args[2]


def _compare_skipped(args, kwargs, rows):
    return sum(1 for r in rows if r.skipped)


def _compare_extra(args, kwargs, rows):
    slack = [
        (r.ratio - 1.0) / (r.bound - 1.0) for r in rows if not r.skipped
    ]
    return {"bound_slack": max(slack, default=0.0)}


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.value = array("q")
        self.extra = {}  # span index -> dict, for rare spans only
        self._stack = [-1]

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.value.append(0)
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name):
        idx = self._open(self._id(name))
        t0 = perf()
        try:
            yield
        finally:
            t1 = perf()
            self._stack.pop()
            self.start[idx] = t0
            self.end[idx] = t1

    def wrap(self, name, fn, value=None, extra=None, name_of=None):
        nid = self._id(name)
        stack, start, end, vals = self._stack, self.start, self.end, self.value
        open_, id_of = self._open, self._id

        def wrapper(*args, **kwargs):
            idx = open_(nid if name_of is None else id_of(name_of(args)))
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if value is not None:
                vals[idx] = value(args, kwargs, result)
            if extra is not None:
                self.extra[idx] = extra(args, kwargs, result)
            return result
        return wrapper

    def installed(self):
        """Span wrappers on every traced entry point, for one section."""
        h, p = harness, policies
        grid, seeds = timegrid.TimeGrid, numerics.SeedStream
        spec = [
            (h, "compare", {"value": _compare_skipped, "extra": _compare_extra}),
            (h, "solve_exact", {"value": _solver_states}),
            (h, "solve_stratified", {"value": _strat_states, "extra": _strat_extra}),
            (h, "build_groups", {}),
            (h, "round_for_divisibility", {"value": _merges}),
            (h, "build_grid", {"extra": _grid_extra}),
            (h, "expected_cost_exact", {}),
            (p, "expected_cost_exact", {}),
            (p, "expected_cost_mc", {"value": _trials}),
            (p, "replay", {"name_of": _policy_name}),
            (p, "sample_realization", {}),
            (seeds, "generator", {}),
            (grid, "q_contains", {"value": _hit}),
            (grid, "q_successor", {}),
        ]
        wrapped = {}
        replacements = []
        for owner, name, opts in spec:
            fn = getattr(owner, name)
            if fn not in wrapped:  # one wrapper per function, however imported
                wrapped[fn] = self.wrap(name, fn, **opts)
            replacements.append((owner, name, wrapped[fn]))
        return patched(replacements)

    # -- analysis ---------------------------------------------------------

    def arrays(self):
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.intc).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.intc).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "value": np.frombuffer(self.value, dtype=np.int64).copy(),
        }

    def per_pass(self):
        """Per span name: calls, seconds, self seconds and summed value for
        one pass of the fixed work, plus ``enum_replays`` (replays made
        inside ``expected_cost_exact``) and the merged ``extra`` figures."""
        a = self.arrays()
        name, parent = a["name"], a["parent"]
        n, k = len(name), len(self.names)
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        own = dur - child

        root = np.where(has_parent, parent, np.arange(n))
        while True:
            up = np.where(parent[root] >= 0, parent[root], root)
            if np.array_equal(up, root):
                break
            root = up
        roots = np.flatnonzero(~has_parent)
        row = np.empty(n, dtype=np.int64)
        row[roots] = np.arange(len(roots))
        key = row[root] * (k + 1) + name
        enum_id = self._ids.get("expected_cost_exact", -1)
        in_enum = np.zeros(n, dtype=bool)
        in_enum[has_parent] = name[parent[has_parent]] == enum_id
        is_replay = np.isin(name, [i for s, i in self._ids.items()
                                   if s.startswith("replay:")])
        enum_key = row[root] * (k + 1) + k

        size = len(roots) * (k + 1)
        shape = (len(roots), k + 1)
        calls = np.bincount(key, minlength=size).reshape(shape).astype(float)
        calls += np.bincount(enum_key[in_enum & is_replay],
                             minlength=size).reshape(shape)
        secs = np.bincount(key, weights=dur, minlength=size).reshape(shape)
        selfs = np.bincount(key, weights=own, minlength=size).reshape(shape)
        vals = np.bincount(key, weights=a["value"].astype(float),
                           minlength=size).reshape(shape)

        units = {}
        for r, idx in enumerate(roots):
            units.setdefault(self.names[name[idx]], []).append(r)
        out = {}
        for col, label in enumerate(self.names + ["enum_replays"]):
            c = s = o = v = 0.0
            for rows in units.values():
                c += float(np.median(calls[rows, col]))
                s += float(np.median(secs[rows, col]))
                o += float(np.median(selfs[rows, col]))
                v += float(np.median(vals[rows, col]))
            out[label] = {"calls": c, "s": s, "self_s": o, "value": v}

        # the extra figures are exact and repeat on every run of a unit,
        # so the first run of each unit stands for all of them
        first = {}
        for idx, fig in sorted(self.extra.items()):
            unit = self.names[name[root[idx]]]
            r = row[root[idx]]
            layer = self.names[name[idx]]
            first.setdefault((unit, layer), (r, []))
            if first[(unit, layer)][0] == r:
                first[(unit, layer)][1].append(fig)
        merged = {}
        for (_unit, layer), (_r, figs) in first.items():
            acc = merged.setdefault(layer, {})
            for fig in figs:
                for field, x in fig.items():
                    if field in MAX_FIELDS:
                        acc[field] = max(acc.get(field, x), x)
                    else:
                        acc[field] = acc.get(field, 0) + x
        out["extra"] = merged
        return out


def layer_metrics(tracer, probe, trace_wall_s, plain_wall_s):
    """The per-layer metrics named in BENCHMARK.json, from one traced run."""
    t = tracer.per_pass()
    extra = t.pop("extra")
    zero = {"calls": 0.0, "s": 0.0, "self_s": 0.0, "value": 0.0}

    def g(name):
        return t.get(name, zero)

    def per(num, den, scale=1.0):
        return num / den * scale if den else 0.0

    ex, st, q = g("solve_exact"), g("solve_stratified"), g("q_contains")
    qs = g("q_successor")
    strat = extra.get("solve_stratified", {})
    enum = g("expected_cost_exact")
    mc = g("expected_cost_mc")
    gen = g("generator")
    sample = g("sample_realization")
    cmp_ = g("compare")
    replays = {p: g("replay:" + p) for p in ("sept", "fixed", "exact", "stratified")}
    return {
        "dp_exact.solve_s": (ex["s"], "s"),
        "dp_exact.states": (ex["value"], "count"),
        "dp_exact.us_per_state": (per(ex["s"], ex["value"], 1e6), "us"),
        "dp_exact.peak_mb": (probe.peak_mb["dp_exact"], "MiB"),
        "dp_stratified.solve_s": (st["s"], "s"),
        "dp_stratified.self_s": (st["self_s"], "s"),
        "dp_stratified.states": (st["value"], "count"),
        "dp_stratified.us_per_state": (per(st["s"], st["value"], 1e6), "us"),
        "dp_stratified.idle_states": (strat.get("idle_states", 0), "count"),
        "dp_stratified.time_points": (strat.get("time_points", 0), "count"),
        "dp_stratified.max_profiles_per_timepoint":
            (strat.get("max_profiles_per_timepoint", 0), "count"),
        "dp_stratified.peak_mb": (probe.peak_mb["dp_stratified"], "MiB"),
        "timegrid.build_s": (g("build_grid")["s"], "s"),
        "timegrid.prefix_points":
            (extra.get("build_grid", {}).get("prefix_points", 0), "count"),
        "timegrid.build_peak_mb": (probe.peak_mb["timegrid.build"], "MiB"),
        "timegrid.query_calls": (q["calls"] + qs["calls"], "count"),
        "timegrid.query_s": (q["s"] + qs["s"], "s"),
        "timegrid.contains_hit_ratio": (per(q["value"], q["calls"]), "ratio"),
        "instances.group_s": (g("build_groups")["s"], "s"),
        "instances.round_s": (g("round_for_divisibility")["s"], "s"),
        "instances.merges": (g("round_for_divisibility")["value"], "count"),
        "policies.replay_calls":
            (sum(r["calls"] for r in replays.values()), "count"),
        **{f"policies.replay_us.{p}": (per(r["s"], r["calls"], 1e6), "us")
           for p, r in replays.items()},
        "policies.sample_us": (per(sample["s"], sample["calls"], 1e6), "us"),
        "policies.mc_us_per_trial": (per(mc["s"], mc["value"], 1e6), "us"),
        "policies.enum_s": (enum["s"], "s"),
        "policies.enum_realizations": (g("enum_replays")["calls"], "count"),
        "numerics.generator_calls": (gen["calls"], "count"),
        "numerics.generator_us": (per(gen["s"], gen["calls"], 1e6), "us"),
        "harness.compare_self_s": (cmp_["self_s"], "s"),
        "harness.skipped": (cmp_["value"], "count"),
        "harness.bound_slack":
            (extra.get("compare", {}).get("bound_slack", 0.0), "ratio"),
        "trace.wall_s": (trace_wall_s, "s"),
        "trace.overhead_s": (trace_wall_s - plain_wall_s, "s"),
    }
