"""Per-layer tracing of drim from the benchmark's side of every call.

`Tracer.install()` rebinds the public names that each calling module
looks up (for example `drim.propagation.propagate_wave`, which `Episode`
calls) to wrappers that record a span or bump a counter and then call the
original; `uninstall()` restores every name. No file of the package is
touched. Wrappers draw no random numbers and re-raise every exception, so
the traced program computes exactly what the untraced one does; only its
clock runs slower (the benchmark reports the ratio as `trace_overhead`).

A span is (id, parent id, layer, name, start, end). A layer's self time is
the duration of its spans minus the part their child spans cover. Work the
tracer itself does around a call (state snapshots, invariant checks) is
recorded as spans of the pseudo-layer `tracer`, so layer self times plus
`tracer.self_s` plus `unattributed_s` sum to the traced wall clock.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

# Layers with timed spans, in report order. `opinion` is counted, not timed:
# its calls are too short and too many for a clock, so their time stays in
# the self time of `propagation`.
TIMED_LAYERS = (
    "datasets", "network", "population", "propagation", "strategies",
    "baselines", "rl", "harness",
)

SIMPLEX_TOL = 1e-9

# Counts that repeat exactly for a fixed seed and code; two traced runs of
# the same workload and seed must agree on every one of them.
EXACT_COUNTERS = (
    "opinion.fuse_calls", "opinion.refresh_fired", "opinion.fuse_degenerate",
    "propagation.users_updated", "propagation.users_frozen",
    "propagation.wave_calls", "propagation.state_calls",
    "population.counts_calls",
    "strategies.select_calls", "strategies.fallback_ratio",
    "network.mask_calls", "network.within2_computes", "network.within2_hit_ratio",
    "network.spectral_calls", "network.view_calls",
    "baselines.pool_calls",
    "rl.forward_calls", "rl.batch_steps",
)

# Span name -> metric stem of the timed spans that feed a `<stem>_s` total.
_SPAN_TOTALS = {
    "propagate_wave": "propagation.wave",
    "extract_state": "propagation.state",
    "episode_init": "propagation.episode_init",
    "decided_influence_counts": "population.counts",
    "init_population": "population.init",
    "select_seed": "strategies.select",
    "mask_network": "network.mask",
    "within2_counts": "network.within2",
    "spectral_communities": "network.spectral",
    "full_view": "network.view",
    "pool": "baselines.pool",
    "collect_rollouts": "rl.rollout",
    "policy_forward": "rl.forward",
    "run_cell": "harness.run_cell",
    "load_cell_agents": "harness.load_agents",
    "ensure_policies": "harness.ensure_policies",
    "write_csv": "harness.csv_write",
    "load_urv_email": "datasets.load",
}

# Stems that also report their call count as `<stem>_calls`.
_CALL_COUNTS = {
    "propagation.wave", "propagation.state", "population.counts",
    "strategies.select", "network.mask", "network.spectral", "network.view",
    "baselines.pool", "rl.forward",
}


@contextlib.contextmanager
def call_clock(owner, name: str, sink: list[float]):
    """Append the wall clock of every call of owner.name to sink.

    Two clock reads per call and nothing else; used by untraced runs
    where the program keeps no per-call timing of its own.
    """
    original = owner.__dict__[name]

    @functools.wraps(original)
    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(perf_counter() - start)

    setattr(owner, name, timed)
    try:
        yield sink
    finally:
        setattr(owner, name, original)


def percentile_with_tail(values: list[float], q: float, tail: int = 10) -> float | None:
    """The q-quantile of `values` if at least `tail` samples lie beyond it, else None."""
    if len(values) * (1.0 - q) < tail:
        return None
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


class Tracer:
    """Span recorder, counters and episode invariant checks for one process."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, str, float, float]] = []
        self.counts: Counter[str] = Counter()
        self.problems: list[str] = []
        self.failed_episodes = 0
        self.checked_episodes = 0
        self._ids = itertools.count()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._resolve_depth = 0
        # Keyed by id(state); each value holds the state itself so the id
        # cannot be reused by a new object while the entry lives.
        self._frozen: dict[int, tuple[object, np.ndarray]] = {}
        self._promoted: dict[int, tuple[object, dict[int, tuple]]] = {}
        self._wave_problems: dict[int, list[str]] = defaultdict(list)
        self._within2_seen: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # Wrapping

    def _rebind(self, owner, name: str, wrapper) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, wrapper)

    def _span(self, layer: str, name: str, fn, before=None, after=None):
        """Wrap fn in a timed span; before/after hooks run in `tracer` spans."""
        spans, stack, ids = self.spans, self._stack, self._ids

        def hook(call):
            parent = stack[-1] if stack else -1
            start = perf_counter()
            try:
                return call()
            finally:
                spans.append((next(ids), parent, "tracer", "hook", start, perf_counter()))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = hook(lambda: before(*args, **kwargs)) if before else None
            parent = stack[-1] if stack else -1
            span_id = next(ids)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, parent, layer, name, start, end))
            if after:
                hook(lambda: after(ctx, result, *args, **kwargs))
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every traced name; `uninstall` undoes it."""
        from drim import baselines, harness, network, propagation, rl

        span, rebind = self._span, self._rebind
        for mod, name, layer in (
            (propagation, "extract_state", "propagation"),
            (propagation, "select_seed", "strategies"),
            (propagation, "decided_influence_counts", "population"),
            (propagation, "init_population", "population"),
            (propagation, "mask_network", "network"),
            (propagation, "full_view", "network"),
            (harness, "full_view", "network"),
            (baselines, "spectral_communities", "network"),
            (rl, "collect_rollouts", "rl"),
            (rl, "policy_forward", "rl"),
            (harness, "run_cell", "harness"),
            (harness, "load_cell_agents", "harness"),
            (harness, "ensure_policies", "harness"),
            (harness, "load_urv_email", "datasets"),
        ):
            rebind(mod, name, span(layer, name, getattr(mod, name)))
        for name in ("write_results_csv", "write_raw_csv", "write_timings_csv"):
            rebind(harness, name, span("harness", "write_csv", getattr(harness, name)))

        rebind(propagation, "propagate_wave", span(
            "propagation", "propagate_wave", propagation.propagate_wave,
            before=self._wave_before, after=self._wave_after))
        rebind(harness, "run_episode", span(
            "propagation", "run_episode", harness.run_episode, after=self._episode_after))
        rebind(propagation.Episode, "__init__", span(
            "propagation", "episode_init", propagation.Episode.__init__))
        rebind(network.ObservableGraph, "within2_counts", span(
            "network", "within2_counts", network.ObservableGraph.within2_counts,
            after=self._within2_after))
        rebind(baselines.CommunityRestriction, "pool", span(
            "baselines", "pool", baselines.CommunityRestriction.pool))
        rebind(rl, "ppo_update", span("rl", "ppo_update", rl.ppo_update, after=self._update_after))

        rebind(propagation, "fuse", self._count_fuse(propagation.fuse))
        rebind(propagation, "apply_uom_refresh", self._count_refresh(propagation.apply_uom_refresh))
        rebind(propagation, "promote_seed", self._record_promotion(propagation.promote_seed))
        rebind(propagation.Episode, "resolve_seed",
               self._count_fallback(propagation.Episode.resolve_seed))

    def uninstall(self) -> None:
        """Restore every name, and report invariant breaks that no
        evaluation episode claimed (those of training rollouts)."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)
        for found in self._wave_problems.values():
            self.problems.extend(dict.fromkeys(found))
        self._wave_problems.clear()

    # ------------------------------------------------------------------
    # Counter-only wrappers (no clock)

    def _count_fuse(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def fuse(*args, **kwargs):
            counts["opinion.fuse_calls"] += 1
            try:
                return fn(*args, **kwargs)
            except ValueError:
                counts["opinion.fuse_degenerate"] += 1
                raise

        return fuse

    def _count_refresh(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def apply_uom_refresh(op, *args, **kwargs):
            result = fn(op, *args, **kwargs)
            if result != op:
                counts["opinion.refresh_fired"] += 1
            return result

        return apply_uom_refresh

    def _record_promotion(self, fn):
        promoted = self._promoted

        @functools.wraps(fn)
        def promote_seed(state, user, *args, **kwargs):
            fn(state, user, *args, **kwargs)
            entry = promoted.setdefault(id(state), (state, {}))
            entry[1][int(user)] = _opinion_at(state, user)

        return promote_seed

    def _count_fallback(self, fn):
        tracer = self

        @functools.wraps(fn)
        def resolve_seed(episode, kind, *args, **kwargs):
            tracer._resolve_depth += 1
            try:
                fired, seed = fn(episode, kind, *args, **kwargs)
            finally:
                tracer._resolve_depth -= 1
            if tracer._resolve_depth == 0:  # count the outermost call only
                tracer.counts["strategies.selections"] += 1
                if fired != kind.value:
                    tracer.counts["strategies.fallbacks"] += 1
            return fired, seed

        return resolve_seed

    # ------------------------------------------------------------------
    # Hooks

    def _wave_before(self, state, *args, **kwargs):
        key = id(state)
        last = self._frozen.get(key)
        if last is not None and np.any(last[1] & ~state.frozen):
            self._wave_problems[key].append("frozen latch cleared between waves")
        return (state.b.copy(), state.d.copy(), state.u.copy(), state.a.copy(),
                state.frozen.copy())

    def _wave_after(self, snap, result, state, *args, **kwargs):
        b, d, u, a, frozen = snap
        changed = (state.b != b) | (state.d != d) | (state.u != u) | (state.a != a)
        self.counts["propagation.users_updated"] += int(np.count_nonzero(changed))
        self.counts["propagation.users_frozen"] += int(np.count_nonzero(state.frozen & ~frozen))
        if np.any(frozen & ~state.frozen):
            self._wave_problems[id(state)].append("frozen latch cleared in a wave")
        self._frozen[id(state)] = (state, state.frozen.copy())

    def _within2_after(self, ctx, counts, view):
        if id(counts) in self._within2_seen:
            self.counts["network.within2_hits"] += 1
        else:
            self._within2_seen[id(counts)] = counts
            self.counts["network.within2_computes"] += 1

    def _update_after(self, ctx, result, params, batch, *args, **kwargs):
        _, diag = result
        self.counts["rl.batch_steps"] += len(batch)
        losses = (diag.surrogate_loss, diag.value_loss, diag.entropy)
        if not all(math.isfinite(x) for x in losses):
            self.problems.append(f"non-finite PPO diagnostics {losses}")

    def _episode_after(self, ctx, episode, graph, cfg, *args, **kwargs):
        """Invariants of one finished evaluation episode."""
        pop = episode.pop
        key = id(pop)
        found = self._wave_problems.pop(key, [])
        comps = np.stack([pop.b, pop.d, pop.u, pop.a])
        if np.any(np.abs(pop.b + pop.d + pop.u - 1.0) > SIMPLEX_TOL):
            found.append("b + d + u differs from 1 by more than 1e-9")
        if np.any((comps < 0.0) | (comps > 1.0)):
            found.append("opinion component outside [0, 1]")
        from drim.population import Party

        for party in Party:
            seeds = pop.seed_ids(party).size
            if seeds != cfg.k:
                found.append(f"{party.value} holds {seeds} seeds, expected {cfg.k}")
        _, promoted = self._promoted.pop(key, (None, {}))
        if sorted(promoted) != sorted(int(s) for party in Party for s in pop.seed_ids(party)):
            found.append("seed set differs from the promoted users")
        if any(_opinion_at(pop, user) != op for user, op in promoted.items()):
            found.append("a seed opinion changed after promotion")
        _, last = self._frozen.pop(key, (None, None))
        if last is not None and np.any(last & ~pop.frozen):
            found.append("frozen latch cleared after the last wave")
        self.checked_episodes += 1
        if found:
            self.failed_episodes += 1
            self.problems.extend(f"episode seed {cfg.rng_seed}: {p}" for p in dict.fromkeys(found))

    # ------------------------------------------------------------------
    # Reports

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("span", "parent", "layer", "name", "start_s", "end_s"))
            writer.writerows(
                (sid, parent, layer, name, f"{start:.9f}", f"{end:.9f}")
                for sid, parent, layer, name, start, end in self.spans
            )

    def exact_counters(self) -> dict[str, float]:
        metrics = self.layer_metrics(wall=1.0)
        return {name: metrics[name] for name in EXACT_COUNTERS}

    def layer_metrics(self, wall: float) -> dict[str, float]:
        """Every per-layer metric of the run, zero where the layer did not run."""
        durations: dict[str, list[float]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, _, start, end in self.spans:
            child_time[parent] += end - start
        self_time: dict[str, float] = defaultdict(float)
        for sid, _, layer, name, start, end in self.spans:
            durations[name].append(end - start)
            self_time[layer] += end - start - child_time[sid]

        out: dict[str, float] = {}
        for name, stem in _SPAN_TOTALS.items():
            out[f"{stem}_s"] = math.fsum(durations[name])
            if stem in _CALL_COUNTS:
                out[f"{stem}_calls"] = float(len(durations[name]))
        waves = durations["propagate_wave"]
        out["propagation.wave_s_p50"] = statistics.median(waves) if waves else 0.0
        out["propagation.wave_s_p99"] = percentile_with_tail(waves, 0.99) or 0.0
        updates = durations["ppo_update"]
        out["rl.update_first_s"] = updates[0] if updates else 0.0
        out["rl.update_grad_s"] = statistics.median(updates[1:]) if len(updates) > 1 else 0.0

        c = self.counts
        for key in ("opinion.fuse_calls", "opinion.refresh_fired", "opinion.fuse_degenerate",
                    "propagation.users_updated", "propagation.users_frozen",
                    "network.within2_computes", "rl.batch_steps"):
            out[key] = float(c[key])
        out["strategies.fallback_ratio"] = _ratio(c["strategies.fallbacks"], c["strategies.selections"])
        within2_calls = c["network.within2_computes"] + c["network.within2_hits"]
        out["network.within2_hit_ratio"] = _ratio(c["network.within2_hits"], within2_calls)

        for layer in TIMED_LAYERS + ("tracer",):
            out[f"{layer}.self_s"] = self_time[layer]
        out["trace_wall_s"] = wall
        out["unattributed_s"] = wall - math.fsum(self_time.values())
        return out


def _opinion_at(state, user) -> tuple[float, float, float, float]:
    return (float(state.b[user]), float(state.d[user]), float(state.u[user]), float(state.a[user]))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0

