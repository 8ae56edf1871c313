"""Cascade engine and round/episode orchestration.

An episode is k rounds; each round the false party selects and promotes
one seed and propagates p_f waves, then the true party selects one seed
and propagates p_t waves. A wave is a BFS from the party's entire
current seed set: a reached user reads with probability p_read, a reader
fuses each sharing neighbor's opinion (ascending sender id) into its own
through the configured trust model, and then re-shares its own updated
opinion with probability p_share. Users are processed at most once per
wave; seeds of either party and frozen users never update (frozen
readers may still re-share their settled opinion).

The wave kernel is level-synchronous over the CSR adjacency (Beamer et
al., SC 2012). Per BFS level it gathers the (target, sender) pairs of
the frontier, groups them by target with a stable sort on the narrowest
unsigned dtype that holds R·n (a radix sort while that is 16 bits or
less; senders stay in frontier order, which is ascending id), and fuses
one sender rank at a time across all reading targets at once with the
array operators of `drim.opinion`. A target stops at the sender whose
fusion froze it; a degenerate fusion (beta <= 1e-12) is skipped and
counted.

Draw-order contract: within a level, a replica's s reached users, in
ascending id order, take 2·s uniforms from its generator in one
`rng.random((2, s))` call. Row 0 holds their read draws and row 1 their
share draws: a user reads iff its read draw is below p_read, and shares
iff it read and its share draw is below p_share. Nothing else in a wave
draws, and only `random()` is used, so the half of a 64-bit draw that
`integers` may hold buffered stays untouched. `DRAW_CONTRACT` names this
contract: change it whenever the wave's draws change.

Lockstep replicas: the kernel also runs R independent episodes at once
(`run_lockstep`), the way vectorized RL environments step a batch
(EnvPool, arXiv:2206.10558). Replica r owns users r·n … r·n+n-1 of one
stacked population, and the wave runs over the disjoint union of R
copies of the graph, read from the one CSR with ids offset by r·n; each
level's reached users are split by replica, and replica r takes its
block of draws from its own generator, so every replica sees exactly
the draws and the fusions of its solo run. `run_lockstep` is the only
round loop: `run_episode` is its R = 1 case, evaluation runs a worker's
share of a cell through it, and PPO training runs each update's rollout
episodes through it with the learner as one of the agents.

Both parties plan on the episode's view (`Episode.obs`), a
`network.Graph`: at p_nv = 1 the graph itself (`network.full_view`), so
every episode on the graph shares its cached degrees and 2-hop counts,
else an edge mask drawn from the episode's seed.

Rewards use decided influence counts (vacuity below 0.5) so that the
all-undecided starting population contributes a zero baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Sequence

import numpy as np

from drim.network import Graph, full_view, mask_network
from drim.opinion import (
    TrustModel,
    TrustVariant,
    UOM,
    apply_uom_refresh,  # noqa: F401  (re-exported; the kernel works from refresh_due)
    fuse,
    refresh_due,
    trust_coefficient,
    vacuity_maximize,
)
from drim.population import (
    Party,
    PopulationState,
    Role,
    decided_influence_counts,
    free_mask,
    influence_counts,
    init_population,
    promote_seed,
    stack_populations,
)
from drim.strategies import Agent, StrategyKind, select_seed

# The draw-order contract above; policy cache keys hash it, so a policy
# trained on another stream of draws is retrained, not reused.
DRAW_CONTRACT = "level-block: rng.random((2, s)) per replica and level"


@dataclass(frozen=True)
class EpisodeConfig:
    """Scenario contract for one episode."""

    k: int = 50
    p_t: int = 2
    p_f: int = 1
    opinion_model: TrustModel = UOM
    p_nv: float = 1.0
    rng_seed: int = 0
    prior_a: float = 0.5

    def __post_init__(self) -> None:
        if self.k < 1 or self.p_t < 1 or self.p_f < 1:
            raise ValueError("k, p_t, p_f must all be >= 1")
        for name in ("p_nv", "prior_a"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    def with_seed(self, rng_seed: int) -> "EpisodeConfig":
        return replace(self, rng_seed=rng_seed)


@dataclass
class RoundLog:
    """Audit entry for one party-step."""

    t: int
    party: Party
    seed: int
    strategy: str
    n_true: int
    n_false: int
    reward: float


@dataclass
class WaveCounters:
    """Deterministic totals of the wave kernel (per episode).

    reached: users reached (each took a read draw); reads: of those, the
    ones whose read succeeded; fusions: sender opinions fused, degenerate
    attempts included; refreshes: UOM refreshes fired before a fusion;
    frozen: freeze latches set; degenerate: fusions skipped because
    beta <= 1e-12.
    """

    reached: int = 0
    reads: int = 0
    fusions: int = 0
    refreshes: int = 0
    frozen: int = 0
    degenerate: int = 0


# WaveCounters fields, in order: the rows of the kernel's (fields, replicas) tally.
_COUNTERS = tuple(f.name for f in fields(WaveCounters))
_REACHED, _READS, _FUSIONS, _REFRESHES, _FROZEN, _DEGENERATE = range(len(_COUNTERS))


def _fuse_level(
    state: PopulationState,
    model: TrustModel,
    ids: np.ndarray,
    slot: np.ndarray,
    end: np.ndarray,
    senders: np.ndarray,
    tally: np.ndarray,
    n: int,
) -> None:
    """Fuse every reader's senders into it, one sender rank at a time.

    Reader ids[i] (none frozen) fuses senders[slot[i]:end[i]] in order
    and stops early at the fusion that freezes it. Results are written
    through to the state after every rank: within a level no reader is
    anyone's sender, so no later fusion of the level reads them. Totals
    go to column ids // n of tally.
    """
    bdua, frozen = state.bdua, state.frozen
    rows = bdua[0], bdua[1], bdua[2], bdua[3]
    is_uom = model.variant is TrustVariant.UOM
    t_u = model.t_u
    replicas = tally.shape[1]

    def per_replica(users, weights=None):
        return np.bincount(users // n, weights, replicas).astype(np.int64)

    # Every fusion still to run; a halted reader gives back the rest below.
    tally[_FUSIONS] += per_replica(ids, end - slot)
    while True:
        op_i = bdua.take(ids, axis=1)
        op_j = bdua.take(senders.take(slot), axis=1)
        if is_uom:
            due = refresh_due(op_i, model)
            if np.count_nonzero(due):
                tally[_REFRESHES] += per_replica(ids[due])
                maxed = vacuity_maximize(op_i)
                op_i = np.array([np.where(due, x, y) for x, y in zip(maxed, op_i)])
        new = fuse(op_i, op_j, trust_coefficient(model, op_i, op_j))
        skipped = np.isnan(new.u)
        bad = int(np.count_nonzero(skipped))
        if bad:  # dogmatic pair slipped past the freeze latch: keep op_i
            tally[_DEGENERATE] += per_replica(ids[skipped])
            new = [np.where(skipped, y, x) for x, y in zip(new, op_i)]
        for row, x in zip(rows, new):
            row[ids] = x
        slot = slot + 1
        more = slot < end
        stop = new[2] <= t_u
        if bad:  # a skipped fusion is no fusion: nothing to freeze on
            stop &= ~skipped
        if np.count_nonzero(stop):
            stop &= ~refresh_due(new, model)
            if np.count_nonzero(stop):
                halted = ids[stop]
                frozen[halted] = True
                tally[_FROZEN] += per_replica(halted)
                tally[_FUSIONS] -= per_replica(halted, end[stop] - slot[stop])
                more &= ~stop
        left = np.count_nonzero(more)
        if left == 0:
            return
        if left < ids.size:
            ids, slot, end = ids[more], slot[more], end[more]


def propagate_wave(
    state: PopulationState,
    g: Graph,
    party: Party,
    model: TrustModel,
    rngs: Sequence[np.random.Generator],
    counters: Sequence[WaveCounters] | None = None,
) -> PopulationState:
    """Run one BFS information wave from the party's seed set (in place).

    state holds R = len(rngs) replicas of g's users: replica r owns users
    r·n … r·n+n-1 (n = g.n), its edges are g's shifted by r·n, and
    rngs[r] takes its draws. counters, when given, hold one
    `WaveCounters` per replica, and accumulate the wave's totals.
    """
    replicas, n = len(rngs), g.n
    if state.n != replicas * n:
        raise ValueError(f"{replicas} replicas of {n} users, but the state holds {state.n}")
    sharers = state.seed_ids(party)
    if sharers.size == 0:
        return state
    cuts = np.arange(1, replicas) * n  # first user of every replica but the first
    tally = np.zeros((len(_COUNTERS), replicas), dtype=np.int64)
    indptr, indices = g.indptr, g.indices
    frozen = state.frozen
    key_dtype = np.min_scalar_type(state.n)

    # Seeds of either party never read or update; own seeds are origins.
    visited = state.role != Role.LEGITIMATE.value
    visited[sharers] = True

    while sharers.size:
        # (target, sender) pairs in frontier order, then grouped by target
        local = sharers % n if replicas > 1 else sharers  # ids in g
        starts = indptr.take(local)
        degree = indptr.take(local + 1) - starts
        ends = degree.cumsum()
        if ends[-1] == 0:
            break
        slots = np.arange(ends[-1]) + (starts - (ends - degree)).repeat(degree)
        targets = indices.take(slots)
        if replicas > 1:  # back to the sender's replica: + r·n
            targets += (sharers - local).repeat(degree)
        fresh = (~visited.take(targets)).nonzero()[0]
        if fresh.size == 0:
            break
        senders = sharers.repeat(degree).take(fresh)
        targets = targets.take(fresh)
        order = targets.astype(key_dtype).argsort(kind="stable")
        targets, senders = targets.take(order), senders.take(order)
        bounds = np.empty(targets.size + 1, dtype=bool)
        bounds[0] = bounds[-1] = True
        np.not_equal(targets[1:], targets[:-1], out=bounds[1:-1])
        bounds = bounds.nonzero()[0]  # group starts, then the end of the last group
        reached = targets.take(bounds[:-1])
        visited[reached] = True

        # reached is ascending, so each replica's users are one segment of it
        segments = [0, *reached.searchsorted(cuts).tolist(), reached.size]
        draws = np.concatenate([rngs[r].random((2, hi - lo))
                                for r, (lo, hi) in enumerate(zip(segments, segments[1:]))
                                if lo < hi], axis=1)
        read = draws[0] < state.p_read.take(reached)
        share = read & (draws[1] < state.p_share.take(reached))
        tally[_REACHED] += np.diff(segments)
        tally[_READS] += np.bincount(reached[read] // n, minlength=replicas)
        fusing = (read & ~frozen.take(reached)).nonzero()[0]
        if fusing.size:
            _fuse_level(state, model, reached.take(fusing), bounds.take(fusing),
                        bounds.take(fusing + 1), senders, tally, n)
        sharers = reached[share]
    if counters is not None:
        for c, column in zip(counters, tally.T.tolist()):
            for name, x in zip(_COUNTERS, column):
                setattr(c, name, getattr(c, name) + x)
    return state


def extract_state(state: PopulationState, g_observable: Graph) -> tuple[int, int]:
    """Raw policy observation: (edges among free nodes, max free-node degree)."""
    free = free_mask(state)
    eu, ev = g_observable.edge_u, g_observable.edge_v
    edge_count = int(np.count_nonzero(free[eu] & free[ev]))
    if np.any(free):
        max_deg = int(g_observable.degrees()[free].max())
    else:
        max_deg = 0
    return edge_count, max_deg


def discounted_returns(rewards, gamma: float) -> np.ndarray:
    """Discounted tail sum from every start index T: sum_{t>=T} gamma^(t-T+1) R_t."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma={gamma} outside (0, 1)")
    out = np.zeros(len(rewards))
    g = 0.0
    for i in range(len(rewards) - 1, -1, -1):
        g = gamma * (rewards[i] + g)
        out[i] = g
    return out


_FALLBACK_CHAIN = (StrategyKind.SGF, StrategyKind.CF)


class Episode:
    """One competitive episode on a fixed graph.

    Holds the population, the view both parties plan on, decided-count
    series per step, and the audit log. Sub-seeds for population
    sampling, edge masking, dynamics and C-STORM's communities
    (`community_seed`) derive from the config seed, so an episode is
    reproducible end to end.
    """

    def __init__(self, graph: Graph, cfg: EpisodeConfig):
        self.graph = graph
        self.cfg = cfg
        pop_seed, mask_seed, dyn_seed, self.community_seed = (
            np.random.SeedSequence(cfg.rng_seed).spawn(4))
        self.pop = init_population(graph.n, np.random.default_rng(pop_seed), cfg.prior_a)
        self.obs = (full_view(graph) if cfg.p_nv >= 1.0
                    else mask_network(graph, cfg.p_nv, np.random.default_rng(mask_seed)))
        self.rng = np.random.default_rng(dyn_seed)
        self.model = cfg.opinion_model
        self.counters = WaveCounters()
        self.t = 0
        nt, nf = decided_influence_counts(self.pop)
        self.n_true_series = [nt]
        self.n_false_series = [nf]
        self.logs: list[RoundLog] = []
        e0, d0 = extract_state(self.pop, self.obs)
        self._state_norm = (max(e0, 1), max(d0, 1))

    def normalized_state(self) -> tuple[float, float]:
        e, dg = extract_state(self.pop, self.obs)
        return e / self._state_norm[0], dg / self._state_norm[1]

    def resolve_seed(
        self, kind: StrategyKind, party: Party, pool_mask: np.ndarray | None = None
    ) -> tuple[str, int]:
        """Apply a strategy with the fallback chain; returns (fired, seed)."""
        seed = select_seed(kind, party, self.pop, self.obs, pool_mask)
        if seed is not None:
            return kind.value, seed
        for fb in _FALLBACK_CHAIN:
            if fb is not kind:
                seed = select_seed(fb, party, self.pop, self.obs, pool_mask)
                if seed is not None:
                    return fb.value, seed
        eligible = self.pop.role == Role.LEGITIMATE.value
        if pool_mask is not None:
            eligible = eligible & pool_mask
        free = eligible & free_mask(self.pop)
        for mask in (free, eligible):
            ids = np.flatnonzero(mask)
            if ids.size:
                return "fallback", int(ids[0])
        if pool_mask is not None:  # exhausted pool: retry unrestricted
            return self.resolve_seed(kind, party, None)
        raise RuntimeError("no legitimate users left to seed")

    def close_step(self, party: Party, fired: str, seed: int) -> RoundLog:
        """Close a party's step once its waves have run: counts, reward, log.

        The reward is the net change of the party's decided count since
        its own previous step: n_t - n_{t-2}. The false party moves
        first, so its t=1 reward compares against the pre-game baseline
        n_0; the true party's first reward is at t=2, also against n_0.
        """
        self.t += 1
        nt, nf = decided_influence_counts(self.pop)
        self.n_true_series.append(nt)
        self.n_false_series.append(nf)
        counts = self.n_true_series if party is Party.TRUE_PARTY else self.n_false_series
        prev = self.t - 2 if self.t >= 2 else 0
        reward = float(counts[self.t] - counts[prev])
        entry = RoundLog(self.t, party, seed, fired, nt, nf, reward)
        self.logs.append(entry)
        return entry

    def final_metrics(self) -> dict[str, float]:
        n_true, n_false = influence_counts(self.pop)
        dec_true, dec_false = decided_influence_counts(self.pop)
        return {
            "n_true": float(n_true),
            "n_false": float(n_false),
            "decided_n_true": float(dec_true),
            "decided_n_false": float(dec_false),
        }


def run_episode(
    graph: Graph,
    cfg: EpisodeConfig,
    tp_agent: Agent,
    fp_agent: Agent,
) -> Episode:
    """Run one episode: `run_lockstep` of a single episode."""
    return run_lockstep([Episode(graph, cfg)], [(tp_agent, fp_agent)])[0]


def run_lockstep(episodes: list[Episode], agents: list[tuple[Agent, Agent]]) -> list[Episode]:
    """Run fresh episodes of one graph and scenario in lockstep (in place).

    agents holds one (tp_agent, fp_agent) pair per episode. An agent may
    keep per-episode state (C-STORM community labels), so no agent may
    serve two episodes. The episodes may differ only in their seeds.
    Their populations are stacked (each `Episode.pop` becomes a view of
    its slice), and each of a party's waves is one `propagate_wave` call
    over all of them, each replica drawing from its own generator. Seed
    selection, rewards and logs stay per episode, so every episode ends
    exactly as it would if run alone.
    """
    first = episodes[0]
    shared = (first.cfg.k, first.cfg.p_t, first.cfg.p_f, first.model)
    for ep in episodes:
        if ep.graph is not first.graph or (ep.cfg.k, ep.cfg.p_t, ep.cfg.p_f, ep.model) != shared:
            raise ValueError("lockstep episodes must share the graph and the scenario")
    if len(agents) != len(episodes):
        raise ValueError(f"{len(agents)} agent pairs for {len(episodes)} episodes")
    pop = stack_populations([ep.pop for ep in episodes])
    rngs = [ep.rng for ep in episodes]
    counters = [ep.counters for ep in episodes]
    for ep, (tp_agent, fp_agent) in zip(episodes, agents):
        tp_agent.begin_episode(ep, Party.TRUE_PARTY)
        fp_agent.begin_episode(ep, Party.FALSE_PARTY)
    # (party, its agent's index in a (tp, fp) pair, waves); the false party moves first
    turns = ((Party.FALSE_PARTY, 1, first.cfg.p_f), (Party.TRUE_PARTY, 0, first.cfg.p_t))
    for _ in range(first.cfg.k):
        for party, side, waves in turns:
            steps = []
            for ep, pair in zip(episodes, agents):
                agent = pair[side]
                kind = agent.select(ep, party)
                fired, seed = ep.resolve_seed(kind, party, agent.candidate_pool(ep, party))
                promote_seed(ep.pop, seed, party)
                steps.append((fired, seed))
            for _ in range(waves):
                propagate_wave(pop, first.graph, party, first.model, rngs, counters)
            for ep, (fired, seed) in zip(episodes, steps):
                ep.close_step(party, fired, seed)
    return episodes
