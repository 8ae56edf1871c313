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
al., SC 2012), and one call runs a party's whole turn: its waves' BFS
one after another, in the order (and so with the draws) of one call
per wave. Per BFS level it gathers the (target, sender) pairs of the
frontier, groups them by target with a stable sort on the narrowest
unsigned dtype that holds R·n (a radix sort while that is 16 bits or
less; senders stay in frontier order, which is ascending id), draws, and
turns each reading target's senders into fusion events, unless the
target was frozen when the turn began. The BFS never depends on an
opinion, so fusion waits until every level of every wave of the turn
is done and then runs on one dependency-depth schedule, the level
scheduling of sparse triangular solves (Anderson & Saad, "Solving
sparse triangular linear systems on parallel computers", Int. J. High
Speed Computing 1(1), 1989): an event lies one step past its reader's
previous event and past its sender's last, and, across waves, past
every event of an earlier wave that read its reader (write after read:
`last_read`, kept only while a later wave follows). Each depth is one
step of the array operators of `drim.opinion` over all its events at
once. Every event sees the opinions the wave-by-wave, level-by-level,
sender-by-sender order would give it, so the results are exact. A
target that freezes skips its later events, in its own wave or a later
one; a degenerate fusion (beta <= 1e-12) is skipped. The totals are
counted once per turn, from the ids its levels and fusion steps hit.

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
the draws and the fusions of its solo run. The party turn is the unit
of lockstep work: each agent makes one `select` for all the replicas it
plays (a policy agent in one stacked observation pass and one forward),
`select_seed` scores each chosen strategy once on the stacked planning
views, one kernel call runs the turn's waves, and one count covers the
stacked population. `run_lockstep` is the only round loop:
`run_episode` is its R = 1 case, evaluation runs a worker's share of a
cell through it, and PPO training runs each update's rollout episodes
through it with the learner as one of the agents.

Both parties plan on the episode's view (`Episode.obs`), a
`network.Graph`: at p_nv = 1 the graph itself (`network.full_view`), so
every episode on the graph shares its cached degrees and 2-hop counts,
else an edge mask drawn from the episode's seed.

Rewards use decided influence counts (vacuity below 0.5) so that the
all-undecided starting population contributes a zero baseline. Each
party step appends one `RoundLog` to `Episode.logs`, the episode's record.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from numbers import Integral
from typing import Sequence

import numpy as np
# numpy loads numpy.random lazily; every episode seeds from it, so load it
# with this module, not inside the first episode a pool worker times.
import numpy.random  # noqa: F401

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
        for name in ("k", "p_t", "p_f"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be a whole number >= 1, got {value!r}")
        for name in ("p_nv", "prior_a"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")

    def with_seed(self, rng_seed: int) -> "EpisodeConfig":
        return replace(self, rng_seed=rng_seed)


@dataclass
class RoundLog:
    """Record of party step t (1, 2, ...): the seed, the value of the
    `StrategyKind` that picked it (af, bf, sgf or cf), the decided
    counts the step's waves left, and the party's reward."""

    t: int
    party: Party
    seed: int
    strategy: str
    n_true: int
    n_false: int
    reward: int


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


def _fuse_step(
    state: PopulationState,
    model: TrustModel,
    ids: np.ndarray,
    senders: np.ndarray,
    hits: dict[str, list[np.ndarray]],
) -> bool:
    """Run one depth of a wave's fusion schedule: reader ids[i] fuses senders[i].

    Two ordering invariants make one vectorised step exact: every event
    lies deeper than its reader's previous event, so the ids are
    distinct; and every event lies deeper than its sender's last event,
    so each sender's opinion is settled and no reader of the step is
    another's sender. Results are written through to the state; a
    reader whose fusion freezes it is latched here. Refreshed, degenerate
    and frozen readers join their lists in hits. Returns whether any froze.
    """
    bdua, frozen = state.bdua, state.frozen
    op_i = bdua.take(ids, axis=1)
    op_j = bdua.take(senders, axis=1)
    if model.variant is TrustVariant.UOM:
        due = refresh_due(op_i, model)
        if np.count_nonzero(due):
            hits["refreshes"].append(ids[due])
            op_i[:, due] = vacuity_maximize(op_i[:, due])
    new = fuse(op_i, op_j, trust_coefficient(model, op_i, op_j))
    skipped = np.isnan(new.u)
    bad = int(np.count_nonzero(skipped))
    if bad:  # dogmatic pair slipped past the freeze latch: keep op_i
        hits["degenerate"].append(ids[skipped])
        new = [np.where(skipped, y, x) for x, y in zip(new, op_i)]
    for row, x in zip(bdua, new):
        row[ids] = x
    stop = new[2] <= model.t_u
    if bad:  # a skipped fusion is no fusion: nothing to freeze on
        stop &= ~skipped
    if np.count_nonzero(stop):
        stop &= ~refresh_due(new, model)
        if np.count_nonzero(stop):
            halted = ids[stop]
            frozen[halted] = True
            hits["frozen"].append(halted)
            return True
    return False


def propagate_wave(
    state: PopulationState,
    g: Graph,
    party: Party,
    model: TrustModel,
    rngs: Sequence[np.random.Generator],
    counters: Sequence[WaveCounters] | None = None,
    waves: int = 1,
) -> PopulationState:
    """Run a party turn's `waves` BFS information waves from its seed set (in place).

    state holds R = len(rngs) replicas of g's users: replica r owns users
    r·n … r·n+n-1 (n = g.n), its edges are g's shifted by r·n, and
    rngs[r] takes its draws. counters, when given, hold one
    `WaveCounters` per replica, and accumulate the turn's totals. The
    result equals `waves` calls of one wave each.
    """
    replicas, n = len(rngs), g.n
    if state.n != replicas * n:
        raise ValueError(f"{replicas} replicas of {n} users, but the state holds {state.n}")
    seeds = state.seed_ids(party)
    if seeds.size == 0:
        return state
    cuts = np.arange(1, replicas) * n  # first user of every replica but the first
    # Per WaveCounters field, the ids of the users each level or fusion step hit
    hits = {f.name: [np.empty(0, np.int64)] for f in fields(WaveCounters)}
    indptr, indices = g.indptr, g.indices
    frozen = state.frozen
    key_dtype = np.min_scalar_type(state.n)
    # Seeds of either party never read or update.
    unseeded = state.role == Role.LEGITIMATE.value

    # The schedule: last[u] is the depth of u's last fusion event so far,
    # 0 for a user without one; last_read[u] the depth of the deepest
    # event of an earlier wave that read u; events holds (depths,
    # readers, senders) of each level's fusion events.
    last = np.zeros(state.n, dtype=np.int64)
    last_read = np.zeros(state.n, dtype=np.int64)
    events = []

    for wave in range(waves):
        visited = ~unseeded
        sharers = seeds  # own seeds are the origins
        while sharers.size:
            # (target, sender) pairs in frontier order, then grouped by target
            local = sharers % n  # ids in g
            starts = indptr.take(local)
            degree = indptr.take(local + 1) - starts
            ends = degree.cumsum()
            if ends[-1] == 0:
                break
            slots = np.arange(ends[-1]) + (starts - (ends - degree)).repeat(degree)
            targets = indices.take(slots)
            targets += (sharers - local).repeat(degree)  # back to the sender's replica: + r·n
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
            hits["reached"].append(reached)
            hits["reads"].append(reached[read])
            # Readers frozen at the start of the turn take no events; those
            # that freeze during it skip theirs when the schedule runs.
            fusing = (read & ~frozen.take(reached)).nonzero()[0]
            if fusing.size:
                # Event k of a reader with senders s_0, s_1, ... lies at depth
                # d_k = k + max(f + 1, max_{j<=k}(last[s_j] - j + 1)): one past
                # its previous event, past its sender's last, and past its
                # floor f, the deeper of its own last event and the last
                # earlier-wave event that read it (0 in a turn's first wave).
                # Numbering the level's events i = 0, 1, ..., that is i plus a
                # running max of last[s_i] + 1 - i within each reader's run
                # (its first entry raised to f + 1 - i), one running max over
                # keys that carry the index of the run's first event in their
                # high 32 bits.
                first = bounds.take(fusing)
                count = bounds.take(fusing + 1) - first
                ends = count.cumsum()
                start = ends - count  # each run's first event
                i = np.arange(ends[-1])
                ev_senders = senders.take(i + (first - start).repeat(count))
                ev_readers = reached.take(fusing)
                key = last.take(ev_senders) + 1 - i
                if wave:
                    floor = np.maximum(last.take(ev_readers), last_read.take(ev_readers))
                    key[start] = np.maximum(key.take(start), floor + 1 - start)
                high = start.repeat(count) << 32
                depth = np.maximum.accumulate(high + key) - high + i
                last[ev_readers] = depth.take(ends - 1)
                if wave + 1 < waves:  # a later wave must not update a user before this read
                    np.maximum.at(last_read, ev_senders, depth)
                events.append((depth, ev_readers.repeat(count), ev_senders))
            sharers = reached[share]

    if events:
        # One fusion step per depth, in depth order; a stable sort keeps
        # each step's events in wave, level, reader and sender order.
        depth, readers, froms = (np.concatenate(x) for x in zip(*events))
        steps = np.bincount(depth).cumsum()  # depths run 1, 2, ..., max
        order = depth.astype(np.min_scalar_type(steps.size)).argsort(kind="stable")
        readers, froms = readers.take(order), froms.take(order)
        halts = False
        steps = steps.tolist()
        for lo, hi in zip(steps, steps[1:]):
            ids, senders = readers[lo:hi], froms[lo:hi]
            if halts:  # a reader that froze skips its later events
                live = ~frozen.take(ids)
                if not live.all():
                    ids, senders = ids[live], senders[live]
                    if ids.size == 0:
                        continue
            hits["fusions"].append(ids)
            halts |= _fuse_step(state, model, ids, senders, hits)
    if counters is not None:
        for name, ids in hits.items():
            totals = np.bincount(np.concatenate(ids) // n, minlength=replicas)
            for c, x in zip(counters, totals.tolist()):
                setattr(c, name, getattr(c, name) + x)
    return state


def extract_state(free: np.ndarray, views: Sequence[Graph]) -> np.ndarray:
    """Raw policy observations of R = len(views) replicas, given their
    stacked free mask: row r is (edges of views[r] among replica r's
    free users, the largest degree in views[r] among them)."""
    n = views[0].n
    edges = [np.count_nonzero(free_r.take(view.edge_u) & free_r.take(view.edge_v))
             for view, free_r in zip(views, free.reshape(-1, n))]
    max_deg = (free.reshape(-1, n) * np.stack([view.degrees() for view in views])).max(axis=1)
    return np.stack([edges, max_deg], axis=1)


class Episode:
    """One competitive episode on a fixed graph.

    Holds the population, the view both parties plan on, and the round
    log: one `RoundLog` per party step, the episode's one record of its
    steps, decided counts and rewards. Sub-seeds for population
    sampling, edge masking, dynamics and C-STORM's communities
    (`community_seed`) derive from the config seed, so an episode is
    reproducible end to end. `communities` holds C-STORM's community
    label of each user of the view, once an agent has computed them.
    """

    def __init__(self, graph: Graph, cfg: EpisodeConfig):
        if 2 * cfg.k > graph.n:  # each of the 2·k steps seeds a distinct user
            raise ValueError(f"k={cfg.k} rounds seed 2·k = {2 * cfg.k} users, "
                             f"but the graph has only n={graph.n}")
        self.graph = graph
        self.cfg = cfg
        pop_seed, mask_seed, dyn_seed, self.community_seed = (
            np.random.SeedSequence(cfg.rng_seed).spawn(4))
        self.pop = init_population(graph.n, np.random.default_rng(pop_seed), cfg.prior_a)
        self.obs = (full_view(graph) if cfg.p_nv >= 1.0
                    else mask_network(graph, cfg.p_nv, np.random.default_rng(mask_seed)))
        self.rng = np.random.default_rng(dyn_seed)
        self.communities: np.ndarray | None = None
        self.counters = WaveCounters()
        self.logs: list[RoundLog] = []
        # Every user starts free: the state starts at the view's edges and top degree.
        self.state_norm = np.maximum([self.obs.num_edges, self.obs.degrees().max()], 1)

    def resolve_seed(
        self, kind: StrategyKind, party: Party, pool_mask: np.ndarray | None, pick: int
    ) -> tuple[str, int]:
        """Resolve kind's pick (-1 when it had no candidate); returns
        (fired, seed).

        AF, SGF and CF score every eligible user (legitimate, and in
        pool_mask if given) at 0 or more, so they miss only when no user
        is eligible. BF can also miss with eligible users left, and SGF,
        on the same users, then hits. Any other miss is an exhausted
        pool: kind picks again without it.
        """
        if pick >= 0:
            return kind.value, pick
        if kind is StrategyKind.BF:
            seed = int(select_seed([StrategyKind.SGF], party, self.pop, [self.obs], pool_mask)[0])
            if seed >= 0:
                return StrategyKind.SGF.value, seed
        if pool_mask is not None:  # exhausted pool: retry unrestricted
            pick = int(select_seed([kind], party, self.pop, [self.obs])[0])
            return self.resolve_seed(kind, party, None, pick)
        raise RuntimeError("no legitimate users left to seed")

    def close_step(self, party: Party, fired: str, seed: int, nt: int, nf: int) -> RoundLog:
        """Log a party's step once its waves have run, given the decided
        counts (nt, nf) they left; the entry is step len(logs) + 1.

        The reward is the net change of the party's decided count since
        its own previous step, the entry two back. A party's first step
        compares against the pre-game count, which is 0: every user
        starts undecided.
        """
        own = nt if party is Party.TRUE_PARTY else nf
        if len(self.logs) >= 2:
            prev = self.logs[-2]
            own -= prev.n_true if party is Party.TRUE_PARTY else prev.n_false
        entry = RoundLog(len(self.logs) + 1, party, seed, fired, nt, nf, own)
        self.logs.append(entry)
        return entry

    def final_metrics(self) -> dict[str, int]:
        """Raw influence counts at the end, and the decided counts the
        last step left (0 before any step)."""
        n_true, n_false = influence_counts(self.pop)
        decided = (self.logs[-1].n_true, self.logs[-1].n_false) if self.logs else (0, 0)
        return {
            "n_true": n_true,
            "n_false": n_false,
            "decided_n_true": decided[0],
            "decided_n_false": decided[1],
        }


def normalized_states(episodes: Sequence[Episode]) -> np.ndarray:
    """The episodes' policy observations, one stacked pass: row r is
    episode r's raw observation over its value at the start."""
    free = np.concatenate([free_mask(ep.pop) for ep in episodes])
    raw = extract_state(free, [ep.obs for ep in episodes])
    return raw / np.array([ep.state_norm for ep in episodes])


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

    agents holds one (tp_agent, fp_agent) pair per episode, and one pair
    may serve them all: per-episode state lives on the `Episode`, or is
    keyed by it (a `LearnerAgent`'s generators and records). The
    episodes may differ only in their seeds.
    Their populations are stacked (each `Episode.pop` becomes a view of
    its slice), and a party's turn is one batched step over all of
    them: each agent makes one `select` for all the episodes it plays,
    `select_seed` scores the chosen strategies on the stacked planning
    views, one `propagate_wave` call runs the turn's waves, each replica
    drawing from its own generator, and one `decided_influence_counts`
    call counts the outcome. Fallbacks, promotions, rewards and logs
    stay per episode, so every episode ends exactly as it would if run
    alone.
    """
    first = episodes[0]
    model = first.cfg.opinion_model
    shared = (first.cfg.k, first.cfg.p_t, first.cfg.p_f, model)
    for ep in episodes:
        if ep.graph is not first.graph or (
                ep.cfg.k, ep.cfg.p_t, ep.cfg.p_f, ep.cfg.opinion_model) != shared:
            raise ValueError("lockstep episodes must share the graph and the scenario")
    if len(agents) != len(episodes):
        raise ValueError(f"{len(agents)} agent pairs for {len(episodes)} episodes")
    replicas, n = len(episodes), first.graph.n
    pop = stack_populations([ep.pop for ep in episodes])
    views = [ep.obs for ep in episodes]
    rngs = [ep.rng for ep in episodes]
    counters = [ep.counters for ep in episodes]
    # (party, waves, each replica's agent, each agent's episodes and their
    # rows); the false party moves first
    turns = []
    for party, side, waves in ((Party.FALSE_PARTY, 1, first.cfg.p_f),
                               (Party.TRUE_PARTY, 0, first.cfg.p_t)):
        players = [pair[side] for pair in agents]
        rows: dict[int, list[int]] = {}
        for r, agent in enumerate(players):
            rows.setdefault(id(agent), []).append(r)
        groups = [(players[at[0]], [episodes[r] for r in at], at) for at in rows.values()]
        turns.append((party, waves, players, groups))
    for _ in range(first.cfg.k):
        for party, waves, players, groups in turns:
            kinds: list = [None] * replicas
            for agent, played, at in groups:
                for r, kind in zip(at, agent.select(played)):
                    kinds[r] = kind
            pools = [agent.pool(ep) for agent, ep in zip(players, episodes)]
            stacked_pool = None
            if any(pool is not None for pool in pools):
                stacked_pool = np.concatenate([np.ones(n, dtype=bool) if pool is None else pool
                                               for pool in pools])
            picks = select_seed(kinds, party, pop, views, stacked_pool).tolist()
            steps = []
            for ep, kind, pool, pick in zip(episodes, kinds, pools, picks):
                fired, seed = ep.resolve_seed(kind, party, pool, pick)
                promote_seed(ep.pop, seed, party)
                steps.append((fired, seed))
            propagate_wave(pop, first.graph, party, model, rngs, counters, waves)
            counts = decided_influence_counts(pop, replicas).tolist()
            for ep, (fired, seed), (nt, nf) in zip(episodes, steps, counts):
                ep.close_step(party, fired, seed, nt, nf)
    return episodes
