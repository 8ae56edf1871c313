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

The wave kernel is one C function (`wave.c`, beside this module, which
`drim.opinion` builds and loads), and one call runs a party's whole
turn: each replica in turn, its waves one after another, each a BFS
level by level in the sequential order of the scalar reference. Per
level it collects the fresh targets in ascending id order, takes their
draws, and lets each reader that is not frozen fuse its senders (the
neighbors that shared at the previous level) in ascending id order: the
UOM refresh before each fusion when it is due, the freeze latch after
it, and a degenerate fusion (beta <= 1e-12) counted and skipped. It
calls the C operators that `drim.opinion`'s operators call, per pair;
`fuse`, `apply_uom_refresh` and `decided_influence_counts` stay
importable from here, but the kernel does not call them: it counts each
replica's decided users after the turn itself.

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
stacked population and reads the one CSR of the graph; replicas share
no users and replica r draws from its own generator, so every replica
sees exactly the draws and the fusions of its solo run. One agent per
party plays every replica, and the party turn is the unit of lockstep
work: the party's agent makes one `select` for all the replicas (a
policy agent in one stacked observation pass and one forward), one
`select_seed` call scores every replica's chosen strategy, and one
kernel call runs the turn's waves and counts each replica's decided
users after them. `run_lockstep` is the only round loop: `run_episode`
is its R = 1 case, evaluation runs a worker's share of a cell through
it, and PPO training runs each update's rollout episodes through it with
the learner as one of the two agents.

Both parties plan on the episode's view (`Episode.obs`), a
`network.Graph`: at p_nv = 1 the graph itself (`network.full_view`), so
every episode on the graph shares its cached degrees and 2-hop counts,
else an edge mask drawn from the episode's seed.

Rewards use decided influence counts (vacuity below 0.5) so that the
all-undecided starting population contributes a zero baseline. Each
party step appends one `RoundLog` to `Episode.logs`, the episode's record.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, fields, replace
from numbers import Integral
from typing import Sequence

import numpy as np
# numpy loads numpy.random lazily; every episode seeds from it, so load it
# with this module, not inside the first episode a pool worker times.
import numpy.random  # noqa: F401

from drim import population
from drim.network import Graph, full_view, mask_network
from drim.opinion import (
    UOM,
    _LIBRARY,
    _MODEL_CODES,
    TrustModel,
    _address,
    apply_uom_refresh,  # noqa: F401  (re-exported; perfbench's tracer rebinds it)
    fuse,  # noqa: F401  (re-exported; perfbench's tracer rebinds it)
)
from drim.population import (
    Party,
    PopulationState,
    decided_influence_counts,  # noqa: F401  (re-exported; perfbench's tracer rebinds it)
    free_mask,
    influence_counts,
    init_population,
    promote_seed,
    seed_role,
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


_KERNEL = _LIBRARY.drim_propagate_turn
_KERNEL.restype = ctypes.c_int
_KERNEL.argtypes = (
    [ctypes.c_int64] * 2  # replicas, n
    + [ctypes.c_void_p] * 10  # indptr, indices, b, d, u, a, p_read, p_share, role, frozen
    + [ctypes.c_int8, ctypes.c_int]  # the party's seed role, the model code
    + [ctypes.c_double] * 4  # xi, t_d, t_u, the free-vacuity threshold
    + [ctypes.c_int64]  # waves
    + [ctypes.c_void_p] * 3  # generator states, their next_double, the tally
)
# A replica's tally: the WaveCounters fields in order, then its decided counts
_COUNTERS = [f.name for f in fields(WaveCounters)]


def propagate_wave(
    state: PopulationState,
    g: Graph,
    party: Party,
    model: TrustModel,
    rngs: Sequence[np.random.Generator],
    counters: Sequence[WaveCounters] | None = None,
    waves: int = 1,
) -> np.ndarray:
    """Run a party turn's `waves` BFS information waves from its seed set (in place).

    state holds R = len(rngs) replicas of g's users: replica r owns users
    r·n … r·n+n-1 (n = g.n), its edges are g's shifted by r·n, and
    rngs[r] (a `numpy.random.Generator`) takes its draws. counters, when
    given, hold one `WaveCounters` per replica, and accumulate the
    turn's totals. The state equals `waves` calls of one wave each.
    Every array is checked before the kernel touches it. Returns
    `decided_influence_counts(state, R)` after the turn, an (R, 2) int64 array.
    """
    replicas, n = len(rngs), g.n
    if state.n != replicas * n:
        raise ValueError(f"{replicas} replicas of {n} users, but the state holds {state.n}")
    if counters is not None and len(counters) != replicas:
        raise ValueError(f"{len(counters)} counters for {replicas} replicas")
    if len(state.bdua) != 4:
        raise ValueError(f"bdua must have 4 rows, got {len(state.bdua)}")
    size = replicas * n
    arrays = [
        _address(g.indptr, np.int64, n + 1, "indptr"),
        _address(g.indices, np.int64, int(g.indptr[-1]), "indices"),
        *(_address(row, np.float64, size, f"bdua row {i}", written=True)
          for i, row in enumerate(state.bdua)),
        _address(state.p_read, np.float64, size, "p_read"),
        _address(state.p_share, np.float64, size, "p_share"),
        _address(state.role, np.int8, size, "role"),
        _address(state.frozen, np.bool_, size, "frozen", written=True),
    ]
    generators = []
    for rng in rngs:
        if not isinstance(rng, np.random.Generator):
            raise TypeError(f"rngs must hold numpy.random.Generator objects, "
                            f"got {type(rng).__name__}")
        generators.append(rng.bit_generator.ctypes)
    states = (ctypes.c_void_p * replicas)(*(c.state_address for c in generators))
    draws = (ctypes.c_void_p * replicas)(
        *(ctypes.cast(c.next_double, ctypes.c_void_p) for c in generators))
    tally = np.zeros((replicas, len(_COUNTERS) + 2), dtype=np.int64)
    if _KERNEL(replicas, n, *arrays, seed_role(party), _MODEL_CODES[model.variant],
               model.xi, model.t_d, model.t_u, population.FREE_VACUITY_THRESHOLD, waves,
               states, draws, tally.ctypes.data):
        raise MemoryError("the wave kernel could not allocate its scratch arrays")
    if counters is not None:
        for c, totals in zip(counters, tally.tolist()):
            for name, x in zip(_COUNTERS, totals):
                setattr(c, name, getattr(c, name) + x)
    return tally[:, len(_COUNTERS):]


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
    return run_lockstep([Episode(graph, cfg)], tp_agent, fp_agent)[0]


def run_lockstep(episodes: list[Episode], tp_agent: Agent, fp_agent: Agent) -> list[Episode]:
    """Run fresh episodes of one graph and scenario in lockstep (in place).

    One agent per party plays every episode: per-episode state lives on
    the `Episode`, or is keyed by it (a `LearnerAgent`'s generators and
    records). The episodes may differ only in their seeds, and each must
    be fresh (no step played) and listed once.
    Their populations are stacked (each `Episode.pop` becomes a view of
    its slice), and a party's turn is one batched step over all of
    them: the party's agent makes one `select` for all the episodes,
    `select_seed` scores the chosen strategies on the stacked planning
    views, and one `propagate_wave` call runs the turn's waves, each
    replica drawing from its own generator, and counts the decided users
    they leave. Fallbacks, promotions, rewards and logs stay per episode,
    so every episode ends exactly as it would if run alone.
    """
    first = episodes[0]
    for r, ep in enumerate(episodes):
        if ep.graph is not first.graph or replace(ep.cfg, rng_seed=first.cfg.rng_seed) != first.cfg:
            raise ValueError("lockstep episodes must share the graph and the scenario")
        if ep.logs or episodes.index(ep) < r:
            raise ValueError(f"lockstep episode {r} is not fresh: it has played or is listed twice")
    model = first.cfg.opinion_model
    pop = stack_populations([ep.pop for ep in episodes])
    views = [ep.obs for ep in episodes]
    rngs = [ep.rng for ep in episodes]
    counters = [ep.counters for ep in episodes]
    # the false party moves first
    turns = ((Party.FALSE_PARTY, fp_agent, first.cfg.p_f),
             (Party.TRUE_PARTY, tp_agent, first.cfg.p_t))
    for _ in range(first.cfg.k):
        for party, agent, waves in turns:
            kinds = agent.select(episodes)
            pools = [agent.pool(ep) for ep in episodes]
            stacked_pool = None if pools[0] is None else np.concatenate(pools)
            picks = select_seed(kinds, party, pop, views, stacked_pool).tolist()
            steps = []
            for ep, kind, pool, pick in zip(episodes, kinds, pools, picks):
                fired, seed = ep.resolve_seed(kind, party, pool, pick)
                promote_seed(ep.pop, seed, party)
                steps.append((fired, seed))
            counts = propagate_wave(pop, first.graph, party, model, rngs, counters, waves).tolist()
            for ep, (fired, seed), (nt, nf) in zip(episodes, steps, counts):
                ep.close_step(party, fired, seed, nt, nf)
    return episodes
