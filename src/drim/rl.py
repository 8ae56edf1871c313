"""From-scratch PPO actor-critic over the 2-component cascade state.

Both networks are tiny fully-connected MLPs (2 -> H -> H -> out, tanh
hidden layers), each an `Mlp`: the named tuple of its six arrays, whose
layout `Mlp.shapes` states once. They train by plain gradient steps on
the clipped surrogate (actor) and squared return error (critic).
Gradients are analytic numpy backprop; finite differences verify them in
the tests. Returns follow the episode reward discounting exactly (no
GAE), and the advantage is return minus the collection-time value
estimate, normalized per batch.

Rollouts are played by the same driver as evaluation: `train_loop`
trains in one `Matchup`, and each update's episodes run in one
`run_lockstep` call, where one learner (`LearnerAgent`) plays its party
in all of them beside the matchup's opponent and records per episode the
states, actions, log-probabilities and values it saw. Rollouts hand over
`Batch`es: `collect_episode` makes each finished episode a one-episode
batch, and `collect_rollouts` concatenates them into the update's batch
(`Batch.concat`). `make_scheme_agent` builds any scheme's evaluation
agent from trained parameters.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path
from typing import IO, Iterator, NamedTuple, Sequence

import numpy as np

from drim.baselines import scheme_agent
from drim.network import Graph
from drim.opinion import HOM, NOM, UOM
from drim.population import (
    FIP_EVIDENCE,
    FREE_VACUITY_THRESHOLD,
    LEGITIMATE_EVIDENCE,
    TIP_EVIDENCE,
    Party,
)
from drim.propagation import (
    Episode,
    EpisodeConfig,
    normalized_states,
    run_lockstep,
)
from drim.strategies import Agent, Scheme, StrategyKind, action_space, make_heuristic_agent

STATE_DIM = 2

# What decides a trained policy besides its PPO and episode settings, its
# graph and the wave's draws; `harness._policy_tag` hashes it, so a policy
# trained under another contract is retrained, not reused. Bump a version
# when its part changes; the constants enter by their repr.
POLICY_CONTRACT = "|".join(map(repr, (
    "learner v1: tanh MLPs, full-batch gradient steps on the clipped surrogate",
    "reward v1: the party's decided-count change since its previous step",
    "state v1: free edges and largest free degree over their start",
    UOM, HOM, NOM, LEGITIMATE_EVIDENCE, TIP_EVIDENCE, FIP_EVIDENCE, FREE_VACUITY_THRESHOLD,
)))

_MAGIC = b"DRIMPOLv1\n"


@dataclass
class PPOConfig:
    gamma: float = 0.95
    clip_epsilon: float = 0.2
    epochs: int = 80
    actor_lr: float = 3e-4
    critic_lr: float = 1e-3
    rollout_episodes: int = 8
    updates: int = 200
    entropy_coef: float = 0.01
    hidden: int = 64
    selfplay_alternations: int = 4

    def __post_init__(self) -> None:
        for name in ("gamma", "clip_epsilon"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {getattr(self, name)}")
        for name in ("epochs", "rollout_episodes", "updates", "hidden", "selfplay_alternations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be a whole number, got {value!r}")
        for name in ("epochs", "actor_lr", "critic_lr", "rollout_episodes", "updates",
                     "hidden", "selfplay_alternations"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 <= self.entropy_coef < math.inf:
            raise ValueError(f"entropy_coef must be non-negative and finite, got {self.entropy_coef}")

    def side_updates(self) -> int:
        """Self-play's updates per side and alternation; a ValueError
        unless `updates` splits evenly."""
        per_side, rest = divmod(self.updates, 2 * self.selfplay_alternations)
        if rest:
            raise ValueError(f"updates={self.updates} does not split evenly over 2 sides × "
                             f"selfplay_alternations={self.selfplay_alternations}")
        return per_side


class Mlp(NamedTuple):
    """Two-hidden-layer tanh MLP with linear head, as its six arrays: the
    one weight layout. `shapes` gives it as an `Mlp` of shape tuples;
    `backward`'s gradients, copies and the policy file follow it."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    w3: np.ndarray
    b3: np.ndarray

    @staticmethod
    def shapes(in_dim: int, hidden: int, out_dim: int) -> "Mlp":
        return Mlp((in_dim, hidden), (hidden,), (hidden, hidden), (hidden,), (hidden, out_dim), (out_dim,))

    @classmethod
    def create(cls, in_dim: int, hidden: int, out_dim: int, rng: np.random.Generator) -> "Mlp":
        # Xavier-scaled hidden layers; zero biases and head, so the initial
        # policy is uniform and the initial value estimate is zero.
        shapes = cls.shapes(in_dim, hidden, out_dim)
        w1 = rng.normal(0.0, np.sqrt(1.0 / in_dim), size=shapes.w1)
        w2 = rng.normal(0.0, np.sqrt(1.0 / hidden), size=shapes.w2)
        return cls._make(map(np.zeros, shapes))._replace(w1=w1, w2=w2)

    def forward(self, x: np.ndarray):
        h1 = np.tanh(x @ self.w1 + self.b1)
        h2 = np.tanh(h1 @ self.w2 + self.b2)
        return h2 @ self.w3 + self.b3, (x, h1, h2)

    def backward(self, cache, dz) -> "Mlp":
        x, h1, h2 = cache
        dh2 = (dz @ self.w3.T) * (1.0 - h2 * h2)
        dh1 = (dh2 @ self.w2.T) * (1.0 - h1 * h1)
        return Mlp(x.T @ dh1, dh1.sum(axis=0), h1.T @ dh2, dh2.sum(axis=0), h2.T @ dz, dz.sum(axis=0))

    def apply_gradients(self, grads: "Mlp", lr: float) -> None:
        for arr, g in zip(self, grads):
            arr -= lr * g

    def copy(self) -> "Mlp":
        return self._make(a.copy() for a in self)


@dataclass
class PolicyParams:
    """Actor and critic weights for one agent."""

    actor: Mlp
    critic: Mlp

    @property
    def n_actions(self) -> int:
        return len(self.actor.b3)

    def copy(self) -> "PolicyParams":
        return PolicyParams(self.actor.copy(), self.critic.copy())


def init_params(n_actions: int, hidden: int, rng_seed: int | np.random.Generator) -> PolicyParams:
    rng = np.random.default_rng(rng_seed)
    return PolicyParams(
        actor=Mlp.create(STATE_DIM, hidden, n_actions, rng),
        critic=Mlp.create(STATE_DIM, hidden, 1, rng),
    )


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _stacked_forward(mlp: Mlp, states) -> np.ndarray:
    """mlp's (R, out) outputs for each row of an (R, 2) stack of states.

    The stack runs as R one-row products, (R, 1, 2) @ (2, H) and so on,
    which give each row exactly the bits of its own (1, 2) forward; an
    (R, 2) @ (2, H) product may differ from it in the last bits.
    """
    s = np.asarray(states, dtype=float)
    if not np.all(np.isfinite(s)):
        raise ValueError(f"non-finite state {states}")
    out, _ = mlp.forward(s.reshape(-1, 1, STATE_DIM))
    return out[:, 0]


def policy_forward(params: PolicyParams, states) -> np.ndarray:
    """Action probabilities (softmax head), one row for each row of an
    (R, 2) stack of states."""
    return _softmax(_stacked_forward(params.actor, states))


def value_forward(params: PolicyParams, states) -> np.ndarray:
    """Value estimates, one for each row of an (R, 2) stack of states."""
    return _stacked_forward(params.critic, states)[:, 0]


def sample_action(probs: np.ndarray, rng: np.random.Generator) -> int:
    cum = np.cumsum(probs)
    idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
    return min(idx, len(probs) - 1)


@dataclass
class Batch:
    """A learner's steps in one or more episodes, one row per step, and
    each episode's summed reward."""

    states: np.ndarray
    actions: np.ndarray
    log_probs: np.ndarray
    returns: np.ndarray
    values: np.ndarray
    episode_rewards: list[float] = field(default_factory=list)

    @classmethod
    def concat(cls, batches: list["Batch"]) -> "Batch":
        """The batches' steps and episodes, one batch after another."""
        if not batches:
            raise ValueError("empty rollout batch")
        steps = ("states", "actions", "log_probs", "returns", "values")
        return cls(*(np.concatenate([getattr(b, name) for b in batches]) for name in steps),
                   episode_rewards=[r for b in batches for r in b.episode_rewards])

    def __len__(self) -> int:
        return len(self.actions)


def actor_loss_and_grads(
    params: PolicyParams,
    batch: Batch,
    advantages: np.ndarray,
    cfg: PPOConfig,
):
    """Clipped-surrogate loss (minimization form) and its gradients."""
    n = len(batch)
    logits, cache = params.actor.forward(batch.states)
    probs = _softmax(logits)
    logp_all = np.log(np.maximum(probs, 1e-300))
    logp_new = logp_all[np.arange(n), batch.actions]
    ratio = np.exp(logp_new - batch.log_probs)
    clipped_ratio = np.clip(ratio, 1.0 - cfg.clip_epsilon, 1.0 + cfg.clip_epsilon)
    unclipped = ratio * advantages
    clipped = clipped_ratio * advantages
    surrogate = np.minimum(unclipped, clipped)
    entropy = -(probs * logp_all).sum(axis=1)
    loss = -surrogate.mean() - cfg.entropy_coef * entropy.mean()

    # dz through the surrogate only where the unclipped branch is active
    active = unclipped <= clipped
    coef = np.where(active, ratio * advantages, 0.0) / n
    onehot = np.zeros_like(probs)
    onehot[np.arange(n), batch.actions] = 1.0
    dz = -coef[:, None] * (onehot - probs)
    # entropy bonus: dH/dz_k = -p_k (log p_k + H)
    dz += cfg.entropy_coef / n * probs * (logp_all + entropy[:, None])
    grads = params.actor.backward(cache, dz)
    return loss, grads, surrogate, entropy


def critic_loss_and_grads(params: PolicyParams, batch: Batch):
    n = len(batch)
    v, cache = params.critic.forward(batch.states)
    err = v[:, 0] - batch.returns
    loss = float((err * err).mean())
    dz = (2.0 * err / n)[:, None]
    grads = params.critic.backward(cache, dz)
    return loss, grads


@dataclass
class UpdateDiagnostics:
    surrogate_loss: float
    value_loss: float
    entropy: float


def ppo_update(params: PolicyParams, batch: Batch, cfg: PPOConfig) -> tuple[PolicyParams, UpdateDiagnostics]:
    """Run cfg.epochs plain-gradient passes over the batch."""
    if len(batch) == 0:
        raise ValueError("empty rollout batch")
    advantages = batch.returns - batch.values
    std = advantages.std()
    advantages = (advantages - advantages.mean()) / (std if std > 1e-8 else 1.0)

    new = params.copy()
    surrogate_loss = value_loss = mean_entropy = float("nan")
    for _ in range(cfg.epochs):
        a_loss, a_grads, surrogate, entropy = actor_loss_and_grads(new, batch, advantages, cfg)
        c_loss, c_grads = critic_loss_and_grads(new, batch)
        if not (np.isfinite(a_loss) and np.isfinite(c_loss)):
            raise RuntimeError(
                f"non-finite PPO loss: actor={a_loss} critic={c_loss}"
            )
        new.actor.apply_gradients(a_grads, cfg.actor_lr)
        new.critic.apply_gradients(c_grads, cfg.critic_lr)
        surrogate_loss = float(-surrogate.mean())
        value_loss = c_loss
        mean_entropy = float(entropy.mean())
    return new, UpdateDiagnostics(surrogate_loss, value_loss, mean_entropy)


class PolicyAgent(Agent):
    """Evaluation-time agent: samples a strategy from a trained policy."""

    def __init__(self, params: PolicyParams, action_set: tuple[StrategyKind, ...]):
        if params.n_actions != len(action_set):
            raise ValueError(
                f"policy has {params.n_actions} actions, action set has {len(action_set)}"
            )
        self.params = params
        self.action_set = action_set

    def select(self, episodes: Sequence[Episode]) -> list[StrategyKind]:
        """One forward over every episode's state; each samples from its own generator."""
        probs = policy_forward(self.params, normalized_states(episodes))
        return [self.action_set[sample_action(p, ep.rng)] for p, ep in zip(probs, episodes)]


def make_scheme_agent(scheme: Scheme, params: PolicyParams) -> Agent:
    """Evaluation agent for any scheme from trained parameters."""
    return scheme_agent(scheme, PolicyAgent(params, action_space(scheme)))


class LearnerAgent(PolicyAgent):
    """Training-time agent for a rollout batch: samples each episode from
    that episode's own generator (`rngs`) and records there, per step,
    the (state, action, log-probability, value) row PPO learns from."""

    def __init__(self, params: PolicyParams, action_set: tuple[StrategyKind, ...],
                 rngs: dict[Episode, np.random.Generator]):
        super().__init__(params, action_set)
        self.rngs = rngs
        self.steps: dict[Episode, list[tuple]] = {ep: [] for ep in rngs}

    def select(self, episodes: Sequence[Episode]) -> list[StrategyKind]:
        states = normalized_states(episodes)
        probs = policy_forward(self.params, states)
        values = value_forward(self.params, states)
        kinds = []
        for ep, state, p, value in zip(episodes, states, probs, values):
            action = sample_action(p, self.rngs[ep])
            self.steps[ep].append((state, action, np.log(max(p[action], 1e-300)), float(value)))
            kinds.append(self.action_set[action])
        return kinds


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


def collect_episode(episode: Episode, learner: LearnerAgent, party: Party,
                    gamma: float) -> Batch:
    """The learner's one-episode batch from one finished episode: its
    recorded steps there, and returns from party's step rewards in the
    episode log."""
    states, actions, log_probs, values = zip(*learner.steps[episode])
    rewards = np.asarray([e.reward for e in episode.logs if e.party is party], dtype=float)
    return Batch(
        states=np.asarray(states, dtype=float),
        actions=np.asarray(actions, dtype=np.int64),
        log_probs=np.asarray(log_probs, dtype=float),
        returns=discounted_returns(rewards, gamma),
        values=np.asarray(values, dtype=float),
        episode_rewards=[float(rewards.sum())],
    )


@dataclass(frozen=True)
class Matchup:
    """The game a learner trains in: its party (whose rewards it learns
    from) and scheme (action set, and the community pool for C-STORM)
    against one opponent agent, on one graph and scenario."""

    graph: Graph
    episode_cfg: EpisodeConfig
    party: Party
    scheme: Scheme
    opponent: Agent


@dataclass
class TrainResult:
    params: PolicyParams
    curve: list[tuple[float, float]]  # (mean episode reward, entropy); row i is update i
    opponent_params: PolicyParams | None = None


def collect_rollouts(
    params: PolicyParams,
    matchup: Matchup,
    ppo_cfg: PPOConfig,
    seed_seq: np.random.SeedSequence,
) -> Batch:
    """Roll `ppo_cfg.rollout_episodes` episodes of the matchup in one
    `run_lockstep` call, one learner and one opponent playing them all,
    and concatenate the learner's batches, discounted by `ppo_cfg.gamma`."""
    rngs = {}
    for child in seed_seq.spawn(ppo_cfg.rollout_episodes):
        env_seed, sample_seed = child.spawn(2)
        cfg = matchup.episode_cfg.with_seed(int(env_seed.generate_state(1)[0]))
        rngs[Episode(matchup.graph, cfg)] = np.random.default_rng(sample_seed)
    learner = LearnerAgent(params, action_space(matchup.scheme), rngs)
    agent, opponent = scheme_agent(matchup.scheme, learner), matchup.opponent
    pair = (agent, opponent) if matchup.party is Party.TRUE_PARTY else (opponent, agent)
    games = run_lockstep(list(rngs), [pair] * len(rngs))
    return Batch.concat([collect_episode(ep, learner, matchup.party, ppo_cfg.gamma)
                         for ep in games])


def train_loop(
    params: PolicyParams,
    matchup: Matchup,
    ppo_cfg: PPOConfig,
    seed_seq: np.random.SeedSequence,
    updates: int,
) -> TrainResult:
    """`updates` PPO updates of params in the matchup, each one
    `collect_rollouts` then `ppo_update`; curve row i is update i."""
    curve = []
    for child in seed_seq.spawn(updates):
        batch = collect_rollouts(params, matchup, ppo_cfg, child)
        params, diag = ppo_update(params, batch, ppo_cfg)
        curve.append((float(np.mean(batch.episode_rewards)), diag.entropy))
    return TrainResult(params, curve)


def train_agent(
    scheme: Scheme,
    opponent: str,
    graph: Graph,
    episode_cfg: EpisodeConfig,
    ppo_cfg: PPOConfig,
    rng_seed: int,
) -> TrainResult:
    """Train the true party's agent for a scheme against one opponent.

    opponent is a strategy name (af/bf/sgf/cf/random), trained in one
    `Matchup`, or 'drl', which trains both sides by alternating-freeze
    self-play: the true party trains against a frozen false-party policy,
    then roles swap, for the configured number of alternations, each side
    training its share of `updates` in its own matchup; the share must
    split evenly (else `PPOConfig.side_updates` raises a ValueError). The
    FP's DRL agent uses all four actions.
    """
    seed_seq = np.random.SeedSequence(rng_seed)
    tp_space = action_space(scheme)

    if opponent != "drl":
        init_seed, loop_seed = seed_seq.spawn(2)
        params = init_params(len(tp_space), ppo_cfg.hidden, np.random.default_rng(init_seed))
        game = Matchup(graph, episode_cfg, Party.TRUE_PARTY, scheme, make_heuristic_agent(opponent))
        return train_loop(params, game, ppo_cfg, loop_seed, ppo_cfg.updates)

    fp_space = action_space(Scheme.DRIM_A)
    tp_init, fp_init, _ = seed_seq.spawn(3)
    tp_params = init_params(len(tp_space), ppo_cfg.hidden, np.random.default_rng(tp_init))
    fp_params = init_params(len(fp_space), ppo_cfg.hidden, np.random.default_rng(fp_init))
    curve: list[tuple[float, float]] = []
    side_updates = ppo_cfg.side_updates()
    for alternation in seed_seq.spawn(ppo_cfg.selfplay_alternations):
        tp_seed, fp_seed = alternation.spawn(2)
        frozen_fp = PolicyAgent(fp_params.copy(), fp_space)
        tp_game = Matchup(graph, episode_cfg, Party.TRUE_PARTY, scheme, frozen_fp)
        result = train_loop(tp_params, tp_game, ppo_cfg, tp_seed, side_updates)
        tp_params = result.params
        curve += result.curve

        frozen_tp = make_scheme_agent(scheme, tp_params.copy())
        fp_game = Matchup(graph, episode_cfg, Party.FALSE_PARTY, Scheme.DRIM_A, frozen_tp)
        fp_params = train_loop(fp_params, fp_game, ppo_cfg, fp_seed, side_updates).params
    return TrainResult(tp_params, curve, opponent_params=fp_params)


@contextmanager
def atomic_write(path: str | Path) -> Iterator[IO[bytes]]:
    """Binary handle on a temp file beside path, moved onto path by
    `os.replace` when the block completes; if the block raises, the temp
    file is removed and path is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_params(params: PolicyParams, path: str | Path) -> None:
    """Little-endian binary dump: magic, action count, hidden width,
    then the actor's arrays and the critic's, each in `Mlp` field order
    as (rows, cols, float64 data). Written atomically (`atomic_write`)."""
    arrays = [*params.actor, *params.critic]
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", params.n_actions, len(params.actor.b1)))
        fh.write(struct.pack("<I", len(arrays)))
        for arr in arrays:
            mat = np.atleast_2d(np.asarray(arr, dtype="<f8"))
            fh.write(struct.pack("<II", mat.shape[0], mat.shape[1]))
            fh.write(mat.tobytes(order="C"))


def load_params(path: str | Path, expected_actions: int | None = None) -> PolicyParams:
    """Read a `save_params` file. Its header's action count and hidden
    width declare every array's shape (`Mlp.shapes` of the actor, then
    of a one-output critic); each stored array must have it (a bias is
    stored as one row), and the file must end after the last one."""
    blob = Path(path).read_bytes()
    if not blob.startswith(_MAGIC):
        raise ValueError(f"{path}: not a policy parameter file")
    offset = len(_MAGIC) + 12
    if len(blob) < offset:
        raise ValueError(f"{path}: truncated parameter file")
    n_actions, hidden, count = struct.unpack_from("<III", blob, len(_MAGIC))
    if expected_actions is not None and n_actions != expected_actions:
        raise ValueError(
            f"{path}: policy trained for {n_actions} actions, expected {expected_actions}"
        )
    shapes = [*Mlp.shapes(STATE_DIM, hidden, n_actions), *Mlp.shapes(STATE_DIM, hidden, 1)]
    if count != len(shapes):
        raise ValueError(f"{path}: expected {len(shapes)} arrays, found {count}")
    arrays = []
    for i, shape in enumerate(shapes):
        want = shape if len(shape) == 2 else (1, *shape)
        end = offset + 8 + 8 * math.prod(shape)
        if end > len(blob):
            raise ValueError(f"{path}: truncated parameter file")
        stored = struct.unpack_from("<II", blob, offset)
        if stored != want:
            raise ValueError(f"{path}: array {i} is {stored[0]}x{stored[1]}, but the header's "
                             f"{n_actions} actions and hidden width {hidden} make it "
                             f"{want[0]}x{want[1]}")
        arrays.append(np.frombuffer(blob, "<f8", math.prod(shape), offset + 8).reshape(shape).copy())
        offset = end
    if offset != len(blob):
        raise ValueError(f"{path}: trailing bytes in parameter file")
    return PolicyParams(Mlp(*arrays[:6]), Mlp(*arrays[6:]))
