"""Per-user simulation state: roles, behavior probabilities, opinions.

The population holds one opinion per user plus the behavioral draws that
gate cascades (reading and sharing probabilities, each from the four-level
set {1, 0.5, 0.25, 0.1}). Users start as legitimate with a highly
uncertain opinion built from evidence (1, 1, 101); parties later promote
users to immutable seed roles with confident opinions built from
(100, 1, 2) for the true party and (1, 100, 2) for the false party.

Opinions are stored as one (4, n) array `bdua` whose rows b, d, u, a are
also exposed as flat arrays, for cheap vectorized queries (influence
counts, free-node masks) and column gathers in the wave kernel; user
i's opinion reads as `Opinion(*bdua[:, i])` and is written as
`bdua[:, i] = …`. A `PopulationState` is exactly its five per-user
arrays; `init_population` draws them and `stack_populations` joins
them. The population holds the present; the decided counts of past
steps are in the episode's round log (`Episode.logs`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from drim.opinion import Evidence, opinion_from_evidence

BEHAVIOR_LEVELS = (1.0, 0.5, 0.25, 0.1)

LEGITIMATE_EVIDENCE = Evidence(1.0, 1.0, 101.0)
TIP_EVIDENCE = Evidence(100.0, 1.0, 2.0)
FIP_EVIDENCE = Evidence(1.0, 100.0, 2.0)

FREE_VACUITY_THRESHOLD = 0.5


class Role(Enum):
    LEGITIMATE = 0
    TIP_SEED = 1
    FIP_SEED = 2


class Party(Enum):
    TRUE_PARTY = "tp"
    FALSE_PARTY = "fp"


@dataclass(slots=True, eq=False)
class PopulationState:
    """Mutable per-replica user state: its per-user arrays and nothing
    else (the last axis of each indexes the n users).

    `bdua` is the (4, n) array of opinion components, whose rows are
    b, d, u, a (write them in place); p_read, p_share are behavior
    probabilities; role holds role codes and frozen the latches. Seed
    users are frozen at promotion and their opinions never change
    afterwards. States compare by identity.
    """

    bdua: np.ndarray
    p_read: np.ndarray
    p_share: np.ndarray
    role: np.ndarray
    frozen: np.ndarray

    @property
    def n(self) -> int:
        return self.bdua.shape[1]

    @property
    def b(self) -> np.ndarray:
        return self.bdua[0]

    @property
    def d(self) -> np.ndarray:
        return self.bdua[1]

    @property
    def u(self) -> np.ndarray:
        return self.bdua[2]

    @property
    def a(self) -> np.ndarray:
        return self.bdua[3]

    def seed_ids(self, party: Party) -> np.ndarray:
        return np.flatnonzero(self.role == _SEEDS[party][0])

    def projected(self) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized projection: P(b) = b + a·u and P(d) = d + (1-a)·u."""
        pb = self.b + self.a * self.u
        return pb, 1.0 - pb


_ARRAYS = tuple(f.name for f in fields(PopulationState))

# Each party's seed role code and seed opinion as a `bdua` column
_SEEDS = {
    Party.TRUE_PARTY: (Role.TIP_SEED.value, np.array(opinion_from_evidence(TIP_EVIDENCE, 1.0))),
    Party.FALSE_PARTY: (Role.FIP_SEED.value, np.array(opinion_from_evidence(FIP_EVIDENCE, 0.0))),
}


def init_population(
    n: int,
    rng_seed: int | np.random.Generator,
    prior_a: float = 0.5,
) -> PopulationState:
    """Create n legitimate users with the high-uncertainty opinion.

    Every user gets the evidence-(1, 1, 101) opinion with base rate
    prior_a and reading/sharing probabilities sampled uniformly from the
    four-level set.
    """
    if n < 1:
        raise ValueError(f"population needs at least one user, got n={n}")
    base = np.array(opinion_from_evidence(LEGITIMATE_EVIDENCE, prior_a))  # checks prior_a
    rng = np.random.default_rng(rng_seed)
    levels = np.array(BEHAVIOR_LEVELS)
    return PopulationState(
        bdua=np.repeat(base[:, None], n, axis=1),
        p_read=rng.choice(levels, size=n),  # drawn before p_share
        p_share=rng.choice(levels, size=n),
        role=np.full(n, Role.LEGITIMATE.value, dtype=np.int8),
        frozen=np.zeros(n, dtype=bool),
    )


def stack_populations(states: list[PopulationState]) -> PopulationState:
    """One state over the users of every state in `states` (all of one
    size n), state r's users as r·n … r·n+n-1.

    Each input is re-pointed at its slice of the stacked arrays (views),
    so a write through either shows in both: per-replica code keeps
    working on its own state while one kernel call updates them all.
    """
    n = states[0].n
    if any(s.n != n for s in states):
        raise ValueError("stacked populations must all have the same size")
    stacked = PopulationState(*(np.concatenate([getattr(s, name) for s in states], axis=-1)
                                for name in _ARRAYS))
    for r, s in enumerate(states):
        for name in _ARRAYS:
            setattr(s, name, getattr(stacked, name)[..., r * n:(r + 1) * n])
    return stacked


def promote_seed(state: PopulationState, user: int, party: Party) -> None:
    """Turn a legitimate user into an immutable seed of the given party."""
    if state.role[user] != Role.LEGITIMATE.value:
        raise ValueError(f"user {user} already holds role {Role(state.role[user]).name}")
    state.role[user], state.bdua[:, user] = _SEEDS[party]
    state.frozen[user] = True


def influence_counts(state: PopulationState) -> tuple[int, int]:
    """Raw influence: (|P(b) >= 0.5|, |P(d) > 0.5|).

    The boundary P(b) = 0.5 belongs to the true side, so the two counts
    partition the users and sum to n.
    """
    pb, _ = state.projected()
    n_true = int(np.count_nonzero(pb >= 0.5))
    return n_true, state.n - n_true


def decided_influence_counts(state: PopulationState, replicas: int = 1) -> np.ndarray:
    """Influence among decided users only (vacuity below 0.5).

    Row r holds (true, false) decided counts of replica r of a state
    stacked from `replicas` populations of equal size. A fresh
    population is all-undecided, so these counts start at zero; the
    round log records them after each step, for rewards and results.
    """
    pb, _ = state.projected()
    decided = state.u < FREE_VACUITY_THRESHOLD
    sides = np.stack([decided & (pb >= 0.5), decided & (pb < 0.5)])
    return np.count_nonzero(sides.reshape(2, replicas, -1), axis=2).T


def free_mask(state: PopulationState) -> np.ndarray:
    """Boolean mask of free users: vacuity still at or above 0.5."""
    return state.u >= FREE_VACUITY_THRESHOLD

