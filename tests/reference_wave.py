"""Reference implementation for the differential tests: the scalar wave.

This is the per-pair wave loop and the scalar opinion operators that
drim used before its array kernels, kept verbatim except that
adjacency lists are rebuilt here from the graph's edge arrays (the Graph
no longer stores them), that a subnormal base rate takes the boundary
branch of `vacuity_maximize`, as it does in `drim.opinion`, that HOM's
norms take libm's `hypot` (through `np.hypot`), as `wave.c` does, and
that the draws follow the kernel's block contract: per level, one scalar
read draw per reached user in ascending id order, then one share draw
per reached user in the same order, a user sharing only if it read.

It is the only copy of the opinion algebra outside `drim/wave.c`, whose
C operators serve both the wave kernel and `drim.opinion`. Tests run it
side by side with `drim.propagation.propagate_wave` and the operators
of `drim.opinion`, and require equal bits and an equal generator state.
"""

from __future__ import annotations

import sys

import numpy as np

from drim.network import Graph
from drim.opinion import Opinion, TrustModel, TrustVariant
from drim.population import Party, PopulationState, Role
from drim.propagation import WaveCounters

_RENORM_TOL = 1e-12
_DEGENERATE_TOL = 1e-12

# How far a tested (b, d, u) may stray from the simplex: the tolerance
# the opinion and lockstep tests share.
SIMPLEX_TOL = 1e-9


def _adjacency(g: Graph) -> list[list[int]]:
    adjacency: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in zip(g.edge_u.tolist(), g.edge_v.tolist()):
        adjacency[a].append(b)
        adjacency[b].append(a)
    for nbrs in adjacency:
        nbrs.sort()
    return adjacency


def project(op: Opinion) -> tuple[float, float]:
    """Projected belief and disbelief: P(b) = b + a·u, P(d) = d + (1-a)·u.

    The pair sums to 1 for any valid opinion.
    """
    pb = op.b + op.a * op.u
    pd = op.d + (1.0 - op.a) * op.u
    return pb, pd


def dissonance(op: Opinion) -> float:
    """Uncertainty mass caused by conflicting evidence.

    (b + d) · Bal(b, d) with Bal(b, d) = 1 - |b - d| / (b + d).
    A vacuous opinion (b + d = 0) carries no conflict, so returns 0.
    """
    mass = op.b + op.d
    if mass <= 0.0:
        return 0.0
    bal = 1.0 - abs(op.b - op.d) / mass
    return mass * bal


def trust_coefficient(model: TrustModel, op_i: Opinion, op_j: Opinion) -> float:
    """Trust of user i in user j under the given model.

    UOM: (1 - u_i)(1 - u_j) — mutual certainty.
    HOM: cosine similarity of the (b, d) vectors; 0 if either side has
         expressed no stance (b = d = 0).
    NOM: 1 — no trust filter.
    """
    variant = model.variant
    if variant is TrustVariant.NOM:
        return 1.0
    if variant is TrustVariant.UOM:
        return (1.0 - op_i.u) * (1.0 - op_j.u)
    # HOM
    # np.hypot is libm's hypot, as wave.c's is; math.hypot may differ by one ulp.
    denom = np.hypot(op_i.b, op_i.d) * np.hypot(op_j.b, op_j.d)
    if denom <= 0.0:  # also covers underflow of the norm product
        return 0.0
    cos = (op_i.b * op_j.b + op_i.d * op_j.d) / denom
    return min(1.0, max(0.0, cos))


def discount(op_j: Opinion, c: float) -> Opinion:
    """Scale sender opinion by trust c: (c·b, c·d, 1 - c(1 - u), a)."""
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"trust coefficient c={c} outside [0, 1]")
    if c == 1.0:  # keep the identity exact
        return op_j
    return Opinion(c * op_j.b, c * op_j.d, 1.0 - c * (1.0 - op_j.u), op_j.a)


def fuse(op_i: Opinion, op_j: Opinion, c: float) -> Opinion:
    """Consensus of receiver op_i with sender op_j discounted by trust c.

    With u_x = 1 - c(1 - u_j) (the discounted sender's vacuity) and
    β = 1 - c(1 - u_i)(1 - u_j):

        b' = (b_i·u_x + c·b_j·u_i) / β
        d' = (d_i·u_x + c·d_j·u_i) / β
        u' = u_i·u_x / β
        a' = [(a_i - (a_i + a_j)·u_i)·u_x + a_j·u_i] / (β - u_i·u_x)

    Vacuity never increases: u' <= u_i. When the a-denominator vanishes
    (receiver fully vacuous against a fully vacuous discounted sender)
    the receiver's base rate is kept. Raises when β = 0, which happens
    only for c = 1 with two dogmatic opinions; callers must pre-apply
    vacuity maximization or freeze such users.
    """
    b_i, d_i, u_i, a_i = op_i
    b_j, d_j, u_j, a_j = op_j
    u_x = 1.0 - c * (1.0 - u_j)
    beta = 1.0 - c * (1.0 - u_i) * (1.0 - u_j)
    if beta <= _DEGENERATE_TOL:
        raise ValueError(
            "degenerate fusion: both opinions dogmatic under full trust (beta = 0)"
        )
    b = (b_i * u_x + c * b_j * u_i) / beta
    d = (d_i * u_x + c * d_j * u_i) / beta
    u = (u_i * u_x) / beta

    a_den = beta - u_i * u_x
    if abs(a_den) <= _DEGENERATE_TOL:
        a = a_i
    else:
        a = ((a_i - (a_i + a_j) * u_i) * u_x + a_j * u_i) / a_den
        a = min(1.0, max(0.0, a))

    total = b + d + u
    if abs(total - 1.0) > _RENORM_TOL:
        b, d, u = b / total, d / total, u / total
    return Opinion(b, d, u, a)


def vacuity_maximize(op: Opinion) -> Opinion:
    """Re-express an opinion with maximal vacuity, preserving its projection.

    Interior base rate: ü = min(P(b)/a, P(d)/(1-a)), b̈ = P(b) - a·ü,
    d̈ = P(d) - (1-a)·ü. At least one of b̈, d̈ is zero. At the boundaries
    a = 0 and a = 1 the maximal vacuity is P(d) and P(b) respectively.
    """
    pb, pd = project(op)
    a = op.a
    tiny = sys.float_info.min  # a subnormal a (or 1 - a) counts as the boundary
    if a < tiny:
        return Opinion(pb, 0.0, pd, a)
    if 1.0 - a < tiny:
        return Opinion(0.0, pd, pb, a)
    u = min(pb / a, pd / (1.0 - a))
    b = max(0.0, pb - a * u)
    d = max(0.0, pd - (1.0 - a) * u)
    return Opinion(b, d, u, a)


def apply_uom_refresh(op: Opinion, model: TrustModel) -> Opinion:
    """Vacuity-maximize a low-vacuity, high-dissonance opinion.

    Fires only under the UOM variant, when u < xi and dissonance > t_d;
    otherwise returns the opinion unchanged. Applied to a receiver
    immediately before each fusion so that users stuck on conflicting
    evidence can absorb new information.
    """
    if model.variant is not TrustVariant.UOM:
        return op
    if op.u < model.xi and dissonance(op) > model.t_d:
        return vacuity_maximize(op)
    return op


def propagate_wave(
    state: PopulationState,
    g: Graph,
    party: Party,
    model: TrustModel,
    rng: np.random.Generator,
    counters: WaveCounters | None = None,
) -> PopulationState:
    """Run one BFS information wave from the party's seed set (in place).

    counters, when given, count what the kernel's `WaveCounters` count,
    one event at a time.
    """
    sharers = [int(s) for s in state.seed_ids(party)]
    if not sharers:
        return state
    counters = counters if counters is not None else WaveCounters()

    adjacency = _adjacency(g)
    b, d, u, a = state.b, state.d, state.u, state.a
    p_read, p_share, frozen = state.p_read, state.p_share, state.frozen
    is_uom = model.variant is TrustVariant.UOM
    t_u, xi, t_d = model.t_u, model.xi, model.t_d

    # Seeds of either party never read or update; own seeds are origins.
    visited = state.role != Role.LEGITIMATE.value
    visited = visited.copy()
    visited[sharers] = True

    while sharers:
        targets: dict[int, list[int]] = {}
        for s in sharers:
            for nb in adjacency[s]:
                if not visited[nb]:
                    senders = targets.get(nb)
                    if senders is None:
                        targets[nb] = [s]
                    else:
                        senders.append(s)
        if not targets:
            break
        level = sorted(targets)
        readers: set[int] = set()
        for tgt in level:
            visited[tgt] = True
            counters.reached += 1
            if rng.random() >= p_read[tgt]:
                continue
            readers.add(tgt)
            counters.reads += 1
            if not frozen[tgt]:
                op_i = Opinion(b[tgt], d[tgt], u[tgt], a[tgt])
                for snd in targets[tgt]:
                    op_j = Opinion(b[snd], d[snd], u[snd], a[snd])
                    if is_uom:
                        refreshed = apply_uom_refresh(op_i, model)
                        counters.refreshes += refreshed is not op_i
                        op_i = refreshed
                    c = trust_coefficient(model, op_i, op_j)
                    counters.fusions += 1
                    try:
                        op_i = fuse(op_i, op_j, c)
                    except ValueError:
                        counters.degenerate += 1
                        continue  # dogmatic pair slipped past the freeze latch
                    if op_i.u <= t_u and not (
                        is_uom and op_i.u < xi and dissonance(op_i) > t_d
                    ):
                        frozen[tgt] = True
                        counters.frozen += 1
                        break
                b[tgt], d[tgt], u[tgt], a[tgt] = op_i
        # then one share draw per reached user, in the same order
        sharers = [tgt for tgt in level if rng.random() < p_share[tgt] and tgt in readers]
    return state
