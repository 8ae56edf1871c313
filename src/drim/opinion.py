"""Binomial subjective-logic opinion algebra.

An opinion is a tuple ω = (b, d, u, a): belief in true information,
disbelief (belief in false information), vacuity (uncertainty from lack
of evidence), and base rate (prior probability favoring belief). The
simplex constraint b + d + u = 1 holds throughout, with every component
in [0, 1].

Operators implemented here:

    opinion_from_evidence   evidence counts (r, s, W) -> opinion
    project                 decision probabilities P(b) = b + a·u, P(d) = d + (1-a)·u
    dissonance              conflict-driven uncertainty (b+d)·Bal(b, d)
    trust_coefficient       UOM / HOM / NOM discount coefficient
    fuse                    consensus of a receiver with a trust-discounted sender
    vacuity_maximize        re-express an opinion with maximal u, projection preserved
    apply_uom_refresh       conditional vacuity maximization (low u, high dissonance)

Array-first: every operator from `project` down works elementwise on
numpy arrays. An opinion argument is anything that unpacks into
(b, d, u, a): an `Opinion` whose fields are floats or equal-shape
arrays, or a (4, ...) array whose rows are b, d, u, a. A scalar is the
0-d case. Results come back as `Opinion`s of arrays (0-d for scalar
input), and applying an operator to an array gives, bit for bit, what
applying it to each element on its own gives. The wave kernel in
`propagation`, the population and the tests all use this one copy.

Degenerate fusion (beta <= 1e-12, two dogmatic opinions under full
trust) is reported per element: every component of that element comes
back NaN. A scalar call has exactly one element and raises ValueError
instead.

All functions are pure; they are safe to call from any number of
concurrent simulation replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

# Drift beyond this after fusion triggers renormalization of (b, d, u).
_RENORM_TOL = 1e-12

# Denominators smaller than this are treated as degenerate.
_DEGENERATE_TOL = 1e-12

# Smallest normal float: base rates closer than this to 0 or 1 are boundaries.
_TINY = np.finfo(float).tiny


class Opinion(NamedTuple):
    """A binomial subjective-logic opinion (b, d, u, a)."""

    b: float
    d: float
    u: float
    a: float


class Evidence(NamedTuple):
    """Evidence counts: r supports belief, s supports disbelief, W is the
    non-informative prior weight."""

    r: float
    s: float
    W: float


class TrustVariant(Enum):
    UOM = "uom"
    HOM = "hom"
    NOM = "nom"


@dataclass(frozen=True)
class TrustModel:
    """A trust-coefficient model plus its thresholds.

    xi:  vacuity threshold below which the UOM refresh may fire.
    t_d: dissonance threshold above which the UOM refresh fires.
    t_u: freeze threshold; a user whose vacuity drops to t_u or below
         stops updating (unless the UOM refresh rescues it).
    """

    variant: TrustVariant
    xi: float = 0.01
    t_d: float = 0.6
    t_u: float = 0.01

    def __post_init__(self) -> None:
        for name in ("xi", "t_d", "t_u"):
            x = getattr(self, name)
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"{name}={x} outside [0, 1]")


UOM = TrustModel(TrustVariant.UOM)
HOM = TrustModel(TrustVariant.HOM)
NOM = TrustModel(TrustVariant.NOM)


def opinion_from_evidence(ev: Evidence, a: float) -> Opinion:
    """Map evidence counts to an opinion.

    b = r/(r+s+W), d = s/(r+s+W), u = W/(r+s+W).

    Parameters
    ----------
    ev : Evidence
        Nonnegative support/refute counts and positive prior weight W.
    a : float
        Base rate in [0, 1].
    """
    r, s, W = ev
    if W <= 0.0:
        raise ValueError(f"prior weight W must be positive, got {W}")
    if r < 0.0 or s < 0.0:
        raise ValueError(f"evidence counts must be nonnegative, got r={r}, s={s}")
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"base rate a={a} outside [0, 1]")
    total = r + s + W
    return Opinion(r / total, s / total, W / total, a)


def project(op) -> tuple:
    """Projected belief and disbelief: P(b) = b + a·u, P(d) = d + (1-a)·u.

    The pair sums to 1 for any valid opinion.
    """
    b, d, u, a = op
    pb = b + a * u
    pd = d + (1.0 - a) * u
    return pb, pd


def dissonance(op):
    """Uncertainty mass caused by conflicting evidence.

    (b + d) · Bal(b, d) with Bal(b, d) = 1 - |b - d| / (b + d).
    A vacuous opinion (b + d = 0) carries no conflict, so returns 0.
    """
    b, d, _, _ = op
    mass = b + d
    has_mass = mass > 0.0
    bal = 1.0 - np.abs(b - d) / np.where(has_mass, mass, 1.0)
    return np.where(has_mass, mass * bal, 0.0)


def trust_coefficient(model: TrustModel, op_i, op_j):
    """Trust of user i in user j under the given model.

    UOM: (1 - u_i)(1 - u_j) — mutual certainty.
    HOM: cosine similarity of the (b, d) vectors; 0 if either side has
         expressed no stance (b = d = 0).
    NOM: 1 — no trust filter (the scalar 1.0, which broadcasts).
    """
    variant = model.variant
    if variant is TrustVariant.NOM:
        return 1.0
    b_i, d_i, u_i, _ = op_i
    b_j, d_j, u_j, _ = op_j
    if variant is TrustVariant.UOM:
        return (1.0 - u_i) * (1.0 - u_j)
    # HOM
    denom = np.hypot(b_i, d_i) * np.hypot(b_j, d_j)
    stance = denom > 0.0  # False also on underflow of the norm product
    cos = (b_i * b_j + d_i * d_j) / np.where(stance, denom, 1.0)
    return np.where(stance, np.minimum(1.0, np.maximum(0.0, cos)), 0.0)


def fuse(op_i, op_j, c) -> Opinion:
    """Consensus of receiver op_i with sender op_j discounted by trust c.

    With u_x = 1 - c(1 - u_j) (the discounted sender's vacuity) and
    β = 1 - c(1 - u_i)(1 - u_j):

        b' = (b_i·u_x + c·b_j·u_i) / β
        d' = (d_i·u_x + c·d_j·u_i) / β
        u' = u_i·u_x / β
        a' = [(a_i - (a_i + a_j)·u_i)·u_x + a_j·u_i] / (β - u_i·u_x)

    Vacuity never increases: u' <= u_i. When the a-denominator vanishes
    (receiver fully vacuous against a fully vacuous discounted sender)
    the receiver's base rate is kept. β = 0 happens only for c = 1 with
    two dogmatic opinions: such an element comes back all-NaN, and a
    scalar call raises ValueError; callers must pre-apply vacuity
    maximization, freeze such users, or skip the element.
    """
    b_i, d_i, u_i, a_i = op_i
    b_j, d_j, u_j, a_j = op_j
    certainty_j = 1.0 - u_j
    u_x = 1.0 - c * certainty_j
    beta = 1.0 - c * (1.0 - u_i) * certainty_j
    degenerate = beta <= _DEGENERATE_TOL
    if np.count_nonzero(degenerate):
        if np.ndim(degenerate) == 0:
            raise ValueError(
                "degenerate fusion: both opinions dogmatic under full trust (beta = 0)"
            )
        beta = np.where(degenerate, np.nan, beta)
    b = (b_i * u_x + c * b_j * u_i) / beta
    d = (d_i * u_x + c * d_j * u_i) / beta
    u_ix = u_i * u_x
    u = u_ix / beta

    a_den = beta - u_ix
    keep_a = np.abs(a_den) <= _DEGENERATE_TOL
    kept = np.count_nonzero(keep_a)
    if kept:
        a_den = np.where(keep_a, 1.0, a_den)
    a = ((a_i - (a_i + a_j) * u_i) * u_x + a_j * u_i) / a_den
    a = np.minimum(1.0, np.maximum(0.0, a))
    if kept:
        a = np.where(keep_a, a_i, a)

    total = b + d + u
    drift = np.abs(total - 1.0) > _RENORM_TOL
    if np.count_nonzero(drift):
        b, d, u = (np.where(drift, x / total, x) for x in (b, d, u))
    return Opinion(b, d, u, a)


def vacuity_maximize(op) -> Opinion:
    """Re-express an opinion with maximal vacuity, preserving its projection.

    Interior base rate: ü = min(P(b)/a, P(d)/(1-a)), b̈ = P(b) - a·ü,
    d̈ = P(d) - (1-a)·ü. At least one of b̈, d̈ is zero. At the boundaries
    a = 0 and a = 1 the maximal vacuity is P(d) and P(b) respectively; a
    base rate within the smallest normal float of a boundary counts as it.
    """
    pb, pd = project(op)
    a = op[3]
    # A subnormal a (or 1 - a) counts as the boundary: there a·u underflows,
    # so the interior formula would lose the vacuity it is meant to maximize.
    low, high = a < _TINY, 1.0 - a < _TINY
    interior = (a >= _TINY) & (1.0 - a >= _TINY)
    u = np.minimum(pb / np.where(interior, a, 1.0), pd / np.where(interior, 1.0 - a, 1.0))
    b = np.maximum(0.0, pb - a * u)
    d = np.maximum(0.0, pd - (1.0 - a) * u)
    return Opinion(
        np.where(low, pb, np.where(high, 0.0, b)),
        np.where(low, 0.0, np.where(high, pd, d)),
        np.where(low, pd, np.where(high, pb, u)),
        a,
    )


def refresh_due(op, model: TrustModel):
    """Mask of the elements the UOM refresh acts on.

    True only under the UOM variant, where u < xi and dissonance > t_d.
    The same test exempts a low-vacuity user from the freeze latch.
    """
    if model.variant is not TrustVariant.UOM:
        return np.zeros(np.shape(op[2]), dtype=bool)
    low = op[2] < model.xi
    if not np.count_nonzero(low):
        return low
    return low & (dissonance(op) > model.t_d)


def apply_uom_refresh(op, model: TrustModel):
    """Vacuity-maximize a low-vacuity, high-dissonance opinion.

    Acts, elementwise, where `refresh_due` holds; returns the opinion
    itself when no element qualifies. Applied to a receiver immediately
    before each fusion so that users stuck on conflicting evidence can
    absorb new information.
    """
    due = refresh_due(op, model)
    if not np.count_nonzero(due):
        return op
    maxed = vacuity_maximize(op)
    return Opinion(*(np.where(due, x, y) for x, y in zip(maxed, op)))
