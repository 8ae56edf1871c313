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
(b, d, u, a): an `Opinion` whose fields are floats or arrays that
broadcast together, or a (4, ...) array whose rows are b, d, u, a. A
scalar is the 0-d case. Results come back as `Opinion`s of float64
arrays (float64 scalars for scalar input), and applying an operator to
an array gives, bit for bit, what applying it to each element on its own
gives.

`dissonance` down to `apply_uom_refresh` call the C operators of
`wave.c`, which the wave kernel in `propagation` runs too; importing
this module builds it (`_build`) unless `__pycache__/` holds its build.

Degenerate fusion (beta <= 1e-12, two dogmatic opinions under full
trust) is reported per element: every component of that element comes
back NaN. A scalar call has exactly one element and raises ValueError
instead.

All functions are pure; they are safe to call from any number of
concurrent simulation replicas.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import sysconfig
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import NamedTuple

import numpy as np


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
    return _apply(_DISSONANCE, op, rows=1)[0][0]


def trust_coefficient(model: TrustModel, op_i, op_j):
    """Trust of user i in user j under the given model.

    UOM: (1 - u_i)(1 - u_j) — mutual certainty.
    HOM: cosine similarity of the (b, d) vectors; 0 if either side has
         expressed no stance (b = d = 0).
    NOM: 1 — no trust filter (the scalar 1.0, which broadcasts).
    """
    if model.variant is TrustVariant.NOM:
        return 1.0
    return _apply(_TRUST, (*op_i, *op_j), model, rows=1)[0][0]


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
    maximization, freeze such users, or skip the element. A NaN input
    gives NaN, and raises nothing.
    """
    fused, degenerate = _apply(_FUSE, (*op_i, *op_j, c))
    if degenerate and fused.ndim == 1:  # a scalar call
        raise ValueError("degenerate fusion: both opinions dogmatic under full trust (beta = 0)")
    return Opinion(*fused)


def vacuity_maximize(op) -> Opinion:
    """Re-express an opinion with maximal vacuity, preserving its projection.

    Interior base rate: ü = min(P(b)/a, P(d)/(1-a)), b̈ = P(b) - a·ü,
    d̈ = P(d) - (1-a)·ü. At least one of b̈, d̈ is zero. At the boundaries
    a = 0 and a = 1 the maximal vacuity is P(d) and P(b) respectively; a
    base rate within the smallest normal float of a boundary counts as
    it, since a·u underflows there and the interior formula would lose
    the vacuity it is meant to maximize.
    """
    return Opinion(*_apply(_VACUITY_MAXIMIZE, op)[0])


def apply_uom_refresh(op, model: TrustModel):
    """Vacuity-maximize a low-vacuity, high-dissonance opinion.

    Acts, elementwise, only under the UOM variant, where u < xi and
    dissonance > t_d; the same test exempts a low-vacuity user from the
    freeze latch. Returns the opinion itself when no element qualifies.
    Applied to a receiver immediately before each fusion so that users
    stuck on conflicting evidence can absorb new information.
    """
    refreshed, due = _apply(_REFRESH, op, model)
    return Opinion(*refreshed) if due else op


# The command that builds wave.c: no -march and no fast-math, and no
# contraction of a*b + c into a fused multiply-add (clang on arm64
# contracts by default), so the bits stay those the goldens pin.
_COMMAND = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-o", "{out}", "{source}",
            "-lm")


def _build(source: Path, cache: Path) -> Path:
    """The shared library of the C file `source`, compiled into `cache`
    unless a build of the same source, command and platform is there.

    The library is written under a temporary name beside its target and
    then renamed, so a concurrent import never loads half a file; the
    builds of other keys are then removed. A cache that cannot be
    written, or a failed build, raises ImportError that names the cause
    (the build's: its command and its stderr).
    """
    key = hashlib.sha256(source.read_bytes())
    key.update("\0".join([*_COMMAND, sysconfig.get_platform()]).encode())
    target = cache / f"{source.stem}-{key.hexdigest()}.so"
    if target.exists():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        fd, scratch = tempfile.mkstemp(suffix=".so", prefix=f"{source.stem}-", dir=cache)
    except OSError as error:
        raise ImportError(f"cannot build the wave kernel: its cache {cache} must be a "
                          f"writable directory: {error}") from None
    os.close(fd)
    command = [arg.format(out=scratch, source=source) for arg in _COMMAND]
    try:
        done = subprocess.run(command, capture_output=True, text=True, check=False)
    except OSError as error:
        os.unlink(scratch)
        raise ImportError(f"cannot build the wave kernel: {' '.join(command)}: {error}") from None
    if done.returncode:
        os.unlink(scratch)
        raise ImportError(f"cannot build the wave kernel: {' '.join(command)} exited "
                          f"{done.returncode}:\n{done.stderr}")
    os.replace(scratch, target)
    # Only hash-named files: a temporary one may be another build's.
    for stale in cache.glob(f"{source.stem}-{'[0-9a-f]' * 64}.so"):
        if stale != target:
            stale.unlink(missing_ok=True)
    return target


_SOURCE = Path(__file__).with_name("wave.c")
_LIBRARY = ctypes.CDLL(str(_build(_SOURCE, _SOURCE.parent / "__pycache__")))
_OPERATOR = _LIBRARY.drim_opinion_op
_OPERATOR.restype = ctypes.c_int64
_OPERATOR.argtypes = (
    [ctypes.c_int, ctypes.c_int64, ctypes.c_int]  # operator, n, model code
    + [ctypes.c_double] * 2  # xi, t_d
    + [ctypes.c_void_p] * 4  # x, y, c, out
)
# The operator and model codes of wave.c
_DISSONANCE, _TRUST, _FUSE, _VACUITY_MAXIMIZE, _REFRESH = range(5)
_MODEL_CODES = {TrustVariant.UOM: 0, TrustVariant.HOM: 1, TrustVariant.NOM: 2}


def _address(array, dtype, size: int, name: str, written: bool = False) -> int:
    """The data address of `array`, once it is a C-contiguous 1-D `dtype`
    array of `size` entries (and writeable, if `written`)."""
    if not isinstance(array, np.ndarray) or array.dtype != dtype:
        raise TypeError(f"{name} must be a numpy {np.dtype(dtype)} array, "
                        f"got {getattr(array, 'dtype', type(array).__name__)}")
    if array.shape != (size,) or not array.flags.c_contiguous:
        raise ValueError(f"{name} must be a C-contiguous 1-D array of {size} entries, "
                         f"got shape {array.shape}")
    if written and not array.flags.writeable:
        raise ValueError(f"{name} must be writeable")
    return array.ctypes.data


def _apply(code: int, operands, model: TrustModel = UOM, rows: int = 4):
    """Run wave.c's operator `code` on `operands`, broadcast together:
    the four components of x, then those of y, then c, as it reads them
    (model gives trust and the refresh their variant and thresholds).
    Returns the result, shaped (rows, *broadcast shape), and C's count.
    """
    x = np.stack(np.broadcast_arrays(*operands)).astype(np.float64, copy=False)
    shape, n = x.shape[1:], x[0].size
    x = x.reshape(len(x), n)
    out = np.empty((rows, n))
    y, c = (x[at].ctypes.data if len(x) > at else None for at in (4, 8))
    count = _OPERATOR(code, n, _MODEL_CODES[model.variant], model.xi, model.t_d,
                      x.ctypes.data, y, c, out.ctypes.data)
    return out.reshape(rows, *shape), count
