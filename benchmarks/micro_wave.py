"""Micro-benchmarks of the wave kernel and the array fusion operator.

Not part of the test suite (the file is not named test_*.py). Run with

    python -m pytest benchmarks/micro_wave.py --benchmark-only

and add --benchmark-autosave to keep the run under .benchmarks/.
Each wave starts from the same mid-episode state on the bundled graph,
drawn from its own seeded generator without running a wave (so a change
to the wave's draws does not change the work timed): 25 seeds per party
and 600 reached users, half of them near-certain (frozen once their
vacuity is at most t_u) and half still uncertain. Every wave draws from a
fresh generator of one fixed seed. The batched wave runs that state as
R = 10 lockstep replicas (stacked population, one generator each), the
way `run_lockstep` does, and the batched turn runs the true party's
turn of p_t = 2 waves over them as one call, as `run_lockstep` does
for each party turn; it runs at R = 80 and R = 160 too, where the
grouping sort is no longer a radix sort. The masked-view benchmark builds one p_nv = 0.6
view of the bundled graph from a fixed seed, as each eval-cstorm-masked
episode does. The spectral benchmarks split one such fixed view into 8
communities, C-STORM's community step on a fresh masked view (each round
solves, as every eval-cstorm-masked episode does), and the full graph,
whose embedding is solved once and cached, as at p_nv = 1, so each
round is the per-episode k-means alone; OpenBLAS is held at one thread,
as in every evaluation.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from drim.datasets import load_urv_email
from drim.harness import single_thread_blas
from drim.network import mask_network, spectral_communities
from drim.opinion import NOM, UOM, Opinion, fuse, trust_coefficient
from drim.population import Party, init_population, promote_seed, stack_populations
from drim.propagation import propagate_wave

GRAPH = load_urv_email()
REPLICAS = 10
# R·n = 90 640 > 65 535: the kernel's grouping sort key outgrows uint16
# and numpy's stable argsort leaves radix sort for a comparison sort.
WIDE_REPLICAS = 80
WIDEST_REPLICAS = 160


def _mid_episode():
    rng = np.random.default_rng(1)
    state = init_population(GRAPH.n, rng)
    users = rng.permutation(GRAPH.n)[:650]
    for i, user in enumerate(users[:50].tolist()):
        promote_seed(state, user, Party.TRUE_PARTY if i % 2 else Party.FALSE_PARTY)
    reached = users[50:]
    certain = np.arange(reached.size) % 2 == 0
    u = np.where(certain, rng.uniform(0.005, 0.02, reached.size),
                 rng.uniform(0.75, 0.98, reached.size))
    b = rng.random(reached.size) * (1.0 - u)
    state.bdua[:3, reached] = b, 1.0 - u - b, u
    state.frozen[reached] = u <= UOM.t_u  # UOM and NOM share the freeze threshold
    return state


def _wave_rng():
    return np.random.default_rng(2)


@pytest.mark.parametrize("model", [UOM, NOM], ids=["uom", "nom"])
def test_one_wave(benchmark, model):
    state = _mid_episode()

    def setup():
        return (copy.deepcopy(state), GRAPH, Party.FALSE_PARTY, model, (_wave_rng(),)), {}

    benchmark.pedantic(propagate_wave, setup=setup, rounds=50, warmup_rounds=2)


def test_one_batched_wave_uom(benchmark):
    state = _mid_episode()

    def setup():
        stacked = stack_populations([copy.deepcopy(state) for _ in range(REPLICAS)])
        rngs = [_wave_rng() for _ in range(REPLICAS)]
        return (stacked, GRAPH, Party.FALSE_PARTY, UOM, rngs), {}

    benchmark.pedantic(propagate_wave, setup=setup, rounds=20, warmup_rounds=2)


def _batched_turn_uom(benchmark, replicas):
    state = _mid_episode()

    def setup():
        stacked = stack_populations([copy.deepcopy(state) for _ in range(replicas)])
        rngs = [_wave_rng() for _ in range(replicas)]
        return (stacked, GRAPH, Party.TRUE_PARTY, UOM, rngs), {"waves": 2}

    benchmark.pedantic(propagate_wave, setup=setup, rounds=20, warmup_rounds=2)


def test_one_batched_turn_uom(benchmark):
    _batched_turn_uom(benchmark, REPLICAS)


def test_one_batched_turn_uom_r80(benchmark):
    _batched_turn_uom(benchmark, WIDE_REPLICAS)


def test_one_batched_turn_uom_r160(benchmark):
    _batched_turn_uom(benchmark, WIDEST_REPLICAS)


def test_fuse_1k(benchmark):
    rng = np.random.default_rng(3)
    mass = rng.random((2, 1000))
    share = rng.random((2, 1000))
    op_i, op_j = (Opinion(m * s, m * (1 - s), 1 - m, np.full(1000, 0.5))
                  for m, s in zip(mass, share))
    c = trust_coefficient(UOM, op_i, op_j)
    benchmark(fuse, op_i, op_j, c)


def test_mask_network(benchmark):
    benchmark(mask_network, GRAPH, 0.6, 4)


def test_spectral_communities(benchmark):
    view = mask_network(GRAPH, 0.6, 4)

    def fresh_view():  # drop the embedding the last round cached on the view
        view._embeddings.clear()

    with single_thread_blas():
        benchmark.pedantic(spectral_communities, args=(view, 8, 5), setup=fresh_view,
                           rounds=100, warmup_rounds=2)


def test_spectral_communities_full_cached(benchmark):
    with single_thread_blas():
        spectral_communities(GRAPH, 8, 5)  # the one solve; every round reuses its embedding
        benchmark(spectral_communities, GRAPH, 8, 5)
