"""Micro-benchmarks of the wave kernel and the array fusion operator.

Not part of the test suite (the file is not named test_*.py). Run with

    python -m pytest benchmarks/micro_wave.py --benchmark-only

and add --benchmark-autosave to keep the run under .benchmarks/.
Each wave starts from the same mid-episode state: 25 seeds per party
promoted on the bundled graph, three waves already run. The batched wave
runs that state as R = 10 lockstep replicas (stacked population, one
generator each), the way `run_lockstep` does.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from drim.datasets import load_urv_email
from drim.opinion import NOM, UOM, Opinion, fuse, trust_coefficient
from drim.population import Party, init_population, promote_seed, stack_populations
from drim.propagation import propagate_wave

GRAPH = load_urv_email()
REPLICAS = 10


def _mid_episode(model):
    state = init_population(GRAPH.n, 0)
    users = np.random.default_rng(1).permutation(GRAPH.n)[:50].tolist()
    for i, user in enumerate(users):
        promote_seed(state, user, Party.TRUE_PARTY if i % 2 else Party.FALSE_PARTY)
    rng = np.random.default_rng(2)
    for party in (Party.FALSE_PARTY, Party.TRUE_PARTY, Party.TRUE_PARTY):
        propagate_wave(state, GRAPH, party, model, (rng,))
    return state, rng


@pytest.mark.parametrize("model", [UOM, NOM], ids=["uom", "nom"])
def test_one_wave(benchmark, model):
    state, rng = _mid_episode(model)

    def setup():
        return (copy.deepcopy(state), GRAPH, Party.FALSE_PARTY, model, (copy.deepcopy(rng),)), {}

    benchmark.pedantic(propagate_wave, setup=setup, rounds=50, warmup_rounds=2)


def test_one_batched_wave_uom(benchmark):
    state, rng = _mid_episode(UOM)

    def setup():
        stacked = stack_populations([copy.deepcopy(state) for _ in range(REPLICAS)])
        rngs = [copy.deepcopy(rng) for _ in range(REPLICAS)]
        return (stacked, GRAPH, Party.FALSE_PARTY, UOM, rngs), {}

    benchmark.pedantic(propagate_wave, setup=setup, rounds=20, warmup_rounds=2)


def test_fuse_1k(benchmark):
    rng = np.random.default_rng(3)
    mass = rng.random((2, 1000))
    share = rng.random((2, 1000))
    op_i, op_j = (Opinion(m * s, m * (1 - s), 1 - m, np.full(1000, 0.5))
                  for m, s in zip(mass, share))
    c = trust_coefficient(UOM, op_i, op_j)
    benchmark(fuse, op_i, op_j, c)
