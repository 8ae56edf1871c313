"""The wave kernel (`drim/wave.c`) against the scalar reference.

Oracles:
  - differential: `reference_wave.propagate_wave` (the scalar per-pair
    loop the kernel replaced, drawing in the kernel's order) run on a
    copy of the same state with a copy of the same generator must leave
    identical roles, freeze latches and generator state, opinions equal
    bit for bit under every model, and equal `WaveCounters`, counted
    here per event; also on graphs of 1, 63, 64, 65, 128 and 129 users
    (the level bitmap's word boundaries), with isolated users, and with a
    party that holds every user but one, where the decided counts the
    kernel returns must be `decided_influence_counts`' after each wave;
  - draw contract: with p_read and p_share in {0, 1}, a wave takes two
    draws per reached user and level, `random((2, s))` for a level of s;
  - fixed outcomes: on graphs where every read and share is known, a
    reader fuses all its senders of a level, a reader that freezes skips
    its later senders, and the frozen opinion is the one the reference's
    operators give;
  - turn schedule: one call running a party turn's waves must equal one
    call per wave, and the reference run wave by wave, bit for bit
    (opinions, latches, counters and generator states), including a
    user read in one wave and updated in the next, and a reader frozen
    in one wave whose later events are skipped and untallied;
  - binding: the kernel rejects a generator that is not a
    `numpy.random.Generator` and an array of another dtype or layout
    before it runs, and a stacked replica's view runs as its copy does;
  - build: a second build of the same source does not run the compiler,
    a new build removes the builds of other keys, and a failed build is
    an ImportError naming the command;
  - goldens: results.csv / raw_runs.csv / counters.csv of small fixed
    specs, written by `write_golden_cell` under the block draw contract,
    must come out byte for byte.
"""

from __future__ import annotations

import copy
from pathlib import Path

import numpy as np
import pytest
import reference_wave
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drim import harness, opinion, population, rl
from drim.network import Graph
from drim.opinion import HOM, NOM, UOM, TrustModel, TrustVariant
from drim.population import (
    Party,
    decided_influence_counts,
    init_population,
    promote_seed,
    stack_populations,
)
from drim.propagation import EpisodeConfig, WaveCounters, propagate_wave, run_episode
from drim.strategies import RandomStrategyAgent, Scheme, action_space, make_heuristic_agent

GOLDEN = Path(__file__).parent / "data" / "golden"

# With t_u = 0 a user whose vacuity reaches 0 can stay unfrozen, so the
# degenerate-fusion path is reachable.
LATCH_OFF = [TrustModel(variant, t_u=0.0) for variant in TrustVariant]


@st.composite
def wave_cases(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, min_size=1, max_size=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    model = draw(st.sampled_from([UOM, HOM, NOM, *LATCH_OFF]))
    tip = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    fip = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    odd_integer_calls = draw(st.integers(min_value=0, max_value=3)) * 2 + 1
    waves = draw(st.integers(min_value=1, max_value=4))
    return n, edges, seed, model, tip, fip, odd_integer_calls, waves


def _population(n: int, seed: int, tip: list[int], fip: list[int]):
    """Users with varied opinions (some dogmatic, some conflicted) and a few seeds."""
    rng = np.random.default_rng(seed)
    state = init_population(n, rng)
    mass = rng.random(n) * rng.choice([0.2, 0.9, 1.0], size=n)
    mass[rng.random(n) < 0.3] = 1.0  # dogmatic: u = 0
    state.p_read[rng.random(n) < 0.5] = 1.0
    state.p_share[rng.random(n) < 0.5] = 1.0
    share = rng.random(n)
    state.b[:] = mass * share
    state.d[:] = mass - state.b
    state.u[:] = 1.0 - mass
    state.a[:] = rng.choice([0.0, 0.3, 0.5, 1.0], size=n)
    for user in tip:
        promote_seed(state, user, Party.TRUE_PARTY)
    for user in sorted(set(fip) - set(tip)):
        promote_seed(state, user, Party.FALSE_PARTY)
    return state


def _assert_same(kernel, reference, kernel_rng, reference_rng) -> None:
    assert np.array_equal(kernel.frozen, reference.frozen)
    assert np.array_equal(kernel.role, reference.role)
    assert kernel_rng.bit_generator.state == reference_rng.bit_generator.state
    assert np.array_equal(kernel.bdua, reference.bdua)


class TestDifferentialAgainstScalarWave:
    @given(wave_cases())
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_waves_match_reference(self, case):
        n, edges, seed, model, tip, fip, odd_calls, waves = case
        g = Graph(n, edges)
        kernel = _population(n, seed, tip, fip)
        reference = copy.deepcopy(kernel)
        kernel_rng = np.random.default_rng(seed + 1)
        for _ in range(odd_calls):  # leave half of a 64-bit draw buffered
            kernel_rng.integers(0, 1000)
        assert kernel_rng.bit_generator.state["has_uint32"] == 1
        reference_rng = copy.deepcopy(kernel_rng)
        counters, reference_counters = WaveCounters(), WaveCounters()
        for wave in range(waves):
            party = Party.TRUE_PARTY if wave % 2 == 0 else Party.FALSE_PARTY
            frozen_before = int(np.count_nonzero(kernel.frozen))
            frozen_counted = counters.frozen
            propagate_wave(kernel, g, party, model, (kernel_rng,), counters=(counters,))
            reference_wave.propagate_wave(reference, g, party, model, reference_rng,
                                          counters=reference_counters)
            _assert_same(kernel, reference, kernel_rng, reference_rng)
            assert counters == reference_counters
            newly_frozen = int(np.count_nonzero(kernel.frozen)) - frozen_before
            assert counters.frozen - frozen_counted == newly_frozen
        assert counters.reads <= counters.reached
        assert counters.degenerate <= counters.fusions
        if model.variant is not TrustVariant.UOM:
            assert counters.refreshes == 0

    @pytest.mark.parametrize("model", [UOM, HOM, NOM], ids=["uom", "hom", "nom"])
    def test_bundled_graph_episode_waves(self, model):
        from drim.datasets import load_urv_email

        g = load_urv_email()
        kernel = init_population(g.n, 3)
        for user in (5, 77, 400):
            promote_seed(kernel, user, Party.TRUE_PARTY)
        for user in (9, 600):
            promote_seed(kernel, user, Party.FALSE_PARTY)
        reference = copy.deepcopy(kernel)
        kernel_rng, reference_rng = np.random.default_rng(8), np.random.default_rng(8)
        for wave in range(12):
            party = Party.TRUE_PARTY if wave % 3 else Party.FALSE_PARTY
            propagate_wave(kernel, g, party, model, (kernel_rng,))
            reference_wave.propagate_wave(reference, g, party, model, reference_rng)
            _assert_same(kernel, reference, kernel_rng, reference_rng)


def _run_both(g, kernel, model, parties, seed=0) -> None:
    """Run a wave for each of `parties` in turn with the kernel and the
    reference on a copy, and require the same bits, counters and
    generator state, and the kernel's decided counts to be
    `decided_influence_counts`' after each wave."""
    reference = copy.deepcopy(kernel)
    kernel_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    counters, reference_counters = WaveCounters(), WaveCounters()
    for party in parties:
        counts = propagate_wave(kernel, g, party, model, (kernel_rng,), counters=(counters,))
        reference_wave.propagate_wave(reference, g, party, model, reference_rng,
                                      counters=reference_counters)
        _assert_same(kernel, reference, kernel_rng, reference_rng)
        assert counters == reference_counters
        assert counts.dtype == np.int64
        assert counts.tolist() == decided_influence_counts(kernel).tolist()


MODELS = [UOM, HOM, NOM, *LATCH_OFF]
MODEL_IDS = ["uom", "hom", "nom", "uom-t0", "hom-t0", "nom-t0"]
PARTIES = [Party.TRUE_PARTY, Party.FALSE_PARTY, Party.TRUE_PARTY, Party.TRUE_PARTY]


class TestBitmapWords:
    """The level bitmap holds 64 users a word: levels that start, end or
    lie across a word boundary, users the waves never reach, and a level
    of one user."""

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 128, 129])
    def test_graphs_around_word_sizes(self, n, model):
        rng = np.random.default_rng(n)
        path = [(i, i + 1) for i in range(n - 1)]
        g = Graph(n, path + [tuple(e) for e in rng.integers(0, n, size=(n, 2)).tolist()])
        tip = [0, n - 1] if n > 1 else [0]
        fip = [n // 2] if n > 2 else []
        _run_both(g, _population(n, n, tip, fip), model, PARTIES, seed=n)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    def test_isolated_users(self, model):
        # Odd users are isolated; the even ones form a cycle through the
        # word boundaries 63 | 64 and 127 | 128. Half the isolated users
        # hold u = 0.5 exactly, which is not decided.
        n = 130
        evens = list(range(0, n, 2))
        g = Graph(n, list(zip(evens, evens[1:] + evens[:1])) + [(62, 128), (0, 64)])
        state = _population(n, 1, [0, 66], [126])
        state.bdua[:, 1::4] = np.array([[0.25], [0.25], [0.5], [0.5]])
        _run_both(g, state, model, PARTIES, seed=1)

    @pytest.mark.parametrize("threshold", [0.3, 0.9])
    def test_decided_counts_read_the_threshold_when_called(self, threshold, monkeypatch):
        monkeypatch.setattr(population, "FREE_VACUITY_THRESHOLD", threshold)
        n = 65
        g = Graph(n, [(i, (i * 7 + 3) % n) for i in range(n)] + [(i, i + 1) for i in range(n - 1)])
        _run_both(g, _population(n, 4, [0, 40], [64]), UOM, PARTIES, seed=4)

    @pytest.mark.parametrize("model", MODELS, ids=MODEL_IDS)
    @pytest.mark.parametrize("free", [0, 63, 64, 128])
    def test_a_party_holding_every_user_but_one(self, free, model):
        n = 129
        rng = np.random.default_rng(free)
        g = Graph(n, rng.integers(0, n, size=(3 * n, 2)))
        state = _population(n, free, [v for v in range(n) if v != free], [])
        state.p_read[free] = state.p_share[free] = 1.0
        _run_both(g, state, model, [Party.TRUE_PARTY, Party.FALSE_PARTY, Party.TRUE_PARTY],
                  seed=free)


class TestDrawContract:
    """With p_read and p_share in {0, 1} every outcome is known, so the
    blocks a wave draws are pinned without a reference."""

    def test_one_block_of_two_draws_per_reached_user_and_level(self):
        # 0 is the seed; 1, 2, 3 are level 1; 4, 5 hang off 1, 6 off 2, 7 off 3.
        g = Graph(8, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (3, 7)])
        state = init_population(8, 0)
        state.p_read[:] = state.p_share[:] = 1.0
        state.p_share[2] = 0.0  # reads, does not share: 6 stays unreached
        state.p_read[3] = 0.0  # does not read, so does not share: 7 stays unreached
        promote_seed(state, 0, Party.TRUE_PARTY)
        rng, counters = np.random.default_rng(5), WaveCounters()
        propagate_wave(state, g, Party.TRUE_PARTY, NOM, (rng,), counters=(counters,))
        fresh = np.random.default_rng(5)
        fresh.random((2, 3))  # level {1, 2, 3}
        fresh.random((2, 2))  # level {4, 5}
        assert rng.bit_generator.state == fresh.bit_generator.state
        assert (counters.reached, counters.reads) == (5, 4)

    def test_unread_user_never_shares(self):
        g = Graph(3, [(0, 1), (1, 2)])
        state = init_population(3, 0)
        state.p_read[:] = 0.0
        state.p_share[:] = 1.0
        promote_seed(state, 0, Party.TRUE_PARTY)
        rng, counters = np.random.default_rng(6), WaveCounters()
        propagate_wave(state, g, Party.TRUE_PARTY, UOM, (rng,), counters=(counters,))
        assert (counters.reached, counters.reads) == (1, 0)  # no second level
        fresh = np.random.default_rng(6)
        fresh.random(2)
        assert rng.bit_generator.state == fresh.bit_generator.state


class TestDepthSchedule:
    """With p_read = p_share = 1, seeds 0-3 and user 4 reading all four at
    level 1, beside a chain 5-6-7-8 of single-sender readers hanging off
    seed 0 at levels 1 to 4."""

    EDGES = [(0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8)]

    def _wave(self, n, edges, model):
        """One wave from seeds 0-3, checked against the scalar reference;
        returns the state before and after, and the counters."""
        g = Graph(n, edges)
        state = init_population(n, 0)
        state.p_read[:] = state.p_share[:] = 1.0
        for user in range(4):
            promote_seed(state, user, Party.TRUE_PARTY)
        before, reference = copy.deepcopy(state), copy.deepcopy(state)
        rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        counters, reference_counters = WaveCounters(), WaveCounters()
        propagate_wave(state, g, Party.TRUE_PARTY, model, (rng,), counters=(counters,))
        reference_wave.propagate_wave(reference, g, Party.TRUE_PARTY, model, reference_rng,
                                      counters=reference_counters)
        _assert_same(state, reference, rng, reference_rng)
        assert counters == reference_counters
        return before, state, counters

    def test_one_fusion_step_per_depth(self):
        _, _, counters = self._wave(9, self.EDGES, UOM)
        assert counters.fusions == 8  # user 4 reads all four seeds, the chain one each

    def test_frozen_reader_skips_its_later_events(self):
        # Under NOM a fresh user freezes after its second seed fusion at the
        # default t_u, so user 4 halts after seeds 0 and 1 and skips 2 and
        # 3; user 9 reads 4 at level 2.
        before, state, counters = self._wave(10, [*self.EDGES, (4, 9)], NOM)
        assert state.frozen[4]
        assert counters.fusions == 2 + 4 + 1  # user 4, the chain, user 9
        fuse = reference_wave.fuse
        halted = fuse(fuse(before.bdua[:, 4], before.bdua[:, 0], 1.0), before.bdua[:, 1], 1.0)
        assert np.array_equal(state.bdua[:, 4], np.array(halted))
        assert np.array_equal(state.bdua[:, 9], np.array(fuse(before.bdua[:, 9], halted, 1.0)))


@st.composite
def turn_cases(draw):
    n = draw(st.integers(min_value=2, max_value=24))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, min_size=1, max_size=3 * n))
    replicas = draw(st.integers(min_value=1, max_value=3))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=replicas, max_size=replicas))
    model = draw(st.sampled_from([UOM, HOM, NOM, *LATCH_OFF]))
    tip = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3, unique=True))
    fip = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    party = draw(st.sampled_from(list(Party)))
    waves = draw(st.integers(min_value=1, max_value=4))
    return n, edges, seeds, model, tip, fip, party, waves


class TestTurnSchedule:
    """A turn's waves in one call, fused on one schedule, against one call
    per wave and the scalar reference run wave by wave."""

    @given(turn_cases())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_turn_matches_wave_by_wave(self, case):
        n, edges, seeds, model, tip, fip, party, waves = case
        g = Graph(n, edges)
        replicas = [_population(n, seed, tip, fip) for seed in seeds]
        references = copy.deepcopy(replicas)
        per_wave = stack_populations(copy.deepcopy(replicas))
        turn = stack_populations(replicas)
        turn_rngs = [np.random.default_rng(seed + 1) for seed in seeds]
        wave_rngs, reference_rngs = copy.deepcopy(turn_rngs), copy.deepcopy(turn_rngs)
        turn_counters = [WaveCounters() for _ in seeds]
        wave_counters = [WaveCounters() for _ in seeds]
        reference_counters = [WaveCounters() for _ in seeds]

        propagate_wave(turn, g, party, model, turn_rngs, turn_counters, waves)
        for _ in range(waves):
            propagate_wave(per_wave, g, party, model, wave_rngs, wave_counters)
            for state, rng, counters in zip(references, reference_rngs, reference_counters):
                reference_wave.propagate_wave(state, g, party, model, rng, counters=counters)

        assert np.array_equal(turn.bdua, per_wave.bdua, equal_nan=True)
        assert np.array_equal(turn.frozen, per_wave.frozen)
        assert turn_counters == wave_counters == reference_counters
        for got, rng, want, want_rng, other_rng in zip(replicas, turn_rngs, references,
                                                       reference_rngs, wave_rngs):
            assert rng.bit_generator.state == other_rng.bit_generator.state
            _assert_same(got, want, rng, want_rng)

    def _turn(self, n, edges, seeds, model, waves=2):
        """A turn of the true party from `seeds` with p_read = p_share = 1,
        checked against one call per wave and the reference; returns the
        state after each wave of the per-wave calls, and the turn's state
        and counters."""
        g = Graph(n, edges)
        state = init_population(n, 0)
        state.p_read[:] = state.p_share[:] = 1.0
        for user in seeds:
            promote_seed(state, user, Party.TRUE_PARTY)
        per_wave, reference = copy.deepcopy(state), copy.deepcopy(state)
        rng, wave_rng, reference_rng = (np.random.default_rng(3) for _ in range(3))
        counters, want = WaveCounters(), WaveCounters()
        snapshots = []
        for _ in range(waves):
            propagate_wave(per_wave, g, Party.TRUE_PARTY, model, (wave_rng,))
            snapshots.append(per_wave.bdua.copy())
            reference_wave.propagate_wave(reference, g, Party.TRUE_PARTY, model, reference_rng,
                                          counters=want)
        propagate_wave(state, g, Party.TRUE_PARTY, model, (rng,), counters=(counters,),
                       waves=waves)
        assert np.array_equal(state.bdua, per_wave.bdua)
        assert np.array_equal(state.frozen, per_wave.frozen)
        assert rng.bit_generator.state == wave_rng.bit_generator.state
        _assert_same(state, reference, rng, reference_rng)
        assert counters == want
        return snapshots, state, counters

    def test_user_read_in_one_wave_waits_to_update_in_the_next(self):
        # Seed 0 reaches 1, 3 and 5 at level 1, and 2 reads them in that
        # order at level 2. In wave 2, 5 reads 0 again, and 2 then reads
        # 5's wave-2 opinion.
        model = TrustModel(TrustVariant.NOM, t_u=0.0)  # nobody freezes
        edges = [(0, 1), (0, 3), (0, 5), (1, 2), (3, 2), (5, 2)]
        snapshots, _, counters = self._turn(6, edges, [0], model)
        assert not np.array_equal(snapshots[0][:, 5], snapshots[1][:, 5])  # 5 updated in wave 2
        assert counters.fusions == 12  # per wave: 1, 3 and 5 <- 0, then 2 <- 1, 3, 5

    def test_reader_frozen_in_one_wave_skips_its_later_events(self):
        # Under NOM a fresh user freezes after its second seed fusion at the
        # default t_u: user 4 reads seeds 0 and 1 and freezes in wave 1, and
        # 9 freezes on reading it. Both still read and 4 still shares in
        # wave 2, but the turn's wave-2 events of both are skipped, not
        # fused and not counted.
        snapshots, state, counters = self._turn(10, [(0, 4), (1, 4), (4, 9)], [0, 1], NOM)
        assert state.frozen[4] and state.frozen[9]
        assert np.array_equal(snapshots[0], snapshots[1])
        assert counters.fusions == 3  # wave 1: 4 <- 0, 4 <- 1, 9 <- 4
        assert counters.reads == 4


class TestDegenerateFusion:
    def test_degenerate_pair_is_skipped_and_counted(self):
        # t_u = 0 lets a dogmatic (u = 0) user stay unfrozen, so a dogmatic
        # sender under full trust meets it with beta = 0.
        model = TrustModel(TrustVariant.NOM, t_u=0.0)
        g = Graph(3, [(0, 1), (1, 2)])
        state = init_population(3, 0)
        state.p_read[:] = 1.0
        state.p_share[:] = 1.0
        promote_seed(state, 0, Party.TRUE_PARTY)
        state.b[1:], state.d[1:], state.u[1:] = [1.0, 0.0], [0.0, 1.0], 0.0
        reference = copy.deepcopy(state)
        counters = WaveCounters()
        propagate_wave(state, g, Party.TRUE_PARTY, model, (np.random.default_rng(0),),
                       counters=(counters,))
        reference_wave.propagate_wave(reference, g, Party.TRUE_PARTY, model,
                                      np.random.default_rng(0))
        assert counters.degenerate == 1
        assert counters.fusions == 2
        assert counters.frozen == 1  # user 1 fused down to u = 0 and froze
        assert not state.frozen[2]
        assert (state.b[2], state.d[2], state.u[2]) == (0.0, 1.0, 0.0)
        assert np.array_equal(state.bdua, reference.bdua)
        assert np.array_equal(state.frozen, reference.frozen)

    def test_workload_episode_reports_no_degenerate_fusion(self):
        from drim.datasets import load_urv_email

        cfg = EpisodeConfig(k=5, rng_seed=4)
        ep = run_episode(load_urv_email(), cfg, RandomStrategyAgent(), make_heuristic_agent("cf"))
        c = ep.counters
        assert c.degenerate == 0
        assert 0 < c.reads <= c.reached
        assert c.fusions > 0


class TestBinding:
    """The kernel's arguments are checked before it touches memory."""

    def _case(self, replicas=1):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        states = [_population(4, seed, [0], [3]) for seed in range(replicas)]
        return g, (states[0] if replicas == 1 else stack_populations(states))

    def test_rejects_a_generator_of_another_kind(self):
        g, state = self._case()
        before = copy.deepcopy(state)
        with pytest.raises(TypeError, match="numpy.random.Generator.*RandomState"):
            propagate_wave(state, g, Party.TRUE_PARTY, UOM, (np.random.RandomState(0),))
        assert np.array_equal(state.bdua, before.bdua)

    def test_rejects_an_array_of_another_dtype(self):
        g, state = self._case()
        state.p_read = state.p_read.astype(np.float32)
        with pytest.raises(TypeError, match="p_read must be a numpy float64 array, got float32"):
            propagate_wave(state, g, Party.TRUE_PARTY, UOM, (np.random.default_rng(0),))

    def test_rejects_a_row_that_is_not_contiguous(self):
        g, state = self._case()
        state.bdua = np.asfortranarray(state.bdua)
        with pytest.raises(ValueError, match="bdua row 0 must be a C-contiguous 1-D array"):
            propagate_wave(state, g, Party.TRUE_PARTY, UOM, (np.random.default_rng(0),))

    def test_rejects_counters_of_another_length(self):
        g, state = self._case(replicas=2)
        rngs = [np.random.default_rng(r) for r in range(2)]
        with pytest.raises(ValueError, match="1 counters for 2 replicas"):
            propagate_wave(state, g, Party.TRUE_PARTY, UOM, rngs, counters=[WaveCounters()])

    @pytest.mark.parametrize("model", [UOM, HOM, NOM], ids=["uom", "hom", "nom"])
    def test_stacked_replica_runs_as_its_copy(self, model):
        from drim.datasets import load_urv_email

        g = load_urv_email()
        replicas = [init_population(g.n, seed) for seed in range(3)]
        for state in replicas:
            for user in (5, 77, 400):
                promote_seed(state, user, Party.TRUE_PARTY)
        stacked = stack_populations(replicas)
        others = stacked.bdua.copy()
        alone = copy.deepcopy(replicas[1])
        rng, alone_rng = np.random.default_rng(8), np.random.default_rng(8)
        counters, alone_counters = WaveCounters(), WaveCounters()
        propagate_wave(replicas[1], g, Party.TRUE_PARTY, model, (rng,), (counters,), waves=2)
        propagate_wave(alone, g, Party.TRUE_PARTY, model, (alone_rng,), (alone_counters,),
                       waves=2)
        assert counters == alone_counters and counters.fusions > 0
        assert rng.bit_generator.state == alone_rng.bit_generator.state
        assert np.array_equal(replicas[1].bdua, alone.bdua)
        assert np.array_equal(replicas[1].frozen, alone.frozen)
        untouched = np.r_[0:g.n, 2 * g.n:3 * g.n]
        assert np.array_equal(stacked.bdua[:, untouched], others[:, untouched])


class TestBuild:
    """`opinion._build` compiles once per source, command and platform."""

    def test_second_build_of_the_same_source_does_not_compile(self, tmp_path, monkeypatch):
        first = opinion._build(opinion._SOURCE, tmp_path)

        def no_compiler(*args, **kwargs):
            raise AssertionError("the compiler ran again")

        monkeypatch.setattr(opinion.subprocess, "run", no_compiler)
        assert opinion._build(opinion._SOURCE, tmp_path) == first
        assert sorted(tmp_path.iterdir()) == [first]

    def test_a_build_removes_the_builds_of_other_keys(self, tmp_path):
        stale = tmp_path / f"wave-{'0' * 64}.so"
        scratch = tmp_path / "wave-k3_x9z2q.so"  # a concurrent build's temporary file
        stale.write_bytes(b"")
        scratch.write_bytes(b"")
        live = opinion._build(opinion._SOURCE, tmp_path)
        assert sorted(tmp_path.iterdir()) == sorted([live, scratch])

    def test_failed_build_names_the_command(self, tmp_path):
        source = tmp_path / "broken.c"
        source.write_text("this is not C\n")
        with pytest.raises(ImportError, match=r"(?s)cc -O2 -shared -fPIC -ffp-contract=off "
                                              r"-o .*broken\.c -lm exited \d+:.*error"):
            opinion._build(source, tmp_path / "cache")
        assert list((tmp_path / "cache").iterdir()) == []

    def test_missing_compiler_names_the_command(self, tmp_path, monkeypatch):
        def no_compiler(command, **kwargs):
            raise FileNotFoundError(2, "No such file or directory", command[0])

        monkeypatch.setattr(opinion.subprocess, "run", no_compiler)
        with pytest.raises(ImportError, match=r"cc -O2 .* -lm: .*No such file"):
            opinion._build(opinion._SOURCE, tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_cache_names_the_directory(self, tmp_path, monkeypatch):
        (tmp_path / "file").write_text("")
        with pytest.raises(ImportError, match=r"cache .*file.cache must be a writable directory"):
            opinion._build(opinion._SOURCE, tmp_path / "file" / "cache")

        # A read-only directory; chmod would not stop a root user.
        def read_only(**kwargs):
            raise PermissionError(13, "Permission denied", str(kwargs["dir"]))

        monkeypatch.setattr(opinion.tempfile, "mkstemp", read_only)
        with pytest.raises(ImportError, match=r"cache .* must be a writable directory: "
                                              r".*Permission denied"):
            opinion._build(opinion._SOURCE, tmp_path)


def _golden_spec(out_dir: Path, opinion_model: str, scheme: Scheme, fp: str, p_nv: float):
    spec = harness.ExperimentSpec(
        scheme=scheme, opinion_model=opinion_model, fp_strategy=fp, p_nv=p_nv,
        runs=3, k=10, master_seed=0, out_dir=out_dir, auto_train=False,
    )
    tp_path, _ = harness.policy_paths(spec, scheme, fp)
    tp_path.parent.mkdir(parents=True, exist_ok=True)
    policy_seed = harness.derive_seed(0, "golden-policy", *spec.coordinates())
    params = rl.init_params(len(action_space(scheme)), spec.ppo.hidden, policy_seed)
    rl.save_params(params, tp_path)
    return spec


GOLDEN_CELLS = {
    "uom": ("uom", Scheme.DRIM_A, "cf", 1.0),
    "hom": ("hom", Scheme.DRIM_A, "cf", 1.0),
    "nom": ("nom", Scheme.DRIM_A, "cf", 1.0),
    "cstorm-nom-random-masked": ("nom", Scheme.C_STORM, "random", 0.6),
    "storm-uom-sgf-masked": ("uom", Scheme.STORM, "sgf", 0.4),
}


def write_golden_cell(name: str, out_dir: Path) -> Path:
    """Run one golden cell into out_dir; also how the goldens were made."""
    spec = _golden_spec(out_dir, *GOLDEN_CELLS[name])
    harness.run_grid(spec, workers=1)
    return spec.out_dir


@pytest.mark.parametrize("name", sorted(GOLDEN_CELLS))
def test_result_csvs_match_scalar_goldens(tmp_path, name):
    out = write_golden_cell(name, tmp_path / name)
    for csv_name in ("results.csv", "raw_runs.csv", "counters.csv"):
        assert (out / csv_name).read_bytes() == (GOLDEN / name / csv_name).read_bytes(), csv_name
