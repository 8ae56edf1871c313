"""The level-synchronous wave kernel against the scalar reference.

Oracles:
  - differential: `reference_wave.propagate_wave` (the scalar per-pair
    loop the kernel replaced, drawing in the kernel's order) run on a
    copy of the same state with a copy of the same generator must leave
    identical roles, freeze latches and generator state, and equal
    opinions: bit for bit under UOM and NOM,
    within a few ulp under HOM (`np.hypot` and `math.hypot` disagree by
    one ulp on some inputs), and equal `WaveCounters`, counted here per
    event;
  - draw contract: with p_read and p_share in {0, 1}, a wave takes one
    `random((2, s))` block per level of s reached users;
  - depth schedule: on a graph with every outcome known, a counting
    wrapper on `propagation.fuse` sees one fusion step per dependency
    depth, not one per sender rank of each BFS level;
  - turn schedule: one call running a party turn's waves must equal one
    call per wave, and the reference run wave by wave, bit for bit
    (opinions, latches, counters and generator states), including a
    user read in one wave and updated in the next, and a reader frozen
    in one wave whose later events are skipped and untallied;
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

from drim import harness, propagation, rl
from drim.network import Graph
from drim.opinion import HOM, NOM, UOM, TrustModel, TrustVariant, fuse
from drim.population import Party, init_population, promote_seed, stack_populations
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


def _assert_same(kernel, reference, model, kernel_rng, reference_rng) -> None:
    assert np.array_equal(kernel.frozen, reference.frozen)
    assert np.array_equal(kernel.role, reference.role)
    assert kernel_rng.bit_generator.state == reference_rng.bit_generator.state
    for got, want in zip(kernel.bdua, reference.bdua):
        if model.variant is TrustVariant.HOM:
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-15)
        else:
            assert np.array_equal(got, want)


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
            _assert_same(kernel, reference, model, kernel_rng, reference_rng)
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
            _assert_same(kernel, reference, model, kernel_rng, reference_rng)


class RecordingRng:
    """A generator that logs the size of each `random` call and its state after."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.blocks = []

    def random(self, size):
        out = self.rng.random(size)
        self.blocks.append((size, self.rng.bit_generator.state))
        return out


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
        rng, counters = RecordingRng(5), WaveCounters()
        propagate_wave(state, g, Party.TRUE_PARTY, NOM, (rng,), counters=(counters,))
        fresh = np.random.default_rng(5)
        sizes = [size for size, _ in rng.blocks]
        assert sizes == [(2, 3), (2, 2)]  # levels {1, 2, 3} and {4, 5}
        for size, state_after in rng.blocks:
            fresh.random(2 * size[1])
            assert state_after == fresh.bit_generator.state
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
    seed 0 at levels 1 to 4, fusion is four steps deep: a rank-by-rank
    schedule would take 4 + 1 + 1 + 1 = 7 steps."""

    EDGES = [(0, 4), (1, 4), (2, 4), (3, 4), (0, 5), (5, 6), (6, 7), (7, 8)]

    def _wave(self, monkeypatch, n, edges, model):
        """One wave from seeds 0-3, checked against the scalar reference;
        returns the state before and after, the counters, and the size
        of every fusion step."""
        g = Graph(n, edges)
        state = init_population(n, 0)
        state.p_read[:] = state.p_share[:] = 1.0
        for user in range(4):
            promote_seed(state, user, Party.TRUE_PARTY)
        before, reference = copy.deepcopy(state), copy.deepcopy(state)
        steps = []

        def counting_fuse(op_i, op_j, c):
            steps.append(np.size(op_i[0]))
            return fuse(op_i, op_j, c)

        monkeypatch.setattr(propagation, "fuse", counting_fuse)
        rng, reference_rng = np.random.default_rng(3), np.random.default_rng(3)
        counters, reference_counters = WaveCounters(), WaveCounters()
        propagate_wave(state, g, Party.TRUE_PARTY, model, (rng,), counters=(counters,))
        reference_wave.propagate_wave(reference, g, Party.TRUE_PARTY, model, reference_rng,
                                      counters=reference_counters)
        _assert_same(state, reference, model, rng, reference_rng)
        assert counters == reference_counters
        return before, state, counters, steps

    def test_one_fusion_step_per_depth(self, monkeypatch):
        _, _, counters, steps = self._wave(monkeypatch, 9, self.EDGES, UOM)
        assert steps == [2, 2, 2, 2]  # user 4 and the chain reader of each depth
        assert counters.fusions == 8

    def test_frozen_reader_skips_its_later_events(self, monkeypatch):
        # Under NOM a fresh user freezes after its second seed fusion at the
        # default t_u, so user 4 halts at depth 2 and drops its events at
        # depths 3 and 4; user 9 reads 4 at level 2, at depth 5.
        before, state, counters, steps = self._wave(
            monkeypatch, 10, [*self.EDGES, (4, 9)], NOM)
        assert steps == [2, 2, 1, 1, 1]
        assert state.frozen[4]
        assert counters.fusions == 2 + 4 + 1  # user 4, the chain, user 9
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
            _assert_same(got, want, model, rng, want_rng)

    def _turn(self, monkeypatch, n, edges, seeds, model, waves=2):
        """A turn of the true party from `seeds` with p_read = p_share = 1,
        checked against one call per wave and the reference; returns the
        state after each wave of the per-wave calls, the turn's state and
        counters, and the size of every fusion step."""
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
        steps = []

        def counting_fuse(op_i, op_j, c):
            steps.append(np.size(op_i[0]))
            return fuse(op_i, op_j, c)

        monkeypatch.setattr(propagation, "fuse", counting_fuse)
        propagate_wave(state, g, Party.TRUE_PARTY, model, (rng,), counters=(counters,),
                       waves=waves)
        assert np.array_equal(state.bdua, per_wave.bdua)
        assert np.array_equal(state.frozen, per_wave.frozen)
        assert rng.bit_generator.state == wave_rng.bit_generator.state
        _assert_same(state, reference, model, rng, reference_rng)
        assert counters == want
        return snapshots, state, counters, steps

    def test_user_read_in_one_wave_waits_to_update_in_the_next(self, monkeypatch):
        # Seed 0 reaches 1, 3 and 5 at level 1, and 2 reads them in that
        # order at level 2, so 2 reads 5 at depth 4 of wave 1. In wave 2, 5
        # reads 0 again: by its own last event it could go at depth 2, but
        # it must wait past depth 4, or 2 would read 5's wave-2 opinion.
        model = TrustModel(TrustVariant.NOM, t_u=0.0)  # nobody freezes
        edges = [(0, 1), (0, 3), (0, 5), (1, 2), (3, 2), (5, 2)]
        snapshots, _, counters, steps = self._turn(monkeypatch, 6, edges, [0], model)
        assert not np.array_equal(snapshots[0][:, 5], snapshots[1][:, 5])  # 5 updated in wave 2
        # wave 1: {1, 3, 5}, then 2 <- 1, 3, 5 at depths 2-4; wave 2: 1, 3
        # and 5 each one past the wave-1 read of them (3, 4, 5), then 2 <- 1,
        # 3, 5 at depths 5-7
        assert steps == [3, 1, 2, 2, 2, 1, 1]
        assert counters.fusions == 12

    def test_reader_frozen_in_one_wave_skips_its_later_events(self, monkeypatch):
        # Under NOM a fresh user freezes after its second seed fusion at the
        # default t_u: user 4 reads seeds 0 and 1 and freezes in wave 1, and
        # 9 freezes on reading it. Both still read and 4 still shares in
        # wave 2, but the turn's wave-2 events of both are skipped, not
        # fused and not counted.
        snapshots, state, counters, steps = self._turn(
            monkeypatch, 10, [(0, 4), (1, 4), (4, 9)], [0, 1], NOM)
        assert state.frozen[4] and state.frozen[9]
        assert np.array_equal(snapshots[0], snapshots[1])
        assert steps == [1, 1, 1]  # wave 1: 4 <- 0, 4 <- 1, 9 <- 4
        assert counters.fusions == 3
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
