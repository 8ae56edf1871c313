"""Population state, roles, and influence counting."""

from __future__ import annotations

import copy
import itertools

import numpy as np
import pytest

from drim.network import Graph, full_view
from drim.opinion import Opinion, project
from drim.population import (
    BEHAVIOR_LEVELS,
    Party,
    Role,
    decided_influence_counts,
    free_mask,
    influence_counts,
    init_population,
    promote_seed,
)
from drim.strategies import StrategyKind, select_seed

TOL = 1e-9


class TestInitPopulation:
    def test_fresh_opinions(self):
        state = init_population(3, rng_seed=0, prior_a=0.5)
        for i in range(3):
            op = Opinion(*state.bdua[:, i])
            assert op.b == pytest.approx(1 / 103, abs=TOL)
            assert op.d == pytest.approx(1 / 103, abs=TOL)
            assert op.u == pytest.approx(101 / 103, abs=TOL)
            assert op.a == 0.5
            assert state.role[i] == Role.LEGITIMATE.value
            assert not state.frozen[i]

    def test_urv_scale(self):
        state = init_population(1133, rng_seed=7)
        assert state.n == 1133
        assert state.bdua.shape == (4, 1133)
        assert state.p_read.shape == state.p_share.shape == (1133,)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            init_population(0, rng_seed=0)

    def test_invalid_prior_rejected(self):
        for prior in (1.2, -0.1, float("nan")):
            with pytest.raises(ValueError):
                init_population(5, rng_seed=0, prior_a=prior)

    def test_behavior_levels_from_four_level_set(self):
        state = init_population(500, rng_seed=3)
        assert set(np.unique(state.p_read)) <= set(BEHAVIOR_LEVELS)
        assert set(np.unique(state.p_share)) <= set(BEHAVIOR_LEVELS)

    def test_reproducible(self):
        s1 = init_population(50, rng_seed=11)
        s2 = init_population(50, rng_seed=11)
        assert np.array_equal(s1.p_read, s2.p_read)
        assert np.array_equal(s1.p_share, s2.p_share)

    def test_custom_prior(self):
        state = init_population(4, rng_seed=0, prior_a=0.9)
        assert np.all(state.a == 0.9)

    def test_arrays_share_no_memory(self):
        state = init_population(5, rng_seed=0)
        arrays = [state.bdua, state.p_read, state.p_share, state.role, state.frozen]
        for x, y in itertools.combinations(arrays, 2):
            assert not np.shares_memory(x, y)
        state.u[1] = 0.25
        assert state.u.tolist() == [101 / 103, 0.25, 101 / 103, 101 / 103, 101 / 103]


class TestPromoteSeed:
    def test_true_party_promotion(self):
        state = init_population(10, rng_seed=0)
        promote_seed(state, 5, Party.TRUE_PARTY)
        op = Opinion(*state.bdua[:, 5])
        assert op.b == pytest.approx(100 / 103, abs=TOL)
        assert op.d == pytest.approx(1 / 103, abs=TOL)
        assert op.u == pytest.approx(2 / 103, abs=TOL)
        assert op.a == 1.0
        assert state.role[5] == Role.TIP_SEED.value
        assert state.frozen[5]

    def test_false_party_promotion(self):
        state = init_population(10, rng_seed=0)
        before = copy.deepcopy(state)
        promote_seed(state, 7, Party.FALSE_PARTY)
        op = Opinion(*state.bdua[:, 7])
        assert op.b == pytest.approx(1 / 103, abs=TOL)
        assert op.d == pytest.approx(100 / 103, abs=TOL)
        assert op.u == pytest.approx(2 / 103, abs=TOL)
        assert op.a == 0.0
        others = np.arange(10) != 7
        for name in ("bdua", "p_read", "p_share", "role", "frozen"):
            assert np.array_equal(getattr(state, name)[..., others],
                                  getattr(before, name)[..., others]), name

    def test_double_promotion_rejected(self):
        state = init_population(10, rng_seed=0)
        promote_seed(state, 2, Party.TRUE_PARTY)
        with pytest.raises(ValueError):
            promote_seed(state, 2, Party.TRUE_PARTY)
        with pytest.raises(ValueError):
            promote_seed(state, 2, Party.FALSE_PARTY)

    def test_seed_ids(self):
        state = init_population(10, rng_seed=0)
        promote_seed(state, 4, Party.TRUE_PARTY)
        promote_seed(state, 1, Party.FALSE_PARTY)
        promote_seed(state, 9, Party.TRUE_PARTY)
        assert state.seed_ids(Party.TRUE_PARTY).tolist() == [4, 9]
        assert state.seed_ids(Party.FALSE_PARTY).tolist() == [1]


def single_user_counts(op: Opinion) -> tuple[int, int]:
    """influence_counts of a one-user population holding op."""
    state = init_population(1, rng_seed=0)
    state.bdua[:, 0] = op
    return influence_counts(state)


class TestClassify:
    def test_fresh_user_is_true_on_boundary(self):
        op = Opinion(1 / 103, 1 / 103, 101 / 103, 0.5)
        assert project(op)[0] == pytest.approx(0.5, abs=TOL)
        assert single_user_counts(op) == (1, 0)

    def test_tip_opinion(self):
        assert single_user_counts(Opinion(100 / 103, 1 / 103, 2 / 103, 1.0)) == (1, 0)

    def test_fip_opinion(self):
        assert single_user_counts(Opinion(1 / 103, 100 / 103, 2 / 103, 0.0)) == (0, 1)

    def test_partition(self):
        rng = np.random.default_rng(0)
        state = init_population(200, rng_seed=0)
        b, d, _ = rng.dirichlet([1, 1, 1], size=200).T
        state.b[:], state.d[:] = b, d
        state.u[:] = np.maximum(0.0, 1 - b - d)
        state.a[:] = rng.random(200)
        pb, _ = state.projected()
        n_true, n_false = influence_counts(state)
        assert n_true == np.count_nonzero(pb >= 0.5)
        assert n_true + n_false == 200


class TestInfluenceCounts:
    def test_fresh_population_counts_true_by_convention(self):
        state = init_population(10, rng_seed=0)
        assert influence_counts(state) == (10, 0)

    def test_two_tips_two_fips(self):
        state = init_population(4, rng_seed=0)
        promote_seed(state, 0, Party.TRUE_PARTY)
        promote_seed(state, 1, Party.TRUE_PARTY)
        promote_seed(state, 2, Party.FALSE_PARTY)
        promote_seed(state, 3, Party.FALSE_PARTY)
        assert influence_counts(state) == (2, 2)

    def test_counts_sum_to_population(self):
        state = init_population(30, rng_seed=1)
        for i in range(0, 10, 2):
            promote_seed(state, i, Party.FALSE_PARTY)
        n_t, n_f = influence_counts(state)
        assert n_t + n_f == 30

    def test_decided_counts_ignore_fresh_users(self):
        state = init_population(10, rng_seed=0)
        assert decided_influence_counts(state).tolist() == [[0, 0]]
        promote_seed(state, 0, Party.TRUE_PARTY)
        promote_seed(state, 1, Party.FALSE_PARTY)
        assert decided_influence_counts(state).tolist() == [[1, 1]]


class TestFreeNodes:
    def test_fresh_population_all_free(self):
        state = init_population(6, rng_seed=0)
        assert free_mask(state).all()

    def test_all_dogmatic_population_none_free(self):
        state = init_population(4, rng_seed=0)
        state.u[:] = 0.0
        state.b[:] = 1.0
        assert not free_mask(state).any()

    def test_threshold_boundary(self):
        state = init_population(3, rng_seed=0)
        state.u[0], state.b[0] = 0.6, 0.4
        state.u[1], state.b[1] = 0.4, 0.6
        state.u[2], state.b[2] = 0.5, 0.5
        assert free_mask(state).tolist() == [True, False, True]

    def test_seeds_are_not_free(self):
        state = init_population(5, rng_seed=0)
        promote_seed(state, 3, Party.TRUE_PARTY)
        assert not free_mask(state)[3]


def most_active(state, candidates: list[int]) -> int | None:
    """The AF strategy's pick from a candidate pool."""
    pool = np.zeros(state.n, dtype=bool)
    pool[candidates] = True
    view = [full_view(Graph(state.n, []))]
    got = int(select_seed([StrategyKind.AF], Party.TRUE_PARTY, state, view, pool)[0])
    return None if got < 0 else got


class TestMostActiveUser:
    def test_picks_highest_product(self):
        state = init_population(3, rng_seed=0)
        state.p_read[:] = [0.5, 1.0, 0.25]
        state.p_share[:] = [0.5, 1.0, 0.4]
        assert most_active(state, [0, 1, 2]) == 1

    def test_tie_breaks_to_lowest_id(self):
        state = init_population(3, rng_seed=0)
        state.p_read[:] = [0.1, 0.5, 0.5]
        state.p_share[:] = [0.1, 1.0, 1.0]
        assert most_active(state, [1, 2]) == 1

    def test_single_candidate(self):
        state = init_population(3, rng_seed=0)
        assert most_active(state, [2]) == 2

    def test_empty_candidates_rejected(self):
        state = init_population(3, rng_seed=0)
        assert most_active(state, []) is None


class TestSnapshot:
    def test_seed_opinion_immutable_after_promotion(self):
        state = init_population(3, rng_seed=0)
        promote_seed(state, 0, Party.TRUE_PARTY)
        before = Opinion(*state.bdua[:, 0])
        # downstream code must check the latch; verify it is set
        assert state.frozen[0]
        assert Opinion(*state.bdua[:, 0]) == before
