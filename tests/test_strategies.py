"""Strategy selection rules and action spaces.

Oracle for the scorer: `reference_select.select_seed`, the numpy scorer
that `wave.c`'s `drim_select_seeds` replaced, must pick the same users
on stacked batches of random graphs, opinions, pools and kinds.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
import reference_select
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from drim import population
from drim.network import Graph, full_view, mask_network
from drim.opinion import NOM
from drim.population import (
    BEHAVIOR_LEVELS,
    Party,
    Role,
    init_population,
    promote_seed,
    stack_populations,
)
from drim.propagation import EpisodeConfig, run_episode
from drim.strategies import (
    FixedStrategyAgent,
    RandomStrategyAgent,
    Scheme,
    StrategyKind,
    action_space,
    make_heuristic_agent,
    select_seed,
)


def pick(kind, party, state, g, pool_mask=None) -> int | None:
    """`select_seed` for one replica: its pick, or None for no candidate."""
    got = int(select_seed([kind], party, state, [g], pool_mask)[0])
    return None if got < 0 else got


def star(leaves=4):
    return full_view(Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)]))


def path(n):
    return full_view(Graph(n, [(i, i + 1) for i in range(n - 1)]))


class TestActionSpace:
    def test_drim_a_has_four_actions(self):
        assert action_space(Scheme.DRIM_A) == (
            StrategyKind.AF,
            StrategyKind.BF,
            StrategyKind.SGF,
            StrategyKind.CF,
        )

    def test_drim_na_excludes_af(self):
        space = action_space(Scheme.DRIM_NA)
        assert len(space) == 3
        assert StrategyKind.AF not in space

    def test_storm_variants_have_two_actions(self):
        assert action_space(Scheme.STORM) == (StrategyKind.CF, StrategyKind.BF)
        assert action_space(Scheme.C_STORM) == (StrategyKind.CF, StrategyKind.BF)

    def test_index_zero_of_drim_a_is_af(self):
        assert action_space(Scheme.DRIM_A)[0] is StrategyKind.AF


class TestCentralityFirst:
    def test_star_center(self):
        g = star(4)
        state = init_population(5, rng_seed=0)
        assert pick(StrategyKind.CF, Party.TRUE_PARTY, state, g) == 0

    def test_excludes_seeds(self):
        g = star(4)
        state = init_population(5, rng_seed=0)
        promote_seed(state, 0, Party.FALSE_PARTY)
        got = pick(StrategyKind.CF, Party.TRUE_PARTY, state, g)
        assert got != 0

    def test_tie_breaks_to_lowest_id(self):
        g = path(4)  # degrees 1,2,2,1
        state = init_population(4, rng_seed=0)
        assert pick(StrategyKind.CF, Party.TRUE_PARTY, state, g) == 1


class TestSubgreedyFirst:
    def test_path_center(self):
        g = path(5)  # within-2 counts: 2,3,4,3,2
        state = init_population(5, rng_seed=0)
        assert pick(StrategyKind.SGF, Party.TRUE_PARTY, state, g) == 2


class TestActiveFirst:
    def test_picks_highest_activity_product(self):
        g = path(3)
        state = init_population(3, rng_seed=0)
        state.p_read[:] = [0.5, 1.0, 0.25]
        state.p_share[:] = [0.5, 1.0, 0.4]
        assert pick(StrategyKind.AF, Party.TRUE_PARTY, state, g) == 1


class TestBlockingFirst:
    def test_star_leaves_tie_to_lowest(self):
        g = star(4)
        state = init_population(5, rng_seed=0)
        state.p_read[:] = 1.0
        state.p_share[:] = 1.0
        promote_seed(state, 0, Party.FALSE_PARTY)  # opponent center
        got = pick(StrategyKind.BF, Party.TRUE_PARTY, state, g)
        assert got == 1  # all leaves have free degree 0; lowest id wins

    def test_no_opponent_signals_fallback(self):
        g = star(4)
        state = init_population(5, rng_seed=0)
        assert pick(StrategyKind.BF, Party.TRUE_PARTY, state, g) is None

    def test_candidate_with_most_free_neighbors(self):
        # 0 (FIP) - 1 - {2,3}; 4 (pendant of 0)
        g = full_view(Graph(5, [(0, 1), (1, 2), (1, 3), (0, 4)]))
        state = init_population(5, rng_seed=0)
        promote_seed(state, 0, Party.FALSE_PARTY)
        got = pick(StrategyKind.BF, Party.TRUE_PARTY, state, g)
        assert got == 1  # 1 has two free neighbors; 4 has none

    def test_false_party_blocks_true_aligned(self):
        g = path(3)
        state = init_population(3, rng_seed=0)
        promote_seed(state, 0, Party.TRUE_PARTY)
        got = pick(StrategyKind.BF, Party.FALSE_PARTY, state, g)
        assert got == 1


# (b, d, u) of users swayed before the step: decided true, decided false,
# and free but leaning true or false.
SWAYED = [(0.8, 0.1, 0.1), (0.1, 0.8, 0.1), (0.3, 0.1, 0.6), (0.1, 0.3, 0.6)]


@st.composite
def stacked_cases(draw):
    """R replicas of n users, each on its own view, with seeds of either
    party, swayed users, users with p_read · p_share = 0, and optionally
    a candidate pool over all R·n users."""
    replicas = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=2, max_value=10))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    users = st.lists(st.integers(0, n - 1), max_size=n, unique=True)
    states, views = [], []
    for _ in range(replicas):
        views.append(Graph(n, draw(st.lists(pairs, max_size=2 * n))))
        state = init_population(n, draw(st.integers(min_value=0, max_value=2**32 - 1)))
        for user in draw(users):
            state.b[user], state.d[user], state.u[user] = draw(st.sampled_from(SWAYED))
        state.p_read[draw(users)] = 0.0
        for user in draw(users):
            promote_seed(state, user, draw(st.sampled_from(list(Party))))
        states.append(state)
    pool = draw(st.none() | st.lists(st.booleans(), min_size=replicas * n,
                                     max_size=replicas * n).map(np.array))
    return stack_populations(states), views, pool


class TestMissesOnlyWithoutEligibleUsers:
    """The two-step miss chain of `Episode.resolve_seed` rests on these."""

    @given(stacked_cases(), st.sampled_from(list(Party)))
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_only_bf_misses_with_eligible_users_and_sgf_then_hits(self, case, party):
        state, views, pool = case
        eligible = state.role == Role.LEGITIMATE.value
        if pool is not None:
            eligible = eligible & pool
        has_eligible = eligible.reshape(len(views), -1).any(axis=1)

        def picks(kind):
            return select_seed([kind] * len(views), party, state, views, pool)

        for kind in (StrategyKind.AF, StrategyKind.SGF, StrategyKind.CF):
            assert ((picks(kind) < 0) == ~has_eligible).all(), kind
        bf_missed = picks(StrategyKind.BF) < 0
        assert (picks(StrategyKind.SGF)[bf_missed & has_eligible] >= 0).all()


# (b, d, u, a) of users on the rules' boundaries: P(b) = b + a·u exactly
# 0.5 (so 1 - P(b) is 0.5 too), u exactly 0.5 (free), or both.
BOUNDARY = [(0.25, 0.25, 0.5, 0.5), (0.5, 0.5, 0.0, 0.5), (0.3, 0.2, 0.5, 0.4),
            (0.5, 0.0, 0.5, 0.0), (0.0, 0.0, 1.0, 0.5)]


@st.composite
def scoring_cases(draw):
    """R replicas of one base graph with isolated users, each planning on
    its own masked view (or the graph itself), with random and boundary
    opinions, tied behaviour levels, seeds of both parties, a kind per
    replica and a pool that may be empty."""
    replicas = draw(st.integers(min_value=1, max_value=4))
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    base = Graph(n, draw(st.lists(pairs, max_size=4 * n)))
    unit = st.floats(min_value=0.0, max_value=1.0)
    level = st.sampled_from(BEHAVIOR_LEVELS) | unit
    states, views = [], []
    for _ in range(replicas):
        p_nv = draw(st.sampled_from([1.0, 0.5, 0.8]))
        views.append(mask_network(base, p_nv, draw(st.integers(0, 2**32 - 1))))
        state = init_population(n, draw(st.integers(min_value=0, max_value=2**32 - 1)))
        for user in range(n):
            if draw(st.booleans()):
                opinion = draw(st.sampled_from(BOUNDARY))
            else:
                b, d, u = draw(unit), draw(unit), draw(unit)
                total = b + d + u or 1.0
                opinion = (b / total, d / total, u / total, draw(unit))
            state.bdua[:, user] = opinion
            state.p_read[user], state.p_share[user] = draw(level), draw(level)
        for user in draw(st.lists(st.integers(0, n - 1), max_size=n // 2, unique=True)):
            promote_seed(state, user, draw(st.sampled_from(list(Party))))
        states.append(state)
    kinds = draw(st.lists(st.sampled_from(list(StrategyKind)), min_size=replicas,
                          max_size=replicas))
    size = replicas * n
    pool = draw(st.sampled_from(["none", "random", "random", "empty"]))
    if pool == "none":
        pool = None
    elif pool == "empty":
        pool = np.zeros(size, dtype=bool)
    else:
        pool = np.array(draw(st.lists(st.booleans(), min_size=size, max_size=size)), dtype=bool)
    return stack_populations(states), views, kinds, pool


class TestScorerAgainstNumpy:
    @given(scoring_cases(), st.sampled_from(list(Party)), st.sampled_from([0.5, 0.3, 0.9]))
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_picks_match_the_numpy_scorer(self, case, party, threshold):
        # BF reads the free-vacuity threshold when called, as free_mask does.
        state, views, kinds, pool = case
        with mock.patch.object(population, "FREE_VACUITY_THRESHOLD", threshold):
            got = select_seed(kinds, party, state, views, pool).tolist()
            want = reference_select.select_seed(kinds, party, state, views, pool).tolist()
        assert got == want

    @pytest.mark.parametrize("party", list(Party))
    def test_ties_and_both_projection_boundaries(self, party):
        # 0 - 1 - 2 - 3 - 4 - 5: users 1 and 4 lean to either side by
        # exactly 0.5, which is no lean; 0 and 5 lean strictly, so BF's
        # candidates are 1 (for a true opponent at 0) or 4 (false at 5).
        g = path(6)
        state = init_population(6, rng_seed=0)
        state.bdua[:, 0] = (0.9, 0.0, 0.1, 0.5)
        state.bdua[:, 5] = (0.0, 0.9, 0.1, 0.5)
        state.bdua[:, 1] = state.bdua[:, 4] = (0.25, 0.25, 0.5, 0.5)
        state.p_read[:] = state.p_share[:] = 0.5
        kinds = list(StrategyKind)
        views = [g] * len(kinds)
        stacked = stack_populations([state] + [init_population(6, 0) for _ in kinds[1:]])
        for r in range(1, len(kinds)):
            stacked.bdua[:, r * 6:(r + 1) * 6] = stacked.bdua[:, :6]
            stacked.p_read[r * 6:(r + 1) * 6] = stacked.p_share[r * 6:(r + 1) * 6] = 0.5
        got = select_seed(kinds, party, stacked, views).tolist()
        assert got == reference_select.select_seed(kinds, party, stacked, views).tolist()
        blocker = 1 if party is Party.FALSE_PARTY else 4
        assert got == [0, blocker, 2, 1]  # AF ties to 0, SGF to 2 and CF to 1


class TestBlockingAtTheFreeThreshold:
    @pytest.mark.parametrize("threshold", [0.5, 0.3, 0.9])
    @pytest.mark.parametrize("party", list(Party))
    def test_a_neighbour_at_exactly_the_threshold_is_free(self, party, threshold, monkeypatch):
        # 2 leans to the opponent, so 0 and 1 are BF's candidates. 1's
        # other neighbour 3 has u at exactly the threshold, which is free;
        # 0's other neighbour 4 has u just below it, which is not. BF
        # reads the threshold when called.
        monkeypatch.setattr(population, "FREE_VACUITY_THRESHOLD", threshold)
        g = Graph(5, [(0, 2), (1, 2), (1, 3), (0, 4)])
        state = init_population(5, rng_seed=0)
        lean = (0.9, 0.0) if party is Party.FALSE_PARTY else (0.0, 0.9)  # the opponent's side
        state.bdua[:, 2] = (*lean, 0.1, 0.5)
        for user, u in ((3, threshold), (4, threshold - 0.01)):
            state.bdua[:, user] = ((1.0 - u) / 2, (1.0 - u) / 2, u, 0.5)
        assert pick(StrategyKind.BF, party, state, g) == 1


class TestBindingChecks:
    """Every mismatch is refused before C reads anything."""

    def test_fewer_kinds_than_views(self):
        g = path(6)
        state = stack_populations([init_population(6, 1), init_population(6, 2)])
        with pytest.raises(ValueError, match="1 strategies and a state of 12 users do not match"):
            select_seed([StrategyKind.CF], Party.TRUE_PARTY, state, [g, g])

    def test_state_of_another_size(self):
        with pytest.raises(ValueError, match=r"state of 5 users do not match 2 views of \[5\]"):
            select_seed([StrategyKind.CF] * 2, Party.TRUE_PARTY, init_population(5, 0),
                        [path(5), path(5)])

    def test_views_of_differing_sizes(self):
        state = init_population(10, 0)
        with pytest.raises(ValueError, match=r"do not match 2 views of \[5, 6\] users"):
            select_seed([StrategyKind.CF] * 2, Party.TRUE_PARTY, state, [path(5), path(6)])

    @pytest.mark.parametrize("pool", [np.ones(5, dtype=np.int8), np.ones(4, dtype=bool),
                                      [True] * 5, np.ones((1, 5), dtype=bool)])
    def test_pool_not_a_bool_array_of_every_user(self, pool):
        with pytest.raises(ValueError, match="pool_mask must be a .*5 entries"):
            select_seed([StrategyKind.CF], Party.TRUE_PARTY, init_population(5, 0), [path(5)],
                        pool)

    def test_array_of_another_dtype_or_layout(self):
        state = init_population(5, 0)
        state.p_read = state.p_read.astype(np.float32)
        with pytest.raises(TypeError, match="p_read must be a numpy float64 array"):
            select_seed([StrategyKind.AF], Party.TRUE_PARTY, state, [path(5)])
        state = init_population(5, 0)
        with pytest.raises(ValueError, match="pool_mask must be a C-contiguous"):
            select_seed([StrategyKind.AF], Party.TRUE_PARTY, state, [path(5)],
                        np.ones(10, dtype=bool)[::2])


class TestRandomMetaStrategy:
    def test_frequencies_uniform_over_action_set(self):
        agent = RandomStrategyAgent()

        class FakeEpisode:
            rng = np.random.default_rng(123)

        draws = [agent.select([FakeEpisode()])[0] for _ in range(4000)]
        counts = {k: draws.count(k) for k in action_space(Scheme.DRIM_A)}
        assert sum(counts.values()) == 4000
        expected = 1000
        sigma = np.sqrt(4000 * (1 / 4) * (3 / 4))
        for k, c in counts.items():
            assert abs(c - expected) <= 3 * sigma, f"{k}: {c}"

    def test_random_delegates_to_concrete_rule(self):
        # the false party moves first, so the random agent plays it here;
        # BF has nothing to block on the first move, so it logs its SGF fallback
        fired = set()
        for seed in range(12):
            cfg = EpisodeConfig(k=1, opinion_model=NOM, rng_seed=seed)
            ep = run_episode(star(4), cfg, FixedStrategyAgent(StrategyKind.AF),
                             RandomStrategyAgent())
            entry = ep.logs[0]
            assert entry.strategy in ("af", "sgf", "cf")
            if entry.strategy != "af":
                assert entry.seed == 0  # SGF and CF on a star pick the center
            fired.add(entry.strategy)
        assert len(fired) > 1

class TestSelectionContracts:
    def test_never_returns_existing_seed(self):
        g = full_view(Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]))
        state = init_population(6, rng_seed=0)
        promote_seed(state, 1, Party.TRUE_PARTY)
        promote_seed(state, 2, Party.FALSE_PARTY)
        for kind in (StrategyKind.AF, StrategyKind.BF, StrategyKind.SGF, StrategyKind.CF):
            got = pick(kind, Party.TRUE_PARTY, state, g)
            assert got not in (1, 2)

    def test_deterministic_given_fixed_inputs(self):
        g = star(6)
        state = init_population(7, rng_seed=1)
        a = pick(StrategyKind.SGF, Party.TRUE_PARTY, state, g)
        b = pick(StrategyKind.SGF, Party.TRUE_PARTY, state, g)
        assert a == b

    def test_pool_mask_restricts_candidates(self):
        g = star(4)
        state = init_population(5, rng_seed=0)
        pool = np.array([False, True, True, False, False])
        got = pick(StrategyKind.CF, Party.TRUE_PARTY, state, g, pool_mask=pool)
        assert got == 1

    def test_exhausted_pool_returns_none(self):
        g = star(4)
        state = init_population(5, rng_seed=0)
        pool = np.zeros(5, dtype=bool)
        assert pick(StrategyKind.CF, Party.TRUE_PARTY, state, g, pool_mask=pool) is None


class TestAgentFactories:
    def test_fixed_agent_kinds(self):
        assert make_heuristic_agent("cf").kind is StrategyKind.CF
        assert make_heuristic_agent("sgf").kind is StrategyKind.SGF

    def test_fixed_agent_rejects_random_kind(self):
        # random is a per-step draw over concrete kinds, not a kind itself
        with pytest.raises(ValueError):
            FixedStrategyAgent(StrategyKind("random"))
        assert isinstance(make_heuristic_agent("random"), RandomStrategyAgent)
