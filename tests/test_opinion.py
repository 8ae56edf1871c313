"""Subjective-logic algebra tests.

Independent oracles used here:
  - evidence additivity: fusing two opinions built from evidence with the
    same prior weight W under full trust must equal the opinion built from
    the pooled evidence counts;
  - dissonance identity: (b+d)·Bal(b,d) simplifies to 2·min(b, d);
  - projection preservation: vacuity maximization never changes P(b), P(d).
"""

from __future__ import annotations

import math

import numpy as np
import pytest
import reference_wave as ref
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_wave import SIMPLEX_TOL

from drim.opinion import (
    HOM,
    NOM,
    UOM,
    Evidence,
    Opinion,
    TrustModel,
    TrustVariant,
    apply_uom_refresh,
    dissonance,
    fuse,
    opinion_from_evidence,
    project,
    trust_coefficient,
    vacuity_maximize,
)

TOL = 1e-9


def assert_valid(op: Opinion, msg: str = "") -> None:
    prefix = f"{msg}: " if msg else ""
    for name, x in zip("bdua", op):
        assert -TOL <= x <= 1.0 + TOL, f"{prefix}{name}={x} outside [0, 1]"
    assert abs(op.b + op.d + op.u - 1.0) < TOL, f"{prefix}simplex sum violated"


@st.composite
def opinions(draw, base_rate=None):
    """Valid opinions: draw b, then d <= 1 - b, set u = 1 - b - d."""
    b = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    d = draw(st.floats(min_value=0.0, max_value=1.0 - b, allow_nan=False))
    u = max(0.0, 1.0 - b - d)
    a = base_rate if base_rate is not None else draw(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    )
    return Opinion(b, d, u, a)


class TestOpinionFromEvidence:
    def test_legitimate_user_initialization(self):
        op = opinion_from_evidence(Evidence(1, 1, 101), 0.5)
        assert op.b == pytest.approx(1 / 103, abs=TOL)
        assert op.d == pytest.approx(1 / 103, abs=TOL)
        assert op.u == pytest.approx(101 / 103, abs=TOL)
        assert op.a == 0.5
        assert_valid(op)

    def test_true_propagator_initialization(self):
        op = opinion_from_evidence(Evidence(100, 1, 2), 1.0)
        assert op.b == pytest.approx(100 / 103, abs=TOL)
        assert op.d == pytest.approx(1 / 103, abs=TOL)
        assert op.u == pytest.approx(2 / 103, abs=TOL)
        assert op.a == 1.0

    def test_no_evidence_is_vacuous(self):
        op = opinion_from_evidence(Evidence(0, 0, 1), 0.5)
        assert op == Opinion(0.0, 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("ev", [Evidence(1, 1, 0), Evidence(1, 1, -2)])
    def test_rejects_nonpositive_prior_weight(self, ev):
        with pytest.raises(ValueError):
            opinion_from_evidence(ev, 0.5)

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            opinion_from_evidence(Evidence(-1, 0, 2), 0.5)

    def test_rejects_bad_base_rate(self):
        with pytest.raises(ValueError):
            opinion_from_evidence(Evidence(1, 1, 2), 1.5)


class TestProject:
    def test_direct_substitution(self):
        pb, pd = project(Opinion(0.2, 0.3, 0.5, 0.6))
        assert pb == pytest.approx(0.5, abs=TOL)
        assert pd == pytest.approx(0.5, abs=TOL)

    def test_certainty(self):
        assert project(Opinion(1.0, 0.0, 0.0, 1.0)) == (1.0, 0.0)

    def test_pure_vacuity_collapses_to_base_rate(self):
        pb, pd = project(Opinion(0.0, 0.0, 1.0, 0.25))
        assert pb == pytest.approx(0.25)
        assert pd == pytest.approx(0.75)

    @given(opinions())
    @settings(max_examples=300)
    def test_projection_sums_to_one(self, op):
        pb, pd = project(op)
        assert abs(pb + pd - 1.0) < TOL


class TestDissonance:
    def test_balanced_masses(self):
        assert dissonance(Opinion(0.4, 0.4, 0.2, 0.5)) == pytest.approx(0.8, abs=TOL)

    def test_one_sided_evidence(self):
        assert dissonance(Opinion(0.4, 0.0, 0.6, 0.5)) == 0.0

    def test_vacuous_opinion(self):
        assert dissonance(Opinion(0.0, 0.0, 1.0, 0.5)) == 0.0

    @given(opinions())
    @settings(max_examples=300)
    def test_matches_two_min_identity_and_range(self, op):
        # (b+d)·(1 - |b-d|/(b+d)) = (b+d) - |b-d| = 2·min(b, d)
        diss = dissonance(op)
        assert diss == pytest.approx(2.0 * min(op.b, op.d), abs=TOL)
        assert -TOL <= diss <= 1.0 + TOL


class TestTrustCoefficient:
    def test_uom_direct(self):
        got = trust_coefficient(UOM, Opinion(0.3, 0.2, 0.5, 0.5), Opinion(0.1, 0.4, 0.5, 0.5))
        assert got == pytest.approx(0.25, abs=TOL)

    def test_hom_identical_vectors(self):
        op = Opinion(0.7, 0.1, 0.2, 0.5)
        assert trust_coefficient(HOM, op, op) == pytest.approx(1.0, abs=TOL)

    def test_hom_orthogonal_vectors(self):
        got = trust_coefficient(HOM, Opinion(1, 0, 0, 0.5), Opinion(0, 1, 0, 0.5))
        assert got == pytest.approx(0.0, abs=TOL)

    def test_hom_zero_vector_convention(self):
        vac = Opinion(0.0, 0.0, 1.0, 0.5)
        assert trust_coefficient(HOM, vac, Opinion(0.5, 0.1, 0.4, 0.5)) == 0.0

    def test_nom_is_one(self):
        assert trust_coefficient(NOM, Opinion(0, 0, 1, 0.5), Opinion(1, 0, 0, 0.5)) == 1.0

    @given(opinions(), opinions())
    @settings(max_examples=200)
    def test_symmetric_and_bounded(self, op_i, op_j):
        for model in (UOM, HOM, NOM):
            c_ij = trust_coefficient(model, op_i, op_j)
            c_ji = trust_coefficient(model, op_j, op_i)
            assert c_ij == pytest.approx(c_ji, abs=TOL)
            assert -TOL <= c_ij <= 1.0 + TOL


class TestFuse:
    def test_vacuous_sender_changes_nothing(self):
        op_i = Opinion(0.3, 0.25, 0.45, 0.7)
        got = fuse(op_i, Opinion(0.0, 0.0, 1.0, 0.2), 0.8)
        assert got.b == pytest.approx(op_i.b, abs=TOL)
        assert got.d == pytest.approx(op_i.d, abs=TOL)
        assert got.u == pytest.approx(op_i.u, abs=TOL)

    def test_evidence_additivity_oracle(self):
        # Full-trust fusion pools evidence when both opinions share one W.
        W = 2.0
        op_i = opinion_from_evidence(Evidence(2, 1, W), 0.5)
        op_j = opinion_from_evidence(Evidence(1, 3, W), 0.5)
        pooled = opinion_from_evidence(Evidence(3, 4, W), 0.5)
        got = fuse(op_i, op_j, 1.0)
        assert got.b == pytest.approx(pooled.b, abs=TOL)
        assert got.d == pytest.approx(pooled.d, abs=TOL)
        assert got.u == pytest.approx(pooled.u, abs=TOL)

    def test_fuse_equals_fuse_of_discounted_at_full_trust(self):
        op_i = Opinion(0.5, 0.1, 0.4, 0.6)
        op_j = Opinion(0.2, 0.3, 0.5, 0.4)
        c = 0.37
        via_discount = fuse(op_i, ref.discount(op_j, c), 1.0)
        direct = fuse(op_i, op_j, c)
        for x, y in zip(direct, via_discount):
            assert x == pytest.approx(y, abs=TOL)

    def test_degenerate_dogmatic_pair_raises(self):
        dog_i = Opinion(1.0, 0.0, 0.0, 0.5)
        dog_j = Opinion(0.0, 1.0, 0.0, 0.5)
        with pytest.raises(ValueError):
            fuse(dog_i, dog_j, 1.0)

    def test_dogmatic_pair_with_partial_trust_is_fine(self):
        got = fuse(Opinion(1, 0, 0, 0.5), Opinion(0, 1, 0, 0.5), 0.5)
        assert_valid(got)

    def test_fully_vacuous_pair_keeps_receiver_base_rate(self):
        got = fuse(Opinion(0, 0, 1, 0.3), Opinion(0, 0, 1, 0.9), 1.0)
        assert got.a == pytest.approx(0.3)

    @given(opinions(), opinions(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    @settings(max_examples=500)
    def test_simplex_and_vacuity_monotonicity(self, op_i, op_j, c):
        if (1.0 - c * (1.0 - op_i.u) * (1.0 - op_j.u)) <= 1e-12:
            return
        got = fuse(op_i, op_j, c)
        assert_valid(got)
        assert got.u <= op_i.u + TOL


class TestVacuityMaximize:
    def test_interior_case(self):
        got = vacuity_maximize(Opinion(0.4, 0.2, 0.4, 0.5))
        assert got.u == pytest.approx(0.8, abs=TOL)
        assert got.b == pytest.approx(0.2, abs=TOL)
        assert got.d == pytest.approx(0.0, abs=TOL)

    def test_already_maximal_is_fixed_point(self):
        op = Opinion(0.2, 0.0, 0.8, 0.5)
        got = vacuity_maximize(op)
        for x, y in zip(got, op):
            assert x == pytest.approx(y, abs=TOL)

    def test_symmetric_dogmatic_goes_fully_vacuous(self):
        assert vacuity_maximize(Opinion(0.5, 0.5, 0.0, 0.5)) == Opinion(0.0, 0.0, 1.0, 0.5)

    def test_boundary_base_rates(self):
        got0 = vacuity_maximize(Opinion(0.3, 0.2, 0.5, 0.0))
        assert_valid(got0)
        assert got0.u == pytest.approx(0.7, abs=TOL)  # P(d) at a=0
        got1 = vacuity_maximize(Opinion(0.3, 0.2, 0.5, 1.0))
        assert_valid(got1)
        assert got1.u == pytest.approx(0.8, abs=TOL)  # P(b) at a=1

    @given(opinions())
    @settings(max_examples=500)
    def test_projection_preserved_and_one_side_zeroed(self, op):
        got = vacuity_maximize(op)
        assert_valid(got)
        pb0, pd0 = project(op)
        pb1, pd1 = project(got)
        assert pb1 == pytest.approx(pb0, abs=TOL)
        assert pd1 == pytest.approx(pd0, abs=TOL)
        assert min(got.b, got.d) == pytest.approx(0.0, abs=TOL)
        assert got.u >= op.u - TOL

    @pytest.mark.parametrize("a", [5e-324, 1e-310, 0.0])
    def test_subnormal_base_rate_keeps_vacuity(self, a):
        # P(b) = a·u underflows to 0 at a subnormal base rate; the result
        # must still be the boundary maximum, not u = 0.
        op = Opinion(0.0, 0.5, 0.5, a)
        got = vacuity_maximize(op)
        assert_valid(got)
        assert got.u >= op.u
        assert got.d == 0.0 and got.u == pytest.approx(1.0, abs=TOL)
        assert project(got)[0] == pytest.approx(project(op)[0], abs=TOL)


class TestUomRefresh:
    def test_fires_on_low_vacuity_high_dissonance(self):
        op = Opinion(0.49, 0.505, 0.005, 0.5)
        assert dissonance(op) > 0.6 and op.u < 0.01
        got = apply_uom_refresh(op, UOM)
        assert got != op
        pb0, pd0 = project(op)
        pb1, pd1 = project(got)
        assert pb1 == pytest.approx(pb0, abs=TOL)
        assert pd1 == pytest.approx(pd0, abs=TOL)

    def test_low_dissonance_untouched(self):
        op = Opinion(0.99, 0.005, 0.005, 0.5)
        assert apply_uom_refresh(op, UOM) == op

    def test_high_vacuity_untouched(self):
        op = Opinion(0.3, 0.3, 0.4, 0.5)
        assert apply_uom_refresh(op, UOM) == op

    def test_non_uom_variant_is_noop(self):
        op = Opinion(0.49, 0.505, 0.005, 0.5)
        assert apply_uom_refresh(op, NOM) == op
        assert apply_uom_refresh(op, HOM) == op


class TestTrustModelConfig:
    def test_defaults(self):
        assert UOM.xi == 0.01 and UOM.t_d == 0.6 and UOM.t_u == 0.01

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            TrustModel(TrustVariant.UOM, xi=1.5)

    def test_configurable(self):
        m = TrustModel(TrustVariant.UOM, xi=0.05, t_d=0.4, t_u=0.02)
        assert m.xi == 0.05 and m.t_d == 0.4 and m.t_u == 0.02


# ----------------------------------------------------------------------
# The operators over arrays. Oracles: elementwise application to 0-d
# inputs (the array form must match it bit for bit) and the scalar
# operators the array form replaced (`reference_wave`).


@st.composite
def opinion_arrays(draw, min_size=1, max_size=24):
    """An Opinion of equal-length float arrays, edge cases mixed in."""
    edge = st.sampled_from([
        Opinion(1.0, 0.0, 0.0, 0.5), Opinion(0.0, 1.0, 0.0, 0.5), Opinion(0.0, 0.0, 1.0, 0.5),
        Opinion(0.5, 0.5, 0.0, 0.5), Opinion(0.49, 0.505, 0.005, 0.5),
        Opinion(0.3, 0.2, 0.5, 0.0), Opinion(0.3, 0.2, 0.5, 1.0),
    ])
    ops = draw(st.lists(st.one_of(opinions(), edge), min_size=min_size, max_size=max_size))
    return Opinion(*(np.array(col, dtype=float) for col in zip(*ops)))


def _element(op, i):
    return Opinion(*(float(x[i]) for x in op))


def _fuse_one(fuse_fn, op_i, op_j, c):
    """A scalar fusion, with a degenerate pair reported as the array form does."""
    try:
        return fuse_fn(op_i, op_j, c)
    except ValueError:
        return Opinion(math.nan, math.nan, math.nan, math.nan)


def _same_bits(x, y) -> bool:
    return np.array_equal(np.asarray(x), np.asarray(y), equal_nan=True)


def _pair_arrays(op_i, op_j):
    size = min(op_i.b.size, op_j.b.size)
    return Opinion(*(x[:size] for x in op_i)), Opinion(*(x[:size] for x in op_j)), size


class TestArrayAlgebraMatchesElementwise:
    @given(opinion_arrays())
    @settings(max_examples=200, deadline=None)
    def test_unary_operators(self, op):
        arr_proj = project(op)
        arr_diss = dissonance(op)
        arr_vm = vacuity_maximize(op)
        arr_ref = apply_uom_refresh(op, UOM)
        for i in range(op.b.size):
            one = _element(op, i)
            assert all(_same_bits(x[i], y) for x, y in zip(arr_proj, project(one)))
            assert _same_bits(arr_diss[i], dissonance(one))
            assert all(_same_bits(x[i], y) for x, y in zip(arr_vm, vacuity_maximize(one)))
            assert all(_same_bits(x[i], y) for x, y in zip(arr_ref, apply_uom_refresh(one, UOM)))

    @given(opinion_arrays(), opinion_arrays(), st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_binary_operators(self, op_i, op_j, c_scale):
        op_i, op_j, size = _pair_arrays(op_i, op_j)
        for model in (UOM, HOM, NOM):
            c_arr = np.broadcast_to(trust_coefficient(model, op_i, op_j), (size,))
            for k in range(size):
                c_one = trust_coefficient(model, _element(op_i, k), _element(op_j, k))
                assert _same_bits(c_arr[k], c_one)
        c = c_scale * trust_coefficient(UOM, op_i, op_j)
        fused = fuse(op_i, op_j, c)
        for k in range(size):
            one_i, one_j, c_k = _element(op_i, k), _element(op_j, k), float(c[k])
            want = _fuse_one(fuse, one_i, one_j, c_k)
            assert all(_same_bits(x[k], y) for x, y in zip(fused, want))

    @given(opinion_arrays(), opinion_arrays())
    @settings(max_examples=200, deadline=None)
    def test_full_trust_fusion_and_degenerate_elements(self, op_i, op_j):
        op_i, op_j, size = _pair_arrays(op_i, op_j)
        fused = fuse(op_i, op_j, 1.0)
        for k in range(size):
            one_i, one_j = _element(op_i, k), _element(op_j, k)
            if 1.0 - (1.0 - one_i.u) * (1.0 - one_j.u) <= 1e-12:
                assert all(np.isnan(x[k]) for x in fused)
                with pytest.raises(ValueError):
                    fuse(one_i, one_j, 1.0)
            else:
                assert all(_same_bits(x[k], y) for x, y in zip(fused, fuse(one_i, one_j, 1.0)))


class TestArrayAlgebraMatchesScalarReference:
    @given(opinion_arrays(), opinion_arrays(), st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_same_values_as_scalar_operators(self, op_i, op_j, c):
        op_i, op_j, size = _pair_arrays(op_i, op_j)
        fused = fuse(op_i, op_j, c)
        diss, maxed = dissonance(op_i), vacuity_maximize(op_i)
        refreshed = apply_uom_refresh(op_i, UOM)
        for k in range(size):
            one_i, one_j = _element(op_i, k), _element(op_j, k)
            assert _same_bits(diss[k], ref.dissonance(one_i))
            assert all(_same_bits(x[k], y) for x, y in zip(maxed, ref.vacuity_maximize(one_i)))
            assert all(_same_bits(x[k], y)
                       for x, y in zip(refreshed, ref.apply_uom_refresh(one_i, UOM)))
            for model in (UOM, NOM):
                assert _same_bits(trust_coefficient(model, one_i, one_j),
                                  ref.trust_coefficient(model, one_i, one_j))
            # np.hypot and math.hypot may differ by one ulp
            assert trust_coefficient(HOM, one_i, one_j) == pytest.approx(
                ref.trust_coefficient(HOM, one_i, one_j), rel=1e-15, abs=1e-15)
            want = _fuse_one(ref.fuse, one_i, one_j, c)
            assert all(_same_bits(x[k], y) for x, y in zip(fused, want))


class TestArrayAlgebraProperties:
    @given(opinion_arrays(), opinion_arrays(), st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_fusion_keeps_simplex_and_never_raises_vacuity(self, op_i, op_j, c):
        op_i, op_j, _ = _pair_arrays(op_i, op_j)
        got = fuse(op_i, op_j, c)
        ok = ~np.isnan(got.u)
        b, d, u, a = (x[ok] for x in got)
        assert np.all(np.abs(b + d + u - 1.0) <= SIMPLEX_TOL)
        for x in (b, d, u, a):
            assert np.all((x >= -SIMPLEX_TOL) & (x <= 1.0 + SIMPLEX_TOL))
        assert np.all(u <= op_i.u[ok] + SIMPLEX_TOL)

    @given(opinion_arrays())
    @settings(max_examples=300, deadline=None)
    def test_vacuity_maximize_preserves_projection_and_zeroes_one_side(self, op):
        got = vacuity_maximize(op)
        for before, after in zip(project(op), project(got)):
            np.testing.assert_allclose(after, before, rtol=0.0, atol=SIMPLEX_TOL)
        assert np.all(np.minimum(got.b, got.d) <= SIMPLEX_TOL)
        assert np.all(np.abs(got.b + got.d + got.u - 1.0) <= SIMPLEX_TOL)
        assert np.all(got.u >= op.u - SIMPLEX_TOL)

    def test_refresh_returns_input_when_nothing_is_due(self):
        op = Opinion(np.array([0.3, 0.99]), np.array([0.3, 0.005]),
                     np.array([0.4, 0.005]), np.array([0.5, 0.5]))
        assert apply_uom_refresh(op, UOM) is op
        assert apply_uom_refresh(op, NOM) is op

    def test_refresh_acts_only_on_due_elements(self):
        op = Opinion(np.array([0.49, 0.99]), np.array([0.505, 0.005]),
                     np.array([0.005, 0.005]), np.array([0.5, 0.5]))
        got = apply_uom_refresh(op, UOM)
        assert got.u[0] > op.u[0]
        assert all(x[1] == y[1] for x, y in zip(got, op))

    def test_rows_of_a_4xn_array_are_an_opinion(self):
        op = Opinion(np.array([0.2, 0.5]), np.array([0.1, 0.3]),
                     np.array([0.7, 0.2]), np.array([0.5, 0.4]))
        stacked = np.array(op)
        flipped = stacked[:, ::-1]
        for x, y in zip(fuse(stacked, flipped, 0.4), fuse(op, Opinion(*flipped), 0.4)):
            assert np.array_equal(x, y)
