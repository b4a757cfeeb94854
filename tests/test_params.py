"""Tests for repro.params: derivation, validation, derived quantities."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.params import SpannerParams, binning_rate_bound, max_cone_angle


class TestFromEpsilon:
    def test_t_is_one_plus_epsilon(self):
        assert SpannerParams.from_epsilon(0.5).t == pytest.approx(1.5)

    def test_t1_strictly_between_one_and_t(self):
        p = SpannerParams.from_epsilon(0.3)
        assert 1.0 < p.t1 < p.t

    def test_epsilon_property_roundtrips(self):
        assert SpannerParams.from_epsilon(0.7).epsilon == pytest.approx(0.7)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ParameterError):
            SpannerParams.from_epsilon(0.0)
        with pytest.raises(ParameterError):
            SpannerParams.from_epsilon(-1.0)

    def test_rejects_bad_t1_fraction(self):
        with pytest.raises(ParameterError):
            SpannerParams.from_epsilon(0.5, t1_fraction=0.0)
        with pytest.raises(ParameterError):
            SpannerParams.from_epsilon(0.5, t1_fraction=1.0)

    def test_alpha_carried_through(self):
        assert SpannerParams.from_epsilon(0.5, alpha=0.6).alpha == 0.6

    def test_dim_carried_through(self):
        assert SpannerParams.from_epsilon(0.5, dim=3).dim == 3

    def test_rejects_alpha_out_of_range(self):
        with pytest.raises(ParameterError):
            SpannerParams.from_epsilon(0.5, alpha=0.0)
        with pytest.raises(ParameterError):
            SpannerParams.from_epsilon(0.5, alpha=1.5)

    def test_rejects_dimension_below_two(self):
        with pytest.raises(ParameterError):
            SpannerParams.from_epsilon(0.5, dim=1)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_non_finite_epsilon_named(self, epsilon):
        message = f"epsilon must be finite and > 0, got {epsilon}"
        with pytest.raises(ParameterError, match=message):
            SpannerParams.from_epsilon(epsilon)

    @pytest.mark.parametrize("alpha", [0.0, -0.5])
    def test_nonpositive_alpha_named(self, alpha):
        with pytest.raises(
            ParameterError, match=rf"alpha must be in \(0, 1\], got {alpha}"
        ):
            SpannerParams.from_epsilon(0.5, alpha=alpha)

    def test_dimension_below_two_named(self):
        with pytest.raises(ParameterError, match="dim must be >= 2, got 1"):
            SpannerParams.from_epsilon(0.5, dim=1)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.01, max_value=10.0))
    def test_derivation_always_valid(self, epsilon):
        """Property: from_epsilon never violates a theorem precondition."""
        p = SpannerParams.from_epsilon(epsilon)
        p.validate()  # would raise on any violation
        assert p.t_delta > 1.0
        assert 1.0 < p.r < (p.t_delta + 1.0) / 2.0

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=4.0),
        st.floats(min_value=0.2, max_value=1.0),
    )
    def test_derivation_valid_for_all_alpha(self, epsilon, alpha):
        SpannerParams.from_epsilon(epsilon, alpha=alpha).validate()


class TestValidation:
    def test_delta_above_theorem10_bound_rejected(self):
        good = SpannerParams.from_epsilon(0.5)
        with pytest.raises(ParameterError, match="Theorem 10"):
            SpannerParams(
                t=good.t, t1=good.t1,
                delta=(good.t - good.t1) / 4.0 + 0.01,
                r=good.r, theta=good.theta, beta=good.beta,
            )

    def test_delta_above_theorem13_bound_rejected(self):
        # Push t1 close to 1 so the Theorem 13 bound binds first.
        t, t1 = 1.5, 1.01
        delta_bad = (t1 - 1.0) / (6.0 + 2.0 * t1)  # not strictly below
        with pytest.raises(ParameterError, match="Theorem 13"):
            SpannerParams(
                t=t, t1=t1, delta=delta_bad, r=1.001, theta=0.05, beta=1.3
            )

    def test_r_out_of_range_rejected(self):
        good = SpannerParams.from_epsilon(0.5)
        with pytest.raises(ParameterError, match="r <"):
            SpannerParams(
                t=good.t, t1=good.t1, delta=good.delta,
                r=(good.t_delta + 1.0) / 2.0 + 0.01,
                theta=good.theta, beta=good.beta,
            )

    def test_theta_beyond_lemma3_rejected(self):
        good = SpannerParams.from_epsilon(0.5)
        with pytest.raises(ParameterError, match="Lemma 3"):
            SpannerParams(
                t=good.t, t1=good.t1, delta=good.delta, r=good.r,
                theta=max_cone_angle(good.t) + 0.01, beta=good.beta,
            )

    def test_alpha_checked_before_derived_constraints(self):
        # beta derived for alpha = 1 also breaks Theorem 13's beta bound
        # at alpha = 0; the error must name alpha, the actual cause.
        good = SpannerParams.from_epsilon(0.5)
        with pytest.raises(ParameterError, match="alpha must be in"):
            SpannerParams(
                t=good.t, t1=good.t1, delta=good.delta, r=good.r,
                theta=good.theta, beta=good.beta, alpha=0.0,
            )

    def test_beta_out_of_range_rejected(self):
        good = SpannerParams.from_epsilon(0.5)
        with pytest.raises(ParameterError, match="beta"):
            SpannerParams(
                t=good.t, t1=good.t1, delta=good.delta, r=good.r,
                theta=good.theta, beta=2.5,
            )


class TestMaxConeAngle:
    def test_lemma3_constraint_satisfied(self):
        for t in (1.05, 1.2, 1.5, 2.0, 5.0):
            theta = max_cone_angle(t)
            assert 0.0 < theta < math.pi / 4.0 + 1e-12
            assert t >= 1.0 / (math.cos(theta) - math.sin(theta)) - 1e-9

    def test_grows_with_t(self):
        assert max_cone_angle(2.0) > max_cone_angle(1.1)

    def test_rejects_t_at_most_one(self):
        with pytest.raises(ParameterError):
            max_cone_angle(1.0)

    def test_approaches_pi_over_4(self):
        assert max_cone_angle(1e6) == pytest.approx(math.pi / 4.0, abs=1e-3)


class TestDerivedQuantities:
    def test_w0_is_alpha_over_n(self):
        p = SpannerParams.from_epsilon(0.5, alpha=0.8)
        assert p.w0(100) == pytest.approx(0.008)

    def test_w_grows_geometrically(self):
        p = SpannerParams.from_epsilon(0.5)
        assert p.w(3, 50) == pytest.approx(p.w(2, 50) * p.r)

    def test_num_bins_covers_unit_length(self):
        p = SpannerParams.from_epsilon(0.5)
        for n in (2, 10, 100, 1000):
            assert p.w(p.num_bins(n), n) >= 1.0 - 1e-12

    def test_num_bins_is_logarithmic(self):
        p = SpannerParams.from_epsilon(0.5)
        m100, m10000 = p.num_bins(100), p.num_bins(10000)
        assert m10000 <= 2.2 * m100  # log(n^2) = 2 log n

    def test_num_bins_single_vertex(self):
        assert SpannerParams.from_epsilon(0.5).num_bins(1) == 0

    def test_cover_radius_matches_definition(self):
        p = SpannerParams.from_epsilon(0.5)
        assert p.cover_radius(3, 64) == pytest.approx(p.delta * p.w(2, 64))

    def test_cover_radius_rejects_phase_zero(self):
        with pytest.raises(ParameterError):
            SpannerParams.from_epsilon(0.5).cover_radius(0, 64)

    def test_query_hop_bound_positive_constant(self):
        p = SpannerParams.from_epsilon(0.5)
        assert p.query_hop_bound() >= 1
        # Theorem 9: ceil(2*(2*delta+1)/alpha).
        assert p.query_hop_bound() == math.ceil(
            2.0 * (2.0 * p.delta + 1.0) / p.alpha
        )

    def test_hop_bounds_scale_with_alpha(self):
        p1 = SpannerParams.from_epsilon(0.5, alpha=1.0)
        p2 = SpannerParams.from_epsilon(0.5, alpha=0.5)
        assert p2.query_hop_bound() >= p1.query_hop_bound()

    def test_with_alpha_revalidates(self):
        p = SpannerParams.from_epsilon(0.5)
        q = p.with_alpha(0.5)
        assert q.alpha == 0.5 and q.t == p.t

    def test_describe_mentions_key_values(self):
        text = SpannerParams.from_epsilon(0.5).describe()
        assert "t=1.5" in text and "alpha=" in text


class TestBinningRateBound:
    def test_bound_above_one_for_valid_inputs(self):
        p = SpannerParams.from_epsilon(0.5)
        assert binning_rate_bound(p.t1, p.delta) > 1.0

    def test_decreases_with_delta(self):
        assert binning_rate_bound(1.4, 0.01) > binning_rate_bound(1.4, 0.03)
