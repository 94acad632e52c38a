"""Tests for the Monte Carlo sampler, the counter-based RNG, the
joint-moment estimator, the tensor quadrature oracle, and the asymptotics
table."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cuemoments.cauchy import MomentSpec, hp_expectation
from cuemoments.mc import (
    ChainConfig,
    CounterRNG,
    _integrand_values,
    asymptotics_table,
    derive_chain_seed,
    estimate_joint_moment,
    quadrature_expectation,
    sample_hp,
)
from cuemoments.symfunc import v_variant_integrand, xi_poly
from cuemoments.sympoly import SymPoly


class TestCounterRNG:
    def test_deterministic(self):
        a = CounterRNG(42)
        b = CounterRNG(42)
        assert [a.next_u64() for _ in range(5)] == \
            [b.next_u64() for _ in range(5)]

    def test_seed_sensitivity(self):
        assert CounterRNG(1).next_u64() != CounterRNG(2).next_u64()

    def test_uniform_in_open_interval(self):
        r = CounterRNG(7)
        us = [r.uniform() for _ in range(1000)]
        assert all(0.0 < u < 1.0 for u in us)
        assert abs(sum(us) / len(us) - 0.5) < 0.05

    def test_chain_seed_derivation(self):
        seeds = {derive_chain_seed(5, c) for c in range(16)}
        assert len(seeds) == 16
        assert derive_chain_seed(5, 0) == derive_chain_seed(5, 0)


class TestSampler:
    def test_reproducible(self):
        cfg = ChainConfig(N=2, s=2, chains=2, burn_in=100, samples=200, seed=3)
        b1 = sample_hp(cfg)
        b2 = sample_hp(cfg)
        assert np.array_equal(b1.draws, b2.draws)
        assert b1.acceptance_rate == b2.acceptance_rate

    def test_seed_changes_draws(self):
        cfg1 = ChainConfig(N=1, s=2, chains=1, burn_in=50, samples=100, seed=1)
        cfg2 = ChainConfig(N=1, s=2, chains=1, burn_in=50, samples=100, seed=2)
        assert not np.array_equal(sample_hp(cfg1).draws, sample_hp(cfg2).draws)

    def test_draw_shape(self):
        cfg = ChainConfig(N=3, s=2, chains=2, burn_in=50, samples=150, seed=0)
        batch = sample_hp(cfg)
        assert batch.draws.shape == (300, 3)
        assert 0.0 < batch.acceptance_rate < 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ChainConfig(N=0, s=2)
        with pytest.raises(ValueError):
            ChainConfig(N=1, s=2, chains=0)
        with pytest.raises(ValueError):
            ChainConfig(N=1, s=2, thin=0)
        with pytest.raises(ValueError):
            ChainConfig(N=1, s=2, burn_in=-5)

    def test_second_moment_estimate(self):
        # E[x^2] at N = 1, s = 2 is 1/3; MC should land within 4 sigma
        cfg = ChainConfig(N=1, s=2, chains=4, burn_in=300, samples=1500, seed=11)
        batch = sample_hp(cfg)
        vals = batch.draws[:, 0] ** 2
        est, stderr = batch.ess, None  # ess checked below separately
        from cuemoments.mc import _block_stats
        est, stderr = _block_stats(vals)
        assert abs(est - 1 / 3) < 4 * stderr
        assert batch.ess(vals) > 50


class TestEstimator:
    def test_known_target_size1(self):
        # spec (1,), (2,), Z at N=1, s=2: target 1/12
        cfg = ChainConfig(N=1, s=2, chains=4, burn_in=300, samples=1500, seed=5)
        spec = MomentSpec(orders=(1,), exponents=(2,), variant="Z", size=1)
        est, stderr = estimate_joint_moment(sample_hp(cfg), spec)
        assert abs(est - 1 / 12) < 4 * stderr

    def test_fractional_exponent_accepted(self):
        cfg = ChainConfig(N=1, s=2, chains=2, burn_in=200, samples=500, seed=9)
        spec = MomentSpec(orders=(1,), exponents=(1.0,), variant="Z", size=1)
        est, stderr = estimate_joint_moment(sample_hp(cfg), spec)
        # target E[|x|]/2 = 2/(3 pi)
        assert abs(est - 2 / (3 * math.pi)) < 6 * stderr

    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    @pytest.mark.parametrize("orders,exponents", [
        ((1,), (2.0,)), ((2,), (1.5,)), ((3, 1), (2.0, 4.0)), ((5,), (2.0,)),
    ])
    def test_batch_integrand_matches_symbolic_xi(self, N, orders, exponents):
        # Z: 2^{-sum n e} prod |Xi_n(x)|^e, with Xi_n from its exact SymPoly
        X = np.random.default_rng(N).uniform(-3.0, 3.0, size=(50, N))
        spec = MomentSpec(orders=orders, exponents=exponents, variant="Z", size=N)
        got = _integrand_values(X, spec, N)
        pref = 2.0 ** -sum(n * e for n, e in zip(orders, exponents))
        for x, g in zip(X, got):
            want = pref
            for n, e in zip(orders, exponents):
                want *= abs(xi_poly(n, N).eval(tuple(x))) ** e
            assert g == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 3])
    @pytest.mark.parametrize("orders", [(1,), (2,), (3, 1)])
    def test_batch_integrand_matches_v_variant(self, N, orders):
        # V with exponent 2: 2^{-2 sum n} times the exact real SymPoly integrand
        exponents = (2,) * len(orders)
        X = np.random.default_rng(10 + N).uniform(-3.0, 3.0, size=(50, N))
        spec = MomentSpec(orders=orders, exponents=[2.0] * len(orders),
                          variant="V", size=N)
        got = _integrand_values(X, spec, N)
        P = v_variant_integrand(orders, exponents, N)
        pref = 2.0 ** (-2 * sum(orders))
        for x, g in zip(X, got):
            assert g == pytest.approx(pref * P.eval(tuple(x)), rel=1e-12)

    def test_arity_mismatch_rejected(self):
        cfg = ChainConfig(N=2, s=2, chains=1, burn_in=50, samples=100, seed=0)
        spec = MomentSpec(orders=(1,), exponents=(2,), variant="Z", size=3)
        with pytest.raises(ValueError):
            estimate_joint_moment(sample_hp(cfg), spec)


class TestQuadrature:
    @pytest.mark.parametrize("N,s,expo", [(1, 2, (2,)), (2, 2, (2, 0)),
                                          (2, 3, (2, 2)), (3, 3, (2, 1, 1))])
    def test_matches_exact(self, N, s, expo):
        P = SymPoly(N, {expo: 1})
        exact = hp_expectation(P, N).eval(Fraction(s))
        val = quadrature_expectation(N, s, P)
        assert val == pytest.approx(float(exact), rel=1e-10, abs=1e-12)

    def test_odd_integrand_is_zero(self):
        P = SymPoly(2, {(1, 0): 1})
        assert quadrature_expectation(2, 2, P) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonintegrable(self):
        # x^4 at s = 1, N = 1 fails the tail-decay precondition
        with pytest.raises(ValueError):
            quadrature_expectation(1, 1, SymPoly(1, {(4,): 1}))

    def test_callable_integrand(self):
        # E[|x|] at N = 1, s = 2 is 4/(3 pi); the kink at zero limits the
        # convergence rate, so the strict self-consistency check is disabled
        val = quadrature_expectation(1, 2, lambda X: np.abs(X[:, 0]),
                                     nodes_per_dim=400, check=False)
        assert val == pytest.approx(4 / (3 * math.pi), rel=1e-4)


class TestAsymptoticsTable:
    def test_exact_engine_columns(self):
        spec = MomentSpec(orders=(2,), exponents=(2,), variant="Z", size=None)
        table = dict(asymptotics_table(spec, [1, 2], s_value=Fraction(2)))
        # finite rows hold the value divided by N^{sum 2 h n}; the limit row
        # carries the 2^{-sum 2 h n} normalization of the limiting moment
        assert table[1] == Fraction(1, 16)
        assert table[2] == Fraction(2, 5) / 16
        assert table["limit"] == Fraction(1, 336)
