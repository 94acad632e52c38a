"""Tests for the Monte Carlo sampler, the counter-based RNG, the
joint-moment estimator, and the tensor quadrature oracle."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cuemoments.cauchy import MomentSpec, hp_expectation
from cuemoments.mc import (
    _BLOCK,
    _GOLDEN,
    _MASK,
    MAX_QUAD_NODES,
    MAX_QUAD_POINTS,
    ChainConfig,
    _integrand_values,
    _legendre_nodes,
    _mix64,
    _run_chain,
    _uniforms,
    derive_chain_seed,
    estimate_joint_moment,
    quadrature_expectation,
    sample_hp,
)
from cuemoments.symfunc import v_variant_integrand, xi_poly
from cuemoments.sympoly import SymPoly
from oracles import CounterRNG, sympoly_eval


def _unmix64(z):
    """The inverse of mc._mix64: each xorshift and odd multiplier undone."""
    def unshift(y, k):
        x = y
        for _ in range(64 // k + 1):
            x = y ^ (x >> k)
        return x

    z = unshift(z, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 2 ** 64) & _MASK, 27)
    return unshift(z * pow(0xBF58476D1CE4E5B9, -1, 2 ** 64) & _MASK, 30)


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

    def test_top_uniform_is_exactly_one(self):
        # the seed whose first counter mixes to 2^64 - 1: its top 53 bits
        # give 2^53 - 1, and (2^53 - 1) + 0.5 rounds to 2^53, so u = 1.0
        seed = (_unmix64(_MASK) - _GOLDEN) & _MASK
        assert _mix64(seed + _GOLDEN) == _MASK
        assert _uniforms(seed, 0, 1) == [1.0] == [CounterRNG(seed).uniform()]
        # at u = 1.0 the Metropolis test log(u)/2 < half reads 0 < half
        assert math.log(1.0) * 0.5 == 0.0

    def test_chain_seed_derivation(self):
        seeds = {derive_chain_seed(5, c) for c in range(16)}
        assert len(seeds) == 16
        assert derive_chain_seed(5, 0) == derive_chain_seed(5, 0)

    @pytest.mark.parametrize("seed", [0, 42, 2**63, 2**63 + 12345, 2**64 - 1,
                                      derive_chain_seed(7, 3)])
    @pytest.mark.parametrize("start", [0, 1, 37, 2**40])
    def test_bulk_uniforms_match_scalar_stream(self, seed, start):
        rng = CounterRNG(seed)
        rng.counter = start
        assert _uniforms(seed, start, 300) == [rng.uniform() for _ in range(300)]


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

    def test_config_needs_two_draws_per_block(self):
        # the block-mean standard error needs chains * samples >= 2 * 32
        with pytest.raises(ValueError, match="chains \\* samples >= 64; got 63"):
            ChainConfig(N=1, s=2, chains=1, samples=63)
        assert ChainConfig(N=1, s=2, chains=2, samples=32).samples == 32

    def test_second_moment_estimate(self):
        # E[x^2] at N = 1, s = 2 is 1/3 and (Xi_1/2)^2 = x^2/4; MC should
        # land within 4 sigma
        cfg = ChainConfig(N=1, s=2, chains=4, burn_in=300, samples=1500, seed=11)
        spec = MomentSpec(orders=(1,), exponents=(2,), variant="Z", size=1)
        est, stderr, ess = estimate_joint_moment(sample_hp(cfg), spec)
        assert abs(est - 1 / 12) < 4 * stderr
        assert ess > 50


def _reference_run_chain(N, s, burn_in, samples, thin, scale, seed):
    """The scalar sampler loop the bulk one replaced: one CounterRNG.uniform()
    per draw, every logarithm recomputed per proposal."""
    rng = CounterRNG(seed)
    x = np.array([math.tan(math.pi * ((i + 1.0) / (N + 1.0) - 0.5))
                  for i in range(N)])
    log_scale = math.log(scale)
    draws = np.empty((samples, N))
    accepted = 0
    proposed = 0
    total_sweeps = burn_in + samples * thin
    for sweep in range(total_sweeps):
        sweep_acc = 0
        for i in range(N):
            step = math.exp(log_scale) * math.tan(math.pi * (rng.uniform() - 0.5))
            xi_old = x[i]
            xi_new = xi_old + step
            delta = -(s + N) * (math.log1p(xi_new * xi_new)
                                - math.log1p(xi_old * xi_old))
            ok = True
            for j in range(N):
                if j == i:
                    continue
                d_new = abs(xi_new - x[j])
                if d_new < 1e-300:
                    ok = False
                    break
                delta += 2.0 * (math.log(d_new) - math.log(abs(xi_old - x[j])))
            if ok and math.log(rng.uniform()) < delta:
                x[i] = xi_new
                sweep_acc += 1
        if sweep < burn_in:
            rate = sweep_acc / N
            log_scale += (rate - 0.44) / math.sqrt(sweep + 1.0)
        else:
            accepted += sweep_acc
            proposed += N
            k = sweep - burn_in
            if (k + 1) % thin == 0:
                draws[(k + 1) // thin - 1] = x
    return draws, accepted / proposed


class TestBulkSampler:
    """The block-RNG sampler reproduces the scalar loop bit for bit."""

    # a larger N puts more row buffers in rotation through the spare-row swap
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6, 12])
    @pytest.mark.parametrize("thin", [1, 3])
    @pytest.mark.parametrize("burn_in", [0, _BLOCK + 44])
    @pytest.mark.parametrize("scale", [0.01, 1.0, 30.0])
    def test_matches_scalar_loop(self, N, thin, burn_in, scale):
        cfg = ChainConfig(N=N, s=2.5, chains=2, burn_in=burn_in, samples=60,
                          thin=thin, proposal_scale=scale, seed=2**63 + N)
        batch = sample_hp(cfg)
        ref = [_reference_run_chain(N, cfg.s, burn_in, 60, thin, scale,
                                    derive_chain_seed(cfg.seed, c)) for c in range(2)]
        assert np.array_equal(batch.draws, np.concatenate([d for d, _ in ref]))
        assert batch.acceptance_rate == (ref[0][1] + ref[1][1]) / 2

    @pytest.mark.parametrize("s", [Fraction(7, 3), 3])
    def test_rational_and_integer_s_match_scalar_loop(self, s):
        new = _run_chain(3, s, _BLOCK + 1, 80, 2, 1.0, 2**64 - 5)
        ref = _reference_run_chain(3, s, _BLOCK + 1, 80, 2, 1.0, 2**64 - 5)
        assert np.array_equal(new[0], ref[0]) and new[1] == ref[1]

    @pytest.mark.parametrize("N", [1, 3, 6])
    @pytest.mark.parametrize("s", [1e300, 1.7e308])
    def test_huge_s_matches_scalar_loop(self, N, s):
        # -(s + N) * dlp overflows to -inf or +inf at these s (for every
        # |dlp| > 1.06 at 1.7e308) where half of it may stay finite; every
        # accept/reject decision must still be the same
        new = _run_chain(N, s, 40, 80, 1, 1.0, 11)
        ref = _reference_run_chain(N, s, 40, 80, 1, 1.0, 11)
        assert np.array_equal(new[0], ref[0]) and new[1] == ref[1]

    def test_draws_flushed_past_a_block(self):
        # the kept states are copied per uniform block and once at the end,
        # so a count that is not a multiple of the block must fill every row
        samples = _BLOCK + 7
        new, rate = _run_chain(2, 2.5, 5, samples, 1, 1.0, 3)
        assert new.dtype == np.float64 and new.shape == (samples, 2)
        ref = _reference_run_chain(2, 2.5, 5, samples, 1, 1.0, 3)
        assert np.array_equal(new, ref[0]) and rate == ref[1]

    def test_collision_guard_keeps_the_stream(self, monkeypatch):
        # After the N calls that place the initial state -t, 0, t, every step
        # is t, so the first two proposals of each sweep land on a neighbour
        # and skip their acceptance uniform; the stream must stay aligned.
        tan = math.tan
        t = tan(math.pi / 4)
        calls = []

        def fake_tan(v):
            calls.append(v)
            return tan(v) if len(calls) <= 3 else t

        uniform = CounterRNG.uniform
        used = []

        def counted_uniform(rng):
            used.append(1)
            return uniform(rng)

        monkeypatch.setattr(math, "tan", fake_tan)
        new = _run_chain(3, 2, 0, 2 * _BLOCK, 1, 1.0, 5)
        calls.clear()
        monkeypatch.setattr(CounterRNG, "uniform", counted_uniform)
        ref = _reference_run_chain(3, 2, 0, 2 * _BLOCK, 1, 1.0, 5)
        assert np.array_equal(new[0], ref[0]) and new[1] == ref[1]
        # the guard fired: fewer than two uniforms per proposal were drawn
        assert len(used) < 2 * 3 * 2 * _BLOCK


class TestEstimator:
    def test_known_target_size1(self):
        # spec (1,), (2,), Z at N=1, s=2: target 1/12
        cfg = ChainConfig(N=1, s=2, chains=4, burn_in=300, samples=1500, seed=5)
        spec = MomentSpec(orders=(1,), exponents=(2,), variant="Z", size=1)
        est, stderr, _ = estimate_joint_moment(sample_hp(cfg), spec)
        assert abs(est - 1 / 12) < 4 * stderr

    def test_fractional_exponent_accepted(self):
        cfg = ChainConfig(N=1, s=2, chains=2, burn_in=200, samples=500, seed=9)
        spec = MomentSpec(orders=(1,), exponents=(1.0,), variant="Z", size=1)
        est, stderr, _ = estimate_joint_moment(sample_hp(cfg), spec)
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
                want *= abs(sympoly_eval(xi_poly(n, N), tuple(x))) ** e
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
            assert g == pytest.approx(pref * sympoly_eval(P, tuple(x)), rel=1e-12)

    def test_arity_mismatch_rejected(self):
        cfg = ChainConfig(N=2, s=2, chains=1, burn_in=50, samples=100, seed=0)
        spec = MomentSpec(orders=(1,), exponents=(2,), variant="Z", size=3)
        with pytest.raises(ValueError):
            estimate_joint_moment(sample_hp(cfg), spec)

    def test_limit_size_rejected(self):
        # draws at one N say nothing about the N -> infinity limit
        cfg = ChainConfig(N=2, s=2, chains=1, burn_in=50, samples=100, seed=0)
        spec = MomentSpec(orders=(1,), exponents=(2,), variant="Z", size="limit")
        with pytest.raises(ValueError, match="spec arity does not match"):
            estimate_joint_moment(sample_hp(cfg), spec)


def _reference_quadrature(N, s, integrand, nodes):
    """The meshgrid tensor sum the broadcast one replaced: (n^N, N) arrays of
    nodes and weights, integrand evaluated point by point."""
    u, w = np.polynomial.legendre.leggauss(nodes)
    u = u * (math.pi / 2)
    w = w * (math.pi / 2)
    U = np.stack([g.ravel() for g in np.meshgrid(*([u] * N), indexing="ij")], axis=1)
    WG = np.meshgrid(*([w] * N), indexing="ij")
    W = np.prod(np.stack([g.ravel() for g in WG], axis=1), axis=1)
    X = np.tan(U)
    wt = np.prod(np.cos(U) ** (2.0 * (s + N - 1)), axis=1)
    for i in range(N):
        for j in range(i + 1, N):
            wt = wt * (X[:, i] - X[:, j]) ** 2
    if hasattr(integrand, "terms"):
        fv = np.zeros(X.shape[0])
        for expo, coeff in integrand.terms.items():
            term = np.full(X.shape[0], float(coeff))
            for i, e in enumerate(expo):
                if e:
                    term = term * X[:, i] ** e
            fv = fv + term
    else:
        fv = integrand(X)
    return np.sum(W * wt * fv) / float(np.sum(W * wt))


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

    @pytest.mark.parametrize("N,s,terms", [
        (1, 3, {(2,): 1, (4,): Fraction(-7, 3), (1,): 5, (0,): 2}),
        (2, 3, {(2, 1): 3, (1, 3): Fraction(-5, 2), (0, 2): 1, (0, 0): 4}),
        (2, Fraction(7, 2), {(2, 2): 1, (3, 1): Fraction(1, 7)}),
        (3, 3, {(2, 1, 0): Fraction(9, 4), (0, 1, 3): -1, (1, 0, 1): 6}),
        (3, 4, {(2, 2, 2): 1, (0, 0, 0): Fraction(1, 3)}),
    ])
    @pytest.mark.parametrize("nodes", [7, 32, 64])
    def test_broadcast_sum_matches_meshgrid_sum(self, N, s, terms, nodes):
        P = SymPoly(N, terms)
        ref = _reference_quadrature(N, s, P, nodes)
        val = quadrature_expectation(N, s, P, nodes_per_dim=nodes, check=False)
        assert val == pytest.approx(ref, rel=1e-13)

    def test_broadcast_callable_matches_meshgrid_sum(self):
        def f(X):
            return np.abs(X[:, 0] - 0.5 * X[:, 1]) ** 1.5 + X[:, 1] ** 2

        ref = _reference_quadrature(2, 4, f, 48)
        assert quadrature_expectation(2, 4, f, nodes_per_dim=48, check=False) == \
            pytest.approx(ref, rel=1e-13)

    @pytest.mark.parametrize("N,nodes,check", [
        (1, 1025, True), (1, 1537, False), (2, 100000, True), (3, 108, True),
        (3, 162, False),
    ])
    def test_grid_bounds_before_any_node(self, monkeypatch, N, nodes, check):
        def no_nodes(n):
            raise AssertionError("leggauss(%d) called" % n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", no_nodes)
        with pytest.raises(ValueError, match="bounds of %d nodes per dimension and %d points"
                                             % (MAX_QUAD_NODES, MAX_QUAD_POINTS)):
            quadrature_expectation(N, 3, SymPoly(N, {(2,) + (0,) * (N - 1): 1}),
                                   nodes_per_dim=nodes, check=check)

    @pytest.mark.parametrize("N,nodes", [(1, 1024), (3, 107)])
    def test_grid_bounds_admit_largest_valid_grid(self, N, nodes):
        P = SymPoly(N, {(2,) + (0,) * (N - 1): 1})
        exact = hp_expectation(P, N).eval(Fraction(3))
        assert quadrature_expectation(N, 3, P, nodes_per_dim=nodes) == \
            pytest.approx(float(exact), rel=1e-10)

    def test_nodes_computed_once_per_count(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(n):
            calls.append(n)
            return leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        _legendre_nodes.cache_clear()
        try:
            P = SymPoly(2, {(2, 0): 1})
            for _ in range(3):
                quadrature_expectation(2, 3, P)
                quadrature_expectation(2, 3, lambda X: X[:, 0] ** 2)
            assert sorted(calls) == [64, 96]
            for a in _legendre_nodes(64):
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[0] = 0.0
        finally:
            _legendre_nodes.cache_clear()

    @staticmethod
    def _peak_bytes(*args, **kwargs):
        tracemalloc.start()
        try:
            quadrature_expectation(*args, **kwargs)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_polynomial_builds_no_cube(self):
        # the refined 160^3 grid is 33 MB a float array; the contraction holds
        # a few 160 x 160 matrices
        P = SymPoly(3, {(2, 1, 0): 1, (0, 1, 3): 1, (0, 0, 0): -2})
        assert self._peak_bytes(3, 3, P, nodes_per_dim=107) < 4 * 2 ** 20

    def test_one_coordinate_builds_no_square(self):
        # leggauss itself builds a companion matrix, so the nodes are cached
        # first; a 1536 x 1536 float matrix would be 19 MB
        P = SymPoly(1, {(2,): 1, (1,): 3})
        quadrature_expectation(1, 3, P, nodes_per_dim=1024)
        assert self._peak_bytes(1, 3, P, nodes_per_dim=1024) < 2 ** 20
