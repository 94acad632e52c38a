"""Monte Carlo and quadrature engines for the Hua-Pickrell (Cauchy) eigenvalue
ensemble: a counter-based deterministic RNG, Metropolis-within-Gibbs sampling
of the density proportional to prod (1+x_i^2)^{-(s+N)} * prod_{i<j}(x_i-x_j)^2,
joint-moment estimators supporting arbitrary real exponents, and a tensor
Gauss-Legendre quadrature oracle at tiny arity.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cauchy import MomentSpec, domain, finite_joint_moment, limiting_moment
from .symfunc import a_coeff

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    """SplitMix64 output function (Steele-Lea-Flood constants)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class CounterRNG:
    """Counter-based 64-bit generator: the i-th output is
    mix64(seed + (i+1)*GOLDEN) with the SplitMix64 mixing function, so streams
    are reproducible across implementations from (seed, counter) alone."""

    def __init__(self, seed):
        self.seed = seed & _MASK
        self.counter = 0

    def next_u64(self):
        self.counter += 1
        return _mix64((self.seed + self.counter * _GOLDEN) & _MASK)

    def uniform(self):
        """Uniform in (0, 1), 53-bit resolution, never exactly 0 or 1."""
        return ((self.next_u64() >> 11) + 0.5) / 9007199254740992.0


def derive_chain_seed(seed, chain_index):
    """Independent per-chain stream key derived through the same mixer."""
    return _mix64((seed ^ _mix64(chain_index + 1)) & _MASK)


@dataclass
class ChainConfig:
    N: int
    s: float
    chains: int = 4
    burn_in: int = 500
    samples: int = 2000
    thin: int = 1
    proposal_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N >= 1 required")
        if self.chains < 1 or self.samples < 1:
            raise ValueError("chains >= 1 and samples >= 1 required")
        if self.thin < 1 or self.burn_in < 0:
            raise ValueError("thin >= 1 and burn_in >= 0 required")
        if not 0 < self.proposal_scale < math.inf:
            raise ValueError("finite proposal_scale > 0 required")
        if self.s <= 0:
            raise ValueError("s > 0 required")


@dataclass
class SampleBatch:
    config: ChainConfig
    draws: np.ndarray          # shape (chains * samples, N)
    acceptance_rate: float
    flagged: bool              # acceptance outside [0.05, 0.95] post-adaptation

    def ess(self, values):
        """Effective sample size of a scalar statistic via block means."""
        values = np.asarray(values, dtype=float)
        est, stderr = _block_stats(values)
        var = float(np.var(values))
        if stderr == 0 or var == 0:
            return float(len(values))
        return var / (stderr * stderr)


def _run_chain(N, s, burn_in, samples, thin, scale, seed):
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
            # log density ratio for the single-coordinate update
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
            # Robbins-Monro drift of the proposal scale toward 0.44 acceptance
            rate = sweep_acc / N
            log_scale += (rate - 0.44) / math.sqrt(sweep + 1.0)
        else:
            accepted += sweep_acc
            proposed += N
            k = sweep - burn_in
            if (k + 1) % thin == 0:
                draws[(k + 1) // thin - 1] = x
    return draws, accepted / proposed


def sample_hp(config):
    """Sample the Hua-Pickrell eigenvalue density by Metropolis-within-Gibbs;
    deterministic function of the config (chains merged in index order)."""
    all_draws = []
    acc = 0.0
    for c in range(config.chains):
        seed_c = derive_chain_seed(config.seed, c)
        draws, rate = _run_chain(config.N, config.s, config.burn_in,
                                 config.samples, config.thin,
                                 config.proposal_scale, seed_c)
        all_draws.append(draws)
        acc += rate
    acc /= config.chains
    flagged = not (0.05 <= acc <= 0.95)
    return SampleBatch(config, np.concatenate(all_draws, axis=0), acc, flagged)


_BLOCKS = 32


def _block_stats(values):
    """Mean and standard error of the values from _BLOCKS block means."""
    n = len(values)
    if n < 2 * _BLOCKS:
        raise ValueError("too few samples for block-mean standard errors")
    usable = (n // _BLOCKS) * _BLOCKS
    means = np.asarray(values[:usable], dtype=float).reshape(_BLOCKS, -1).mean(axis=1)
    est = float(means.mean())
    stderr = float(means.std(ddof=1) / math.sqrt(_BLOCKS))
    return est, stderr


def _integrand_values(batch_draws, spec, N):
    """Integrand of the joint-moment ratio at every draw, over the whole
    (draws, N) array: e_0..e_N by e_k <- e_k + x_i e_{k-1}, one coordinate at
    a time, then Xi_n = sum_l a(n, l, N) e_l."""
    x = np.asarray(batch_draws, dtype=float)
    e = np.zeros((N + 1, len(x)))
    e[0] = 1.0
    for i in range(N):
        # the right side is built before the in-place add, so it reads the
        # e_{k-1} of the previous coordinate
        e[1:i + 2] += x[:, i] * e[:i + 1]
    n_max = max(spec.orders) if spec.orders else 0
    pref = 2.0 ** (-float(sum(n * h for n, h in zip(spec.orders, spec.exponents))))
    xi = [np.ones(len(x))]
    for n in range(1, n_max + 1):
        xi.append(sum(float(a_coeff(n, l, N)) * e[l] for l in range(min(n, N) + 1)))
    v = np.ones(len(x))
    for n, two_h in zip(spec.orders, spec.exponents):
        if spec.variant == "Z":
            base = np.abs(xi[n])
        else:
            base = np.abs(sum(math.comb(n, m) * (-1j * N) ** m * xi[n - m]
                              for m in range(n + 1)))
        v *= base ** float(two_h)
    return pref * v


def joint_moment_values(batch, spec):
    """Integrand of the joint-moment ratio at each draw of the batch."""
    N = batch.config.N
    if spec.size not in (N, "limit", None):
        raise ValueError("spec arity does not match batch arity")
    return _integrand_values(batch.draws, spec, N)


def estimate_joint_moment(batch, spec):
    """Block-mean estimate and standard error of the joint-moment ratio
    2^{-sum 2 h_j n_j} E[prod |Xi_{n_j}|^{2h_j}] (Z) or the modulus form with
    the extra binomial combination (V); exponents may be any positive reals."""
    return _block_stats(joint_moment_values(batch, spec))


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

def _sympoly_max_degree(P):
    return max((max(e) for e in P.terms), default=0)


def _eval_integrand(P, X):
    """Vectorized evaluation: SymPoly on an (npts, N) array, or a callable
    receiving the array and returning values per point."""
    if hasattr(P, "terms"):
        out = np.zeros(X.shape[0])
        for expo, coeff in P.terms.items():
            term = np.full(X.shape[0], float(coeff))
            for i, e in enumerate(expo):
                if e:
                    term = term * X[:, i] ** e
            out = out + term
        return out
    return P(X)


def quadrature_expectation(N, s, integrand, nodes_per_dim=64, check=True):
    """Tensor Gauss-Legendre value of E[P] = int P * Delta^2 * prod w / the
    same integral with P = 1, after x_i = tan(u_i) (so the integrand becomes a
    trigonometric polynomial on the box (-pi/2, pi/2)^N when P is polynomial).

    Doubles the node count and raises if the two values disagree beyond the
    1e-10 relative target (check=True).
    """
    if N > 3:
        raise ValueError("quadrature oracle supports N <= 3")
    if hasattr(integrand, "terms"):
        d = _sympoly_max_degree(integrand)
        if not s > domain((d,)):
            raise ValueError("non-integrable combination: per-coordinate degree "
                             "%d needs s > %s" % (d, domain((d,))))

    def compute(nodes):
        u, w = np.polynomial.legendre.leggauss(nodes)
        u = u * (math.pi / 2)
        w = w * (math.pi / 2)
        grids = np.meshgrid(*([u] * N), indexing="ij")
        U = np.stack([g.ravel() for g in grids], axis=1)
        WG = np.meshgrid(*([w] * N), indexing="ij")
        W = np.prod(np.stack([g.ravel() for g in WG], axis=1), axis=1)
        X = np.tan(U)
        # (1 + tan^2 u)^{1-(s+N)} = cos(u)^{2(s+N-1)} per coordinate
        wt = np.prod(np.cos(U) ** (2.0 * (s + N - 1)), axis=1)
        for i in range(N):
            for j in range(i + 1, N):
                wt = wt * (X[:, i] - X[:, j]) ** 2
        den = float(np.sum(W * wt))
        fv = _eval_integrand(integrand, X)
        num = np.sum(W * wt * fv)
        return num / den

    v1 = compute(nodes_per_dim)
    if not check:
        return v1
    v2 = compute(nodes_per_dim + nodes_per_dim // 2)
    scale = max(abs(v2), 1.0)
    if not abs(v1 - v2) / scale <= 1e-10:  # a NaN fails too
        raise ArithmeticError("quadrature did not converge to the 1e-10 target; "
                              "increase nodes_per_dim")
    return v2


def asymptotics_table(spec, N_list, s_value=None):
    """Exact rows (N, normalized finite-size value) plus the limiting row.

    The finite-size column is 2^{-2 sum h_j n_j} E_N[prod |Xi_{n_j}/N^{n_j}|^{2h_j}],
    i.e. the finite joint moment divided by N^{sum 2 h_j n_j}; the limit row
    comes from the finite-sum limiting formula with the same 2-power.
    """
    S = sum(n * e for n, e in zip(spec.orders, spec.exponents))
    rows = []
    for N in N_list:
        fspec = MomentSpec(spec.orders, spec.exponents, spec.variant, N)
        rf = finite_joint_moment(fspec) * Fraction(1, N ** S)
        rows.append((N, rf if s_value is None else rf.eval(Fraction(s_value))))
    lim = limiting_moment(spec.orders, spec.exponents) * Fraction(1, 2 ** S)
    if s_value is not None:
        lim = lim.eval(Fraction(s_value))
    rows.append(("limit", lim))
    return rows
