"""Monte Carlo and quadrature engines for the Hua-Pickrell (Cauchy) eigenvalue
ensemble: Metropolis-within-Gibbs sampling of the density proportional to
prod (1+x_i^2)^{-(s+N)} * prod_{i<j}(x_i-x_j)^2 driven by a counter-based
SplitMix64 stream, a joint-moment estimator for arbitrary positive real
exponents, and a tensor Gauss-Legendre quadrature oracle at tiny arity.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cauchy import domain
from .symfunc import a_coeff
from .sympoly import _max_exponent

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z):
    """SplitMix64 output function (Steele-Lea-Flood constants), of a Python
    int or elementwise of a uint64 array (whose products wrap modulo 2^64)."""
    z = z & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


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
        if self.chains * self.samples < 2 * _BLOCKS:
            raise ValueError("too few samples for block-mean standard errors: "
                             "need chains * samples >= %d; got %d"
                             % (2 * _BLOCKS, self.chains * self.samples))
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


# Sweeps whose uniforms are drawn in one block: a sweep takes at most 2N.
_BLOCK = 256


def _uniforms(seed, start, count):
    """The uniforms ((mix64(seed + c * GOLDEN mod 2^64) >> 11) + 0.5) / 2^53 in
    (0, 1] of the stream of `seed` at counters c = start+1 .. start+count, as a
    list of floats drawn in one array pass; 1.0 is reached, since
    (2^53 - 1) + 0.5 rounds to 2^53."""
    z = _mix64(np.arange(start + 1, start + count + 1, dtype=np.uint64) * _GOLDEN
               + (seed & _MASK))
    return (((z >> 11) + 0.5) / 9007199254740992.0).tolist()


def _run_chain(N, s, burn_in, samples, thin, scale, seed):
    x = [math.tan(math.pi * ((i + 1.0) / (N + 1.0) - 0.5)) for i in range(N)]
    # log1p(x_i^2) and log|x_i - x_j| of the current state, updated on
    # acceptance; |a - b| == |b - a| exactly, so the table is symmetric. The
    # diagonal is never read: after row buffers are swapped it may hold a
    # stale value.
    lp = [math.log1p(xi * xi) for xi in x]
    logd = [[math.log(abs(xi - xj)) if i != j else 0.0 for j, xj in enumerate(x)]
            for i, xi in enumerate(x)]
    spare = [0.0] * N    # receives the logs of a proposal's row
    others = [[j for j in range(N) if j != i] for i in range(N)]
    # c is half of -(s + N) as a float (what Fraction * float converts a
    # rational s to), and half = c * dlp + sum (log_j - row_j) is half the log
    # density ratio. Multiplying by a power of two is exact and commutes with
    # round-to-nearest in the normal range, so 2 * half equals the full ratio
    # -(s + N) * dlp + sum 2 * (log_j - row_j) after every operation, and
    # log(u) < 2 * half exactly when log(u) * 0.5 < half. Where the full
    # product overflows to +-inf, half is still beyond +-2^1023, so no sum of
    # pair logs changes its sign and the decision is the same. One product
    # per pair is saved.
    c = float(-(s + N)) * 0.5
    log_scale = math.log(scale)
    step_scale = math.exp(log_scale)
    draws = np.empty((samples, N))
    flat = draws.reshape(-1)
    kept, filled = [], 0    # kept states not yet copied into draws
    accepted = 0
    u, k, used = [], 0, 0    # block of uniforms, next index, counters consumed
    log, log1p, tan, pi = math.log, math.log1p, math.tan, math.pi
    for sweep in range(burn_in + samples * thin):
        if len(u) - k < 2 * N:
            used += k
            u, k = _uniforms(seed, used, 2 * N * _BLOCK), 0
            flat[filled:filled + len(kept)] = kept
            filled += len(kept)
            kept = []
        sweep_acc = 0
        for i in range(N):
            xi_new = x[i] + step_scale * tan(pi * (u[k] - 0.5))
            k += 1
            lp_new = log1p(xi_new * xi_new)
            half = c * (lp_new - lp[i])
            row = logd[i]
            for j in others[i]:
                d_new = abs(xi_new - x[j])
                if d_new < 1e-300:
                    break
                spare[j] = log_j = log(d_new)
                half += log_j - row[j]
            else:
                accept = log(u[k]) * 0.5 < half
                k += 1
                if accept:
                    x[i] = xi_new
                    lp[i] = lp_new
                    for j in others[i]:
                        logd[j][i] = spare[j]
                    logd[i], spare = spare, row
                    sweep_acc += 1
        if sweep < burn_in:
            # Robbins-Monro drift of the proposal scale toward 0.44 acceptance
            log_scale += (sweep_acc / N - 0.44) / math.sqrt(sweep + 1.0)
            step_scale = math.exp(log_scale)
        else:
            accepted += sweep_acc
            if (sweep - burn_in + 1) % thin == 0:
                kept.extend(x)
    flat[filled:] = kept
    return draws, accepted / (N * samples * thin)


def sample_hp(config):
    """Sample the Hua-Pickrell eigenvalue density by Metropolis-within-Gibbs;
    deterministic function of the config (chains merged in index order)."""
    chains = [_run_chain(config.N, config.s, config.burn_in, config.samples, config.thin,
                         config.proposal_scale, derive_chain_seed(config.seed, c))
              for c in range(config.chains)]
    acc = sum(rate for _, rate in chains) / config.chains
    flagged = not (0.05 <= acc <= 0.95)
    # one chain's draws are returned as they are, with no copy
    draws = chains[0][0] if len(chains) == 1 else np.concatenate([d for d, _ in chains])
    return SampleBatch(config, draws, acc, flagged)


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


def estimate_joint_moment(batch, spec):
    """Block-mean estimate, standard error and effective sample size
    var / stderr^2 (the draw count where either is 0) of the joint-moment ratio
    2^{-sum 2 h_j n_j} E[prod |Xi_{n_j}|^{2h_j}] (Z) or the modulus form with
    the extra binomial combination (V); exponents may be any positive reals.
    An integrand beyond the float range gives a non-finite result with no
    numpy warning; the caller checks for it."""
    N = batch.config.N
    if spec.size != N:
        raise ValueError("spec arity does not match batch arity")
    with np.errstate(over="ignore", invalid="ignore"):
        values = _integrand_values(batch.draws, spec, N)
        est, stderr = _block_stats(values)
        var = float(np.var(values))
    if stderr == 0 or var == 0:
        return est, stderr, float(len(values))
    return est, stderr, var / (stderr * stderr)


# ---------------------------------------------------------------------------
# quadrature oracle
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=8)
def _legendre_nodes(n):
    """Read-only tan(u), w and cos(u) of the n-point Gauss-Legendre rule on
    (-pi/2, pi/2). leggauss is looked up at call time, so a patched one sees
    the first call for each n."""
    u, w = np.polynomial.legendre.leggauss(n)
    u = u * (math.pi / 2)
    w = w * (math.pi / 2)
    out = (np.tan(u), w, np.cos(u))
    for a in out:
        a.flags.writeable = False
    return out


def _contract(N, P, x, f):
    """Grid sum of P * Delta^2 * prod f over the grid sum of Delta^2 * prod f.
    A term's sum, sum_a prod_k f_k(x_{a_k}) prod_{i<j} D[a_i, a_j] with
    D = (x_a - x_b)^2 and f_k = f x^{e_k}, is sum f_1 at N = 1, f_1' D f_2 at
    N = 2 and f_1' [D o (D diag(f_3) D)] f_2 at N = 3, so no n^N array is
    built."""
    powers = {0: f}

    def fx(k):
        if k not in powers:
            powers[k] = f * x ** k
        return powers[k]

    if N > 1:
        D = np.subtract.outer(x, x)
        D *= D

    def grid_sum(e):
        if N == 1:
            return float(np.sum(fx(e[0])))
        if N == 2:
            return float(fx(e[0]) @ (D @ fx(e[1])))
        M = (D * fx(e[2])) @ D
        M *= D
        return float(fx(e[0]) @ (M @ fx(e[1])))

    num = sum(c / P.den * grid_sum(e) for e, c in P.num.items())
    return num / grid_sum((0,) * N)


def _grid(N, integrand, x, f):
    """Sum of a callable integrand over the broadcast n^N grid, weighted by
    Delta^2 * prod f, over the same sum with integrand 1."""
    nodes = len(x)
    axes = [(1,) * i + (nodes,) + (1,) * (N - 1 - i) for i in range(N)]
    xs = [x.reshape(shape) for shape in axes]
    # weight times Delta^2, one coordinate at a time, so that only the
    # last factor spans the whole grid
    wt = 1.0
    for k, shape in enumerate(axes):
        g = f.reshape(shape)
        for i in range(k):
            g = g * (xs[i] - xs[k]) ** 2
        wt = wt * g
    den = float(np.sum(wt))
    X = np.stack(np.broadcast_arrays(*xs), axis=-1)
    num = np.sum(wt * integrand(X.reshape(-1, N)).reshape(X.shape[:-1]))
    return num / den


# Bounds on the largest grid a call sums over (with check=True, the refined
# one of 3/2 the nodes). They size the (points, N) grid of a callable
# integrand and the O(n^3) contraction of a SymPoly: leggauss(1536) takes
# 0.4 s, and a callable grid of 2^22 points 0.2-0.3 s and up to 230 MB
# (2 cores, numpy 2.4).
MAX_QUAD_NODES = 1536
MAX_QUAD_POINTS = 1 << 22


def quadrature_expectation(N, s, integrand, nodes_per_dim=64, check=True):
    """Tensor Gauss-Legendre value of E[P] = int P * Delta^2 * prod w / the
    same integral with P = 1, after x_i = tan(u_i) (so the integrand becomes a
    trigonometric polynomial on the box (-pi/2, pi/2)^N when P is polynomial).

    With check=True, recomputes at nodes_per_dim + max(1, nodes_per_dim // 2)
    nodes, a different grid even at one node, and raises if the two values
    disagree beyond the 1e-10 relative target.
    """
    if N > 3:
        raise ValueError("quadrature oracle supports N <= 3")
    refined = nodes_per_dim + max(1, nodes_per_dim // 2)
    largest = refined if check else nodes_per_dim
    if largest > MAX_QUAD_NODES or largest ** N > MAX_QUAD_POINTS:
        raise ValueError("%d nodes per dimension need a %d^%d-point grid, beyond "
                         "the bounds of %d nodes per dimension and %d points"
                         % (nodes_per_dim, largest, N, MAX_QUAD_NODES, MAX_QUAD_POINTS))
    ratio = _grid
    if hasattr(integrand, "terms"):
        d = _max_exponent(integrand)
        if not s > domain((d,)):
            raise ValueError("non-integrable combination: per-coordinate degree "
                             "%d needs s > %s" % (d, domain((d,))))
        ratio = _contract

    def compute(nodes):
        x, w, c = _legendre_nodes(nodes)
        # (1 + tan^2 u)^{1-(s+N)} = cos(u)^{2(s+N-1)} per coordinate
        return ratio(N, integrand, x, w * c ** (2.0 * (s + N - 1)))

    v1 = compute(nodes_per_dim)
    if not check:
        return v1
    v2 = compute(refined)
    scale = max(abs(v2), 1.0)
    if not abs(v1 - v2) / scale <= 1e-10:  # a NaN fails too
        raise ArithmeticError("quadrature did not converge to the 1e-10 target; "
                              "increase nodes_per_dim")
    return v2
