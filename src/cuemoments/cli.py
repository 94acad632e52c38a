"""Command-line front end.

Subcommands expose the exact, Monte Carlo, quadrature, Painlevé and
Hankel-identity engines.  Every run prints a JSON document to stdout
(machine-readable; exact rationals serialized as "p/q" decimal strings,
never floats) and a one-line human summary to stderr, and embeds a run
manifest (command, parameters, seeds, version, wall time, output digest)
so any run can be reproduced bit-for-bit.

Exit codes: 0 success; 2 invalid or unsupported input: main turns any
ValueError or OverflowError, from the parser, a command or an engine, into
the document {"error": message, "exit_code": 2}; 3 Monte Carlo
diagnostics failure (flagged chain); 4 a verified identity failed; 141
(128 + SIGPIPE, as a shell reports a writer ended by a broken pipe) the
reader closed stdout before the document was written, and the run stops
quietly.
"""

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import __version__
from .cauchy import (
    MomentSpec,
    domain,
    finite_joint_moment,
    hp_expectation,
    keating_snaith_constant,
    limiting_moment,
    oracle_second_moment_V,
)
from .exact import _ratio, rat_to_str

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MC_DIAGNOSTICS = 3
EXIT_IDENTITY_FAILED = 4
EXIT_STDOUT_CLOSED = 141

# G(s+1)^2/G(2s+1) is 1.7e-296 at s = 16 and below every float from s = 17
MAX_CONSTANT_S = 16
# The times below are in process, on 2 cores with Python 3.11.
# painleve --mode p5-finite takes 0.4 s at N = 12, s = 1 (0.7 s at s = 3,
# 2.0 s at s = 6, 4.0 s at s = 8, 7.3 s at s = 10) and 3.6 s at N = 16, s = 1
MAX_P5_N = 12
MAX_P5_S = 6
# painleve --mode p3-limit at --series-order 40 takes 0.16 s at s = 10, 0.95 s
# at s = 16, 1.3-1.7 s at s = 20, 1.5-2.1 s at s = 21 and 3.0 s at s = 24 (the
# s x s determinant by elimination); at the default order 12, 0.17 s at s = 20
MAX_P3_S = 20
# painleve --mode p3-limit at s = 20 takes 0.33 s at --series-order 16, 0.87 s
# at 32, 1.5 s at 40 and 2.4 s at 48; at s = 1, 0.7 s at order 200 and
# 2.8 s at 300
MAX_P3_ORDER = 40
# hankel-verify at every bound at once (N = 4, s = 10, l = 10, k = 5) takes
# 0.9-1.2 s; one step past a bound takes 1.5 s at k = 6, 1.9 s at s = l = 14
# and 4.4 s at N = 5 (2.7 s at N = 6 even with s = 3, l = 4, k = 3, nearly all
# of it the permutation expansions of trace_adjugate)
MAX_HANKEL = {"N": 4, "s": 10, "l": 10, "k": 5}
# mc-estimate keeps an N x N table per chain; one chain of 64 sweeps takes 0.23
# s at N = 100. Of the work chains * (burn-in + samples * thin) * N^2, a unit
# costs most at N = 1: 2e6 sweeps take 3.1 s and 157 MB there (0.8 s at N = 14)
MAX_MC_N = 100
MAX_MC_WORK = 2_000_000
# The V closed form of leading-coeff is its net factor counts, with no gcd: at
# --eval-s 5/3 it takes 0.01 s at order 160, 0.06 s at 320 (a 0.6 MB document)
# and 0.18 s at 512 (1.6 MB); past about 550 that value leaves the float range
MAX_V_ORDER = 320
# mc-estimate builds Xi_1..Xi_n from exact a_{n,l}(N), N + 1 big integer
# powers per entry: 64 sweeps take 0.39 s at N = 100, n = 64 (0.21 s at n = 32,
# 0.5 s at n = 100) and 0.08 s at N = 50, n = 64
MAX_MC_ORDER = 64


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _parse_int_list(text):
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise ValueError("expected a comma-separated list of integers: %r" % text)


def _parse_exponent_list(text):
    """Exponents: numbers, with '_' marking a symbolic weight-absorbed slot."""
    out = []
    for p in text.split(","):
        if p == "":
            continue
        if p == "_":
            out.append(None)
            continue
        try:
            out.append(Fraction(p))
        except (ValueError, ZeroDivisionError):
            raise ValueError("bad exponent %r (use integers, rationals or '_')" % p)
    return out


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError("expected a rational number, got %r" % text)


def _float(x, option):
    """float(x), or exit 2 naming the option when x is beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError("%s is beyond the float range" % option)


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _parse_poly(text, arity):
    """Parse expressions like "x1^2 + 2*x1*x2 - 1/2*x2^4" into a SymPoly."""
    from .sympoly import SymPoly

    terms = text.replace(" ", "").replace("-", "+-").split("+")
    if len(terms) > 1 and not terms[0]:
        del terms[0]    # the empty term before a leading sign
    poly = SymPoly(arity)
    for term in terms:
        coeff = Fraction(1)
        if term.startswith("-"):
            coeff = -coeff
            term = term[1:]
        if not term:
            raise ValueError("--poly has an empty term: %r" % text)
        expo = [0] * arity
        for factor in term.split("*"):
            m = _FACTOR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= arity:
                    raise ValueError("variable x%d out of range for %d variables"
                                     % (idx, arity))
                expo[idx - 1] += int(m.group(2) or 1)
            else:
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError):
                    raise ValueError("cannot parse monomial factor %r" % factor)
        poly = poly + SymPoly(arity, {tuple(expo): coeff})
    return poly


def _default_seed():
    env = os.environ.get("CUEMOMENTS_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise ValueError("CUEMOMENTS_SEED must be an integer, got %r" % env)


def _check_domain(s, exponents):
    """Exit 2 unless the moment with these exponents converges at s."""
    bound = domain(exponents)
    if s <= bound:
        raise ValueError("the moment diverges for s <= (sum of exponents - 1)/2 "
                         "= %s; got s = %s" % (bound, s))


def _reject_divergent(text, exponents):
    """Parse --eval-s and exit 2 before the engine runs if the moment
    diverges there; at the bound itself _evaluate checks for a pole first."""
    s0 = _parse_rational(text)
    if s0 < domain(exponents):
        _check_domain(s0, exponents)
    return s0


def _evaluate(rf, s0, exponents, result):
    """Evaluate rf at the rational s0 (from _reject_divergent) into result,
    with exit 2 at a pole, outside the convergence domain or where the
    value leaves the float range."""
    try:
        value = rf.eval(s0)
    except ZeroDivisionError:
        raise ValueError("pole at s = %s" % s0)
    _check_domain(s0, exponents)
    result["eval_s"] = rat_to_str(s0)
    result["value"] = rat_to_str(value)
    result["value_float"] = _float(value, "the value at --eval-s")


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _ratfun_json(rf):
    return {"num": rf.num.to_json(), "den": rf.den.to_json(), "repr": repr(rf)}


def _series_json(ps, through):
    n = min(through, ps.order) + 1
    return ["%d/%d" % _ratio(x, ps.den) for x in ps.num[:n]] + ["0/1"] * (n - len(ps.num))


def _canonical_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _emit(command, params, result, seeds, started, fmt):
    digest = hashlib.sha256(_canonical_dumps(result).encode()).hexdigest()
    manifest = {
        "command": command,
        "params": params,
        "seeds": seeds,
        "version": __version__,
        "wall_time_s": round(time.monotonic() - started, 6),
        "output_digest": digest,
    }
    doc = {"command": command, "result": result, "manifest": manifest}
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("key", "value"))
        for key, value in sorted(result.items()):
            writer.writerow((key, _canonical_dumps(value)
                             if isinstance(value, (dict, list)) else str(value)))
        return _write_stdout(out.getvalue())
    return _write_stdout(json.dumps(doc, indent=2) + "\n")


def _write_stdout(text):
    """Write text to stdout and flush it; False when the reader has closed
    the pipe. stdout then points at os.devnull, so that the flush at
    interpreter exit cannot raise again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return False
    return True


def _summary(text):
    sys.stderr.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_leading_coeff(args):
    orders = _parse_int_list(args.orders)
    exponents = _parse_exponent_list(args.exponents)
    if any(e is None for e in exponents):
        raise ValueError("'_' exponents are only meaningful for finite-moment")
    if args.with_constant and args.eval_s is None:
        raise ValueError("--with-constant requires --eval-s")
    if args.eval_s is not None:
        s0 = _reject_divergent(args.eval_s, exponents)
        if args.with_constant and s0 > MAX_CONSTANT_S:
            raise ValueError("--with-constant needs s <= %d: G(s+1)^2/G(2s+1) "
                             "leaves the float range beyond it" % MAX_CONSTANT_S)
    if args.variant == "Z":
        rf = limiting_moment(orders, exponents)
    else:
        MomentSpec(orders, exponents, "V", "limit")  # orders >= 1, decreasing
        # V-variant leading coefficients are wired through the closed-form
        # second-moment product: single order n with exponent 2 only.
        if len(orders) != 1 or exponents != [2]:
            raise ValueError("variant V supports a single order with exponent 2")
        if orders[0] > MAX_V_ORDER:
            raise ValueError("variant V supports --orders <= %d; got %d"
                             % (MAX_V_ORDER, orders[0]))
        rf = oracle_second_moment_V(orders[0])
    exponents = [int(e) for e in exponents]
    result = {
        "variant": args.variant,
        "orders": orders,
        "exponents": exponents,
        "rational": _ratfun_json(rf),
    }
    if args.eval_s is not None:
        _evaluate(rf, s0, exponents, result)
        if args.with_constant:
            # Multiply by G(s+1)^2/G(2s+1) and the 2^{-2 sum h_j n_j}
            # prefactor of the full leading-order coefficient.
            S = sum(n * e for n, e in zip(orders, exponents))
            const = keating_snaith_constant(s0) * 2.0 ** (-float(S))
            result["constant"] = const
            result["value_with_constant"] = const * result["value_float"]
    _summary("leading-coeff %s orders=%s exponents=%s -> %s"
             % (args.variant, orders, exponents, result["rational"]["repr"]))
    return result, EXIT_OK, None


def cmd_finite_moment(args):
    if args.N < 1:
        raise ValueError("--N must be >= 1")
    orders = _parse_int_list(args.orders)
    exponents = _parse_exponent_list(args.exponents)
    # '_' marks the exponent of the 0-th derivative, the power of the
    # polynomial itself: it is absorbed into the weight parameter s, so the
    # pair is dropped from the integrand
    absorbed = {i for i, pair in enumerate(zip(orders, exponents)) if pair == (0, None)}
    orders = [n for i, n in enumerate(orders) if i not in absorbed]
    exponents = [e for i, e in enumerate(exponents) if i not in absorbed]
    if None in exponents:
        raise ValueError("'_' marks the 0-th derivative slot; use it on order 0 only")
    spec = MomentSpec(orders=orders, exponents=exponents,
                      variant=args.variant, size=args.N)
    if args.eval_s is not None:
        s0 = _reject_divergent(args.eval_s, exponents)
    rf = finite_joint_moment(spec)
    result = {
        "N": args.N,
        "variant": args.variant,
        "orders": orders,
        "exponents": [int(e) for e in exponents],
        "rational": _ratfun_json(rf),
    }
    if args.eval_s is not None:
        _evaluate(rf, s0, exponents, result)
    _summary("finite-moment N=%d %s -> %s"
             % (args.N, args.variant, result["rational"]["repr"]))
    return result, EXIT_OK, None


def cmd_mc_estimate(args):
    from .mc import ChainConfig, estimate_joint_moment, sample_hp

    orders = _parse_int_list(args.orders)
    exponents = _parse_exponent_list(args.exponents)
    if any(e is None for e in exponents):
        raise ValueError("'_' exponents are only meaningful for finite-moment")
    s = _parse_rational(args.s)
    s_float = _float(s, "--s")
    float_exponents = [_float(e, "--exponents") for e in exponents]
    spec = MomentSpec(orders=orders, exponents=float_exponents,
                      variant=args.variant, size=args.N)
    config = ChainConfig(N=args.N, s=s_float, chains=args.chains,
                         burn_in=args.burn_in, samples=args.samples,
                         thin=args.thin, proposal_scale=args.proposal_scale,
                         seed=args.seed)
    _check_domain(s, exponents)
    if config.N > MAX_MC_N:
        raise ValueError("mc-estimate supports --N <= %d" % MAX_MC_N)
    if max(orders) > MAX_MC_ORDER:
        raise ValueError("mc-estimate supports --orders <= %d; got %d"
                         % (MAX_MC_ORDER, max(orders)))
    work = config.chains * (config.burn_in + config.samples * config.thin) * config.N ** 2
    if work > MAX_MC_WORK:
        raise ValueError("mc-estimate needs chains * (burn-in + samples * thin) "
                         "* N^2 <= %d; got %d" % (MAX_MC_WORK, work))
    batch = sample_hp(config)
    if not batch.flagged:
        est, stderr, ess = estimate_joint_moment(batch, spec)
        if not all(map(math.isfinite, (est, stderr, ess))):
            raise ValueError("the integrand leaves the float range at these "
                             "draws; lower --orders or --exponents")
    # result and manifest report an integral s as an int, any other as a float
    args.s = int(s) if s.denominator == 1 else s_float
    seeds = {"seed": config.seed, "chains": config.chains}
    if batch.flagged:
        result = {
            "flagged": True,
            "acceptance_rate": batch.acceptance_rate,
            "message": "chain diagnostics failed (acceptance rate out of range)",
        }
        _summary("mc-estimate FLAGGED: acceptance rate %.3f"
                 % batch.acceptance_rate)
        return result, EXIT_MC_DIAGNOSTICS, seeds
    result = {
        "N": args.N,
        "s": args.s,
        "variant": args.variant,
        "orders": orders,
        "exponents": float_exponents,
        "estimate": est,
        "stderr": stderr,
        "ess": ess,
        "acceptance_rate": batch.acceptance_rate,
        "flagged": False,
        "draws": int(len(batch.draws)),
    }
    _summary("mc-estimate N=%d s=%s -> %.6g +/- %.2g (ess %.0f)"
             % (args.N, args.s, est, stderr, ess))
    return result, EXIT_OK, seeds


def cmd_quadrature(args):
    from .mc import quadrature_expectation

    if args.N < 1:
        raise ValueError("--N must be >= 1")
    if args.nodes < 1:
        raise ValueError("--nodes must be >= 1")
    _float(args.s, "--s")
    try:
        P = _parse_poly(args.poly, args.N)
        value = quadrature_expectation(args.N, args.s, P,
                                       nodes_per_dim=args.nodes)
    except OverflowError:
        raise ValueError("a coefficient of --poly is beyond the float range")
    except ArithmeticError:
        raise ValueError("quadrature did not converge to the 1e-10 target with "
                         "--nodes %d; increase --nodes" % args.nodes)
    result = {"N": args.N, "s": args.s, "poly": args.poly,
              "nodes_per_dim": args.nodes, "value": value}
    try:
        exact = hp_expectation(P).eval(Fraction(args.s))
        result["exact"] = rat_to_str(exact)
        result["abs_error"] = abs(value - float(exact))
    except (ValueError, ZeroDivisionError):
        pass
    _summary("quadrature N=%d s=%d <%s> -> %.12g"
             % (args.N, args.s, args.poly, value))
    return result, EXIT_OK, None


def cmd_painleve(args):
    from .painleve import (painleve5_residual, sigma_p3_residual, tau_finiteN,
                           tau_limit)

    if args.s < 1:
        raise ValueError("s must be a positive integer")
    if not 0 <= args.series_order <= MAX_P3_ORDER:
        raise ValueError("--series-order must be >= 0 and <= %d" % MAX_P3_ORDER)
    max_s = MAX_P5_S if args.mode == "p5-finite" else MAX_P3_S
    if args.s > max_s:
        raise ValueError("%s supports --s <= %d" % (args.mode, max_s))
    if args.mode == "p5-finite":
        if args.N is None or args.N < 1:
            raise ValueError("p5-finite requires --N >= 1")
        if args.N > MAX_P5_N:
            raise ValueError("p5-finite supports --N <= %d" % MAX_P5_N)
        tau = tau_finiteN(args.N, args.s)
        res = painleve5_residual(tau, args.N, args.s)
        zero = res.is_zero()
        result = {
            "mode": args.mode,
            "N": args.N,
            "s": args.s,
            "residual_zero": zero,
            "tau": _ratfun_json(tau),
        }
        _summary("painleve p5-finite N=%d s=%d residual_zero=%s"
                 % (args.N, args.s, zero))
        return result, (EXIT_OK if zero else EXIT_IDENTITY_FAILED), None
    order = args.series_order
    tau = tau_limit(args.s, K=order + 4)
    res = sigma_p3_residual(tau, args.s)
    coeffs = _series_json(res, through=order)
    zero = all(c == "0/1" for c in coeffs)
    result = {
        "mode": args.mode,
        "s": args.s,
        "series_order": order,
        "residual_coefficients": coeffs,
        "residual_zero_through_order": zero,
        "tau_series": _series_json(tau, through=order),
        "tau_leading_coefficient": rat_to_str(tau[2]),
    }
    _summary("painleve p3-limit s=%d zero through order %d: %s"
             % (args.s, order, zero))
    return result, (EXIT_OK if zero else EXIT_IDENTITY_FAILED), None


def cmd_hankel_verify(args):
    from .exact import Poly
    from .hankel import (alternating_sum_residual, cor_relation_residuals,
                         initial_condition_residuals, theta_derivative_residual,
                         theta_three_term_residual, verify_vector_recursion)

    for name, low in (("N", 1), ("s", 1), ("l", 3), ("k", 2)):
        if getattr(args, name) < low:
            raise ValueError("--%s must be >= %d" % (name, low))
        if getattr(args, name) > MAX_HANKEL[name]:
            raise ValueError("--%s must be <= %d" % (name, MAX_HANKEL[name]))
    t0 = _parse_rational(args.t)
    checks = []

    def record(name, residual_zero, residual_repr):
        checks.append({"name": name, "passed": bool(residual_zero),
                       "residual": residual_repr})

    def exp_repr(c, p):
        """The residual e^{-ct} p, for the decay c each check documents."""
        return "e^(-%s t)*(%s)" % (c, p)

    for m in range(0, 6):
        r = theta_derivative_residual(m, args.N, args.s)
        record("theta-derivative m=%d" % m, r.is_zero(), exp_repr(1, r))
    for gamma in range(0, 6):
        r = theta_three_term_residual(gamma, args.N, args.s)
        record("theta-three-term gamma=%d" % gamma, r == Poly(), repr(r))
    for l in range(1, args.l + 1):
        r = alternating_sum_residual(args.N, args.s, l)
        record("alternating-sum l=%d" % l, r.is_zero(), exp_repr(args.N, r))
    for name, r in zip(("initial-condition-1", "initial-condition-2"),
                       initial_condition_residuals(args.N, args.s)):
        record(name, r.is_zero_through_ord(), "0" if r.is_zero_through_ord()
               else str(float(r.max_abs_at(t0))))
    r = verify_vector_recursion(args.l, args.k, args.N, args.s, t0=t0,
                                perturb=args.perturb)
    record("vector-recursion l=%d k=%d%s"
           % (args.l, args.k, " (perturbed)" if args.perturb else ""),
           r == 0, rat_to_str(r))
    for name, r in zip(("char-fn-relation-1", "char-fn-relation-2"),
                       cor_relation_residuals(args.N, args.s)):
        record(name, r.is_zero(), exp_repr(args.N, r))

    failed = [c["name"] for c in checks if not c["passed"]]
    result = {"N": args.N, "s": args.s, "l": args.l, "k": args.k,
              "t": rat_to_str(t0), "perturbed": args.perturb,
              "checks": checks, "all_passed": not failed, "failed": failed}
    _summary("hankel-verify N=%d s=%d: %d/%d checks passed%s"
             % (args.N, args.s, len(checks) - len(failed), len(checks),
                "" if not failed else " (failed: %s)" % ", ".join(failed)))
    return result, (EXIT_OK if not failed else EXIT_IDENTITY_FAILED), None


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise ValueError, so that they print
    the JSON error document and exit 2; subparsers inherit the class."""

    def error(self, message):
        raise ValueError(message)


def build_parser():
    parser = _Parser(
        prog="cuemoments",
        description="Joint moments of characteristic-polynomial derivatives: "
                    "exact rational values, Hankel/Painlevé verification, "
                    "Monte Carlo and quadrature cross-checks.")
    parser.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("leading-coeff",
                       help="limiting joint moment as an exact rational "
                            "function of s")
    p.add_argument("--orders", required=True,
                   help="comma-separated derivative orders n1,n2,...")
    p.add_argument("--exponents", required=True,
                   help="comma-separated even exponents 2h1,2h2,...")
    p.add_argument("--variant", choices=("V", "Z"), required=True,
                   help="Z: rescaled real-on-circle polynomial; V: bare "
                        "polynomial (single order, exponent 2, via the "
                        "closed-form product)")
    p.add_argument("--eval-s", help="evaluate the rational function at s")
    p.add_argument("--with-constant", action="store_true",
                   help="also multiply the evaluation by G(s+1)^2/G(2s+1) "
                        "and the 2^{-sum 2h_j n_j} prefactor")
    p.set_defaults(func=cmd_leading_coeff)

    p = sub.add_parser("finite-moment",
                       help="finite-size joint moment ratio, exact in s")
    p.add_argument("--N", type=int, required=True, help="matrix size")
    p.add_argument("--orders", required=True)
    p.add_argument("--exponents", required=True,
                   help="even integers; '_' marks an exponent absorbed into "
                        "the weight parameter s (0-th derivative slot)")
    p.add_argument("--variant", choices=("V", "Z"), required=True)
    p.add_argument("--eval-s")
    p.set_defaults(func=cmd_finite_moment)

    p = sub.add_parser("mc-estimate",
                       help="Monte Carlo estimate of a joint moment ratio "
                            "(any positive real exponents)")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", required=True,
                   help="weight parameter s > 0 (integer, rational or decimal)")
    p.add_argument("--orders", required=True)
    p.add_argument("--exponents", required=True)
    p.add_argument("--variant", choices=("V", "Z"), default="Z")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (default: CUEMOMENTS_SEED env var or 0)")
    p.add_argument("--chains", type=int, default=4)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--burn-in", type=int, default=500)
    p.add_argument("--thin", type=int, default=1)
    p.add_argument("--proposal-scale", type=float, default=1.0)
    p.set_defaults(func=cmd_mc_estimate)

    p = sub.add_parser("quadrature",
                       help="tensor Gauss-Legendre expectation of a "
                            "polynomial under the heavy-tailed ensemble")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--poly", required=True,
                   help="polynomial in x1..xN, e.g. \"x1^2\" or "
                        "\"x1^2*x2 + 1/2*x1\"")
    p.add_argument("--nodes", type=int, default=64,
                   help="quadrature nodes per dimension")
    p.set_defaults(func=cmd_quadrature)

    p = sub.add_parser("painleve",
                       help="verify the nonlinear ODE satisfied by the "
                            "log-derivative tau function")
    p.add_argument("--mode", choices=("p5-finite", "p3-limit"), required=True)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--series-order", type=int, default=12)
    p.set_defaults(func=cmd_painleve)

    p = sub.add_parser("hankel-verify",
                       help="run the exact Hankel-determinant identity suite")
    p.add_argument("--l", type=int, default=3)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--N", type=int, default=2)
    p.add_argument("--s", type=int, default=2)
    p.add_argument("--t", default="1", help="evaluation point (rational)")
    p.add_argument("--perturb", action="store_true",
                   help="negative control: perturb a recursion matrix entry")
    p.set_defaults(func=cmd_hankel_verify)

    return parser


@functools.cache
def _parser():
    """The parser, built on the first call to main and kept for the process:
    parse_args leaves it unchanged, and a build takes about 1.3 ms (2 cores,
    Python 3.11), half the median query of a sweep. It is not built at
    import, so that importing stays cheap and set_defaults(func=...) binds
    the cmd_* functions as they are when main first runs."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        started = time.monotonic()
        if args.command == "mc-estimate" and args.seed is None:
            args.seed = _default_seed()
        result, code, seeds = args.func(args)
    except (ValueError, OverflowError) as exc:
        if not _write_stdout(json.dumps({"error": str(exc), "exit_code": EXIT_INVALID}) + "\n"):
            return EXIT_STDOUT_CLOSED
        _summary("error: %s" % exc)
        return EXIT_INVALID
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "format") and v is not None}
    if not _emit(args.command, params, result, seeds, started, args.format):
        return EXIT_STDOUT_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())
