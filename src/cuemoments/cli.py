"""Command-line front end.

Subcommands expose the exact, Monte Carlo, quadrature, Painlevé and
Hankel-identity engines.  Every run prints a JSON document to stdout
(machine-readable; exact rationals serialized as "p/q" decimal strings,
never floats) and a one-line human summary to stderr, and embeds a run
manifest (command, parameters, seeds, version, wall time, output digest)
so any run can be reproduced bit-for-bit.

Exit codes: 0 success; 2 invalid or unsupported input; 3 Monte Carlo
diagnostics failure (flagged chain); 4 a verified identity failed; 141
(128 + SIGPIPE, as a shell reports a writer ended by a broken pipe) the
reader closed stdout before the document was written, and the run stops
quietly.
"""

import argparse
import functools
import hashlib
import json
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
from .exact import rat_to_str

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_MC_DIAGNOSTICS = 3
EXIT_IDENTITY_FAILED = 4
EXIT_STDOUT_CLOSED = 141

# G(s+1)^2/G(2s+1) is 1.7e-296 at s = 16 and below every float from s = 17
MAX_CONSTANT_S = 16
# painleve --mode p5-finite takes 3.2 s at N = 12, s = 1 (5.4 s at s = 3,
# 9.3 s at s = 6, 15 s at s = 8, 22 s at s = 10) and 24 s at N = 16, s = 1
MAX_P5_N = 12
MAX_P5_S = 6
# painleve --mode p3-limit at the default --series-order 12 takes 0.4 s at
# s = 7, 1.6 s at s = 10 (2.4 s at order 20), 3.3 s at s = 11 and 7.0 s at
# s = 12: the s x s determinant has 2^s minors
MAX_P3_S = 10
# painleve --mode p3-limit at s = 10 takes 0.9 s at --series-order 16, 2.5 s
# at 32, 5.5 s at 40 and 6.2 s at 48; at s = 1, 1.25 s at order 200 and
# 8.2 s at 300
MAX_P3_ORDER = 40
# hankel-verify at every bound at once (N = 4, s = 10, l = 10, k = 5) takes
# 6.6 s; one step past a bound takes 10.6 s at k = 6, 13 s at s = l = 14 and
# 25 s at N = 5 (12.5 s at N = 6 even with s = 3, l = 4, k = 3)
MAX_HANKEL = {"N": 4, "s": 10, "l": 10, "k": 5}


class CliError(Exception):
    """Invalid or unsupported input; maps to exit code 2."""

    def __init__(self, message, code=EXIT_INVALID):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------

def _parse_int_list(text):
    try:
        return [int(p) for p in text.split(",") if p != ""]
    except ValueError:
        raise CliError("expected a comma-separated list of integers: %r" % text)


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
            raise CliError("bad exponent %r (use integers, rationals or '_')" % p)
    return out


def _parse_rational(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise CliError("expected a rational number, got %r" % text)


_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def _parse_poly(text, arity):
    """Parse expressions like "x1^2 + 2*x1*x2 - 1/2*x2^4" into a SymPoly."""
    from .sympoly import SymPoly

    cleaned = text.replace(" ", "").replace("-", "+-")
    poly = SymPoly(arity)
    for term in cleaned.split("+"):
        if not term:
            continue
        coeff = Fraction(1)
        if term.startswith("-"):
            coeff = -coeff
            term = term[1:]
        expo = [0] * arity
        for factor in term.split("*"):
            m = _FACTOR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= arity:
                    raise CliError("variable x%d out of range for %d variables"
                                   % (idx, arity))
                expo[idx - 1] += int(m.group(2) or 1)
            else:
                try:
                    coeff *= Fraction(factor)
                except (ValueError, ZeroDivisionError):
                    raise CliError("cannot parse monomial factor %r" % factor)
        poly = poly + SymPoly(arity, {tuple(expo): coeff})
    return poly


def _default_seed():
    env = os.environ.get("CUEMOMENTS_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise CliError("CUEMOMENTS_SEED must be an integer, got %r" % env)


def _check_domain(s, exponents):
    """Exit 2 unless the moment with these exponents converges at s."""
    bound = domain(exponents)
    if s <= bound:
        raise CliError("the moment diverges for s <= (sum of exponents - 1)/2 "
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
    with exit 2 at a pole or outside the convergence domain; returns the
    value."""
    try:
        value = rf.eval(s0)
    except ZeroDivisionError:
        raise CliError("pole at s = %s" % s0)
    _check_domain(s0, exponents)
    result["eval_s"] = rat_to_str(s0)
    result["value"] = rat_to_str(value)
    result["value_float"] = float(value)
    return value


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _ratfun_json(rf):
    return {"num": rf.num.to_json(), "den": rf.den.to_json(), "repr": repr(rf)}


def _series_json(ps, through=None):
    n = len(ps.coeffs) if through is None else min(through + 1, len(ps.coeffs))
    return [rat_to_str(c) for c in ps.coeffs[:n]]


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
        rows = [("key", "value")]
        for key, value in sorted(result.items()):
            rows.append((key, _canonical_dumps(value)
                         if isinstance(value, (dict, list)) else str(value)))
        return _write_stdout("\n".join("%s,%s" % r for r in rows) + "\n")
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
        raise CliError("'_' exponents are only meaningful for finite-moment")
    if len(orders) != len(exponents):
        raise CliError("orders and exponents must have equal length")
    if any(e.denominator != 1 for e in exponents):
        raise CliError("exact engine needs integer exponents; use mc-estimate")
    exponents = [int(e) for e in exponents]
    if args.with_constant and args.eval_s is None:
        raise CliError("--with-constant requires --eval-s")
    if args.eval_s is not None:
        s0 = _reject_divergent(args.eval_s, exponents)
        if args.with_constant and s0 > MAX_CONSTANT_S:
            raise CliError("--with-constant needs s <= %d: G(s+1)^2/G(2s+1) "
                           "leaves the float range beyond it" % MAX_CONSTANT_S)
    try:
        if args.variant == "Z":
            rf = limiting_moment(orders, exponents)
        else:
            # V-variant leading coefficients are wired through the closed-form
            # second-moment product: single order n with exponent 2 only.
            if len(orders) != 1 or exponents != [2]:
                raise CliError("variant V supports a single order with exponent 2")
            rf = oracle_second_moment_V(orders[0])
    except ValueError as exc:
        raise CliError(str(exc))
    result = {
        "variant": args.variant,
        "orders": orders,
        "exponents": exponents,
        "rational": _ratfun_json(rf),
    }
    if args.eval_s is not None:
        value = _evaluate(rf, s0, exponents, result)
        if args.with_constant:
            # Multiply by G(s+1)^2/G(2s+1) and the 2^{-2 sum h_j n_j}
            # prefactor of the full leading-order coefficient.
            S = sum(n * e for n, e in zip(orders, exponents))
            const = keating_snaith_constant(s0) * 2.0 ** (-float(S))
            result["constant"] = const
            result["value_with_constant"] = const * float(value)
    _summary("leading-coeff %s orders=%s exponents=%s -> %s"
             % (args.variant, orders, exponents, result["rational"]["repr"]))
    return result, EXIT_OK


def cmd_finite_moment(args):
    if args.N < 1:
        raise CliError("--N must be >= 1")
    orders = _parse_int_list(args.orders)
    exponents = _parse_exponent_list(args.exponents)
    if len(orders) != len(exponents):
        raise CliError("orders and exponents must have equal length")
    # '_' marks an exponent absorbed symbolically into the weight parameter s
    # (it sits on the 0-th derivative), so the pair is dropped from the
    # polynomial integrand.
    if any(e is None and n != 0 for n, e in zip(orders, exponents)):
        raise CliError("'_' marks the 0-th derivative slot; use it on order 0 only")
    pairs = [(n, e) for n, e in zip(orders, exponents) if e is not None]
    if any(n == 0 for n, e in pairs):
        raise CliError("exponents on order 0 must be '_' (absorbed into s)")
    if any(e.denominator != 1 or e <= 0 or int(e) % 2 for _, e in pairs):
        raise CliError("exact engine needs positive even integer exponents; "
                       "use mc-estimate for others")
    if not pairs:
        raise CliError("at least one non-'_' exponent is required")
    if args.eval_s is not None:
        s0 = _reject_divergent(args.eval_s, [e for _, e in pairs])
    try:
        spec = MomentSpec(orders=[n for n, _ in pairs],
                          exponents=[int(e) for _, e in pairs],
                          variant=args.variant, size=args.N)
        rf = finite_joint_moment(spec)
    except ValueError as exc:
        raise CliError(str(exc))
    result = {
        "N": args.N,
        "variant": args.variant,
        "orders": spec.orders,
        "exponents": spec.exponents,
        "rational": _ratfun_json(rf),
    }
    if args.eval_s is not None:
        _evaluate(rf, s0, spec.exponents, result)
    _summary("finite-moment N=%d %s -> %s"
             % (args.N, args.variant, result["rational"]["repr"]))
    return result, EXIT_OK


def cmd_mc_estimate(args):
    from .mc import ChainConfig, _block_stats, joint_moment_values, sample_hp

    orders = _parse_int_list(args.orders)
    exponents = _parse_exponent_list(args.exponents)
    if any(e is None for e in exponents):
        raise CliError("'_' exponents are only meaningful for finite-moment")
    if len(orders) != len(exponents):
        raise CliError("orders and exponents must have equal length")
    s = _parse_rational(args.s)
    try:
        spec = MomentSpec(orders=orders, exponents=[float(e) for e in exponents],
                          variant=args.variant, size=args.N)
        config = ChainConfig(N=args.N, s=float(s), chains=args.chains,
                             burn_in=args.burn_in, samples=args.samples,
                             thin=args.thin, proposal_scale=args.proposal_scale,
                             seed=args.seed)
        _check_domain(s, exponents)
        # e.g. numpy's "Maximum allowed dimension exceeded" for a huge --samples
        batch = sample_hp(config)
    except (ValueError, OverflowError) as exc:
        raise CliError(str(exc))
    # result and manifest report an integral s as an int, any other as a float
    args.s = int(s) if s.denominator == 1 else float(s)
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
    vals = joint_moment_values(batch, spec)
    try:
        est, stderr = _block_stats(vals)
    except ValueError as exc:  # too few draws for block-mean errors
        raise CliError(str(exc))
    result = {
        "N": args.N,
        "s": args.s,
        "variant": args.variant,
        "orders": orders,
        "exponents": [float(e) for e in exponents],
        "estimate": est,
        "stderr": stderr,
        "ess": batch.ess(vals),
        "acceptance_rate": batch.acceptance_rate,
        "flagged": False,
        "draws": int(len(batch.draws)),
    }
    _summary("mc-estimate N=%d s=%s -> %.6g +/- %.2g (ess %.0f)"
             % (args.N, args.s, est, stderr, result["ess"]))
    return result, EXIT_OK, seeds


def cmd_quadrature(args):
    from .mc import quadrature_expectation

    if args.N < 1:
        raise CliError("--N must be >= 1")
    if args.nodes < 1:
        raise CliError("--nodes must be >= 1")
    try:
        P = _parse_poly(args.poly, args.N)
        value = quadrature_expectation(args.N, args.s, P,
                                       nodes_per_dim=args.nodes)
    except ValueError as exc:
        raise CliError(str(exc))
    except OverflowError:
        raise CliError("a coefficient of --poly is beyond the float range")
    except ArithmeticError:
        raise CliError("quadrature did not converge to the 1e-10 target with "
                       "--nodes %d; increase --nodes" % args.nodes)
    result = {"N": args.N, "s": args.s, "poly": args.poly,
              "nodes_per_dim": args.nodes, "value": value}
    try:
        exact = hp_expectation(P, args.N).eval(Fraction(args.s))
        result["exact"] = rat_to_str(exact)
        result["abs_error"] = abs(value - float(exact))
    except (ValueError, ZeroDivisionError):
        pass
    _summary("quadrature N=%d s=%d <%s> -> %.12g"
             % (args.N, args.s, args.poly, value))
    return result, EXIT_OK


def cmd_painleve(args):
    from .painleve import (painleve5_residual, sigma_p3_residual, tau_finiteN,
                           tau_limit)

    if args.s < 1:
        raise CliError("s must be a positive integer")
    if not 0 <= args.series_order <= MAX_P3_ORDER:
        raise CliError("--series-order must be >= 0 and <= %d" % MAX_P3_ORDER)
    max_s = MAX_P5_S if args.mode == "p5-finite" else MAX_P3_S
    if args.s > max_s:
        raise CliError("%s supports --s <= %d" % (args.mode, max_s))
    if args.mode == "p5-finite":
        if args.N is None or args.N < 1:
            raise CliError("p5-finite requires --N >= 1")
        if args.N > MAX_P5_N:
            raise CliError("p5-finite supports --N <= %d" % MAX_P5_N)
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
        return result, (EXIT_OK if zero else EXIT_IDENTITY_FAILED)
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
    return result, (EXIT_OK if zero else EXIT_IDENTITY_FAILED)


def cmd_hankel_verify(args):
    from .exact import Poly
    from .hankel import (alternating_sum_residual, cor_relation_residuals,
                         initial_condition_residuals, theta_derivative_residual,
                         theta_three_term_residual, verify_vector_recursion)

    for name, low in (("N", 1), ("s", 1), ("l", 3), ("k", 2)):
        if getattr(args, name) < low:
            raise CliError("--%s must be >= %d" % (name, low))
        if getattr(args, name) > MAX_HANKEL[name]:
            raise CliError("--%s must be <= %d" % (name, MAX_HANKEL[name]))
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
    return result, (EXIT_OK if not failed else EXIT_IDENTITY_FAILED)


# ---------------------------------------------------------------------------
# argument parser
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors raise CliError, so that they print
    the JSON error document and exit 2; subparsers inherit the class."""

    def error(self, message):
        raise CliError(message)


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
        out = args.func(args)
    except CliError as exc:
        if not _write_stdout(json.dumps({"error": str(exc), "exit_code": exc.code}) + "\n"):
            return EXIT_STDOUT_CLOSED
        _summary("error: %s" % exc)
        return exc.code
    if len(out) == 3:
        result, code, seeds = out
    else:
        result, code = out
        seeds = None
    params = {k: v for k, v in vars(args).items()
              if k not in ("func", "format") and v is not None}
    if not _emit(args.command, params, result, seeds, started, args.format):
        return EXIT_STDOUT_CLOSED
    return code


if __name__ == "__main__":
    sys.exit(main())
