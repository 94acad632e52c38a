"""Answer checks, run by the driver outside the timed region.

Each answer is checked against an independent route where one exists: the
closed-form oracles, quadrature against the exact engine, and Monte Carlo
against an exact or quadrature target. Other answers are compared with the
canonical result digests in ``reference.json``, recorded with
``record_reference.py``.

``check`` returns ``(status, reason)``. ``ok`` passes. ``failed`` is a query
that raised, exited with a code other than its documented one, or missed the
statistical Monte Carlo check. ``wrong`` is a deterministic answer that
disagrees with its check; a run with one is not correct.
"""

import hashlib
import json
import os
from fractions import Fraction

import numpy as np

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
MC_SIGMAS = 4
QUAD_RTOL = 1e-9


def digest(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True, separators=(",", ":"))
                          .encode()).hexdigest()


def rational_part(result):
    return {"num": result["rational"]["num"], "den": result["rational"]["den"]}


def p5_part(result):
    return {"num": result["tau"]["num"], "den": result["tau"]["den"]}


def p3_part(result):
    return {"tau_series": result["tau_series"],
            "tau_leading_coefficient": result["tau_leading_coefficient"]}


def _horner(coeffs, x):
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + Fraction(c)
    return out


def _xi_abs_power(X, N, n, e, coeffs):
    """2^{-n e} |Xi_n(x)|^e on an (npts, N) array, with Xi_n = sum_l a_{n,l} e_l
    and e_l built column by column."""
    elem = [np.ones(len(X))] + [np.zeros(len(X)) for _ in range(N)]
    for i in range(N):
        for k in range(N, 0, -1):
            elem[k] = elem[k] + X[:, i] * elem[k - 1]
    xi = sum(coeffs[l] * elem[l] for l in range(min(n, N) + 1))
    return 2.0 ** (-n * e) * np.abs(xi) ** e


class Checker:
    def __init__(self, reference=None):
        if reference is None:
            with open(REFERENCE_PATH) as fh:
                reference = json.load(fh)
        self.reference = reference
        self._targets = {}

    # -- expected values --------------------------------------------------

    def oracle(self, key):
        """Closed-form rational for a spec key, or None when there is none."""
        from cuemoments.cauchy import (oracle_finiteN_F20, oracle_second_moment_V,
                                       oracle_second_moment_Y)
        words = key.split()
        if words[0] == "finite-moment" and words[2:] == ["Z", "2", "2"]:
            return oracle_finiteN_F20(int(words[1]))
        if words[0] == "leading-coeff" and words[3] == "2" and "," not in words[2]:
            n = int(words[2])
            return oracle_second_moment_Y(n) if words[1] == "Z" else oracle_second_moment_V(n)
        return None

    def mc_target(self, c):
        """Exact value for integer exponents, else a quadrature value."""
        key = (c["N"], c["s"], c["variant"], tuple(c["orders"]), tuple(c["exponents"]))
        if key not in self._targets:
            self._targets[key] = self._compute_mc_target(c)
        return self._targets[key]

    def _compute_mc_target(self, c):
        from cuemoments.cauchy import MomentSpec, finite_joint_moment, oracle_finiteN_F20
        from cuemoments.mc import quadrature_expectation
        from cuemoments.symfunc import a_coeff
        N, s, orders, exponents = c["N"], c["s"], c["orders"], c["exponents"]
        if all(float(e).is_integer() for e in exponents):
            exps = tuple(int(e) for e in exponents)
            if c["variant"] == "Z" and tuple(orders) == (2,) and exps == (2,):
                return float(oracle_finiteN_F20(N).eval(Fraction(s)))
            spec = MomentSpec(tuple(orders), exps, c["variant"], N)
            return float(finite_joint_moment(spec).eval(Fraction(s)))
        if c["variant"] != "Z" or len(orders) != 1 or N > 2:
            raise ValueError("no quadrature target for %r" % (c,))
        n, e = orders[0], float(exponents[0])
        coeffs = [a_coeff(n, l, N) for l in range(min(n, N) + 1)]
        nodes = 400 if N == 1 else 160
        return float(quadrature_expectation(
            N, s, lambda X: _xi_abs_power(X, N, n, e, coeffs),
            nodes_per_dim=nodes, check=False))

    # -- the check -------------------------------------------------------

    def check(self, query, out):
        if out.get("error"):
            return "failed", "raised %s" % out["error"].splitlines()[-1]
        if out["exit"] != query["exit"]:
            return "failed", "exit %r, documented %d" % (out["exit"], query["exit"])
        c = query["check"]
        try:
            doc = json.loads(out["stdout"])
        except ValueError:
            return ("failed" if c["kind"] == "error" else "wrong"), "stdout is not JSON"
        if c["kind"] == "error":
            if doc.get("exit_code") != 2 or not doc.get("error"):
                return "failed", "no JSON error document"
            return "ok", ""
        result = doc["result"]
        return getattr(self, "_check_" + c["kind"])(c, result)

    def _reference_matches(self, key, part):
        ref = self.reference.get(key)
        if ref is None:
            return "wrong", "no reference recorded for %r" % key
        if digest(part) != ref:
            return "wrong", "result differs from the recorded reference"
        return "ok", ""

    def _check_rational(self, c, result):
        part = rational_part(result)
        oracle = self.oracle(c["key"])
        if oracle is not None:
            if part != {"num": oracle.num.to_json(), "den": oracle.den.to_json()}:
                return "wrong", "rational differs from the closed-form oracle"
        else:
            status = self._reference_matches(c["key"], part)
            if status[0] != "ok":
                return status
        s0 = Fraction(c["eval_s"])
        value = _horner(part["num"], s0) / _horner(part["den"], s0)
        if result.get("eval_s") != "%d/%d" % (s0.numerator, s0.denominator) or \
                Fraction(result.get("value")) != value:
            return "wrong", "value at s = %s differs from the rational" % s0
        return "ok", ""

    def _check_hankel(self, c, result):
        checks = result["checks"]
        if len(checks) != 17 + c["l"]:
            return "wrong", "expected %d identity checks, got %d" % (17 + c["l"], len(checks))
        if not result["all_passed"] or not all(x["passed"] for x in checks):
            return "wrong", "identities failed: %s" % result["failed"]
        return "ok", ""

    def _check_p5(self, c, result):
        if result["residual_zero"] is not True:
            return "wrong", "Painleve V residual not zero"
        return self._reference_matches(c["key"], p5_part(result))

    def _check_p3(self, c, result):
        coeffs = result["residual_coefficients"]
        if result["residual_zero_through_order"] is not True or \
                len(coeffs) != c["order"] + 1 or any(x != "0/1" for x in coeffs):
            return "wrong", "sigma-Painleve III' residual not zero"
        return self._reference_matches(c["key"], p3_part(result))

    def _check_quadrature(self, c, result):
        if "exact" not in result:
            return "wrong", "no exact value beside the quadrature value"
        exact = float(Fraction(result["exact"]))
        if abs(result["value"] - exact) / max(abs(exact), 1e-3) >= QUAD_RTOL:
            return "wrong", "quadrature %r vs exact %r" % (result["value"], exact)
        return "ok", ""

    def _check_mc(self, c, result):
        if result["flagged"] or result["draws"] != c["draws"]:
            return "wrong", "flagged chain or wrong draw count"
        target = self.mc_target(c)
        if abs(result["estimate"] - target) > MC_SIGMAS * result["stderr"]:
            return "failed", "estimate %.6g +/- %.2g misses target %.6g by more than %d stderr" % (
                result["estimate"], result["stderr"], target, MC_SIGMAS)
        return "ok", ""
