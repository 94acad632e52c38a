"""Spans and counts at the boundaries of the cuemoments layers.

The tracer wraps layer functions from the benchmark's side; no file under
``src/`` changes. A function is patched at every name its callers look up:
each ``cuemoments`` module attribute bound to it (``cauchy.vandermonde_squared``
as well as ``symfunc.vandermonde_squared``) and each class attribute (both
``Poly.__mul__`` and ``Poly.__rmul__``). Functions the CLI imports at call
time, such as ``mc._integrand_values``, are found through their module.

Spans (name, start, end, parent, query id) stay in memory until the pass
ends. A layer's self time is its span's duration minus the time its child
spans cover.
"""

import functools
import json
import math
import sys
import time

# (metric prefix, module, attribute, workload meant to exercise it)
LAYERS = (
    ("cauchy.hp_expectation", "cauchy", "hp_expectation", "exact-sweep"),
    ("symfunc.vandermonde_squared", "symfunc", "vandermonde_squared", "exact-sweep"),
    ("symfunc.xi_poly", "symfunc", "xi_poly", "exact-sweep"),
    ("symfunc.v_variant_integrand", "symfunc", "v_variant_integrand", "exact-sweep"),
    ("sympoly.mul", "sympoly", "SymPoly.__mul__", "exact-sweep"),
    ("exact.poly_mul", "exact", "Poly.__mul__", "identity-suite"),
    ("exact.poly_gcd", "exact", "Poly.gcd", "identity-suite"),
    ("exact.series_mul", "exact", "PowerSeries.__mul__", "identity-suite"),
    ("hankel.hankel_det", "hankel", "hankel_det", "identity-suite"),
    ("hankel.det_poly_bareiss", "hankel", "det_poly_bareiss", "identity-suite"),
    ("hankel.det_perm", "hankel", "det_perm", "identity-suite"),
    ("hankel.trace_adjugate", "hankel", "trace_adjugate", "identity-suite"),
    ("hankel.verify_vector_recursion", "hankel", "verify_vector_recursion", "identity-suite"),
    ("painleve.tau_finiteN", "painleve", "tau_finiteN", "identity-suite"),
    ("painleve.painleve5_residual", "painleve", "painleve5_residual", "identity-suite"),
    ("painleve.phi_series", "painleve", "phi_series", "identity-suite"),
    ("painleve.sigma_p3_residual", "painleve", "sigma_p3_residual", "identity-suite"),
    ("mc.sample_hp", "mc", "sample_hp", "numerical"),
    ("mc.integrand", "mc", "_integrand_values", "numerical"),
    ("mc.quadrature_expectation", "mc", "quadrature_expectation", "numerical"),
)

# Counts recorded beside the spans: (metric, unit, workload meant to move it).
# Counts repeat exactly for a given query list; ratios derive from counts.
COUNTS = (
    ("exact.ratfun_new.calls", "count", "identity-suite"),
    ("sympoly.mul.term_products", "count", "exact-sweep"),
    ("sympoly.mul.terms_out", "count", "exact-sweep"),
    ("symfunc.vandermonde_squared.max_terms", "count", "exact-sweep"),
    ("exact.poly_gcd.nontrivial_ratio", "ratio", "identity-suite"),
    ("hankel.det_perm.max_size", "count", "identity-suite"),
    ("hankel.det_perm.perm_terms", "count", "identity-suite"),
    ("hankel.det_poly_bareiss.max_size", "count", "identity-suite"),
    ("mc.coord_updates", "count", "numerical"),
    ("mc.accept_ratio", "ratio", "numerical"),
    ("mc.integrand_draws", "count", "numerical"),
    ("mc.quad_points", "count", "numerical"),
    ("mc.quad_points_useful_ratio", "ratio", "numerical"),
)

# Metrics derived from the timings of a traced run, reported with the layers.
TIMED = (
    ("cli.main.self_s", "s", "all"),
    ("mc.ess_per_s", "1/s", "numerical"),
    ("trace.overhead_s", "s", "all"),
)


def per_layer_metrics():
    """Every per-layer metric: (name, unit, workload meant to move it)."""
    out = []
    for prefix, _, _, workload in LAYERS:
        out += [(prefix + ".calls", "count", workload),
                (prefix + ".total_s", "s", workload),
                (prefix + ".self_s", "s", workload)]
    return out + list(COUNTS) + list(TIMED)


def _resolve(module, attr):
    """(owner, name) pairs through which callers reach module.attr."""
    mod = sys.modules["cuemoments." + module]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(mod, cls_name)
        fn = vars(cls)[meth]
        return fn, [(cls, k) for k, v in vars(cls).items() if v is fn]
    fn = getattr(mod, attr)
    owners = []
    for name, m in list(sys.modules.items()):
        if name == "cuemoments" or name.startswith("cuemoments."):
            owners += [(m, k) for k, v in vars(m).items() if v is fn]
    return fn, owners


class Tracer:
    """Records spans and counts for one pass of queries in this process."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, query id, nested]
        self.stack = []
        self.qid = -1
        self.counts = {"exact.ratfun_new.calls": 0, "sympoly.mul.term_products": 0,
                       "sympoly.mul.terms_out": 0, "symfunc.vandermonde_squared.max_terms": 0,
                       "gcd.all": 0, "gcd.nontrivial": 0, "hankel.det_perm.max_size": 0,
                       "hankel.det_perm.perm_terms": 0, "hankel.det_poly_bareiss.max_size": 0,
                       "mc.coord_updates": 0, "mc.accepted": 0.0, "mc.proposed": 0,
                       "mc.integrand_draws": 0, "mc.quad_points": 0, "mc.quad_useful": 0}
        self._quad = []        # (N, points of the last grid) per open quadrature call

    def span(self, name, fn, after=None):
        """fn wrapped in a span; after(args, result) records counts."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        depth = [0]

        def wrapper(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.qid, depth[0] > 0]
            spans.append(rec)
            stack.append(idx)
            depth[0] += 1
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                depth[0] -= 1
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    @staticmethod
    def counted(fn, after):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, result)
            return result
        return functools.wraps(fn)(wrapper)

    # -- count hooks -------------------------------------------------------

    def _sympoly_mul(self, args, result):
        a, b = args
        c = self.counts
        c["sympoly.mul.term_products"] += len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)
        c["sympoly.mul.terms_out"] += len(result.terms)

    def _vandermonde(self, args, result):
        c = self.counts
        c["symfunc.vandermonde_squared.max_terms"] = max(
            c["symfunc.vandermonde_squared.max_terms"], len(result.terms))

    def _gcd(self, args, result):
        self.counts["gcd.all"] += 1
        self.counts["gcd.nontrivial"] += result.degree() > 0

    def _det_perm(self, args, result):
        n = len(args[0])
        c = self.counts
        c["hankel.det_perm.max_size"] = max(c["hankel.det_perm.max_size"], n)
        c["hankel.det_perm.perm_terms"] += math.factorial(n)

    def _bareiss(self, args, result):
        c = self.counts
        c["hankel.det_poly_bareiss.max_size"] = max(c["hankel.det_poly_bareiss.max_size"], len(args[0]))

    def _ratfun_new(self, args, result):
        self.counts["exact.ratfun_new.calls"] += 1

    def _run_chain(self, args, result):
        N, _, burn_in, samples, thin = args[:5]
        c = self.counts
        c["mc.coord_updates"] += N * (burn_in + samples * thin)
        c["mc.accepted"] += result[1] * N * samples * thin
        c["mc.proposed"] += N * samples * thin

    def _integrand(self, args, result):
        self.counts["mc.integrand_draws"] += len(args[0])

    def _leggauss(self, args, result):
        if self._quad:
            points = int(args[0]) ** self._quad[-1][0]
            self.counts["mc.quad_points"] += points
            self._quad[-1][1] = points

    def _quad_span(self, fn):
        inner = self.span("mc.quadrature_expectation", fn)

        def wrapper(*args, **kwargs):
            self._quad.append([args[0], 0])
            try:
                return inner(*args, **kwargs)
            finally:
                self.counts["mc.quad_useful"] += self._quad.pop()[1]

        return functools.wraps(fn)(wrapper)

    # -- installation ------------------------------------------------------

    def install(self, cli_module):
        """Patch every layer; returns the traced replacement of cli.main."""
        import numpy.polynomial.legendre as legendre
        from cuemoments import exact, mc

        hooks = {"sympoly.mul": self._sympoly_mul,
                 "symfunc.vandermonde_squared": self._vandermonde,
                 "exact.poly_gcd": self._gcd, "hankel.det_perm": self._det_perm,
                 "hankel.det_poly_bareiss": self._bareiss, "mc.integrand": self._integrand}
        for prefix, module, attr, _ in LAYERS:
            fn, owners = _resolve(module, attr)
            if prefix == "mc.quadrature_expectation":
                wrapped = self._quad_span(fn)
            else:
                wrapped = self.span(prefix, fn, hooks.get(prefix))
            for owner, key in owners:
                setattr(owner, key, wrapped)
        exact.RationalFunction.__init__ = self.counted(exact.RationalFunction.__init__,
                                                       self._ratfun_new)
        mc._run_chain = self.counted(mc._run_chain, self._run_chain)
        legendre.leggauss = self.counted(legendre.leggauss, self._leggauss)
        # Subcommand bodies get a span of their own, so that the self time of
        # cli.main is argument parsing and JSON output.
        for name in list(vars(cli_module)):
            if name.startswith("cmd_"):
                setattr(cli_module, name, self.span("cli.command", getattr(cli_module, name)))
        return self.span("cli.main", cli_module.main)

    # -- results -----------------------------------------------------------

    def layer_values(self):
        """Per-layer metrics of the recorded pass (timings and counts)."""
        n = len(self.spans)
        covered = [0.0] * n
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        agg = {}
        for i, (name, start, end, _, _, nested) in enumerate(self.spans):
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += 1
            if not nested:
                a[1] += end - start
            a[2] += end - start - covered[i]
        out = {}
        for prefix, _, _, _ in LAYERS:
            calls, total, self_s = agg.get(prefix, (0, 0.0, 0.0))
            out[prefix + ".calls"] = calls
            out[prefix + ".total_s"] = total
            out[prefix + ".self_s"] = self_s
        out["cli.main.self_s"] = agg.get("cli.main", (0, 0.0, 0.0))[2]
        c = self.counts
        for name, _, _ in COUNTS:
            if name in c:
                out[name] = c[name]
        out["exact.poly_gcd.nontrivial_ratio"] = c["gcd.nontrivial"] / c["gcd.all"] if c["gcd.all"] else 0.0
        out["mc.accept_ratio"] = c["mc.accepted"] / c["mc.proposed"] if c["mc.proposed"] else 0.0
        out["mc.quad_points_useful_ratio"] = (c["mc.quad_useful"] / c["mc.quad_points"]
                                              if c["mc.quad_points"] else 0.0)
        return out

    def write_spans(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {name: i for i, name in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"names": names,
                       "fields": ["name", "start", "end", "parent", "query"],
                       "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in self.spans]},
                      fh, separators=(",", ":"))
