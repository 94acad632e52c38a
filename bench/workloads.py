"""Query lists for the three benchmark workloads.

A workload is a fixed table of query specs, run in table order, as a
researcher's sweep runs. The workload seed picks the free values of each
query (evaluation points, Monte Carlo seeds, polynomials, the invalid
inputs), so every seed costs about the same and meets the program's caches
in the same state, while the program only ever sees generated argv lists.

Each query is a dict with the CLI ``argv``, the ``exit`` code its documented
outcome has, and a ``check`` describing how ``checks.py`` verifies the answer.
"""

import random
from fractions import Fraction

WORKLOADS = ("exact-sweep", "identity-suite", "numerical")

# finite-moment integrand shapes: (orders, exponents)
SHAPES = (
    ((1,), (2,)), ((2,), (2,)), ((3,), (2,)), ((1,), (4,)), ((2,), (4,)),
    ((2, 1), (2, 2)), ((3, 1), (2, 2)), ((3, 2), (2, 2)),
)
FINITE_SPECS = tuple(
    (N, v, o, e) for N in (1, 2, 3, 4) for v in ("Z", "V") for o, e in SHAPES
) + ((5, "Z", (1,), (2,)), (5, "Z", (2,), (2,)), (5, "V", (1,), (2,)))
LEADING_SPECS = (
    ("Z", (1,), (2,)), ("Z", (2,), (2,)), ("Z", (1,), (4,)),
    ("V", (1,), (2,)), ("V", (2,), (2,)), ("V", (3,), (2,)),
)

# hankel-verify (N, s, l, k)
HANKEL_SPECS = (
    (1, 1, 3, 2), (1, 2, 4, 3), (1, 3, 3, 2), (2, 1, 4, 3), (2, 2, 3, 2),
    (2, 3, 4, 3), (3, 1, 4, 2), (3, 2, 3, 2), (3, 3, 4, 3),
)
# painleve p5-finite (N, s) and p3-limit (s, series order)
P5_SPECS = (
    (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
    (4, 1), (4, 2), (5, 1), (6, 3),
)
P3_SPECS = tuple((s, order) for s in (1, 2, 3, 4) for order in (12, 16))

# mc-estimate (N, s, variant, orders, exponents). s is chosen so that the
# integrand has finite variance: per-coordinate degree 2e needs s > e - 1/2.
MC_SPECS = (
    (1, 4, "Z", (1,), (2,)), (1, 3, "Z", (1,), (1.5,)),
    (2, 4, "Z", (2,), (2,)), (2, 3, "Z", (1,), (1.5,)),
    (2, 4, "V", (1,), (2,)), (4, 4, "Z", (2,), (2,)), (6, 4, "Z", (2,), (2,)),
)
MC_RUN = ("--chains", "4", "--samples", "2000", "--burn-in", "300")
# quadrature: number of random polynomials per N
QUAD_COUNTS = ((1, 1), (2, 1), (3, 3))

# Invalid inputs; each pass carries one of every kind. Every pole below is a
# root of the denominator of the spec's exact rational function, and every
# input of a kind costs about the same.
ODD_EXPONENT = (
    ("finite-moment", "--N", "1", "--orders", "1", "--exponents", "3", "--variant", "Z"),
    ("finite-moment", "--N", "2", "--orders", "2", "--exponents", "1", "--variant", "V"),
    ("finite-moment", "--N", "3", "--orders", "2,1", "--exponents", "2,3", "--variant", "Z"),
    ("leading-coeff", "--orders", "1", "--exponents", "3", "--variant", "Z"),
    ("leading-coeff", "--orders", "2", "--exponents", "1", "--variant", "Z"),
)
L_ABOVE_CAP = (
    ("leading-coeff", "--orders", "10", "--exponents", "2", "--variant", "Z"),
    ("leading-coeff", "--orders", "5", "--exponents", "4", "--variant", "Z"),
    ("leading-coeff", "--orders", "4", "--exponents", "6", "--variant", "Z"),
    ("leading-coeff", "--orders", "7,3", "--exponents", "2,2", "--variant", "Z"),
)
LEADING_POLES = (
    ("Z", (1,), (2,), "1/2"), ("Z", (1,), (2,), "-1/2"), ("V", (1,), (2,), "1/2"),
)
FINITE_POLES = (
    (1, "Z", (1,), (2,), "1/2"), (1, "V", (2,), (2,), "1/2"),
    (2, "Z", (1,), (2,), "-1/2"), (2, "Z", (2,), (2,), "1/2"),
    (2, "V", (1,), (2,), "1/2"), (2, "V", (2,), (2,), "1/2"),
)
# Per-coordinate exponents of the three monomials of a quadrature polynomial.
# The seed permutes the variables and picks s and the coefficients; the cost
# of evaluating the polynomial on the grid stays the same.
QUAD_TERMS = {
    1: ((2,), (4,), (1,)),
    2: ((2, 1), (1, 3), (0, 2)),
    3: ((2, 1, 0), (0, 1, 3), (1, 0, 1)),
}

# Tiny mode: one cheap query per command, still reaching every layer that
# the workload is meant to exercise (used by selftest.py).
TINY = {
    "exact-sweep": {"finite": ((2, "Z", (2,), (2,)), (2, "V", (1,), (2,))),
                    "leading": (("Z", (1,), (2,)),)},
    "identity-suite": {"hankel": ((1, 1, 3, 2),), "p5": ((1, 1),), "p3": ((1, 12),)},
    "numerical": {"mc": ((1, 3, "Z", (1,), (1.5,)),), "quad": ((1, 1),)},
}


def _csv(values):
    return ",".join(str(v) for v in values)


def spec_key(command, *fields):
    """Stable key of a seed-independent query spec (used by reference.json)."""
    return " ".join([command] + [_csv(f) if isinstance(f, tuple) else str(f)
                                 for f in fields])


def _off_pole_s(rng, exponents):
    """A rational s inside the convergence domain s > (d-1)/2, where d is the
    per-coordinate degree of the integrand. Poles of the exact results sit at
    half-integers, and an odd denominator >= 3 never lands on one."""
    q = rng.choice((3, 5, 7))
    k = rng.choice([k for k in range(1, 3 * q + 1) if k % q])
    return Fraction(sum(exponents) - 1, 2) + Fraction(k, q)


def finite_query(N, variant, orders, exponents, s0):
    return {
        "argv": ["finite-moment", "--N", str(N), "--orders", _csv(orders),
                 "--exponents", _csv(exponents), "--variant", variant,
                 "--eval-s", str(s0)],
        "exit": 0,
        "check": {"kind": "rational", "key": spec_key("finite-moment", N, variant, orders, exponents),
                  "eval_s": str(s0)},
    }


def leading_query(variant, orders, exponents, s0):
    return {
        "argv": ["leading-coeff", "--orders", _csv(orders), "--exponents",
                 _csv(exponents), "--variant", variant, "--eval-s", str(s0)],
        "exit": 0,
        "check": {"kind": "rational", "key": spec_key("leading-coeff", variant, orders, exponents),
                  "eval_s": str(s0)},
    }


def hankel_query(N, s, l, k, t):
    return {
        "argv": ["hankel-verify", "--N", str(N), "--s", str(s), "--l", str(l),
                 "--k", str(k), "--t", str(t)],
        "exit": 0,
        "check": {"kind": "hankel", "l": l},
    }


def p5_query(N, s):
    return {
        "argv": ["painleve", "--mode", "p5-finite", "--N", str(N), "--s", str(s)],
        "exit": 0,
        "check": {"kind": "p5", "key": spec_key("painleve p5-finite", N, s)},
    }


def p3_query(s, order):
    return {
        "argv": ["painleve", "--mode", "p3-limit", "--s", str(s),
                 "--series-order", str(order)],
        "exit": 0,
        "check": {"kind": "p3", "key": spec_key("painleve p3-limit", s, order),
                  "order": order},
    }


def mc_query(N, s, variant, orders, exponents, seed, run=MC_RUN):
    return {
        "argv": ["mc-estimate", "--N", str(N), "--s", str(s), "--orders", _csv(orders),
                 "--exponents", _csv(exponents), "--variant", variant,
                 "--seed", str(seed)] + list(run),
        "exit": 0,
        "check": {"kind": "mc", "N": N, "s": s, "variant": variant,
                  "orders": list(orders), "exponents": list(exponents),
                  "draws": int(run[1]) * int(run[3])},
    }


def _random_poly(rng, N):
    """QUAD_TERMS[N] with permuted variables and random coefficients; every
    per-coordinate degree is at most 4, so the expectation is finite for s >= 2."""
    perm = list(range(N))
    rng.shuffle(perm)
    terms = []
    for expo in QUAD_TERMS[N]:
        coeff = Fraction(rng.choice([c for c in range(-9, 10) if c]), rng.randint(1, 5))
        factors = ["x%d^%d" % (perm[i] + 1, e) if e > 1 else "x%d" % (perm[i] + 1)
                   for i, e in enumerate(expo) if e]
        terms.append("%s*%s" % (coeff, "*".join(factors)))
    return " + ".join(terms).replace("+ -", "- ")


def quad_query(N, s, poly):
    return {
        "argv": ["quadrature", "--N", str(N), "--s", str(s), "--poly", poly],
        "exit": 0,
        "check": {"kind": "quadrature"},
    }


def _invalid(argv):
    return {"argv": list(argv), "exit": 2, "check": {"kind": "error"}}


def invalid_queries(rng):
    """One input of each invalid kind; the documented outcome of each is
    exit 2 with a JSON error."""
    v, o, e, pole = rng.choice(LEADING_POLES)
    N, fv, fo, fe, fpole = rng.choice(FINITE_POLES)
    return [
        _invalid(rng.choice(ODD_EXPONENT)),
        _invalid(rng.choice(L_ABOVE_CAP)),
        # "--eval-s=" keeps argparse from reading a negative pole as an option
        _invalid(["leading-coeff", "--orders", _csv(o), "--exponents", _csv(e),
                  "--variant", v, "--eval-s=" + pole]),
        _invalid(["finite-moment", "--N", str(N), "--orders", _csv(fo),
                  "--exponents", _csv(fe), "--variant", fv, "--eval-s=" + fpole]),
    ]


def generate(workload, seed, tiny=False):
    """The workload's query list for one seed, in the order it runs."""
    if workload not in WORKLOADS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    table = TINY[workload] if tiny else None
    queries = []
    if workload == "exact-sweep":
        for N, v, o, e in (table["finite"] if tiny else FINITE_SPECS):
            queries.append(finite_query(N, v, o, e, _off_pole_s(rng, e)))
        for v, o, e in (table["leading"] if tiny else LEADING_SPECS):
            queries.append(leading_query(v, o, e, _off_pole_s(rng, e)))
    elif workload == "identity-suite":
        for N, s, l, k in (table["hankel"] if tiny else HANKEL_SPECS):
            t = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            queries.append(hankel_query(N, s, l, k, t))
        for N, s in (table["p5"] if tiny else P5_SPECS):
            queries.append(p5_query(N, s))
        for s, order in (table["p3"] if tiny else P3_SPECS):
            queries.append(p3_query(s, order))
    else:
        run = ("--chains", "2", "--samples", "200", "--burn-in", "100") if tiny else MC_RUN
        for N, s, v, o, e in (table["mc"] if tiny else MC_SPECS):
            queries.append(mc_query(N, s, v, o, e, rng.randrange(1, 2 ** 31), run))
        for N, count in (table["quad"] if tiny else QUAD_COUNTS):
            for _ in range(count):
                queries.append(quad_query(N, rng.choice((2, 3)), _random_poly(rng, N)))
    queries.extend(invalid_queries(rng))
    return queries
