"""Tests for the command-line interface: output structure, schema
validation, exit codes, seeding, and manifest reproducibility."""

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuemoments.cli import main
from oracles import argparse_parser

jsonschema = pytest.importorskip("jsonschema")


@pytest.fixture(scope="module")
def schema():
    text = resources.files("cuemoments").joinpath("output_schema.json").read_text()
    return json.loads(text)


def _not_json(token):
    raise AssertionError("%s is not a JSON value" % token)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, json.loads(captured.out, parse_constant=_not_json), captured.err


def validate(schema, doc):
    jsonschema.validate(instance=doc, schema=schema)


class TestLeadingCoeff:
    def test_basic(self, capsys, schema):
        code, doc, err = run_cli(capsys, "leading-coeff", "--orders", "1",
                                 "--exponents", "2", "--variant", "Z",
                                 "--eval-s", "1")
        assert code == 0
        validate(schema, doc)
        assert doc["result"]["value"] == "1/3"
        # 1/(4s^2-1) in canonical monic-denominator form
        assert doc["result"]["rational"]["den"] == ["-1/4", "0/1", "1/1"]
        assert doc["result"]["rational"]["num"] == ["1/4"]
        assert err  # human summary on stderr

    def test_exact_values_never_floats(self, capsys, schema):
        code, doc, _ = run_cli(capsys, "leading-coeff", "--orders", "2",
                               "--exponents", "2", "--variant", "Z")
        assert code == 0
        validate(schema, doc)
        for c in doc["result"]["rational"]["num"] + doc["result"]["rational"]["den"]:
            assert isinstance(c, str) and "/" in c

    def test_v_variant(self, capsys, schema):
        code, doc, _ = run_cli(capsys, "leading-coeff", "--orders", "1",
                               "--exponents", "2", "--variant", "V",
                               "--eval-s", "2")
        assert code == 0
        validate(schema, doc)
        assert doc["result"]["value"] == "16/15"

    def test_with_constant(self, capsys, schema):
        code, doc, _ = run_cli(capsys, "leading-coeff", "--orders", "1",
                               "--exponents", "2", "--variant", "Z",
                               "--eval-s", "1", "--with-constant")
        assert code == 0
        # G(2)^2/G(3) = 1 and 2^{-2}: full coefficient (1/3)/4
        assert doc["result"]["value_with_constant"] == pytest.approx(1 / 12)

    def test_invalid_arity_exit_2(self, capsys):
        code = main(["leading-coeff", "--orders", "5", "--exponents", "4",
                     "--variant", "Z"])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in json.loads(captured.out)

    # L = 6; recorded while limiting_moment summed hp_expectation over the
    # arities, each expanding P * Delta^2 monomial by monomial
    @pytest.mark.parametrize("orders,exponents,digest", [
        ("2,1", "2,2", "b47b5813da51563eb56b5d205e36c7ecd1561b6c6437e52f6ed40e810d6fddd3"),
        ("1", "6", "f85494b5139c70bc92e38b0756967ecfb1e4bdb1266c5d1a31ca25fddfb85478"),
    ])
    def test_output_digest_pinned(self, capsys, orders, exponents, digest):
        code, doc, _ = run_cli(capsys, "leading-coeff", "--orders", orders,
                               "--exponents", exponents, "--variant", "Z")
        assert code == 0
        assert doc["manifest"]["output_digest"] == digest

    # the V order bound, the input with the most gcd work; recorded with the
    # pseudo-remainder gcd that kept its own long division
    def test_v_order_bound_digest_pinned(self, capsys):
        code, doc, _ = run_cli(capsys, "leading-coeff", "--orders", "64", "--exponents", "2",
                               "--variant", "V", "--eval-s", "5/3")
        assert code == 0
        assert doc["manifest"]["output_digest"] == \
            "373e74cd5c577f8b2ec566ea2a58053f99f9eab3e0c4d8d76fef0a2a8e332b8e"

    def test_second_moment_at_degree_cap(self, capsys):
        # L = 18: the Schur sum against the closed-form double binomial sum
        from cuemoments.cauchy import oracle_second_moment_Y
        from cuemoments.cli import _ratfun_json

        code, doc, _ = run_cli(capsys, "leading-coeff", "--orders", "9", "--exponents", "2",
                               "--variant", "Z")
        assert code == 0
        assert doc["result"]["rational"] == _ratfun_json(oracle_second_moment_Y(9))


class TestFiniteMoment:
    def test_absorbed_exponent(self, capsys, schema):
        code, doc, _ = run_cli(capsys, "finite-moment", "--N", "1",
                               "--orders", "2,0", "--exponents", "2,_",
                               "--variant", "Z")
        assert code == 0
        validate(schema, doc)
        assert doc["result"]["rational"]["num"] == ["1/16"]
        assert doc["result"]["rational"]["den"] == ["1/1"]

    def test_odd_exponent_exit_2(self, capsys):
        code = main(["finite-moment", "--N", "2", "--orders", "1",
                     "--exponents", "1", "--variant", "Z"])
        capsys.readouterr()
        assert code == 2

    def test_pole_exit_2(self, capsys):
        code, doc, _ = run_cli(capsys, "finite-moment", "--N", "1",
                               "--orders", "1", "--exponents", "2",
                               "--variant", "Z", "--eval-s", "1/2")
        assert code == 2
        assert doc == {"error": "pole at s = 1/2", "exit_code": 2}

    @pytest.mark.parametrize("orders,exponents", [("1", "2,_"), ("1,0", "_")])
    def test_unequal_lengths_exit_2(self, capsys, orders, exponents):
        # the lengths are the fault, not the '_' slot
        code, doc, _ = run_cli(capsys, "finite-moment", "--N", "1", "--orders", orders,
                               "--exponents", exponents, "--variant", "Z")
        assert code == 2
        assert doc == {"error": "orders and exponents must have equal length", "exit_code": 2}


class TestMcEstimate:
    def test_reproducible_digest(self, capsys, schema):
        argv = ["mc-estimate", "--N", "1", "--s", "2", "--orders", "1",
                "--exponents", "2", "--seed", "4", "--chains", "2",
                "--samples", "400", "--burn-in", "100"]
        code1, doc1, _ = run_cli(capsys, *argv)
        code2, doc2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        validate(schema, doc1)
        assert doc1["manifest"]["output_digest"] == doc2["manifest"]["output_digest"]
        assert doc1["manifest"]["seeds"] == {"seed": 4, "chains": 2}

    # recorded with the scalar sampler loop, before uniforms came in blocks;
    # the burn-in spans more than one block
    def test_output_digest_pinned(self, capsys):
        code, doc, _ = run_cli(capsys, "mc-estimate", "--N", "3", "--s", "3",
                               "--orders", "1", "--exponents", "1.5", "--seed", "11",
                               "--chains", "2", "--samples", "400", "--burn-in", "300",
                               "--thin", "2")
        assert code == 0
        assert doc["manifest"]["output_digest"] == \
            "4ec44330d297a5a1ce6329b6557049e8936a0a60a91a232e4cfd3d96c3921f77"

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("CUEMOMENTS_SEED", "99")
        code, doc, _ = run_cli(capsys, "mc-estimate", "--N", "1", "--s", "2",
                               "--orders", "1", "--exponents", "2",
                               "--chains", "2", "--samples", "200",
                               "--burn-in", "100")
        assert code == 0
        assert doc["manifest"]["seeds"]["seed"] == 99

    def test_integrand_evaluated_once(self, capsys, monkeypatch):
        from cuemoments import mc
        from cuemoments.cauchy import MomentSpec

        calls = []
        inner = mc._integrand_values

        def counting(*args):
            calls.append(len(args[0]))
            return inner(*args)

        monkeypatch.setattr(mc, "_integrand_values", counting)
        code, doc, _ = run_cli(capsys, "mc-estimate", "--N", "2", "--s", "3",
                               "--orders", "1", "--exponents", "2", "--seed", "5",
                               "--chains", "2", "--samples", "300",
                               "--burn-in", "100")
        assert code == 0
        assert calls == [600]
        cfg = mc.ChainConfig(N=2, s=3, chains=2, samples=300, burn_in=100, seed=5)
        batch = mc.sample_hp(cfg)
        spec = MomentSpec(orders=[1], exponents=[2.0], variant="Z", size=2)
        vals = inner(batch.draws, spec, 2)
        est, stderr = mc._block_stats(vals)
        assert (doc["result"]["estimate"], doc["result"]["stderr"], doc["result"]["ess"]) == \
            (est, stderr, float(np.var(vals)) / (stderr * stderr))

    def test_too_few_samples_exit_2(self, capsys):
        code, doc, _ = run_cli(capsys, "mc-estimate", "--N", "1", "--s", "2",
                               "--orders", "1", "--exponents", "2",
                               "--chains", "1", "--samples", "10",
                               "--burn-in", "10")
        assert code == 2
        assert "too few samples" in doc["error"]

    def test_rational_s(self, capsys, schema):
        from fractions import Fraction

        from cuemoments.cauchy import MomentSpec, finite_joint_moment

        code, doc, _ = run_cli(capsys, "mc-estimate", "--N", "1", "--s", "5/2",
                               "--orders", "1", "--exponents", "2", "--seed", "7")
        assert code == 0
        validate(schema, doc)
        assert doc["result"]["s"] == 2.5
        assert doc["manifest"]["params"]["s"] == 2.5
        exact = finite_joint_moment(MomentSpec(orders=(1,), exponents=(2,),
                                               variant="Z", size=1))
        target = float(exact.eval(Fraction(5, 2)))
        res = doc["result"]
        assert abs(res["estimate"] - target) <= 4 * res["stderr"]

    @pytest.mark.parametrize("s", ["0", "-1", "-0.5", "abc", "1/0"])
    def test_invalid_s_exit_2(self, capsys, s):
        code, doc, _ = run_cli(capsys, "mc-estimate", "--N", "1", "--s", s,
                               "--orders", "1", "--exponents", "2")
        assert code == 2
        assert "error" in doc

    def test_flagged_chain_exit_3(self, capsys):
        # absurd proposal scale drives the acceptance rate to ~0
        code = main(["mc-estimate", "--N", "1", "--s", "2", "--orders", "1",
                     "--exponents", "2", "--seed", "1", "--chains", "2",
                     "--samples", "200", "--burn-in", "50",
                     "--proposal-scale", "1e9"])
        captured = capsys.readouterr()
        assert code == 3
        assert json.loads(captured.out)["result"]["flagged"] is True


class TestQuadrature:
    def test_known_value(self, capsys, schema):
        code, doc, _ = run_cli(capsys, "quadrature", "--N", "1", "--s", "2",
                               "--poly", "x1^2")
        assert code == 0
        validate(schema, doc)
        assert doc["result"]["value"] == pytest.approx(1 / 3, rel=1e-10)
        assert doc["result"]["exact"] == "1/3"

    def test_nonintegrable_exit_2(self, capsys):
        code = main(["quadrature", "--N", "1", "--s", "1", "--poly", "x1^4"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("nodes,message", [
        ("0", "--nodes must be >= 1"),
        ("-1", "--nodes must be >= 1"),
        ("1025", "1025 nodes per dimension need a 1537^1-point grid, beyond the "
                 "bounds of 1536 nodes per dimension and 4194304 points"),
        # one node is checked against two, not against itself
        ("1", "quadrature did not converge to the 1e-10 target with --nodes 1; "
              "increase --nodes"),
    ])
    def test_nodes_out_of_range_exit_2(self, capsys, nodes, message):
        code, doc, _ = run_cli(capsys, "quadrature", "--N", "1", "--s", "2",
                               "--poly", "x1^2", "--nodes", nodes)
        assert code == 2
        assert doc == {"error": message, "exit_code": 2}

    @pytest.mark.parametrize("poly,value", [("-x1^2", -1 / 3), ("+x1^2", 1 / 3), ("0", 0.0)])
    def test_leading_sign_and_zero_poly(self, capsys, poly, value):
        # "--poly=" keeps the parser from reading "-x1^2" as an option
        code, doc, _ = run_cli(capsys, "quadrature", "--N", "1", "--s", "2", "--poly=" + poly)
        assert code == 0
        assert doc["result"]["value"] == pytest.approx(value, rel=1e-10, abs=1e-15)

    @pytest.mark.parametrize("poly", ["", " ", "+", "-", "x1^2+", "x1^2-", "x1^2++x1"])
    def test_empty_poly_term_names_option(self, capsys, poly):
        code, doc, _ = run_cli(capsys, "quadrature", "--N", "1", "--s", "2", "--poly=" + poly)
        assert code == 2
        assert doc["error"] == "--poly has an empty term: %r" % poly

    def test_csv_format(self, capsys):
        code = main(["--format", "csv", "quadrature", "--N", "1", "--s", "2",
                     "--poly", "x1^2"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any(line.startswith("value,") for line in lines)

    def test_one_node_of_a_constant_converges(self, capsys):
        code, doc, _ = run_cli(capsys, "quadrature", "--N", "1", "--s", "2",
                               "--poly", "1", "--nodes", "1")
        assert code == 0
        assert doc["result"]["value"] == 1.0

    @pytest.mark.parametrize("argv", [
        ("leading-coeff", "--orders", "2,1", "--exponents", "2,2", "--variant", "Z",
         "--eval-s", "3"),
        ("painleve", "--mode", "p3-limit", "--s", "2", "--series-order", "6"),
        ("hankel-verify", "--N", "2", "--s", "2"),
        ("quadrature", "--N", "1", "--s", "2", "--poly", "x1^2"),
    ])
    def test_csv_rows_parse_back(self, capsys, argv):
        _, doc, _ = run_cli(capsys, *argv)
        assert main(["--format", "csv", *argv]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0] == ["key", "value"]
        assert all(len(row) == 2 for row in rows)
        assert len(rows) == len(doc["result"]) + 1
        for key, value in rows[1:]:
            expected = doc["result"][key]
            if isinstance(expected, (dict, list)):
                assert json.loads(value) == expected
            else:
                assert value == str(expected)


class TestPainleve:
    def test_p5_finite_closed_form(self, capsys, schema):
        code, doc, _ = run_cli(capsys, "painleve", "--mode", "p5-finite",
                               "--N", "1", "--s", "1")
        assert code == 0
        validate(schema, doc)
        assert doc["result"]["residual_zero"] is True
        assert doc["result"]["tau"]["num"] == ["0/1", "0/1", "-1/2"]
        assert doc["result"]["tau"]["den"] == ["2/1", "1/1"]

    def test_p3_limit(self, capsys, schema):
        code, doc, _ = run_cli(capsys, "painleve", "--mode", "p3-limit",
                               "--s", "1", "--series-order", "12")
        assert code == 0
        validate(schema, doc)
        assert doc["result"]["residual_zero_through_order"] is True
        assert doc["result"]["tau_leading_coefficient"] == "-1/12"
        assert all(c == "0/1" for c in doc["result"]["residual_coefficients"])

    def test_p3_limit_past_the_old_minor_bound(self, capsys):
        # s = 12 was beyond the bound while phi_s took 2^s minors
        code, doc, _ = run_cli(capsys, "painleve", "--mode", "p3-limit",
                               "--s", "12", "--series-order", "12")
        assert code == 0
        assert doc["result"]["residual_zero_through_order"] is True

    def test_bad_s_exit_2(self, capsys):
        code = main(["painleve", "--mode", "p3-limit", "--s", "0"])
        capsys.readouterr()
        assert code == 2

    # digests recorded while tau was still wrapped in a TauFunction, (s = 5)
    # while phi_series expanded all s! permutations, and (N = 12) while the
    # residual multiplied by t as a product with the Poly t
    @pytest.mark.parametrize("argv,digest", [
        (["--mode", "p5-finite", "--N", "2", "--s", "2"],
         "7ecba0de75e5528c6c66d1eb25e70c3300d49157d9ac5828a5778530d202bc7a"),
        (["--mode", "p3-limit", "--s", "2", "--series-order", "8"],
         "0d704147b930a23a045787bbe34ba629322c84b70469809cef11598333754c0c"),
        (["--mode", "p3-limit", "--s", "5"],
         "fcddb212dc34e1931ad809968ea970ce60779f02527c8b5d01f3c7eb23e2a48a"),
        (["--mode", "p5-finite", "--N", "12", "--s", "1"],
         "972f35469a3676fc5937008583c8161507f85bbe8688d0b0552d04b628acda21"),
    ])
    def test_output_digest_pinned(self, capsys, argv, digest):
        code, doc, _ = run_cli(capsys, "painleve", *argv)
        assert code == 0
        assert doc["manifest"]["output_digest"] == digest


class TestHankelVerify:
    def test_defaults_all_pass(self, capsys, schema):
        code, doc, _ = run_cli(capsys, "hankel-verify")
        assert code == 0
        validate(schema, doc)
        assert doc["result"]["all_passed"] is True
        assert len(doc["result"]["checks"]) >= 15

    # digests recorded before the Hankel layer returned bare Polys, and (N = 3,
    # s = 3) while the series determinants expanded all N! permutations
    @pytest.mark.parametrize("argv,digest", [
        ([], "aa6a207e9c322f83a7f061e1cc5308d5eaec7b43ad54ce052717c85b04b92dca"),
        (["--N", "3", "--s", "2", "--l", "4", "--k", "3", "--t", "5/2"],
         "e51e2d4dedb810aecf7b2c9685be9a43a92fec819c816b173032c5e41ff0ccd8"),
        (["--N", "3", "--s", "3", "--l", "4", "--k", "3"],
         "b0740f5820fa8a34ff1c46cf3ac5af56bd1502185a02a6ac68bb1bc0ce970561"),
        (["--N", "3", "--s", "3", "--l", "4", "--k", "3", "--perturb"],
         "87698dfebfa74e86b753c0b596e034c2d0ff8c01536173f77a2bbaf2addf0474"),
        # k = 4 and 5 reach the terms T8 and T9 of the vector recursion;
        # recorded while each term built its own matrix-vector products
        (["--N", "2", "--s", "3", "--l", "5", "--k", "4"],
         "fdab1d2031abf232fa52775ab2136c506de42b1da00ea9f3bfe0ac3699d7a930"),
        (["--N", "2", "--s", "2", "--l", "4", "--k", "5", "--t", "7/3"],
         "14aaa55ab46b1811a9474cdb1b6d6c82f73e2b3c78b75226a23bbe37c98e0a2d"),
        (["--N", "3", "--s", "2", "--l", "5", "--k", "5", "--perturb"],
         "01d72023993543f627b422a5f7aaae3e874bc8e1d746ea649123cb858190c328"),
    ])
    def test_output_digest_pinned(self, capsys, argv, digest):
        code, doc, _ = run_cli(capsys, "hankel-verify", *argv)
        assert code == (4 if "--perturb" in argv else 0)
        assert doc["manifest"]["output_digest"] == digest
        N = doc["result"]["N"]
        residuals = {c["name"]: c["residual"] for c in doc["result"]["checks"]}
        assert residuals["theta-derivative m=0"] == "e^(-1 t)*(0)"
        assert residuals["alternating-sum l=1"] == "e^(-%d t)*(0)" % N

    def test_perturbed_residual_at_k5(self, capsys):
        code, doc, _ = run_cli(capsys, "hankel-verify", "--N", "3", "--s", "2",
                               "--l", "5", "--k", "5", "--perturb")
        assert code == 4
        residuals = {c["name"]: c["residual"] for c in doc["result"]["checks"]}
        assert residuals["vector-recursion l=5 k=5 (perturbed)"] == "12986362880/81"

    def test_perturbed_exit_4(self, capsys):
        code = main(["hankel-verify", "--perturb"])
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert code == 4
        assert doc["result"]["failed"]
        assert any("vector-recursion" in name for name in doc["result"]["failed"])


@pytest.mark.parametrize("argv", [
    ["hankel-verify", "--s", "0"],
    ["hankel-verify", "--l", "2"],
    ["hankel-verify", "--k", "1"],
    ["hankel-verify", "--N", "0"],
    ["painleve", "--mode", "p3-limit", "--s", "1", "--series-order", "-1"],
])
def test_out_of_range_input_exit_2(capsys, argv):
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 2
    assert set(doc) == {"error", "exit_code"}
    assert doc["exit_code"] == 2 and doc["error"]


_MC = ["mc-estimate", "--N", "1", "--s", "2", "--samples", "100"]
# 1/2 + 10^-401: the order-1, exponent-2 moments have a pole at s = 1/2, so
# their exact value there is beyond the float range
_NEAR_POLE = "0.5" + "0" * 400 + "1"
_NEAR_POLE_LC = ["leading-coeff", "--orders", "1", "--exponents", "2", "--variant", "Z",
                 "--eval-s", _NEAR_POLE]


@pytest.mark.parametrize("argv", [
    ["finite-moment", "--N", "2", "--orders", "1,2", "--exponents", "2,2", "--variant", "Z"],
    ["finite-moment", "--N", "2", "--orders", "3,-1", "--exponents", "2,2", "--variant", "Z"],
    ["finite-moment", "--N", "2", "--orders", "2,1", "--exponents", "2,_", "--variant", "Z"],
    _MC + ["--orders", "-1", "--exponents", "2"],
    _MC + ["--orders", "1", "--exponents", "2", "--thin", "0"],
    _MC + ["--orders", "1", "--exponents", "2", "--burn-in", "-5"],
    _MC + ["--orders", "1", "--exponents", "0"],
    _MC + ["--orders", "1", "--exponents", "-2"],
    ["quadrature", "--N", "0", "--s", "2", "--poly", "x1^2"],
    ["quadrature", "--N", "2", "--s", "2", "--poly", "x1^2", "--nodes", "4"],
    # an empty term was dropped, so "" and "+" gave 0 and "x1^2+" gave x1^2
    ["quadrature", "--N", "1", "--s", "2", "--poly", ""],
    ["quadrature", "--N", "1", "--s", "2", "--poly", "+"],
    ["quadrature", "--N", "1", "--s", "2", "--poly", "x1^2+"],
    ["quadrature", "--N", "1", "--s", "2", "--poly", "x1^2++x1"],
    ["leading-coeff", "--orders", "2,-1", "--exponents", "2,2", "--variant", "Z"],
    ["leading-coeff", "--orders", "1,2", "--exponents", "2,2", "--variant", "Z"],
    ["leading-coeff", "--orders", "1,1", "--exponents", "2,4", "--variant", "Z"],
    # found by the fuzz below or by a sweep of its malformed tokens
    ["leading-coeff", "--orders", "1", "--exponents", "1/0", "--variant", "Z"],
    ["leading-coeff", "--orders", "-1", "--exponents", "2", "--variant", "V"],
    ["leading-coeff", "--orders", "1", "--exponents", "2", "--variant", "Z",
     "--eval-s", "1e400", "--with-constant"],
    ["finite-moment", "--N", "1", "--orders", "1", "--exponents", "1e400", "--variant", "Z"],
    _MC + ["--orders", "1", "--exponents", "2", "--proposal-scale", "1e400"],
    ["quadrature", "--N", "1", "--s", "2", "--poly", "1e400*x1^2"],
    ["quadrature", "--N", "2", "--s", "100000", "--poly", "x1^2"],
    ["quadrature", "--N", "10", "--s", "2", "--poly", "x1^2"],
    ["finite-moment", "--N", "0", "--orders", "1", "--exponents", "2", "--variant", "Z"],
    ["finite-moment", "--N", "-1", "--orders", "1", "--exponents", "2", "--variant", "Z"],
    _MC + ["--orders", "1", "--exponents", "2", "--samples", "9999999999999999999999"],
    # a grid just above the point bound (TestQuadrature checks the node bound)
    ["quadrature", "--N", "3", "--s", "2", "--poly", "x1^2", "--nodes", "108"],
    ["painleve", "--mode", "p5-finite", "--N", "13", "--s", "1"],
    ["painleve", "--mode", "p5-finite", "--N", "9999999999999999999999", "--s", "1"],
    # just above each hankel-verify size bound
    ["hankel-verify", "--N", "5"],
    ["hankel-verify", "--s", "11"],
    ["hankel-verify", "--l", "11"],
    ["hankel-verify", "--k", "6"],
    # just above the p3-limit series-order bound
    ["painleve", "--mode", "p3-limit", "--s", "1", "--series-order", "41"],
    # order 0 or no order at all: Xi_0 = 1 dropped the factor and exited 0,
    # while its exponent still counted in the convergence bound
    ["mc-estimate", "--N", "2", "--s", "3", "--orders", "1,0", "--exponents", "2,4",
     "--samples", "200", "--seed", "3"],
    ["mc-estimate", "--N", "1", "--s", "3", "--orders", "0", "--exponents", "2",
     "--samples", "100"],
    ["mc-estimate", "--N", "1", "--s", "3", "--orders", "", "--exponents", "",
     "--samples", "100"],
    ["leading-coeff", "--orders", "2,0", "--exponents", "2,2", "--variant", "Z"],
    ["leading-coeff", "--orders", "0", "--exponents", "2", "--variant", "V"],
    # rules that the exact engine or MomentSpec checks, not the CLI
    ["leading-coeff", "--orders", "1", "--exponents", "3/2", "--variant", "Z"],
    ["leading-coeff", "--orders", "1", "--exponents", "0", "--variant", "Z"],
    ["finite-moment", "--N", "2", "--orders", "1,0", "--exponents", "2,2", "--variant", "Z"],
    ["finite-moment", "--N", "2", "--orders", "0", "--exponents", "_", "--variant", "Z"],
    ["finite-moment", "--N", "1", "--orders", "1", "--exponents", "2,_", "--variant", "Z"],
    ["finite-moment", "--N", "1", "--orders", "1", "--exponents", "66", "--variant", "Z"],
    ["finite-moment", "--N", "2", "--orders", "1", "--exponents", "-2", "--variant", "Z"],
])
def test_meaningless_moment_query_exit_2(capsys, argv):
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 2
    assert set(doc) == {"error", "exit_code"}
    assert doc["exit_code"] == 2 and doc["error"]


@pytest.mark.parametrize("argv,bound", [
    (["hankel-verify", "--N", "5"], "--N must be <= 4"),
    (["hankel-verify", "--s", "11"], "--s must be <= 10"),
    (["hankel-verify", "--l", "11"], "--l must be <= 10"),
    (["hankel-verify", "--k", "6"], "--k must be <= 5"),
    (["painleve", "--mode", "p5-finite", "--N", "1", "--s", "7"], "--s <= 6"),
    (["painleve", "--mode", "p3-limit", "--s", "21"], "--s <= 20"),
    (["painleve", "--mode", "p3-limit", "--s", "1", "--series-order", "41"],
     "--series-order must be >= 0 and <= 40"),
    (_MC + ["--N", "101", "--orders", "1", "--exponents", "2", "--chains", "1",
            "--samples", "64", "--burn-in", "0"], "--N <= 100"),
    # chains * (burn-in + samples * thin) * N^2 just above its bound
    (_MC + ["--orders", "1", "--exponents", "2", "--chains", "1",
            "--samples", "2000001", "--burn-in", "0"], "<= 2000000; got 2000001"),
    (_MC + ["--N", "10", "--orders", "1", "--exponents", "2", "--chains", "2",
            "--samples", "3000", "--burn-in", "1001", "--thin", "3"],
     "<= 2000000; got 2000200"),
    # too few draws for block-mean errors, with a burn-in that would take seconds
    (_MC + ["--orders", "1", "--exponents", "2", "--chains", "1",
            "--samples", "10", "--burn-in", "1000000"], "chains * samples >= 64; got 10"),
    # finite-moment inputs that ran for 18 s, 20 s and past 90 s
    (["finite-moment", "--N", "5", "--orders", "3,2,1", "--exponents", "6,6,6",
      "--variant", "V"], "at most 100000 integrand monomials; got 617728"),
    (["finite-moment", "--N", "6", "--orders", "3,2", "--exponents", "6,4",
      "--variant", "Z"], "at most 100000 integrand monomials; got 583758"),
    (["finite-moment", "--N", "6", "--orders", "3,2,1", "--exponents", "8,6,4",
      "--variant", "V"], "at most 100000 integrand monomials; got 7591179"),
    # just above the bound (--N 5 --orders 2 --exponents 12 has 96915)
    (["finite-moment", "--N", "4", "--orders", "2", "--exponents", "20",
      "--variant", "Z"], "at most 100000 integrand monomials; got 100331"),
    # the V closed form took 56 s at order 160 and never returned at 10^20
    (["leading-coeff", "--orders", "99999999999999999999", "--exponents", "2",
      "--variant", "V"], "--orders <= 320; got 99999999999999999999"),
    (["leading-coeff", "--orders", "321", "--exponents", "2", "--variant", "V",
      "--eval-s", "5/3"], "--orders <= 320; got 321"),
    # an uncaught OverflowError from a_{n,l}, and an Xi loop of 10^20 steps
    (["mc-estimate", "--N", "2", "--s", "3", "--orders", "1100", "--exponents", "1",
      "--samples", "100"], "--orders <= 64; got 1100"),
    (["mc-estimate", "--N", "1", "--s", "3", "--orders", "99999999999999999999",
      "--exponents", "1", "--samples", "100"], "--orders <= 64; got 99999999999999999999"),
    (_MC + ["--orders", "65", "--exponents", "2"], "--orders <= 64; got 65"),
    # just above the limiting-moment degree cap (every L <= 18 takes under 0.5 s)
    (["leading-coeff", "--orders", "1", "--exponents", "20", "--variant", "Z"],
     "L = 20 exceeds the limiting-moment degree cap 18"),
])
def test_size_bound_named_before_any_work(capsys, monkeypatch, argv, bound):
    import cuemoments.cauchy as cauchy
    import cuemoments.cli as cli
    import cuemoments.hankel as hk
    import cuemoments.mc as mc
    import cuemoments.painleve as painleve

    def no_work(*args):
        pytest.fail("an entry was built for an input above its size bound")

    monkeypatch.setattr(hk, "theta", no_work)
    monkeypatch.setattr(painleve, "_g_series", no_work)
    monkeypatch.setattr(mc, "_run_chain", no_work)
    monkeypatch.setattr(cauchy, "xi_poly", no_work)
    monkeypatch.setattr(cauchy, "v_variant_integrand", no_work)
    monkeypatch.setattr(cauchy, "_times_e", no_work)
    monkeypatch.setattr(cli, "oracle_second_moment_V", no_work)
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 2
    assert bound in doc["error"]


@pytest.mark.parametrize("target,error,argv", [
    ("cuemoments.hankel.verify_vector_recursion", ValueError, ["hankel-verify"]),
    ("cuemoments.painleve.tau_finiteN", OverflowError,
     ["painleve", "--mode", "p5-finite", "--N", "2", "--s", "1"]),
])
def test_engine_error_exits_2_from_any_command(capsys, monkeypatch, target, error, argv):
    # main alone maps a ValueError or OverflowError to the exit-2 document,
    # also from a command with no error handling of its own
    def boom(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(target, boom)
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 2
    assert doc == {"error": "boom", "exit_code": 2}


def test_same_process_documents_equal_argparse_documents(capsys, monkeypatch):
    # one process: an error, two different subcommands, then mc-estimate
    # without --seed after one with --seed; every query read by the option
    # table gives the document that a fresh argparse parser gives
    from cuemoments import cli

    monkeypatch.delenv("CUEMOMENTS_SEED", raising=False)
    queries = [
        ["hankel-verify", "--l", "2"],
        ["leading-coeff", "--orders", "1", "--exponents", "2", "--variant", "Z",
         "--eval-s", "1"],
        ["painleve", "--mode", "p3-limit", "--s", "1", "--series-order", "4"],
        _MC + ["--orders", "1", "--exponents", "2", "--seed", "7"],
        _MC + ["--orders", "1", "--exponents", "2"],
    ]

    def run(argv):
        code, doc, _ = run_cli(capsys, *argv)
        doc.get("manifest", {}).pop("wall_time_s", None)
        return code, doc

    table = [run(argv) for argv in queries]
    monkeypatch.setattr(cli, "_parse", lambda argv: argparse_parser().parse_args(argv))
    assert [run(argv) for argv in queries] == table
    assert [code for code, _ in table] == [2, 0, 0, 0, 0]
    assert table[4][1]["manifest"]["params"]["seed"] == 0


def test_patched_command_is_the_one_that_runs(capsys, monkeypatch):
    # main looks the command's function up in the module on every call, so a
    # wrapper installed after import (as the benchmark tracer installs) runs
    from cuemoments import cli

    calls = []

    def fake(args):
        calls.append(vars(args).copy())
        return {"fake": True}, 0, None

    monkeypatch.setattr(cli, "cmd_painleve", fake)
    code, doc, _ = run_cli(capsys, "painleve", "--mode", "p3-limit", "--s", "1")
    assert code == 0 and doc["result"] == {"fake": True}
    assert calls == [{"format": "json", "command": "painleve", "mode": "p3-limit",
                      "N": None, "s": 1, "series_order": 12, "func": fake}]


@pytest.mark.parametrize("argv,bound", [
    (["leading-coeff", "--orders", "1", "--exponents", "2", "--variant", "Z",
      "--eval-s", "1/4"], "1/2"),
    (["finite-moment", "--N", "1", "--orders", "1", "--exponents", "4",
      "--variant", "Z", "--eval-s", "1"], "3/2"),
    (["finite-moment", "--N", "2", "--orders", "2", "--exponents", "2",
      "--variant", "V", "--eval-s", "1/3"], "1/2"),
    (["mc-estimate", "--N", "1", "--s", "1/4", "--orders", "1",
      "--exponents", "2"], "1/2"),
])
def test_divergent_moment_exit_2(capsys, argv, bound):
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 2
    assert set(doc) == {"error", "exit_code"}
    assert "diverges" in doc["error"] and "= %s;" % bound in doc["error"]


@pytest.mark.parametrize("argv", [
    ["--with-constant"],
    ["--eval-s", "1"],
])
def test_usage_error_rejected_before_engine(capsys, monkeypatch, argv):
    from cuemoments import cli

    def engine(*args):
        pytest.fail("the engine ran on a query that is invalid up front")

    monkeypatch.setattr(cli, "limiting_moment", engine)
    code, doc, _ = run_cli(capsys, "leading-coeff", "--orders", "2,1",
                           "--exponents", "2,2", "--variant", "Z", *argv)
    assert code == 2
    assert set(doc) == {"error", "exit_code"}


@pytest.mark.parametrize("argv", [
    ["mc-estimate", "--N", "1", "--s", "-1/2", "--orders", "1", "--exponents", "2"],
    ["painleve", "--mode", "p3-limit", "--s", "5/2"],
    # an --s beyond the float range
    ["quadrature", "--N", "1", "--s", str(10 ** 400), "--poly", "x1^2"],
    ["mc-estimate", "--N", "1", "--s", "1e400", "--orders", "1", "--exponents", "2"],
])
def test_usage_error_prints_json_exit_2(capsys, argv):
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 2
    assert set(doc) == {"error", "exit_code"}
    assert doc["exit_code"] == 2 and "--s" in doc["error"]


@pytest.mark.parametrize("argv,option", [
    # printed "estimate": Infinity, "stderr": NaN, "ess": NaN with exit 0
    (["mc-estimate", "--N", "20", "--s", "400", "--orders", "60", "--exponents", "8",
      "--chains", "1", "--samples", "64", "--burn-in", "0"], "--orders"),
    # printed Python's "integer division result too large for a float"
    (_MC + ["--orders", "1", "--exponents", "1e400"], "--exponents"),
    # an exact value just off the pole at s = 1/2, and so beyond the float range
    (_NEAR_POLE_LC, "--eval-s"),
    (_NEAR_POLE_LC + ["--with-constant"], "--eval-s"),
    (["finite-moment", "--N", "2", "--orders", "1", "--exponents", "2", "--variant", "Z",
      "--eval-s", _NEAR_POLE], "--eval-s"),
    # positive inputs that round to 0.0: were "exponents must be > 0" and
    # "s > 0 required"
    (_MC + ["--orders", "1", "--exponents", "1e-400"], "--exponents"),
    (["mc-estimate", "--N", "1", "--s", "1e-400", "--orders", "1", "--exponents", "1"],
     "--s"),
])
def test_float_range_named_exit_2(capsys, argv, option):
    code, doc, _ = run_cli(capsys, *argv)
    assert code == 2
    assert set(doc) == {"error", "exit_code"}
    assert "float range" in doc["error"] and option in doc["error"]


def test_value_rounding_to_zero_printed_as_0(capsys):
    # an output, unlike an input, is printed beside its exact form
    code, doc, _ = run_cli(capsys, "leading-coeff", "--orders", "1", "--exponents", "2",
                           "--variant", "Z", "--eval-s", str(10 ** 400))
    assert code == 0
    assert doc["result"]["value_float"] == 0.0 and doc["result"]["value"] != "0"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["painleve", "--help"])
    assert exc.value.code == 0
    assert "--series-order" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["leading-coeff", "--orders", "1", "--exponents", "2", "--variant", "Z"],
    ["leading-coeff", "--orders", "1", "--exponents", "3", "--variant", "Z"],
])
def test_closed_stdout_exits_quietly(argv):
    # the reader end of the pipe is closed before the process starts, so
    # every write to stdout fails, as when `head -c 10` has already exited
    import cuemoments

    src = os.path.dirname(os.path.dirname(os.path.abspath(cuemoments.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "cuemoments.cli"] + argv,
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert b"Traceback" not in proc.stderr and b"BrokenPipe" not in proc.stderr


def test_manifest_structure(capsys, schema):
    code, doc, _ = run_cli(capsys, "leading-coeff", "--orders", "1",
                           "--exponents", "2", "--variant", "Z")
    assert code == 0
    man = doc["manifest"]
    assert man["command"] == "leading-coeff"
    assert man["version"]
    assert man["wall_time_s"] >= 0
    assert len(man["output_digest"]) == 64


# Malformed tokens that every option of the fuzz below may receive.
_MALFORMED = ["-1", "1,2", "1,1", "_", "3/2", "abc", "1/0", "1e400"]
# Per subcommand, each option's well-formed values (None for a flag, given or
# not). --orders and --exponents are drawn together from _PAIRS: equal
# lengths, decreasing orders, and even exponents for the exact commands. A
# well-formed query stays cheap: moment degree L <= 4, N <= 2, at most 100
# samples in 2 chains, 16 quadrature nodes, and series order 8. One example
# in four has exactly one fault: an option left out (never one in _ALWAYS,
# whose defaults are expensive) or given a malformed token.
_EVAL_S = ["1", "5/2", "1/4", "3", _NEAR_POLE]
_FUZZ = {
    "leading-coeff": {"--variant": ["Z", "V"], "--eval-s": _EVAL_S, "--with-constant": None},
    "finite-moment": {"--N": ["1", "2"], "--variant": ["Z", "V"], "--eval-s": _EVAL_S},
    "mc-estimate": {"--N": ["1", "2"], "--s": ["2", "5/2", "1/4", "3"],
                    "--variant": ["Z", "V"], "--seed": ["0", "7"],
                    "--chains": ["1", "2"], "--samples": ["64", "100"],
                    "--burn-in": ["10", "50"], "--thin": ["1", "2"],
                    "--proposal-scale": ["1", "1e9"]},
    "quadrature": {"--N": ["1", "2"], "--s": ["1", "2", "3"],
                   "--poly": ["x1^2", "x1^2*x2^2", "1", "x2", "x1^4", "x1^2 + 1/2*x2"],
                   "--nodes": ["4", "8", "16"]},
    "painleve": {"--mode": ["p5-finite", "p3-limit"], "--N": ["1", "2"],
                 "--s": ["1", "2"], "--series-order": ["0", "4", "8"]},
    "hankel-verify": {"--l": ["3", "4"], "--k": ["2", "3"], "--N": ["1", "2"],
                      "--s": ["1", "2"], "--t": ["1", "5/2"], "--perturb": None},
}
_PAIRS = {
    "leading-coeff": [("1", "2"), ("2", "2"), ("1", "4")],
    "finite-moment": [("1", "2"), ("2", "2"), ("1", "4"), ("1,0", "2,_"), ("2,0", "2,_")],
    "mc-estimate": [("1", "2"), ("2", "2"), ("1", "1"), ("1", "0.5"), ("2,1", "1,2"),
                    ("2,1", "0.5,1")],
}
_ALWAYS = {"mc-estimate": ("--chains", "--samples"), "painleve": ("--series-order",)}


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_FUZZ)))
    args = {}
    if command in _PAIRS:
        args["--orders"], args["--exponents"] = draw(st.sampled_from(_PAIRS[command]))
    for option, values in _FUZZ[command].items():
        args[option] = draw(st.booleans() if values is None else st.sampled_from(values))
    if draw(st.integers(0, 3)) == 0:
        option = draw(st.sampled_from([o for o, v in args.items() if v not in (True, False)]))
        if option in _ALWAYS.get(command, ()) or draw(st.booleans()):
            args[option] = draw(st.sampled_from(_MALFORMED))
        else:
            del args[option]
    argv = [command]
    for option, value in args.items():
        if value is True:
            argv.append(option)
        elif value is not False:
            argv += [option, value]
    return argv


# main maps every ValueError and OverflowError to exit 2, so an engine fault
# that Python itself reports (a float conversion, an empty max, an unpack)
# would pass as invalid input; its message gives it away.
_PYTHON_TEXT = re.compile(r"too large|math (range|domain) error|out of range'\)|"
                          r"nvalid literal|could not convert|cannot convert|"
                          r"Exceeds the limit|values to unpack|not in (list|tuple)|"
                          r"\w\(\) ")


@pytest.mark.parametrize("fault", [
    lambda: float(10 ** 400), lambda: 10 ** 400 / 3, lambda: math.exp(1000),
    lambda: math.log(-1.0), lambda: 1e300 ** 2, lambda: int("abc"),
    lambda: float("abc"), lambda: Fraction("abc"), lambda: int(float("inf")),
    lambda: max([]), lambda: [].index(1), lambda: int("9" * 5000),
    lambda: [a for a, b in [(1,)]],
])
def test_python_fault_texts_are_recognised(fault):
    with pytest.raises((ValueError, OverflowError)) as info:
        fault()
    assert _PYTHON_TEXT.search(str(info.value)), str(info.value)


@given(_argv())
@settings(max_examples=1000, deadline=None, derandomize=True)
def test_cli_fuzz_exits_with_one_json_document(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    doc = json.loads(out.getvalue(), parse_constant=_not_json)
    assert ("error" in doc) == (code == 2)
    if code == 2:
        assert not _PYTHON_TEXT.search(doc["error"]), doc["error"]


_ORACLE = argparse_parser()   # parse_args leaves it unchanged


def _read_both(argv):
    """The outcome of cli._parse and of the argparse oracle on argv, each
    ("ok", vars), ("exit", code) or ("error",) for an exit-2 usage error."""
    from cuemoments import cli

    outcomes = []
    for parse in (cli._parse, _ORACLE.parse_args):
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                outcomes.append(("ok", vars(parse(list(argv)))))
        except ValueError:
            outcomes.append(("error",))
        except SystemExit as exc:
            outcomes.append(("exit", exc.code))
    return outcomes


_LC = ["leading-coeff", "--orders", "1", "--exponents", "2", "--variant", "Z"]
_QUAD = ["quadrature", "--N", "1", "--s", "2"]


@pytest.mark.parametrize("argv,outcome", [
    # --opt=value, unique and ambiguous prefixes, repeated options
    (_LC + ["--eval-s=3"], "ok"),
    (["leading-coeff", "--ord=1", "--exp", "2", "--var", "Z", "--w", "--ev", "1"], "ok"),
    (_LC + ["--e", "1"], "error"),
    (_LC + ["--e=1"], "error"),
    (["painleve", "--mode", "p3-limit", "--s", "1", "--s", "2", "--se", "4"], "ok"),
    (["painleve", "--mode", "p3-limit", "--s=1", "--series=4"], "ok"),
    (_MC + ["--orders", "1", "--exponents", "2", "--p", "2"], "ok"),
    (["hankel-verify", "--p", "--pe"], "ok"),
    (["hankel-verify", "--perturb=1"], "error"),
    (["hankel-verify", "--l", "3", "--l", "x"], "error"),
    # values that start with '-': a negative number, a token with a space
    (["finite-moment", "--N", "-5", "--orders", "1", "--exponents", "2", "--variant", "Z"],
     "ok"),
    (_QUAD + ["--poly", "-2*x1^2 - 3"], "ok"),
    (_QUAD + ["--poly", "-x1^2"], "error"),
    (_QUAD + ["--poly=-x1^2"], "ok"),
    (_LC + ["--eval-s", "-1/2"], "error"),
    (_LC + ["--eval-s=-1/2"], "ok"),
    (_LC + ["--eval-s", "-.5"], "ok"),
    # --format before and after the command
    (["--format", "csv"] + _LC, "ok"),
    (["--fo=csv"] + _LC, "ok"),
    (_LC + ["--format", "csv"], "error"),
    (["--format", "xml"] + _LC, "error"),
    (["--format"] + _LC, "error"),
    # an unknown or missing command, an empty argv, unknown options and values
    (["bogus"], "error"),
    (["--format", "csv"], "error"),
    ([], "error"),
    (["--bogus"] + _LC, "error"),
    (_LC + ["stray"], "error"),
    (_LC + ["--"], "error"),
    (["leading-coeff"], "error"),
    # -h anywhere, unless an error comes before it
    (["-h"], "exit"),
    (["--help", "bogus"], "exit"),
    (["--bogus", "leading-coeff", "-h"], "exit"),
    (["leading-coeff", "--he"], "exit"),
    (_LC + ["--variant", "X", "-h"], "error"),
    (_LC + ["-h", "--variant", "X"], "exit"),
    (_LC + ["--eval-s", "-h"], "error"),
    (_LC + ["-h", "--e"], "error"),
    (_LC + ["-h", "--", "--e"], "exit"),
    (_LC + ["-hx"], "error"),
])
def test_parser_cases_agree_with_argparse(argv, outcome):
    ours, oracle = _read_both(argv)
    assert ours == oracle
    assert ours[0] == outcome
    if outcome == "exit":
        assert ours == ("exit", 0)


_OPTION_NAMES = sorted({o for options in _FUZZ.values() for o in options}
                       | {"--orders", "--exponents", "--format", "--help", "-h"})
_TOKENS = _OPTION_NAMES + _MALFORMED + sorted(_FUZZ) + [
    "bogus", "--bogus", "--exp", "--e", "--ev", "--s", "--se", "--p", "--fo=csv", "csv",
    "-5", "-2*x1^2 - 3", "-1/2", "--eval-s=-1/2", "--exp=2", "", "-", "-.5", "--"]


@st.composite
def _edited_argv(draw):
    """A fuzz argv with up to three edits: a token inserted, an option and its
    value joined by '=', an option cut to a prefix, or an option repeated;
    then --format before or after the command, or neither."""
    argv = draw(_argv())
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.integers(0, 3))
        if edit == 0:
            argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_TOKENS)))
            continue
        options = [i for i, t in enumerate(argv) if t.startswith("--")]
        if not options:
            continue
        i = draw(st.sampled_from(options))
        if edit == 1 and i + 1 < len(argv):
            argv[i:i + 2] = [argv[i] + "=" + argv[i + 1]]
        elif edit == 2:
            argv[i] = argv[i][:draw(st.integers(3, max(3, len(argv[i]))))]
        else:
            argv += argv[i:i + 2]
    where = draw(st.integers(0, 2))
    fmt = ["--format", draw(st.sampled_from(["json", "csv"]))]
    return fmt + argv if where == 0 else argv + fmt if where == 1 else argv


@given(st.one_of(_edited_argv(), st.lists(st.sampled_from(_TOKENS), max_size=8)))
@settings(max_examples=800, deadline=None, derandomize=True)
def test_parser_agrees_with_argparse(argv):
    # either both give the same namespace (vars, the command and its
    # function included), or both exit 2, or both print help and exit 0
    ours, oracle = _read_both(argv)
    assert ours == oracle


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=24)


@given(_JSON_VALUES)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_writer_is_json_dumps_indent_2(obj):
    from cuemoments.cli import _dumps

    assert _dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 5e-324],
    {"é": "Ω ≈ 1 ✓", "\ud83d": "\x00\n\"\\"},
    [[], {}, [[]], {"a": {}}, {"a": {"b": [[], [{}]]}}],
    [True, 1, False, 0, None, 1.0, 10 ** 40, -1],
    {"t": (1, "x"), "nested": [{"k": [1, [2, [3, {"v": None}]]]}]},
    [], {}, "", 0, 0.5, True,
])
def test_writer_special_values(obj):
    from cuemoments.cli import _dumps

    assert _dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("argv", [
    _LC + ["--eval-s", "5/2"],
    ["finite-moment", "--N", "2", "--orders", "1,0", "--exponents", "2,_", "--variant", "V",
     "--eval-s", "3"],
    _MC + ["--orders", "1", "--exponents", "2", "--seed", "3"],
    _QUAD + ["--poly", "x1^2 - 1/3"],
    ["painleve", "--mode", "p5-finite", "--N", "2", "--s", "1"],
    ["painleve", "--mode", "p3-limit", "--s", "1", "--series-order", "4"],
    ["hankel-verify", "--perturb"],
])
def test_writer_prints_each_command_as_json_dumps(capsys, monkeypatch, argv):
    from cuemoments import cli

    docs, write = [], cli._dumps

    def spy(obj, *rest):
        docs.append(obj)
        return write(obj, *rest)

    monkeypatch.setattr(cli, "_dumps", spy)
    main(argv)
    assert capsys.readouterr().out == json.dumps(docs[0], indent=2) + "\n"
    assert docs[0]["command"] == argv[0]


@pytest.mark.parametrize("N,orders,exponents", [
    (1, (2, 1), (4, 2)), (2, (3,), (4,)), (3, (2, 1), (2, 2)), (3, (4, 1), (2, 2)),
])
@pytest.mark.parametrize("variant", ["Z", "V"])
def test_integrand_monomials_bound_the_integrand(N, orders, exponents, variant):
    # the bound of finite-moment counts the monomials with every exponent at
    # most sum e_j and degree at most sum e_j min(n_j, N); the integrand's
    # own monomials are among them
    import itertools

    from cuemoments.cauchy import _integrand_monomials
    from cuemoments.symfunc import v_variant_integrand, xi_poly
    from cuemoments.sympoly import SymPoly

    d = sum(exponents)
    D = sum(e * min(n, N) for n, e in zip(orders, exponents))
    box = [a for a in itertools.product(range(d + 1), repeat=N) if sum(a) <= D]
    assert _integrand_monomials(N, orders, exponents) == len(box)
    if variant == "Z":
        P = SymPoly.const(N, 1)
        for n, e in zip(orders, exponents):
            P = P * xi_poly(n, N) ** e
    else:
        P = v_variant_integrand(orders, exponents, N)
    assert set(P.terms) <= set(box)
