"""End-to-end tests of the command-line surface: exit codes, report shapes,
JSON determinism, and the documented example invocations."""

import json
import re
import shutil
import subprocess

import pytest

from liesym import cli
from liesym.catalog import entry_ids
from liesym.cli import main
from liesym.jordan import classify2x2
from liesym.liealg import kind_to_L4_rep
from liesym.odesys import Mat2
from liesym.symmetry import LinearGenerator, generator_to_json


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


@pytest.fixture
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("LIESYM_SEED", raising=False)


@pytest.fixture
def sysfile(tmp_path):
    def make(payload, name="system.json"):
        p = tmp_path / name
        p.write_text(json.dumps(payload))
        return str(p)
    return make


class TestCommutator:
    @pytest.mark.parametrize("i,j,expected", [
        ("4", "7", "[X4, X7] = X3"),
        ("5", "8", "[X5, X8] = X8"),
        ("1", "3", "[X1, X3] = 0"),
    ])
    def test_basis_brackets(self, capsys, i, j, expected):
        code, out, _ = run(capsys, "commutator", i, j)
        assert code == 0
        assert out.strip() == expected

    def test_json_is_byte_identical(self, capsys):
        code1, out1, _ = run(capsys, "commutator", "4", "7", "--json")
        code2, out2, _ = run(capsys, "commutator", "4", "7", "--json")
        assert code1 == code2 == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["coefficients"] == [0, 0, 1, 0, 0, 0, 0, 0]
        assert payload["pretty"] == "X3"

    def test_bad_index(self, capsys):
        code, _, err = run(capsys, "commutator", "0", "5")
        assert code == 1
        assert "indices" in err

    def test_generator_files(self, capsys, sysfile):
        g1 = sysfile({"xi": "1"}, "g1.json")
        g2 = sysfile({"xi": "x"}, "g2.json")
        code, out, _ = run(capsys, "commutator", g1, g2, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["xi"] == "1"

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "commutator", "/nope/such.json", "/nope/other.json")
        assert code == 1
        assert "cannot read /nope/such.json" in err

    @pytest.mark.parametrize("left,right", [
        ("4", "/nope/such.json"), ("/nope/such.json", "4"), ("4.0", "7"),
    ])
    def test_mixed_index_and_file(self, capsys, left, right):
        code, out, err = run(capsys, "commutator", left, right)
        assert (code, out) == (1, "")
        assert err == (f"liesym: error: mixed index/file pair {left!r}, {right!r}: "
                       "give two basis indices (1..8) or two generator files\n")


class TestNormalize:
    def test_diagonal_family(self, capsys):
        code, out, _ = run(capsys, "normalize", "0,0,0,0,1,0.5,0,0",
                           "--algebra", "L4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == 1
        assert payload["params"]["alpha"] == pytest.approx(0.5)
        assert payload["violations"] == []
        assert isinstance(payload["word"], list)

    def test_shear_family(self, capsys):
        code, out, _ = run(capsys, "normalize", "0,0,0,0,0,0,1,0",
                           "--algebra", "L4", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["family"] == 3
        assert payload["params"].get("beta", 0.0) == 0.0

    def test_zero_element(self, capsys):
        code, out, _ = run(capsys, "normalize", "0,0,0,0,0,0,0,0",
                           "--algebra", "L4", "--json")
        assert code == 0
        assert json.loads(out)["family"] == 4

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "normalize", "0,0,0,0,1,0.5,0,0",
                           "--algebra", "L4")
        assert code == 0
        assert out.startswith("L4 family 1 (scale 1")
        assert "alpha=0.5" in out

    def test_support_restriction(self, capsys):
        code, _, err = run(capsys, "normalize", "1,0,0,0,1,0,0,0",
                           "--algebra", "L4")
        assert code == 1
        assert "zero coefficients" in err

    def test_full_algebra_accepts_everything(self, capsys):
        code, out, _ = run(capsys, "normalize", "1,0,0,0,1,0,0,0", "--json")
        assert code == 0
        assert json.loads(out)["algebra"] == "L8"

    def test_arity_error(self, capsys):
        code, _, err = run(capsys, "normalize", "1,2,3")
        assert code == 1
        assert "8 comma-separated" in err

    @pytest.mark.parametrize("vector", ["-0.5,0,0,0,1,0,0,0", "-.5,0,0,0,1,0,0,0"])
    def test_leading_negative_number_is_a_value(self, capsys, vector):
        code, out, err = run(capsys, "normalize", vector, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["input"][0] == -0.5
        assert run(capsys, "normalize", "--json", "--", vector) == (0, out, "")

    def test_unknown_option_is_still_an_error(self, capsys):
        code, out, err = run(capsys, "normalize", "--bogus", "1,0,0,0,0,0,0,0")
        assert (code, out) == (1, "")
        assert "unrecognized arguments: --bogus" in err

    def test_non_number_entry(self, capsys):
        code, out, err = run(capsys, "normalize", "1,0,0,0,x,0,0,0")
        assert (code, out) == (1, "")
        assert err.startswith("liesym: error: coefficient vector: could not convert")

    @pytest.mark.parametrize("algebra", ["L4", "L6", "L8"])
    @pytest.mark.parametrize("vector, message", [
        ("0,0,0,0,nan,0,0,0", "needs finite coefficients"),
        ("0,0,0,0,1,0,0,-inf", "needs finite coefficients"),
        ("0,0,0,0,1e160,1e160,0,1", "cannot classify"),
    ])
    def test_non_finite_or_overflowing_vector(self, capsys, algebra, vector, message):
        code, out, err = run(capsys, "normalize", vector, "--algebra", algebra)
        assert (code, out) == (1, "")
        assert err.startswith("liesym: error:") and message in err

    @pytest.mark.parametrize("vector", ["nan,0,0,0,1,0,0,0", "inf,0,0,0,1,0,0,0"])
    def test_non_finite_x_slot(self, capsys, vector):
        code, out, err = run(capsys, "normalize", vector)
        assert (code, out) == (1, "")
        assert err.startswith("liesym: error: normalize_L8 needs finite coefficients")

    @pytest.mark.parametrize("vector, algebra, family", [
        ("0,0,0,0,1,1,0,1e-9", "L8", 1),
        ("0,0,0,0,0,0,0,-1e-9", "L4", 3),
    ])
    def test_near_degenerate_block(self, capsys, vector, algebra, family):
        code, out, err = run(capsys, "normalize", vector, "--algebra", algebra, "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["family"] == family


class TestJordan:
    def test_rotation_like(self, capsys):
        code, out, _ = run(capsys, "jordan", "--matrix", "1,2,-2,1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "J2"
        assert payload["l4_family"] == 2
        assert payload["reconstruction_error"] < 1e-12

    def test_human_output(self, capsys):
        code, out, _ = run(capsys, "jordan", "--matrix", "2,0,0,3")
        assert code == 0
        assert out.startswith("kind J1")

    def test_arity_error(self, capsys):
        code, _, err = run(capsys, "jordan", "--matrix", "1,2,3")
        assert code == 1
        assert "4 comma-separated" in err

    def test_leading_negative_entry(self, capsys):
        code, out, err = run(capsys, "jordan", "--matrix", "-1,2,3,4", "--json")
        assert (code, err) == (0, "")
        assert json.loads(out)["matrix"] == [[-1.0, 2.0], [3.0, 4.0]]

    @pytest.mark.parametrize("matrix", ["nan,0,0,1", "1,inf,0,1", "1e160,0,0,1",
                                        "0,1e160,0,0", "1e-200,0,0,2e-200",
                                        "0,0,0,1e-320"])
    def test_non_finite_or_overflowing_matrix(self, capsys, matrix):
        code, out, err = run(capsys, "jordan", "--matrix", matrix)
        assert (code, out) == (1, "")
        assert err.startswith("liesym: error: cannot classify")

    def test_small_matrices_keep_their_shape(self, capsys):
        code, out, err = run(capsys, "jordan", "--matrix", "2e-7,0,0,-3e-7", "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["kind"], payload["params"]) == ("J1", {"a11": 2e-7, "a22": -3e-7})
        assert payload["reconstruction_error"] == 0.0
        code, out, err = run(capsys, "jordan", "--matrix", "1e-9,1e-9,0,1e-9", "--json")
        assert (code, err) == (0, "")
        assert (json.loads(out)["kind"], json.loads(out)["l4_family"]) == ("J3", 3)

    @pytest.mark.parametrize("matrix, family, params", [
        ("1e-13,0,0,2e-13", 1, {"alpha": 0.5}),
        ("0,0,0,0", 4, {}),
    ])
    def test_small_diagonal_matrix_is_not_the_zero_element(self, capsys, matrix,
                                                           family, params):
        code, out, err = run(capsys, "jordan", "--matrix", matrix, "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["kind"], payload["l4_family"]) == ("J1", family)
        assert payload["l4_params"] == params

    @pytest.mark.parametrize("matrix", ["1e-13,1e-13,0,1e-13", "1e-7,1e-12,0,1e-7"])
    def test_small_defective_matrices_keep_their_shape(self, capsys, matrix):
        # the J3 conjugator is about diag(1/|n|, 1), which Mat2.inv would
        # call singular at these scales
        code, out, err = run(capsys, "jordan", "--matrix", matrix, "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["kind"], payload["l4_family"]) == ("J3", 3)
        assert payload["reconstruction_error"] <= 1e-6 * 1e-7

    @pytest.mark.parametrize("matrix, beta, scale", [("1e-13,1e-13,0,1e-13", 1.0, 1e-13),
                                                     ("-1e-300,1,0,-1e-300", 1.0, -1e-300),
                                                     ("0,1,0,0", 0.0, 1.0)])
    def test_only_a_zero_eigenvalue_reads_as_nilpotent(self, capsys, matrix, beta, scale):
        # a small defective block keeps beta = 1 and its eigenvalue as the
        # scale; beta = 0 is the nilpotent shape alone
        code, out, err = run(capsys, "jordan", "--matrix", matrix, "--json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["kind"], payload["l4_family"]) == ("J3", 3)
        assert payload["l4_params"] == {"beta": beta}
        rep = kind_to_L4_rep(classify2x2(Mat2(*map(float, matrix.split(",")))))
        assert (rep.params, rep.scale) == ({"beta": beta}, scale)


class TestCheck:
    def test_kernel_admitted(self, capsys, sysfile, clean_seed_env):
        s = sysfile({"F": "exp(y)", "G": "exp(z)"})
        g = sysfile({"xi": "1"}, "gen.json")
        code, out, _ = run(capsys, "check", s, g)
        assert code == 0
        assert out.startswith("admitted")

    def test_rejection_reports_witness(self, capsys, sysfile, clean_seed_env):
        s = sysfile({"F": "exp(y)", "G": "exp(z)"})
        g = sysfile({"xi": "0", "eta1": "y", "eta2": "0"}, "gen.json")
        code, out, _ = run(capsys, "check", s, g, "--json")
        assert code == 2
        payload = json.loads(out)
        assert payload["verdict"] == "rejected"
        assert set(payload["witness"]) == {"x", "y", "z", "yp", "zp"}
        code, out, _ = run(capsys, "check", s, g)
        assert code == 2
        assert "witness:" in out

    def test_coefficient_generator_file(self, capsys, sysfile, clean_seed_env):
        s = sysfile({"F": "exp(y)", "G": "exp(z)"})
        g = sysfile({"coefficients": [1, 0, 0, 0, 0, 0, 0, 0]}, "gen.json")
        code, out, _ = run(capsys, "check", s, g)
        assert code == 0
        assert out.startswith("admitted")

    def test_system_params(self, capsys, sysfile, clean_seed_env):
        s = sysfile({"F": "a*y", "G": "a*z", "params": {"a": 2.0}})
        g = sysfile({"xi": "1"}, "gen.json")
        code, out, _ = run(capsys, "check", s, g)
        assert code == 0

    def test_unbound_parameter_rejected(self, capsys, sysfile):
        s = sysfile({"F": "a*y", "G": "z"})
        g = sysfile({"xi": "1"}, "gen.json")
        code, _, err = run(capsys, "check", s, g)
        assert code == 1
        assert "unbound" in err

    @pytest.mark.parametrize("system, names", [
        ({"F": "a*y", "G": "z"}, "['a']"),
        ({"F": "y", "G": "b*z + c", "params": {"b": 1}}, "['c']"),
        ({"F": "q*r", "G": "z"}, "['q', 'r']"),
    ])
    def test_unbound_name_is_named(self, capsys, sysfile, clean_seed_env, system, names):
        s = sysfile(system)
        g = sysfile({"xi": "1"}, "gen.json")
        code, out, err = run(capsys, "check", s, g)
        assert (code, out) == (1, "")
        assert err.startswith(f"liesym: error: {s}: unbound symbols {names}")

    @pytest.mark.parametrize("generator", [
        {"coefficients": [0, 1, 0, 0, 1, 0.5, 0, 0]},
        {"xi": "0", "eta1": "y", "eta2": "0"},
    ], ids=["admitted", "rejected"])
    def test_params_mean_their_literal_values(self, capsys, sysfile, clean_seed_env,
                                              generator):
        bound = sysfile({"F": "a * z^(-2)", "G": "b * z^(-3)",
                         "params": {"a": 2.5, "b": -0.75, "unused": 1}}, "bound.json")
        literal = sysfile({"F": "2.5 * z^(-2)", "G": "(-0.75) * z^(-3)"},
                          "literal.json")
        g = sysfile(generator, "gen.json")
        code_b, out_b, _ = run(capsys, "check", bound, g, "--json")
        code_l, out_l, _ = run(capsys, "check", literal, g, "--json")
        assert code_b == code_l == (0 if "coefficients" in generator else 2)
        assert out_b.replace(json.dumps(bound), json.dumps(literal)) == out_l

    def test_bad_generator_symbol(self, capsys, sysfile):
        s = sysfile({"F": "exp(y)", "G": "exp(z)"})
        g = sysfile({"xi": "q"}, "gen.json")
        code, _, err = run(capsys, "check", s, g)
        assert code == 1

    def test_domain_flag(self, capsys, sysfile, clean_seed_env):
        s = sysfile({"F": "z^(-2)", "G": "z^(-3)"})
        g = sysfile({"coefficients": [0, 1, 0, 0, 1, 0.5, 0, 0]}, "gen.json")
        dom = "x=0.2:3,y=0.2:3,z=0.2:3,yp=-1:1,zp=-1:1"
        code, out, _ = run(capsys, "check", s, g, "--domain", dom, "--tol", "1e-8")
        assert code == 0, out
        code, _, err = run(capsys, "check", s, g, "--domain", "x=1")
        assert code == 1
        assert "name=lo:hi" in err
        code, _, err = run(capsys, "check", s, g, "--domain",
                           "x=0.2:3,y=0.2:3,z=0.2:3,yp=-1:1")
        assert code == 1
        assert "missing" in err
        code, out, err = run(capsys, "check", s, g, "--domain",
                             "x=0.2:3,x=0.5:1,y=0.2:3,z=0.2:3,yp=-1:1,zp=-1:1")
        assert (code, out) == (1, "")
        assert err == "liesym: error: --domain names 'x' more than once\n"
        # a blank name is no name, not an extra column named ''
        blank = " =0.2:3,x=0.2:3,y=0.2:3,z=0.2:3,yp=-1:1,zp=-1:1"
        code, out, err = run(capsys, "check", s, g, "--domain", blank)
        assert (code, out) == (1, "")
        assert err == "liesym: error: bad domain chunk ' =0.2:3'; expected name=lo:hi\n"

    def test_json_reports_are_reproducible(self, capsys, sysfile, clean_seed_env):
        s = sysfile({"F": "exp(y)", "G": "exp(z)"})
        g = sysfile({"xi": "0", "eta1": "y", "eta2": "0"}, "gen.json")
        _, out1, _ = run(capsys, "check", s, g, "--json")
        _, out2, _ = run(capsys, "check", s, g, "--json")
        assert out1 == out2

    def test_seed_resolution(self, capsys, sysfile, monkeypatch):
        s = sysfile({"F": "exp(y)", "G": "exp(z)"})
        g = sysfile({"xi": "1"}, "gen.json")
        monkeypatch.setenv("LIESYM_SEED", "7")
        _, out, _ = run(capsys, "check", s, g, "--json")
        assert json.loads(out)["seed"] == 7
        _, out, _ = run(capsys, "check", s, g, "--json", "--seed", "3")
        assert json.loads(out)["seed"] == 3
        monkeypatch.setenv("LIESYM_SEED", "pony")
        code, _, err = run(capsys, "check", s, g)
        assert code == 1
        assert "LIESYM_SEED" in err

    @pytest.mark.parametrize("argv, env, source", [
        (["check", "{system}", "{kernel}", "--seed", "-1"], None, "--seed"),
        (["check", "{system}", "{kernel}", "--domain", "y=1:2", "--seed", "-1"],
         None, "--seed"),
        (["check", "{system}", "{kernel}"], "-1", "LIESYM_SEED"),
        (["catalog", "verify", "--id", "T1.J1", "--seed", "-1"], None, "--seed"),
        (["catalog", "verify", "--id", "T1.J1"], "-3", "LIESYM_SEED"),
    ], ids=["check", "check-domain", "check-env", "catalog", "catalog-env"])
    def test_negative_seed_names_its_source(self, capsys, sysfile, monkeypatch,
                                            argv, env, source):
        # numpy's "expected non-negative integer" must not leak through
        monkeypatch.delenv("LIESYM_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("LIESYM_SEED", env)
        files = {"system": sysfile({"F": "exp(y)", "G": "exp(z)"}),
                 "kernel": sysfile({"xi": "1"}, "kernel.json")}
        code, out, err = run(capsys, *[a.format(**files) for a in argv])
        assert (code, out) == (1, "")
        seed = env or "-1"
        assert err == f"liesym: error: {source} must be a non-negative integer, got {seed}\n"

    def test_missing_and_malformed_files(self, capsys, sysfile, tmp_path):
        g = sysfile({"xi": "1"}, "gen.json")
        code, _, err = run(capsys, "check", str(tmp_path / "none.json"), g)
        assert code == 1
        assert "cannot read" in err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "check", str(bad), g)
        assert code == 1
        assert "not valid JSON" in err
        incomplete = sysfile({"F": "y"}, "partial.json")
        code, _, err = run(capsys, "check", incomplete, g)
        assert code == 1
        assert "'G'" in err


    @pytest.mark.parametrize("system, message", [
        ([1, 2], "expected a JSON object"),
        ({"F": "y", "G": "z", "params": [1]}, "params must be an object"),
        ({"F": "a*y", "G": "z", "params": {"a": [1]}}, "param 'a' must be a finite number, got [1]"),
        ({"F": "a*y", "G": "z", "params": {"a": True}}, "param 'a' must be a finite number, got true"),
        ({"F": "a*y", "G": "z", "params": {"a": "2"}}, "param 'a' must be a finite number, got \"2\""),
        ({"F": "a*y", "G": "z", "params": {"a": float("nan")}}, "got NaN"),
        ({"F": "a*y", "G": "z", "params": {"a": 10 ** 400}}, "param 'a' must be a finite number"),
        ({"F": True, "G": "z"}, "F must be an Expr, a string, or a number; got bool"),
        ({"F": "y", "G": None}, "G must be an Expr, a string, or a number; got NoneType"),
        ({"F": "y", "G": float("inf")}, "G must be a finite number"),
        ({"F": "y", "G": "z", "params": {"yp": 1}},
         "parameters may not shadow reserved names ['yp']"),
    ], ids=["not-an-object", "params-not-an-object", "list-param", "bool-param",
            "string-param", "nan-param", "huge-int-param", "bool-F", "null-G", "inf-G",
            "yp-param"])
    def test_malformed_system_file(self, capsys, sysfile, clean_seed_env, system, message):
        s = sysfile(system)
        g = sysfile({"xi": "1"}, "gen.json")
        code, out, err = run(capsys, "check", s, g)
        assert (code, out) == (1, "")
        assert err.startswith(f"liesym: error: {s}: ") and message in err

    def test_numeric_right_hand_sides(self, capsys, sysfile, clean_seed_env):
        s = sysfile({"F": 0, "G": -1.5, "params": {"a": 2}})
        g = sysfile({"xi": "1"}, "gen.json")
        code, out, err = run(capsys, "check", s, g)
        assert (code, err) == (0, "")
        assert out.startswith("admitted")

    @pytest.mark.parametrize("opts, reason", [
        (("--tol", "nan"), "tol"),
        (("--tol", "-1"), "tol"),
        (("--samples", "0"), "sample point"),
        (("--samples", "-3"), "sample point"),
        (("--domain", "x=1:1,y=0.2:3,z=0.2:3,yp=-1:1,zp=-1:1"), "lo < hi"),
    ])
    def test_invalid_numeric_options(self, capsys, sysfile, clean_seed_env,
                                     opts, reason):
        # an admitted pair: a bad option must not turn into a verdict
        s = sysfile({"F": "exp(y)", "G": "exp(z)"})
        g = sysfile({"xi": "1"}, "gen.json")
        code, out, err = run(capsys, "check", s, g, "--json", *opts)
        assert code == 1
        assert out == ""
        assert err.startswith("liesym: error:") and reason in err

    def test_evaluation_failure_is_reported(self, capsys, sysfile, clean_seed_env):
        s = sysfile({"F": "ln(y-1)", "G": "z^(-3)"})
        g = sysfile({"coefficients": [0, 1, 0, 0, 0, 0, 0, 0]}, "gen.json")
        code, out, err = run(capsys, "check", s, g)
        assert code == 1
        assert out == ""
        assert err.startswith("liesym: error: non-finite value in 'ln(y - 1)' near {")
        assert "Traceback" not in err

    @pytest.mark.parametrize("rhs, message", [
        ("1e400 * y", "number '1e400' is out of the float range (at position 0)"),
        ("(1e400 - 1e400) * y", "number '1e400' is out of the float range (at position 1)"),
        # the overflowing product stays as written, and the error names it
        ("1e308 * 10 * y", "non-finite value in '1e+308 * 10' near {"),
    ])
    def test_out_of_range_numbers_are_reported(self, capsys, sysfile, clean_seed_env,
                                               rhs, message):
        s = sysfile({"F": rhs, "G": "z"})
        g = sysfile({"xi": "x/2", "eta1": "y", "eta2": "z"}, "gen.json")
        code, out, err = run(capsys, "check", s, g)
        assert code == 1
        assert out == ""
        assert err.startswith("liesym: error:") and message in err
        assert "Traceback" not in err

    def test_linear_generator_file(self, capsys, sysfile, clean_seed_env):
        # the file generator_to_json writes for an affine field: the scaling
        # 2 (x / 4) d/dx + y d/dy + z d/dz of a degree-0 homogeneous system
        lg = LinearGenerator(0.0, 0.25, Mat2.diag(1.0, 1.0))
        g = sysfile(generator_to_json(lg), "linear.json")
        s = sysfile({"F": "y / z", "G": "z / y"})
        code, out, err = run(capsys, "check", s, g)
        assert (code, err) == (0, "")
        assert out.startswith("admitted")
        kernel = sysfile({"xi": "1"}, "kernel.json")
        expanded = sysfile({"xi": "x / 2", "eta1": "y", "eta2": "z"}, "expanded.json")
        code, out, err = run(capsys, "commutator", g, kernel)
        assert (code, err) == (0, "")
        assert out == run(capsys, "commutator", expanded, kernel)[1]
        assert out.splitlines()[0] == "xi   = -0.5"

    @pytest.mark.parametrize("generator", [
        {"xi": "1", "eta9": "y"},
        {"xi": "1", "coefficients": [1, 0, 0, 0, 0, 0, 0, 0]},
        {"linear": {"A": 5}},
        {"coefficients": [float("nan"), 0, 0, 0, 0, 0, 0, 0]},
        {"coefficients": [True, 0, 0, 0, 0, 0, 0, 0]},
        {"coefficients": ["1", 0, 0, 0, 0, 0, 0, 0]},
        {"linear": {"k1": True, "A": [[0, 0], [0, 0]]}},
        {"linear": {"k2": "1", "A": [[0, 0], [0, 0]]}},
        {"linear": {"A": [[True, 0], [0, 1]]}},
    ], ids=["unknown-key", "mixed-shapes", "bad-matrix", "nan-coefficient",
            "bool-coefficient", "string-coefficient", "bool-k1", "string-k2",
            "bool-matrix-entry"])
    def test_malformed_generator_file(self, capsys, sysfile, clean_seed_env,
                                      generator):
        s = sysfile({"F": "exp(y)", "G": "exp(z)"})
        g = sysfile(generator, "gen.json")
        for argv in (("check", s, g), ("commutator", g, g)):
            code, out, err = run(capsys, *argv)
            assert code == 1
            assert out == ""
            assert err.startswith(f"liesym: error: {g}: ")
            assert "Traceback" not in err

    @pytest.mark.parametrize("n", [500, 5000])
    def test_long_sum_gets_a_verdict(self, capsys, sysfile, clean_seed_env, n):
        # degree-0 homogeneous F = G, so the scaling field (x/2, y, z) is
        # admitted; parsing, differentiating and folding a sum of n terms must
        # not run into the interpreter's recursion limit
        terms = " + ".join(f"{i % 5 + 1} * y ^ ({i % 7 - 3}) * z ^ ({3 - i % 7})"
                           for i in range(n))
        s = sysfile({"F": terms, "G": terms})
        g = sysfile({"xi": "x/2", "eta1": "y", "eta2": "z"}, "gen.json")
        code, out, err = run(capsys, "check", s, g, "--json")
        assert code == 0, err
        assert json.loads(out)["verdict"] == "admitted"
        assert err == ""


class TestCatalogCli:
    def test_list(self, capsys):
        code, out, _ = run(capsys, "catalog", "list", "--json")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert len(entries) == 34
        code, out, _ = run(capsys, "catalog", "list")
        assert code == 0
        assert "T1.J1" in out and "T2.3 [quarantined]" in out

    def test_verify_single_pass(self, capsys, clean_seed_env):
        code, out, _ = run(capsys, "catalog", "verify", "--id", "T3.S2")
        assert code == 0
        assert "T3.S2 PASS" in out

    def test_verify_quarantined(self, capsys, clean_seed_env):
        code, out, _ = run(capsys, "catalog", "verify", "--id", "T2.3", "--json")
        assert code == 3
        payload = json.loads(out)
        assert payload["summary"]["quarantined"] == 1
        entry = payload["entries"][0]
        bad = [c for c in entry["checks"] if not c["ok"]]
        assert bad and set(bad[0]["witness"]) == {"x", "y", "z", "yp", "zp"}

    def test_verify_with_overrides(self, capsys, clean_seed_env):
        code, out, _ = run(capsys, "catalog", "verify", "--id", "T1.J1",
                           "--set", "gamma=2.5", "--set", "kappa=-1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["entries"][0]["params"]["gamma"] == 2.5
        assert payload["entries"][0]["passed"]

    def test_verify_rejects_bad_params(self, capsys, clean_seed_env):
        code, _, err = run(capsys, "catalog", "verify", "--id", "T1.J1",
                           "--set", "gamma=1")
        assert code == 1
        assert "stay away" in err
        code, _, err = run(capsys, "catalog", "verify", "--id", "T1.J1",
                           "--set", "gamma")
        assert code == 1
        assert "NAME=VALUE" in err

    def test_verify_rejects_non_numeric_set(self, capsys, clean_seed_env):
        code, out, err = run(capsys, "catalog", "verify", "--id", "T1.J1",
                             "--set", "gamma=abc")
        assert (code, out) == (1, "")
        assert err.startswith("liesym: error: --set 'gamma=abc': could not convert")

    @pytest.mark.parametrize("entry_id, assignment, message", [
        ("T2.1", "alpha=nan", "T2.1: parameter 'alpha' must be a finite number, got nan"),
        ("T1.J1", "gamma=inf", "T1.J1: parameter 'gamma' must be a finite number, got inf"),
    ])
    def test_verify_rejects_non_finite_set(self, capsys, clean_seed_env, entry_id,
                                           assignment, message):
        code, out, err = run(capsys, "catalog", "verify", "--id", entry_id,
                             "--set", assignment)
        assert (code, out, err) == (1, "", f"liesym: error: {message}\n")

    def test_verify_names_a_check_that_overflows(self, capsys, clean_seed_env):
        # lam * lam overflows inside the check's formula: the error names the
        # row, the constraint and the values, not the internal expression
        code, out, err = run(capsys, "catalog", "verify", "--id", "T3.S1e1",
                             "--set", "lam=1e200")
        assert (code, out) == (1, "")
        assert err == ("liesym: error: T3.S1e1: needs 4*kappa - lam^2 > 0 (complex-root "
                       "quadratic); '4*kappa - lam*lam' has no finite value at "
                       "kappa = 1.25, lam = 1e+200\n")

    @pytest.mark.parametrize("entry_id", ["T2.4", "T2.5", "T3.S4a", "T3.S4b"])
    def test_verify_names_the_row_of_a_derived_value_that_overflows(
            self, capsys, clean_seed_env, entry_id):
        # chi1 = alpha/(alpha*alpha + 1) overflows in alpha*alpha: the error
        # names the row, as a failed check does
        code, out, err = run(capsys, "catalog", "verify", "--id", entry_id,
                             "--set", "alpha=1e200")
        assert (code, out) == (1, "")
        assert err == (f"liesym: error: {entry_id}: 'alpha/(alpha*alpha + 1)' has no "
                       "finite value at alpha = 1e+200\n")

    @pytest.mark.parametrize("opts, message", [
        (("--samples", "0"), "need at least one sample point, got n=0"),
        (("--samples", "-1"), "need at least one sample point, got n=-1"),
        (("--seed", "-1"), "--seed must be a non-negative integer, got -1"),
    ], ids=["samples=0", "samples=-1", "seed=-1"])
    @pytest.mark.parametrize("entry_id", entry_ids())
    def test_verify_rejects_bad_sampling(self, capsys, clean_seed_env, entry_id,
                                         opts, message):
        code, out, err = run(capsys, "catalog", "verify", "--id", entry_id, *opts)
        assert (code, out, err) == (1, "", f"liesym: error: {message}\n")

    def test_verify_rejects_a_repeated_name(self, capsys, clean_seed_env):
        code, out, err = run(capsys, "catalog", "verify", "--id", "T2.1",
                             "--set", "fm2=0.1", "--set", " fm2=0.4")
        assert (code, out) == (1, "")
        assert err == "liesym: error: --set names 'fm2' more than once\n"
        # a blank name is no name, not an unknown parameter ''
        code, out, err = run(capsys, "catalog", "verify", "--id", "T2.4", "--set", " =1")
        assert (code, out) == (1, "")
        assert err == "liesym: error: bad --set ' =1'; expected NAME=VALUE\n"

    def test_verify_unknown_id(self, capsys, clean_seed_env):
        code, _, err = run(capsys, "catalog", "verify", "--id", "T9.zz")
        assert code == 1
        assert "unknown catalog entry" in err

    def test_verify_tight_tolerance_fails_with_witness(self, capsys,
                                                       clean_seed_env):
        code, out, _ = run(capsys, "catalog", "verify", "--id", "T3.S2",
                           "--tol", "1e-18")
        assert code == 2
        assert "FAIL" in out and "witness:" in out

    def test_verify_all(self, capsys, clean_seed_env):
        code, out, _ = run(capsys, "catalog", "verify", "--all", "--json")
        assert code == 3  # one quarantined row, nothing genuinely failing
        payload = json.loads(out)
        assert payload["summary"] == {"pass": 33, "fail": 0, "quarantined": 1}
        assert len(payload["entries"]) == 34

    @pytest.mark.parametrize("flag", ["--json", "--timings"])
    def test_flags_go_after_list_or_verify(self, capsys, flag):
        code, out, err = run(capsys, "catalog", flag, "list")
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {flag}" in err

    def test_selection_usage_errors(self, capsys):
        code, _, err = run(capsys, "catalog", "verify")
        assert code == 1
        assert "exactly one" in err
        code, _, err = run(capsys, "catalog", "verify", "--all",
                           "--id", "T1.J1")
        assert code == 1
        code, _, err = run(capsys, "catalog", "verify", "--all",
                           "--set", "gamma=2")
        assert code == 1
        assert "--set" in err


class TestSharedParser:
    """:func:`main` reuses one parser built at import; each call must print
    what a parser built just for it prints."""

    SEQUENCES = {
        "set-then-defaults": [
            ["catalog", "verify", "--id", "T3.S2", "--set", "kappa=0.5"],
            ["catalog", "verify", "--id", "T3.S2"],
        ],
        "json-then-text": [
            ["catalog", "verify", "--id", "T3.S2", "--json"],
            ["catalog", "verify", "--id", "T3.S2"],
            ["commutator", "4", "7", "--json"],
            ["commutator", "4", "7"],
        ],
        "usage-error-then-good": [
            ["normalize"],
            ["normalize", "1,0,0,0,0,0,0,0"],
            ["catalog", "verify", "--id", "T3.S2", "--bogus"],
            ["catalog", "verify", "--id", "T3.S2"],
        ],
    }

    @pytest.mark.parametrize("name", sorted(SEQUENCES))
    def test_calls_keep_no_state(self, capsys, monkeypatch, clean_seed_env, name):
        argvs = self.SEQUENCES[name]
        shared = [run(capsys, *argv) for argv in argvs]
        fresh = []
        for argv in argvs:
            monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            fresh.append(run(capsys, *argv))
        assert shared == fresh
        if name == "usage-error-then-good":
            assert [code for code, _, _ in shared] == [1, 0, 1, 0]

    def test_main_does_not_build_a_parser(self, capsys, monkeypatch):
        def refuse():
            raise AssertionError("build_parser called from main")
        monkeypatch.setattr(cli, "build_parser", refuse)
        assert run(capsys, "commutator", "4", "7")[:2] == (0, "[X4, X7] = X3\n")


class TestHarness:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 1

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    @pytest.mark.parametrize("argv, code", [
        (["check", "{system}", "{kernel}"], 0),
        (["check", "{system}", "{shift}"], 2),
        (["normalize", "0,0,0,0,1,0.5,0,0", "--algebra", "L4"], 0),
        (["jordan", "--matrix", "1,2,-2,1"], 0),
        (["commutator", "4", "7"], 0),
        (["commutator", "{kernel}", "{shift}"], 0),
        (["catalog", "list"], 0),
        (["catalog", "verify", "--id", "T2.3"], 3),
        (["catalog", "verify", "--all"], 3),
    ], ids=["check-admitted", "check-rejected", "normalize", "jordan",
            "commutator-index", "commutator-files", "catalog-list",
            "catalog-verify-id", "catalog-verify-all"])
    def test_timings_opt_in(self, capsys, sysfile, clean_seed_env, argv, code):
        files = {"system": sysfile({"F": "exp(y)", "G": "exp(z)"}),
                 "kernel": sysfile({"xi": "1"}, "kernel.json"),
                 "shift": sysfile({"eta1": "y"}, "shift.json")}
        argv = [a.format(**files) for a in argv]
        got, text, _ = run(capsys, *argv)
        assert got == code
        got, timed, err = run(capsys, *argv, "--timings")
        assert (got, err) == (code, "")
        assert timed.startswith(text)
        assert re.fullmatch(r"\(took \d+\.\d{3} s\)\n", timed[len(text):])
        _, plain, _ = run(capsys, *argv, "--json")
        got, timed, err = run(capsys, *argv, "--json", "--timings")
        assert (got, err) == (code, "")
        timed = json.loads(timed)
        assert set(timed.pop("timings")) == {"seconds"}
        assert timed == json.loads(plain)

    @pytest.mark.parametrize("argv", [
        ["check", "/nope/system.json", "/nope/generator.json"],
        ["normalize", "1,2"],
        ["jordan", "--matrix", "1,2,3"],
        ["commutator", "0", "5"],
        ["catalog", "verify", "--id", "T9.zz"],
    ], ids=["check", "normalize", "jordan", "commutator", "catalog-verify"])
    @pytest.mark.parametrize("flags", [["--timings"], ["--timings", "--json"]],
                             ids=["text", "json"])
    def test_timings_input_error_prints_nothing(self, capsys, argv, flags):
        code, out, err = run(capsys, *argv, *flags)
        assert (code, out) == (1, "")
        assert err.startswith("liesym: error: ")

    @pytest.mark.skipif(shutil.which("liesym") is None,
                        reason="console script not on PATH")
    def test_console_script(self):
        proc = subprocess.run(["liesym", "commutator", "4", "7"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert "[X4, X7] = X3" in proc.stdout
