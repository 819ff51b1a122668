import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import ipsforge
from ipsforge import gf
from ipsforge.cli import _parse_sym_expr, main
from ipsforge.errors import ParseError
from ipsforge.mvpoly import Poly
from ipsforge.symfun import elem_sym

from conftest import from_coeffs


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """Environment for a child `python -m ipsforge.cli`: the absolute directory
    of the ipsforge package under test goes first on PYTHONPATH, so the child
    imports it from any working directory, installed or not."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(ipsforge.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


class TestRefuteVerify:
    def test_refute_writes_valid_certificate(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "refute", "--family", "linear-shifted",
                             "--p", "2", "--k", "3", "--n", "4", "--seed", "7",
                             "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["provenance"]["constructor"] == "linear_frobenius"
        assert data["run_config"]["seed"] == 7

    def test_roundtrip_through_verify(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert run_cli(capsys, "refute", "--family", "sparse-shifted", "--p", "2",
                       "--k", "2", "--n", "3", "--seed", "5", "--out", str(out))[0] == 0
        code, stdout, _ = run_cli(capsys, "verify", str(out))
        assert code == 0
        assert json.loads(stdout)["valid"] is True

    def test_corrupted_coefficient_detected(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        run_cli(capsys, "refute", "--family", "linear-shifted", "--p", "2",
                "--k", "2", "--n", "2", "--seed", "3", "--out", str(out))
        data = json.loads(out.read_text())
        data["A"][0] = data["A"][0].replace("[1,", "[0,", 1)
        out.write_text(json.dumps(data))
        code, stdout, _ = run_cli(capsys, "verify", str(out))
        assert code == 2
        assert "not_a_certificate" in stdout

    def test_field_mismatch(self, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        inst = tmp_path / "inst.json"
        run_cli(capsys, "refute", "--family", "linear-shifted", "--p", "2",
                "--k", "2", "--n", "2", "--seed", "3", "--out", str(cert))
        run_cli(capsys, "gen", "--family", "linear-shifted", "--p", "3",
                "--k", "1", "--n", "2", "--seed", "3", "--out", str(inst))
        code, _, err = run_cli(capsys, "verify", str(cert), "--instance", str(inst))
        assert code == 1
        assert "GF(3" in err

    def test_symmetric_explicit_poly(self, tmp_path, capsys):
        out = tmp_path / "cert.json"
        code, _, _ = run_cli(capsys, "refute", "--family", "symmetric",
                             "--p", "3", "--n", "2", "--poly", "e1+e2+1",
                             "--out", str(out))
        assert code == 0
        data = json.loads(out.read_text())
        assert data["provenance"]["constructor"] == "symmetric_pipeline"

    def test_satisfiable_exit_code(self, capsys):
        code, stdout, _ = run_cli(capsys, "refute", "--family", "symmetric",
                                  "--p", "2", "--n", "4", "--poly", "e1")
        assert code == 2
        assert json.loads(stdout)["error"] in ("satisfiable_instance",
                                               "satisfiable_system")

    def test_missing_seed_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "refute", "--family", "linear-shifted",
                             "--p", "2", "--k", "2", "--n", "2")
        assert code == 1

    def test_unknown_family_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "refute", "--family", "frobnicate",
                             "--p", "2", "--n", "2", "--seed", "1")
        assert code == 1


@pytest.mark.parametrize("argv", [
    ["refute", "--family", "linear-shifted", "--p", "4", "--n", "2", "--seed", "1"],
    ["refute", "--family", "linear-shifted", "--p", "2", "--k", "0", "--n", "2", "--seed", "1"],
    ["refute", "--family", "linear-shifted", "--p", "2", "--n", "-1", "--seed", "1"],
    ["refute", "--family", "symmetric", "--p", "2", "--n", "4", "--m", "0", "--seed", "1"],
    ["gen", "--family", "linear-base", "--p", "9", "--n", "2", "--seed", "1"],
    ["oracle", "scan", "--p", "4", "--n", "2", "--seed", "1"],
    ["oracle", "rank", "--p", "318665857834031151167461", "--n", "2", "--seed", "1"],
    ["oracle", "degree-trial", "--p", "2", "--k", "1", "--n", "2", "--trials", "-1",
     "--seed", "1"],
], ids=["p4", "k0", "n-1", "m0", "gen-p9", "oracle-p4", "oracle-pseudoprime",
        "oracle-trials-1"])
def test_bad_field_or_size_is_usage_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1, err
    assert "Invalid value" in err


@pytest.mark.parametrize("bad, expected", [
    ("e1*e2", 1),
    ("e9", 1),
    ("2*", 1),
    ("x1", 1),
    ("e1 e2", 1),
    ("e1 - -e2", 1),
    (lambda cert: [cert], 1),
    (lambda cert: {key: v for key, v in cert.items() if key != "A"}, 1),
    (lambda cert: {**cert, "n": "3"}, 1),
    (lambda cert: {**cert, "B": cert["B"][:-1]}, 2),
    (lambda cert: {**cert, "tower": 5}, 1),
    (lambda cert: {**cert, "tower": {key: v for key, v in cert["tower"].items()
                                     if key != "base"}}, 1),
    (lambda cert: {**cert, "tower": {**cert["tower"], "embed_table": [
        [9] * len(row) for row in cert["tower"]["embed_table"]]}}, 1),
    (lambda cert: {**cert, "tower": {**cert["tower"], "embed_table": [
        cert["tower"]["embed_table"][0], [0] * len(cert["tower"]["embed_table"][1])]}}, 1),
    (lambda cert: (cert, [1, 2]), 1),
    (lambda cert: {**cert, "A": ["x1 x2"] + cert["A"][1:]}, 1),
    (lambda cert: {**cert, "field": "GF(5^6)))){modulus=2,1,0,0,0,0,1}"}, 1),
    ("e1^" + "9" * 5000, 1),
    (lambda cert: {**cert, "B": ["x1^" + "9" * 5000] + cert["B"][1:]}, 1),
    (lambda cert: {**cert, "B": ["[1," + "7" * 5000 + ",0,0]*x1"] + cert["B"][1:]}, 1),
    (lambda cert: {**cert, "provenance": None}, 1),
    (lambda cert: {**cert, "provenance": {**cert["provenance"], "constructor": ["x"]}}, 1),
    (lambda cert: (cert, {"field": cert["field"], "polys": 5}), 1),
    (lambda cert: (cert, {"field": cert["field"], "polys": [1]}), 1),
    (lambda cert: (cert, {"field": cert["field"], "instance": 5}), 1),
    (lambda cert: (cert, {"field": cert["field"]}), 1),
    (["gen", "--family", "sparse-shifted", "--p", "2", "--k", "2", "--n", "2",
      "--seed", "1", "--poly", "garbage(("], 1),
    (["refute", "--family", "linear-shifted", "--p", "2", "--k", "2", "--n", "3",
      "--seed", "3", "--poly", "e1+1"], 1),
], ids=["poly-product", "poly-degree", "poly-dangling", "poly-variable",
        "poly-juxtaposed", "poly-double-sign",
        "cert-list", "cert-no-A", "cert-n-string", "cert-short-B",
        "tower-int", "tower-no-base", "tower-rows-of-9", "tower-t-to-zero",
        "instance-list", "cert-A-juxtaposed", "field-extra-parens",
        "poly-long-exponent", "cert-long-exponent", "cert-long-coefficient",
        "cert-provenance-null", "cert-constructor-list",
        "instance-polys-int", "instance-polys-of-ints", "instance-key-int", "instance-no-polys",
        "gen-poly-sparse", "refute-poly-linear"])
def test_bad_input_exit_code(tmp_path, capsys, bad, expected):
    """Malformed --poly text, --poly outside the symmetric family,
    certificate and instance files exit 1; a certificate of the wrong shape
    for its instance exits 2; neither is an internal error. A mutation that
    returns (certificate, instance) also passes the instance through
    --instance."""
    if isinstance(bad, list):
        code, stdout, err = run_cli(capsys, *bad)
    elif isinstance(bad, str):
        code, stdout, err = run_cli(capsys, "refute", "--family", "symmetric",
                                    "--p", "2", "--n", "4", "--poly", bad)
    else:
        path = tmp_path / "cert.json"
        assert run_cli(capsys, "refute", "--family", "linear-shifted", "--p", "2",
                       "--k", "2", "--n", "3", "--seed", "3", "--out", str(path))[0] == 0
        mutated = bad(json.loads(path.read_text()))
        argv = ["verify", str(path)]
        if isinstance(mutated, tuple):
            mutated, instance = mutated
            inst_path = tmp_path / "inst.json"
            inst_path.write_text(json.dumps(instance))
            argv += ["--instance", str(inst_path)]
        path.write_text(json.dumps(mutated))
        code, stdout, err = run_cli(capsys, *argv)
    assert code == expected, err
    if expected == 2:
        assert json.loads(stdout)["error"] == "not_a_certificate"


def test_instance_file_with_other_polys_exits_2(tmp_path, capsys):
    """A well-formed instance file whose polynomials are not the
    certificate's is a failed check, not bad input."""
    path, inst_path = tmp_path / "cert.json", tmp_path / "inst.json"
    assert run_cli(capsys, "refute", "--family", "linear-shifted", "--p", "2",
                   "--k", "2", "--n", "3", "--seed", "3", "--out", str(path))[0] == 0
    field = json.loads(path.read_text())["field"]
    inst_path.write_text(json.dumps({"field": field, "polys": ["x1 + x2"]}))
    code, stdout, err = run_cli(capsys, "verify", str(path), "--instance", str(inst_path))
    assert code == 2, err
    assert json.loads(stdout)["error"] == "instance_mismatch"


@pytest.mark.parametrize("target", ["certificate", "instance"])
@pytest.mark.parametrize("kind, message", [
    ("long-number", "5000 digits"), ("not-utf8", "can't decode byte 0xff")],
    ids=["long-number", "not-utf8"])
def test_unreadable_json_exits_1(tmp_path, capsys, target, kind, message):
    """A JSON number that int() refuses, outside any polynomial text, and a
    file that is not UTF-8 are bad input too."""
    path = tmp_path / "cert.json"
    assert run_cli(capsys, "refute", "--family", "linear-shifted", "--p", "2",
                   "--k", "2", "--n", "3", "--seed", "3", "--out", str(path))[0] == 0
    if kind == "long-number":
        data = json.loads(path.read_text())
        bad = json.dumps({**data, "n": 0}).replace('"n": 0', '"n": ' + "9" * 5000).encode()
    else:
        bad = b"\xff\xfe{}"
    argv = ["verify", str(path)]
    if target == "instance":
        path = tmp_path / "inst.json"
        argv += ["--instance", str(path)]
    path.write_bytes(bad)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1, err
    assert message in err


@pytest.mark.parametrize("key", ["instance", "A", "B"])
def test_certificate_parse_error_names_the_entry(tmp_path, capsys, key):
    path = tmp_path / "cert.json"
    assert run_cli(capsys, "refute", "--family", "linear-shifted", "--p", "2",
                   "--k", "2", "--n", "3", "--seed", "3", "--out", str(path))[0] == 0
    data = json.loads(path.read_text())
    last = len(data[key]) - 1
    data[key][last] = "x1 x2"
    path.write_text(json.dumps(data))
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1, err
    assert f"{key}[{last}]: expected a signed term at 'x2' (line 1, column 3)" in err


@pytest.mark.parametrize("content, message", [
    (b"[1, 2]", "error: a certificate is a JSON object, not list\n"),
    (b"\xff\xfe{}", "invalid start byte\n"),
])
def test_parse_error_without_a_position_names_none(tmp_path, capsys, content, message):
    """A certificate that is a JSON list or a file that is not UTF-8 has no
    column to point at, so the message ends without one."""
    path = tmp_path / "cert.json"
    path.write_bytes(content)
    code, _, err = run_cli(capsys, "verify", str(path))
    assert code == 1, err
    assert err.endswith(message)
    assert "column" not in err


_LITERAL = re.compile(r"\[[^\]]*\]")


@pytest.fixture(scope="module")
def small_refutation(tmp_path_factory):
    """(directory, certificate) of a refute run over GF(2^3) in GF(2^6), n = 3."""
    work = tmp_path_factory.mktemp("mutations")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["refute", "--family", "linear-shifted", "--p", "2", "--k", "3",
                     "--n", "3", "--seed", "7", "--out", str(work / "cert.json")]) == 0
        assert main(["verify", str(work / "cert.json")]) == 0
    return work, json.loads((work / "cert.json").read_text())


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_verify_rejects_a_changed_coefficient(small_refutation, data):
    """One component of one coefficient literal of A, B or the instance moved
    to another residue mod p, with a multiple of p added or not: the parsed
    literal reaches verify as a different element, and verify exits 2, never
    3 (an internal error)."""
    work, cert = small_refutation
    p = gf.parse_field_spec(cert["field"]).p
    sites = [(key, i, m) for key in ("A", "B", "instance")
             for i, text in enumerate(cert[key]) for m in _LITERAL.finditer(text)]
    key, i, m = data.draw(st.sampled_from(sites))
    parts = m.group()[1:-1].split(",")
    j = data.draw(st.integers(0, len(parts) - 1))
    parts[j] = str(int(parts[j]) + data.draw(st.integers(1, p - 1))
                   + p * data.draw(st.one_of(st.just(0), st.integers(1, 10 ** 6))))
    mutated = json.loads(json.dumps(cert))
    text = cert[key][i]
    mutated[key][i] = text[:m.start()] + "[" + ",".join(parts) + "]" + text[m.end():]
    path = work / "mutated.json"
    path.write_text(json.dumps(mutated))
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(["verify", str(path)])
    assert code == 2, out.getvalue()
    assert "not_a_certificate" in out.getvalue()


@pytest.mark.parametrize("text, p, k, combo", [
    ("e0 + 2*e2", 3, 1, {0: 1, 2: 2}),
    ("-e1 + 1", 5, 1, {0: 1, 1: -1}),
    ("[1,2]*e1 + e0 - [0,1]*e3 + 2", 3, 2, {0: (0, 0), 1: (1, 2), 3: (0, -1)}),
])
def test_parse_sym_expr(text, p, k, combo):
    """--poly text is a combination of elementary symmetric polynomials; the
    constant and the coefficient of e0 both scale e0 = 1."""
    fld, n = gf.field_spec(p, k), 3
    expect = Poly.zero(n, fld)
    for d, c in combo.items():
        coeff = from_coeffs(fld, c) if isinstance(c, tuple) else fld.from_int(c)
        expect = expect + elem_sym(n, d, fld).scale(coeff)
    assert _parse_sym_expr(text, n, fld) == expect
    with pytest.raises(ParseError):
        _parse_sym_expr("e1*e2", n, fld)


def test_huge_field_exits_1_quickly(tmp_path, capsys):
    """A GF(2^5000) certificate header and --k 5000 stop at the field-size
    bound before any irreducibility test."""
    path = tmp_path / "cert.json"
    assert run_cli(capsys, "refute", "--family", "linear-shifted", "--p", "2",
                   "--k", "2", "--n", "3", "--seed", "3", "--out", str(path))[0] == 0
    data = json.loads(path.read_text())
    del data["tower"]
    data["field"] = "GF(2^5000){modulus=1," + "0," * 4999 + "1}"
    path.write_text(json.dumps(data))
    for argv in (["verify", str(path)],
                 ["refute", "--family", "linear-base", "--p", "2", "--k", "5000",
                  "--n", "2", "--seed", "1"]):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert code == 1, err
        assert "2^5000" in err


SPARSE = ["--family", "sparse-shifted", "--p", "3", "--k", "2", "--seed", "1"]


@pytest.mark.parametrize("argv,cap", [
    (["refute", "--family", "symmetric", "--p", "5", "--n", "40", "--m", "3", "--seed", "1"],
     12),
    (["gen", "--family", "symmetric", "--p", "5", "--n", "40", "--m", "3", "--seed", "1"], 12),
    (["refute", "--family", "symmetric", "--p", "3", "--n", "40", "--poly", "e1+1"], 12),
    (["gen", "--family", "symmetric", "--p", "3", "--n", "40", "--poly", "e1+1"], 12),
    (["refute", *SPARSE, "--n", "40"], 10),
    (["refute", *SPARSE, "--n", "11"], 10),
], ids=["refute", "gen", "refute-poly", "gen-poly", "refute-sparse", "refute-sparse-11"])
def test_symmetric_n_over_budget_exits_1_quickly(capsys, monkeypatch, argv, cap):
    """A symmetric axiom expands into up to 2^n terms, so n is capped by the
    budget before any expansion: n = 40 used to run out of memory. The
    sparse-shifted family is capped the same way, before its instance is
    drawn, at n <= 10: at n = 40 it ran out of memory too, and n = 11 ran
    for about a minute."""
    monkeypatch.delenv("IPSFORGE_BUDGET_N", raising=False)
    start = time.perf_counter()
    code, _, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 2
    assert code == 1, err
    assert f"n <= {cap}" in err and f"n = {argv[argv.index('--n') + 1]}" in err


def test_sparse_cap_admits_n_10(capsys, monkeypatch):
    monkeypatch.delenv("IPSFORGE_BUDGET_N", raising=False)
    assert run_cli(capsys, "gen", *SPARSE, "--n", "10")[0] == 0
    monkeypatch.setenv("IPSFORGE_BUDGET_N", "4")
    code, _, err = run_cli(capsys, "gen", *SPARSE, "--n", "5")
    assert code == 1 and "n <= 4" in err


def test_symmetric_n_cap_follows_budget_env(capsys, monkeypatch):
    argv = ["gen", "--family", "symmetric", "--p", "2", "--n", "5", "--seed", "1"]
    monkeypatch.setenv("IPSFORGE_BUDGET_N", "4")
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and "n <= 4" in err
    monkeypatch.setenv("IPSFORGE_BUDGET_N", "5")
    assert run_cli(capsys, *argv)[0] == 0


def test_non_integer_budget_env_exits_1(capsys, monkeypatch):
    monkeypatch.setenv("IPSFORGE_BUDGET_N", "abc")
    code, _, err = run_cli(capsys, "oracle", "degree-trial", "--n", "4", "--p", "2",
                           "--k", "3", "--trials", "2", "--seed", "1")
    assert code == 1
    assert "IPSFORGE_BUDGET_N" in err


class TestDeterminism:
    def test_identical_config_identical_bytes(self, tmp_path, capsys):
        blobs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            d.mkdir()
            out = d / "cert.json"
            args = ["refute", "--family", "linear-shifted", "--p", "3",
                    "--k", "2", "--n", "3", "--seed", "11", "--out", "cert.json"]
            proc = subprocess.run([sys.executable, "-m", "ipsforge.cli"] + args,
                                  cwd=d, capture_output=True, env=child_env())
            assert proc.returncode == 0, proc.stderr
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]

    def test_experiment_sweep_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, stdout, _ = run_cli(capsys, "experiment", "sweep-frobenius",
                                      "--seed", "7")
            assert code == 0
            outs.append(stdout)
        assert outs[0] == outs[1]
        rows = json.loads(outs[0])["rows"]
        assert all(r["verified"] and r["max_degree"] <= r["degree_bound_kp"]
                   for r in rows)

    def test_unknown_suite(self, capsys):
        assert run_cli(capsys, "experiment", "mystery")[0] == 1

    @pytest.mark.parametrize("only,timing", [
        ("7", r"\[\d+\.\d s\]"),  # no budget
        ("8", r"\[\d+\.\d s of 5 s budget\]"),
    ])
    def test_acceptance_times_go_to_stderr_only(self, capsys, only, timing):
        code, stdout, err = run_cli(capsys, "experiment", "acceptance", "--only", only,
                                    "--format", "text")
        assert code == 0
        m = re.fullmatch(rf"(PASS criterion-0{only} [^\n]+)  {timing}\n", err)
        assert m, err
        assert stdout.splitlines() == [m.group(1), "all passed: True"]


class TestOracles:
    def test_degree_trial_report(self, capsys):
        code, stdout, _ = run_cli(capsys, "oracle", "degree-trial", "--n", "4",
                                  "--p", "2", "--k", "12", "--trials", "50",
                                  "--seed", "1")
        assert code == 0
        data = json.loads(stdout)
        assert data["trials"] == 50
        assert data["bound"] == 1 - (2 ** 4 - 1) / 2 ** 12
        assert data["parameters"]["seed"] == 1

    def test_numerator_no_seed_needed(self, capsys):
        code, stdout, _ = run_cli(capsys, "oracle", "numerator", "--n", "3",
                                  "--p", "3")
        assert code == 0
        assert json.loads(stdout)["coefficient_is_one"] is True

    def test_roabp_width_bound(self, capsys):
        code, stdout, _ = run_cli(capsys, "oracle", "roabp-width",
                                  "--instance", "fixed-order", "--n", "3",
                                  "--p", "2", "--k", "8", "--seed", "2")
        assert code == 0
        data = json.loads(stdout)
        assert data["width"] >= data["bound"] == 8

    def test_eval_dim(self, capsys):
        code, stdout, _ = run_cli(capsys, "oracle", "eval-dim", "--n", "3",
                                  "--p", "2", "--k", "8", "--seed", "2")
        assert code == 0
        assert json.loads(stdout)["eval_dimension"] == 8

    def test_scan(self, capsys):
        code, stdout, _ = run_cli(capsys, "oracle", "scan", "--n", "3",
                                  "--p", "2", "--k", "10", "--seed", "4")
        assert code == 0
        data = json.loads(stdout)
        assert data["checked"] == 7

    def test_top_coeff_agreement_flag(self, capsys):
        code, stdout, _ = run_cli(capsys, "oracle", "top-coeff", "--n", "3",
                                  "--p", "2", "--k", "4", "--seed", "5")
        assert code == 0
        assert json.loads(stdout)["agree"] is True

    def test_sparsity_probe(self, capsys):
        code, stdout, _ = run_cli(capsys, "oracle", "sparsity", "--n", "4",
                                  "--p", "2", "--k", "8", "--seed", "6")
        assert code == 0
        data = json.loads(stdout)
        assert data["meets_bound"] is True

    def test_sparsity_over_a_large_prime(self, capsys):
        """--p 1000003 --k 2 needs GF(p^4), where no binomial t^4 + c is
        irreducible (p = 3 mod 4), so the modulus search must skip them."""
        start = time.perf_counter()
        code, stdout, err = run_cli(capsys, "oracle", "sparsity", "--p", "1000003",
                                    "--k", "2", "--n", "4", "--seed", "1")
        assert time.perf_counter() - start < 5
        assert code == 0, err
        assert json.loads(stdout)["sparsity"] == 16

    def test_budget_exceeded_is_usage(self, capsys, monkeypatch):
        monkeypatch.setenv("IPSFORGE_BUDGET_N", "2")
        code, _, err = run_cli(capsys, "oracle", "scan", "--n", "3",
                               "--p", "2", "--k", "6", "--seed", "4")
        assert code == 1
        assert "n <= 2" in err


class TestFormats:
    def test_text_format(self, capsys):
        code, stdout, _ = run_cli(capsys, "refute", "--family", "linear-shifted",
                                  "--p", "2", "--k", "2", "--n", "2", "--seed", "9",
                                  "--format", "text")
        assert code == 0
        assert "valid: True" in stdout

    def test_canonical_overrides_text(self, capsys):
        code, stdout, _ = run_cli(capsys, "refute", "--family", "linear-shifted",
                                  "--p", "2", "--k", "2", "--n", "2", "--seed", "9",
                                  "--format", "text", "--canonical")
        assert code == 0
        json.loads(stdout)  # canonical JSON despite text format

    def test_gen_embeds_run_config(self, capsys):
        code, stdout, _ = run_cli(capsys, "gen", "--family", "symmetric",
                                  "--p", "2", "--n", "4", "--m", "2", "--seed", "6")
        assert code == 0
        data = json.loads(stdout)
        assert data["run_config"]["subcommand"] == "gen"
        assert len(data["polys"]) == 2


def test_module_entrypoint_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "ipsforge.cli", "oracle", "numerator",
         "--n", "2", "--p", "2"],
        capture_output=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["coefficient_is_one"] is True
