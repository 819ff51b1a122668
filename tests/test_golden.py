"""Golden bytes: the sha256 of the canonical stdout of fixed CLI configs,
the moduli the deterministic search picks, and the embeddings of the towers
the benchmark streams use.

A refactor that keeps behaviour keeps every entry of golden.json. Regenerate
the file only for an intended change of output, with

    PYTHONPATH=src python tests/test_golden.py > tests/golden.json
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from ipsforge import gf
from ipsforge.cli import main

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

CONFIGS = {
    "refute-linear-shifted": ["refute", "--family", "linear-shifted", "--p", "2",
                              "--k", "2", "--n", "3", "--seed", "3"],
    "refute-linear-shifted-p3": ["refute", "--family", "linear-shifted", "--p", "3",
                                 "--k", "2", "--n", "3", "--seed", "7"],
    "refute-linear-base": ["refute", "--family", "linear-base", "--p", "3",
                           "--k", "2", "--n", "3", "--seed", "1"],
    "refute-sparse-shifted": ["refute", "--family", "sparse-shifted", "--p", "2",
                              "--k", "2", "--n", "3", "--seed", "5"],
    "refute-symmetric": ["refute", "--family", "symmetric", "--p", "3", "--n", "4",
                         "--m", "2", "--seed", "1"],
    "refute-symmetric-p2": ["refute", "--family", "symmetric", "--p", "2", "--n", "3",
                            "--m", "2", "--seed", "2"],
    "refute-symmetric-p2-n8": ["refute", "--family", "symmetric", "--p", "2", "--n", "8",
                               "--m", "3", "--seed", "1"],
    "refute-symmetric-p3-n6": ["refute", "--family", "symmetric", "--p", "3", "--n", "6",
                               "--m", "3", "--seed", "2"],
    "refute-symmetric-p5-n6": ["refute", "--family", "symmetric", "--p", "5", "--n", "6",
                               "--m", "2", "--seed", "1"],
    "refute-symmetric-poly": ["refute", "--family", "symmetric", "--p", "3", "--n", "2",
                              "--poly", "e1+e2+1"],
    "gen-linear-shifted": ["gen", "--family", "linear-shifted", "--p", "2", "--k", "3",
                           "--n", "4", "--seed", "1"],
    "gen-linear-base": ["gen", "--family", "linear-base", "--p", "5", "--n", "3",
                        "--seed", "2"],
    "gen-sparse-shifted": ["gen", "--family", "sparse-shifted", "--p", "3", "--n", "3",
                           "--seed", "3"],
    "gen-symmetric": ["gen", "--family", "symmetric", "--p", "3", "--n", "4", "--m", "2",
                      "--seed", "4"],
    "gen-symmetric-poly": ["gen", "--family", "symmetric", "--p", "3", "--n", "3",
                           "--poly", "e1+e2+1"],
    "oracle-degree-trial": ["oracle", "degree-trial", "--p", "2", "--k", "2", "--n", "3",
                            "--trials", "10", "--seed", "1"],
    "oracle-scan": ["oracle", "scan", "--p", "2", "--k", "2", "--n", "4", "--seed", "1"],
    "oracle-sparsity": ["oracle", "sparsity", "--p", "3", "--n", "4", "--seed", "1"],
    "oracle-top-coeff": ["oracle", "top-coeff", "--p", "2", "--k", "2", "--n", "3",
                         "--seed", "1"],
    "oracle-numerator": ["oracle", "numerator", "--p", "3", "--n", "3"],
    "oracle-rank-fixed": ["oracle", "rank", "--p", "2", "--k", "2", "--n", "2",
                          "--seed", "1"],
    "oracle-rank-any": ["oracle", "rank", "--p", "2", "--k", "2", "--n", "2",
                        "--seed", "1", "--instance", "any-order"],
    "oracle-eval-dim-fixed": ["oracle", "eval-dim", "--p", "3", "--n", "2", "--seed", "2"],
    "oracle-eval-dim-any": ["oracle", "eval-dim", "--p", "3", "--n", "2", "--seed", "2",
                            "--instance", "any-order"],
    "oracle-roabp-width-fixed": ["oracle", "roabp-width", "--p", "2", "--k", "3",
                                 "--n", "2", "--seed", "3"],
    "oracle-roabp-width-any": ["oracle", "roabp-width", "--p", "2", "--k", "3",
                               "--n", "2", "--seed", "3", "--instance", "any-order"],
    # multi-byte Moebius slots (p = 257, 65537) and more odd-p cube pipelines
    "oracle-sparsity-p257": ["oracle", "sparsity", "--p", "257", "--k", "1", "--n", "8",
                             "--seed", "3"],
    "oracle-top-coeff-p65537": ["oracle", "top-coeff", "--p", "65537", "--k", "1",
                                "--n", "6", "--seed", "3"],
    "oracle-rank-p13": ["oracle", "rank", "--p", "13", "--k", "2", "--n", "3",
                        "--seed", "3"],
    "oracle-sparsity-p5-k3": ["oracle", "sparsity", "--p", "5", "--k", "3", "--n", "8",
                              "--seed", "3"],
    "experiment-sweep-frobenius": ["experiment", "sweep-frobenius"],
    "experiment-acceptance-7": ["experiment", "acceptance", "--only", "7"],
}

MODULUS_FIELDS = [(2, 24), (3, 8), (5, 6), (7, 4), (13, 4)]

# the towers of the benchmark's refute and oracle streams and of sweep-frobenius
TOWERS = [(2, 1), (2, 2), (2, 3), (2, 6), (2, 12), (3, 1), (3, 2), (3, 3), (3, 4),
          (5, 1), (5, 2), (5, 3)]


def stdout_sha256(argv: list[str]) -> dict:
    """Exit code and stdout hash of one in-process CLI run."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv + ["--out", "-"])
    return {"exit": code, "sha256": hashlib.sha256(buf.getvalue().encode()).hexdigest()}


def moduli() -> dict:
    return {f"{p},{k}": list(gf.field_spec(p, k).modulus) for p, k in MODULUS_FIELDS}


def embed_tables() -> dict:
    return {f"{p},{k}": [list(row) for row in gf.field_tower(p, k).embed_table]
            for p, k in TOWERS}


def golden() -> dict:
    return {
        "cli": {name: stdout_sha256(argv) for name, argv in CONFIGS.items()},
        "moduli": moduli(),
        "embed_tables": embed_tables(),
    }


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_cli_bytes(expected, name):
    assert stdout_sha256(CONFIGS[name]) == expected["cli"][name]


def test_moduli(expected):
    assert moduli() == expected["moduli"]


def test_embed_tables(expected):
    assert embed_tables() == expected["embed_tables"]


if __name__ == "__main__":
    sys.stdout.write(json.dumps(golden(), sort_keys=True, indent=1) + "\n")
