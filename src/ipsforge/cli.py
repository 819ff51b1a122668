"""Command-line front-end: instance generation, refutation, verification, and
lower-bound experiments as reproducible, scriptable runs.

Exit codes: 0 success, 1 usage or parse problems, 2 mathematically-expected
failures (satisfiable instance, no certificate at the bound, failed
verification), 3 internal errors. Every emitted artifact embeds its full run
configuration; JSON output is canonical (sorted keys) so identical
configurations give byte-identical files.
"""

from __future__ import annotations

import json
import random
import sys

import click

from ipsforge import acceptance, generators, gf
from ipsforge.certificates import (
    Instance,
    NoCertificateAtDegree,
    cert_stats,
    certificate_from_dict,
    certificate_to_dict,
    refute_linear_frobenius,
    refute_linear_lowdegree,
    refute_sparse,
    refute_symmetric_system,
    tower_to_dict,
    verify,
)
from ipsforge.errors import (
    ArityMismatch,
    BetaInSubfield,
    BudgetExceeded,
    FieldMismatch,
    IpsforgeError,
    ParseError,
    SatisfiableInstance,
    SatisfiableSystem,
)
from ipsforge.lowerbounds import (
    budget_n,
    coefficient_rank,
    degree_trial,
    eval_dimension,
    lifted_instance,
    ml_reciprocal,
    numerator_monomial_check,
    restricted_degree_scan,
    roabp_width,
    sparsity_probe,
    top_coeff,
)
from ipsforge.mvpoly import format_elem, format_poly, parse_poly
from ipsforge.symfun import ElemSymExpansion

EXIT_OK, EXIT_USAGE, EXIT_MATH, EXIT_INTERNAL = 0, 1, 2, 3


class MathFailure(Exception):
    """Expected mathematical failure; becomes exit code 2 with a machine-readable payload."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def _canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(payload: dict, out: str, fmt: str, canonical: bool, text_lines=None):
    if fmt == "json" or canonical:
        data = _canonical_json(payload)
    else:
        lines = text_lines if text_lines is not None else [
            f"{k}: {v}" for k, v in payload.items()
        ]
        data = "\n".join(lines) + "\n"
    if out == "-":
        sys.stdout.write(data)
    else:
        with open(out, "w") as fh:
            fh.write(data)


def _run_config(subcommand: str, **params) -> dict:
    cfg = {"subcommand": subcommand}
    cfg.update({k: v for k, v in params.items() if v is not None})
    return cfg


def _prime(ctx, param, value):
    """Click callback: a field characteristic must be prime."""
    try:
        prime = gf.is_prime(value)
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None
    if not prime:
        raise click.BadParameter(f"{value} is not prime")
    return value


def _common_options(fn):
    fn = click.option("--format", "fmt", type=click.Choice(["json", "text"]),
                      default="json", show_default=True)(fn)
    fn = click.option("--canonical", is_flag=True,
                      help="Emit canonical JSON bytes even in text mode.")(fn)
    fn = click.option("--out", default="-", show_default=True,
                      help="Output path ('-' for stdout).")(fn)
    return fn


@click.group()
def cli():
    """ipsforge: exact IPS_LIN refutations and lower-bound oracles."""


# ---------------------------------------------------------------------------
# instance construction shared by gen and refute

def _build_instance(family: str, p: int, k: int, n: int, m: int,
                    seed: int | None, poly_texts: tuple[str, ...]) -> Instance:
    if poly_texts and family != "symmetric":
        raise click.UsageError("--poly applies to the symmetric family only")
    # a symmetric axiom is expanded into its up to 2^n multilinear terms, and
    # a sparse-shifted certificate about doubles in size and time with each
    # unit of n (p = 3, k = 2, 2-vCPU host: 26 s at n = 10, 55 s at n = 11)
    cap = budget_n(10) if family == "sparse-shifted" else budget_n()
    if family in ("symmetric", "sparse-shifted") and n > cap:
        raise BudgetExceeded(f"the {family} family needs n <= {cap} "
                             f"(IPSFORGE_BUDGET_N), got n = {n}")
    if family == "symmetric" and poly_texts:
        fld = gf.field_spec(p, k)
        axioms = [_parse_sym_expr(text, n, fld) for text in poly_texts]
        return Instance(n, fld, axioms, "symmetric-system")
    if seed is None:
        raise click.UsageError("--seed is mandatory for randomized instance generation")
    rng = random.Random(seed)
    if family == "linear-shifted":
        return generators.linear_shifted(gf.field_tower(p, k), n, rng)
    if family == "linear-base":
        return generators.linear_base(gf.field_spec(p, k), n, rng)
    if family == "sparse-shifted":
        return generators.sparse_quadratic(gf.field_tower(p, k), n, rng)
    if family == "symmetric":
        return generators.symmetric_system(gf.field_spec(p, k), n, m, rng)
    raise click.UsageError(f"unknown family {family!r}")


def _parse_sym_expr(text: str, n: int, fld):
    """A linear combination of e0..en and a constant, such as 'e1+e2+1' or
    '2*e3 - 1', expanded in n variables (e0 = 1)."""
    f = parse_poly(text, n + 1, fld, [f"e{d}" for d in range(n + 1)])
    if f.degree() > 1:
        raise ParseError(f"{text!r} is not a linear combination of e0..e{n}")
    lambdas = [f.coeff(tuple(int(i == d) for i in range(n + 1))) for d in range(n + 1)]
    lambdas[0] = lambdas[0] + f.coeff((0,) * (n + 1))
    return ElemSymExpansion(n, fld, tuple(lambdas)).to_poly()


REFUTERS = {
    "linear-shifted": lambda inst: refute_linear_frobenius(inst.axioms[0], inst.tower),
    "linear-base": lambda inst: refute_linear_lowdegree(inst.axioms[0]),
    "sparse-shifted": lambda inst: refute_sparse(inst.axioms[0], inst.tower),
    "symmetric": lambda inst: refute_symmetric_system(inst.axioms),
}


@cli.command()
@click.option("--family", required=True,
              type=click.Choice(sorted(REFUTERS)))
@click.option("--p", type=int, required=True, callback=_prime)
@click.option("--k", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--m", type=click.IntRange(min=1), default=1, show_default=True,
              help="Number of axioms (symmetric family).")
@click.option("--seed", type=int, default=None)
@click.option("--poly", "polys", multiple=True,
              help="Explicit symmetric polynomial, e.g. 'e1+e2+1' (repeatable).")
@_common_options
def refute(family, p, k, n, m, seed, polys, out, fmt, canonical):
    """Construct a certificate for a generated or explicit instance."""
    inst = _build_instance(family, p, k, n, m, seed, polys)
    result = REFUTERS[family](inst)
    if isinstance(result, NoCertificateAtDegree):
        raise MathFailure(
            "no_certificate_at_degree",
            f"no certificate at degree bound {result.degree_bound}: {result.detail}",
        )
    if not verify(inst, result).ok:
        raise AssertionError("freshly constructed certificate failed verification")
    payload = certificate_to_dict(inst, result)
    payload["run_config"] = _run_config(
        "refute", family=family, p=p, k=k, n=n, m=m, seed=seed,
        poly=list(polys) or None, format=fmt, out=out,
    )
    stats = payload["stats"]
    _emit(payload, out, fmt, canonical, text_lines=[
        f"family: {family}",
        f"field: {payload['field']}",
        f"axioms: {len(inst.axioms)}",
        f"valid: True",
        f"max degree: {stats['max_degree']}",
        f"total sparsity: {stats['total_sparsity']}",
        f"modeled depth: {stats['modeled_depth']}",
    ])


def _read_json(path: str):
    """The JSON value in a file. ParseError, not a bare ValueError, when the
    file is not UTF-8 or holds a number with more digits than int() reads."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError:
            raise
        except ValueError as exc:  # UnicodeDecodeError, int()'s digit limit
            raise ParseError(f"{path} is not JSON text: {str(exc).split(';')[0]}") from None


@cli.command(name="verify")
@click.argument("certificate", type=click.Path(exists=True, dir_okay=False))
@click.option("--instance", "instance_path",
              type=click.Path(exists=True, dir_okay=False), default=None,
              help="Instance file to cross-check against the certificate.")
@_common_options
def verify_cmd(certificate, instance_path, out, fmt, canonical):
    """Re-verify a certificate file; exit 0 iff the identity holds exactly."""
    data = _read_json(certificate)
    inst, cert = certificate_from_dict(data)
    if instance_path is not None:
        inst_data = _read_json(instance_path)
        if not isinstance(inst_data, dict):
            raise ParseError(
                f"an instance file is a JSON object, not {type(inst_data).__name__}")
        if inst_data.get("field") != data.get("field"):
            raise FieldMismatch(
                f"instance declares {inst_data.get('field')}, "
                f"certificate declares {data.get('field')}"
            )
        declared = inst_data.get("polys", inst_data.get("instance"))
        if not isinstance(declared, list) or not all(isinstance(t, str) for t in declared):
            raise ParseError("an instance file's 'polys' must be a list of strings")
        if declared != data.get("instance"):
            raise MathFailure("instance_mismatch",
                              "instance polynomials differ from the certificate's")
    try:
        report = verify(inst, cert)
    except ArityMismatch as exc:
        raise MathFailure("not_a_certificate", str(exc)) from None
    stats = cert_stats(cert)
    payload = {
        "valid": report.ok,
        "residual": format_poly(report.residual, inst.var_names),
        "stats": stats.to_dict(),
        "run_config": _run_config("verify", certificate=certificate,
                                  instance=instance_path, format=fmt),
    }
    _emit(payload, out, fmt, canonical, text_lines=[
        f"valid: {report.ok}",
        f"residual: {payload['residual']}",
        f"max degree: {stats.max_degree}",
    ])
    if not report.ok:
        raise MathFailure("not_a_certificate", "nonzero residual")


@cli.command()
@click.option("--family", required=True,
              type=click.Choice(sorted(REFUTERS)))
@click.option("--p", type=int, required=True, callback=_prime)
@click.option("--k", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--m", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--poly", "polys", multiple=True)
@_common_options
def gen(family, p, k, n, m, seed, polys, out, fmt, canonical):
    """Generate an instance file without refuting it."""
    inst = _build_instance(family, p, k, n, m, seed, polys)
    payload = {
        "field": inst.field.text(),
        "n": inst.n,
        "var_names": list(inst.var_names),
        "meta": inst.meta,
        "polys": [format_poly(f, inst.var_names) for f in inst.axioms],
        "run_config": _run_config("gen", family=family, p=p, k=k, n=n, m=m,
                                  seed=seed, format=fmt),
    }
    if inst.tower is not None:
        payload["tower"] = tower_to_dict(inst.tower)
    _emit(payload, out, fmt, canonical)


# ---------------------------------------------------------------------------
# oracles

@cli.command()
@click.argument("kind", type=click.Choice([
    "degree-trial", "scan", "sparsity", "top-coeff", "numerator",
    "rank", "eval-dim", "roabp-width",
]))
@click.option("--p", type=int, default=2, show_default=True, callback=_prime)
@click.option("--k", type=click.IntRange(min=1), default=1, show_default=True)
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--trials", type=click.IntRange(min=0), default=100, show_default=True)
@click.option("--seed", type=int, default=None)
@click.option("--scan-all", is_flag=True,
              help="degree-trial: require every restriction to reach full degree.")
@click.option("--instance", "inst_kind", default="fixed-order",
              type=click.Choice(["fixed-order", "any-order"]),
              help="Lifted instance family for rank/eval-dim/roabp-width.")
@_common_options
def oracle(kind, p, k, n, trials, seed, scan_all, inst_kind, out, fmt, canonical):
    """Run a lower-bound oracle and report empirical values next to the bound."""
    cfg = _run_config("oracle", kind=kind, p=p, k=k, n=n, trials=trials,
                      seed=seed, scan_all=scan_all or None,
                      instance=inst_kind if kind in ("rank", "eval-dim", "roabp-width") else None)
    if kind == "numerator":
        fld = gf.field_spec(p, k)
        value = numerator_monomial_check(n, fld)
        payload = {"coefficient_is_one": value == fld.one(),
                   "coefficient": format_elem(value),
                   "run_config": cfg}
        _emit(payload, out, fmt, canonical)
        return
    if seed is None:
        raise click.UsageError("--seed is mandatory for randomized oracles")
    tower = gf.field_tower(p, k)
    rng = random.Random(seed)
    if kind == "degree-trial":
        report = degree_trial(n, tower, trials, seed, scan_all=scan_all)
        payload = report.to_dict()
        payload["run_config"] = cfg
        _emit(payload, out, fmt, canonical, text_lines=[
            f"trials: {report.trials}",
            f"successes: {report.successes}",
            f"empirical rate: {report.empirical_rate:.4f}",
            f"bound: {report.bound:.4f}" + (" (vacuous)" if report.vacuous else ""),
        ])
        return
    if kind in ("scan", "sparsity", "top-coeff"):
        alphas = [tower.base.sample(rng) for _ in range(n)]
        beta = tower.sample_beta(rng)
        if kind == "scan":
            scan = restricted_degree_scan(alphas, beta, tower)
            payload = {"all_full_degree": scan.all_full, "checked": scan.checked,
                       "failing": [list(u) for u in scan.failing],
                       "worst": list(scan.worst) if scan.worst else None,
                       "run_config": cfg}
        elif kind == "sparsity":
            sparsity, bound = sparsity_probe(alphas, beta, tower)
            payload = {"sparsity": sparsity, "bound": bound,
                       "meets_bound": sparsity >= bound, "run_config": cfg}
        else:
            rep = top_coeff(alphas, beta, tower)
            payload = {"agree": rep.agree, "run_config": cfg}
        _emit(payload, out, fmt, canonical)
        return
    # rank / eval-dim / roabp-width over a lifted instance
    inst = lifted_instance(inst_kind, n, tower, rng)
    if inst.n_vars > 20:
        raise BudgetExceeded("lifted instance too large to interpolate")
    g = ml_reciprocal(inst.poly)
    if inst_kind == "fixed-order":
        partition = (inst.x_vars(), inst.y_vars())
    else:
        m2 = 2 * inst.nx
        partition = (list(range(inst.nx)), list(range(inst.nx, m2)) +
                     list(range(m2, inst.n_vars)))
    if kind == "rank":
        value = coefficient_rank(g, partition)
        payload = {"rank": value, "bound": 2 ** inst.nx,
                   "meets_bound": value >= 2 ** inst.nx}
    elif kind == "eval-dim":
        value = eval_dimension(g, partition)
        payload = {"eval_dimension": value, "bound": 2 ** inst.nx,
                   "meets_bound": value >= 2 ** inst.nx}
    else:
        order = list(range(inst.n_vars))
        payload = {"width": roabp_width(g, order), "order": order,
                   "bound": 2 ** inst.nx}
        payload["meets_bound"] = payload["width"] >= payload["bound"]
    payload["run_config"] = cfg
    _emit(payload, out, fmt, canonical)


# ---------------------------------------------------------------------------
# experiments

@cli.command()
@click.argument("suite", type=click.Choice(["acceptance", "sweep-frobenius"]))
@click.option("--seed", type=int, default=acceptance.DEFAULT_SEED, show_default=True)
@click.option("--only", type=int, default=None, help="Run a single criterion id.")
@_common_options
def experiment(suite, seed, only, out, fmt, canonical):
    """Run a named suite; prints one pass/fail line per criterion."""
    if suite == "acceptance":
        results = acceptance.run_all(seed, only)
        payload = {
            "suite": "acceptance",
            "results": [r.to_dict() for r in results],
            "all_passed": all(r.passed for r in results),
            "run_config": _run_config("experiment", suite=suite, seed=seed, only=only),
        }
        lines = [r.line() for r in results]
        lines.append(f"all passed: {payload['all_passed']}")
        _emit(payload, out, fmt, canonical, text_lines=lines)
        for r in results:
            click.echo(r.timed_line(), err=True)
        if not payload["all_passed"]:
            raise MathFailure("acceptance_failed", "one or more criteria failed")
        return
    # sweep-frobenius: a quick grid with max certificate degrees
    rows = []
    for p in (2, 3):
        for k in (1, 2):
            tower = gf.field_tower(p, k)
            for n in range(1, 5):
                worst = 0
                ok = True
                for s in range(2):
                    rng = random.Random(acceptance.derive_seed(seed, f"sweep:{p}:{k}:{n}:{s}"))
                    inst = generators.linear_shifted(tower, n, rng)
                    cert = refute_linear_frobenius(inst.axioms[0], tower)
                    ok = ok and verify(inst, cert).ok
                    worst = max(worst, max(cert.A[0].degree(), 0))
                rows.append({"p": p, "k": k, "n": n, "max_degree": worst,
                             "degree_bound_kp": k * p, "verified": ok})
    payload = {"suite": "sweep-frobenius", "rows": rows,
               "run_config": _run_config("experiment", suite=suite, seed=seed)}
    lines = ["p k n max_degree bound verified"] + [
        f"{r['p']} {r['k']} {r['n']} {r['max_degree']} {r['degree_bound_kp']} {r['verified']}"
        for r in rows
    ]
    _emit(payload, out, fmt, canonical, text_lines=lines)


# ---------------------------------------------------------------------------
# entry point with the documented exit codes

def main(argv=None) -> int:
    try:
        cli(args=argv, standalone_mode=False)
        return EXIT_OK
    except MathFailure as exc:
        sys.stdout.write(_canonical_json({"error": exc.code, "message": str(exc)}))
        return EXIT_MATH
    except (SatisfiableInstance, SatisfiableSystem, BetaInSubfield) as exc:
        code = {
            SatisfiableInstance: "satisfiable_instance",
            SatisfiableSystem: "satisfiable_system",
            BetaInSubfield: "beta_in_subfield",
        }[type(exc)]
        sys.stdout.write(_canonical_json({"error": code, "message": str(exc)}))
        return EXIT_MATH
    except (ParseError, FieldMismatch, BudgetExceeded, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except click.ClickException as exc:
        exc.show(file=sys.stderr)
        return EXIT_USAGE
    except click.Abort:
        return EXIT_USAGE
    except IpsforgeError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except Exception as exc:  # pragma: no cover - defensive
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
