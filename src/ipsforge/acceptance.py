"""The acceptance suite: one runnable check per criterion.

Each criterion returns a CriterionResult whose details dictionary is
JSON-stable under a fixed seed (wall-clock seconds live outside the canonical
payload, only the budget verdicts go in). tests/test_acceptance.py asserts
each one; the CLI's `experiment acceptance` renders the same results.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

import ipsforge
from ipsforge import gf
from ipsforge import generators
from ipsforge.certificates import (
    Certificate,
    Instance,
    boolean_axiom,
    expand_monomial_axiom,
    minimum_certificate_degree,
    refute_linear_frobenius,
    refute_linear_lowdegree,
    refute_sparse,
    refute_symmetric_system,
    verify,
)
from ipsforge.lowerbounds import (
    degree_trial,
    eval_dimension,
    lifted_instance,
    ml_reciprocal,
    numerator_monomial_check,
    roabp_width,
    sparsity_probe,
    top_coeff,
)
from ipsforge.mvpoly import (
    Poly,
    cube_table,
    divide_by_axioms,
    ml,
)
from ipsforge.symfun import (
    ben_or_coeffs,
    compress_char_p,
    elem_sym,
    lucas_binom,
    ml_prod_elem,
)

DEFAULT_SEED = 20240801


def derive_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict
    runtime_s: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} criterion-{self.cid:02d} {self.name}"

    def timed_line(self) -> str:
        """line() with the wall time, and the budget where there is one."""
        budget = self.details.get("runtime_budget_s")
        of = f" of {budget:g} s budget" if budget else ""
        return f"{self.line()}  [{self.runtime_s:.1f} s{of}]"

    def to_dict(self) -> dict:
        return {
            "id": self.cid,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


def _rand_poly(n, fld, rng, nterms, maxdeg):
    t = Poly.zero(n, fld)
    for _ in range(nterms):
        e = tuple(rng.randrange(maxdeg + 1) for _ in range(n))
        t = t + Poly.monomial(n, fld, e, fld.sample(rng))
    return t


# ---------------------------------------------------------------------------

def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Frobenius certificates verify exactly and deg(A) <= k*p over the whole
    (p,k,n) grid, 5 seeds each; 30 s budget."""
    budget = 30.0
    start = time.monotonic()
    count = 0
    worst = 0
    ok = True
    grid = {}
    for p, k in itertools.product((2, 3, 5), (1, 2, 3)):
        tower = gf.field_tower(p, k)
        cell_max = 0
        for n in range(1, 7):
            for s in range(5):
                rng = random.Random(derive_seed(seed, f"c1:{p}:{k}:{n}:{s}"))
                inst = generators.linear_shifted(tower, n, rng)
                cert = refute_linear_frobenius(inst.axioms[0], tower)
                report = verify(inst, cert)
                deg = max(cert.A[0].degree(), 0)
                ok = ok and report.ok and deg <= k * p
                cell_max = max(cell_max, deg)
                count += 1
        grid[f"p{p}_k{k}"] = cell_max
        worst = max(worst, cell_max)
    elapsed = time.monotonic() - start
    return CriterionResult(
        1, "frobenius certificates: exact verify, deg(A) <= k*p",
        ok and elapsed < budget,
        {"certificates": count, "max_degree_by_cell": grid,
         "runtime_budget_s": budget, "runtime_ok": elapsed < budget},
        elapsed,
    )


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """50 base-field linear instances: deg(ml[L^{q-2}]) <= k(p-1), exact verify."""
    start = time.monotonic()
    configs = [(2, 2), (2, 3), (3, 1), (3, 2), (3, 3)]
    ok = True
    checked = 0
    for idx in range(50):
        p, k = configs[idx % len(configs)]
        fld = gf.field_spec(p, k)
        n = 2 + idx % 5
        rng = random.Random(derive_seed(seed, f"c2:{idx}"))
        inst = generators.linear_base(fld, n, rng)
        cert = refute_linear_lowdegree(inst.axioms[0])
        deg = max(cert.A[0].degree(), 0)
        ok = ok and deg <= k * (p - 1) and verify(inst, cert).ok
        checked += 1
    return CriterionResult(
        2, "low-degree certificates: deg(A) <= k(p-1), exact verify",
        ok, {"instances": checked}, time.monotonic() - start,
    )


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """20 sparse lifted instances at n=4 over the (2,3) tower verify exactly;
    monomial-axiom expansions re-expand to zero residual."""
    start = time.monotonic()
    tower = gf.field_tower(2, 3)
    ok = True
    for idx in range(20):
        rng = random.Random(derive_seed(seed, f"c3:{idx}"))
        inst = generators.sparse_quadratic(tower, 4, rng)
        cert = refute_sparse(inst.axioms[0], tower)
        ok = ok and verify(inst, cert).ok
    # monomial-axiom identity on the lifted exponent vectors themselves
    fld = tower.ext
    n = 10
    rng = random.Random(derive_seed(seed, "c3:mu"))
    mus = [tuple(rng.randrange(3) for _ in range(n)) for _ in range(10)]
    mus.append((1, 1) + (0,) * 8)
    for mu in mus:
        x_mu = Poly.monomial(n, fld, mu, fld.one())
        residual = x_mu * x_mu - x_mu
        for j, e_j in enumerate(expand_monomial_axiom(mu, n, fld)):
            residual = residual - e_j * boolean_axiom(n, fld, j)
        ok = ok and residual.is_zero()
    return CriterionResult(
        3, "sparse lifting at n=4 (p=2, k=3): exact verify, monomial axioms exact",
        ok, {"instances": 20, "monomial_axioms_checked": len(mus)},
        time.monotonic() - start,
    )


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """20 symmetric systems (p in {2,3}, n <= 8, m <= 3): pipeline verifies;
    ml_prod_elem certificates re-expand; compression agrees on all 2^n points."""
    start = time.monotonic()
    ok = True
    systems = 0
    products_checked = 0
    for idx in range(20):
        p = (2, 3)[idx % 2]
        fld = gf.field_spec(p, 1)
        rng = random.Random(derive_seed(seed, f"c4:{idx}"))
        n = rng.randrange(2, 9)
        m = rng.randrange(1, 4)
        inst = generators.symmetric_system(fld, n, m, rng)
        result = refute_symmetric_system(inst.axioms)
        ok = ok and isinstance(result, Certificate) and verify(inst, result).ok
        compressed = [compress_char_p(f) for f in inst.axioms]
        ehat = [cube_table(elem_sym(n, p ** i, fld)) for i in range(compressed[0].r)]
        points = [[gf.FieldElem(fld, v) for v in col] for col in zip(*ehat)]
        for f, comp in zip(inst.axioms, compressed):
            if [comp.poly.eval(x).v for x in points] != cube_table(f):
                ok = False
        # re-expand one ml_prod_elem certificate on this field/size
        degrees = [p ** i for i in range(comp.r) if p ** i <= n][:3]
        if len(degrees) >= 2:
            expansion, quots = ml_prod_elem(degrees, n, fld)
            prod = Poly.one(n, fld)
            for d in degrees:
                prod = prod * elem_sym(n, d, fld)
            recon = expansion.to_poly()
            for j, r in enumerate(quots):
                ax = Poly.var(n, fld, j, 2) - Poly.var(n, fld, j)
                recon = recon + r * ax
            ok = ok and recon == prod and expansion.to_poly() == ml(prod)
            products_checked += 1
        systems += 1
    return CriterionResult(
        4, "symmetric pipeline: exact verify, ml_prod_elem exact, compression on 2^n points",
        ok, {"systems": systems, "ml_prod_elem_checked": products_checked},
        time.monotonic() - start,
    )


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Degree lower bound at n=4, p=2, k=12: 200 trials, empirical rate at
    least 1 - 2^8/2^12 - 3 sigma; 10 s budget."""
    budget = 10.0
    start = time.monotonic()
    tower = gf.field_tower(2, 12)
    report = degree_trial(4, tower, 200, derive_seed(seed, "c5"))
    threshold = 1.0 - 2.0 ** 8 / 2.0 ** 12
    sigma = math.sqrt(threshold * (1 - threshold) / 200)
    elapsed = time.monotonic() - start
    passed = report.empirical_rate >= threshold - 3 * sigma and elapsed < budget
    return CriterionResult(
        5, "degree lower bound trials at (n,p,k)=(4,2,12)",
        passed,
        {"trials": report.trials, "successes": report.successes,
         "threshold": threshold, "three_sigma": 3 * sigma,
         "runtime_budget_s": budget, "runtime_ok": elapsed < budget},
        elapsed,
    )


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Top-coefficient triple agreement for 100 random (alpha, beta), n <= 8."""
    start = time.monotonic()
    towers = [gf.field_tower(2, 6), gf.field_tower(3, 4)]
    ok = True
    for idx in range(100):
        tower = towers[idx % 2]
        rng = random.Random(derive_seed(seed, f"c6:{idx}"))
        n = 1 + (idx // 2) % 8  # both parities of n reach both characteristics
        alphas = [tower.base.sample(rng) for _ in range(n)]
        beta = tower.sample_beta(rng)
        ok = ok and top_coeff(alphas, beta, tower).agree
    return CriterionResult(
        6, "top coefficient: alternating sum = rational sum = interpolated",
        ok, {"instances": 100}, time.monotonic() - start,
    )


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Numerator monomial claim: coefficient is 1 for n in 1..4 over
    characteristics 2, 3, and a 64-bit prime."""
    start = time.monotonic()
    fields = [gf.field_spec(2, 1), gf.field_spec(3, 1),
              gf.field_spec((1 << 61) - 1, 1)]
    ok = True
    for fld in fields:
        for n in range(1, 5):
            ok = ok and numerator_monomial_check(n, fld) == fld.one()
    return CriterionResult(
        7, "numerator monomial coefficient = 1 in char 2, 3, and 2^61-1",
        ok, {"chars": [2, 3, (1 << 61) - 1], "n_range": [1, 4]},
        time.monotonic() - start,
    )


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Functional roABP bound at n=4 over the (2,12) tower: eval dimension 16
    and width >= 16 in every tested x-before-y order; 5 s budget."""
    budget = 5.0
    start = time.monotonic()
    tower = gf.field_tower(2, 12)
    rng = random.Random(derive_seed(seed, "c8"))
    inst = lifted_instance("fixed-order", 4, tower, rng)
    g = ml_reciprocal(inst.poly)
    dim = eval_dimension(g, (inst.x_vars(), inst.y_vars()))
    ok = dim == 16
    orders = [list(range(8))]
    for _ in range(4):
        xs = list(range(4))
        ys = list(range(4, 8))
        rng.shuffle(xs)
        rng.shuffle(ys)
        orders.append(xs + ys)
    widths = [roabp_width(g, order) for order in orders]
    ok = ok and all(w >= 16 for w in widths)
    elapsed = time.monotonic() - start
    return CriterionResult(
        8, "roABP bound at n=4: eval dim = 16, width >= 16 in x-before-y orders",
        ok and elapsed < budget,
        {"eval_dimension": dim, "widths": widths,
         "runtime_budget_s": budget, "runtime_ok": elapsed < budget},
        elapsed,
    )


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Sparsity probe at n=8: 20 generic instances with sparsity >= 2."""
    start = time.monotonic()
    tower = gf.field_tower(2, 12)
    observed = []
    ok = True
    for idx in range(20):
        rng = random.Random(derive_seed(seed, f"c9:{idx}"))
        alphas = [tower.base.sample(rng) for _ in range(8)]
        beta = tower.sample_beta(rng)
        sparsity, bound = sparsity_probe(alphas, beta, tower)
        observed.append(sparsity)
        ok = ok and sparsity >= bound
    return CriterionResult(
        9, "sparsity probe at n=8: sparsity >= 2^{n/4-1} = 2",
        ok, {"bound": 2.0, "observed": observed}, time.monotonic() - start,
    )


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """solve_nullstellensatz minimum degree equals the low-degree
    constructor's A degree on 10 instances; both certificates verify."""
    start = time.monotonic()
    configs = [(2, 2, 2), (2, 2, 3), (2, 2, 4), (3, 1, 2), (3, 1, 3),
               (3, 1, 4), (2, 1, 2), (2, 1, 3), (3, 2, 3), (3, 2, 3)]
    ok = True
    degrees = []
    for idx, (p, k, n) in enumerate(configs):
        fld = gf.field_spec(p, k)
        rng = random.Random(derive_seed(seed, f"c10:{idx}"))
        if p == 2 and k == 1:
            # only the degenerate constant instance is unsatisfiable here
            beta = fld.one()
            L = Poly.const(n, fld, -beta)
            inst = Instance(n, fld, [L], "linear")
        else:
            inst = generators.linear_base(fld, n, rng)
            L = inst.axioms[0]
        direct = refute_linear_lowdegree(L)
        deg_direct = max(direct.A[0].degree(), 0)
        found = minimum_certificate_degree([L], k * (p - 1) + 1)
        ok = ok and found is not None
        if found is None:
            continue
        deg_solver, cert = found
        ok = (ok and deg_solver == deg_direct
              and verify(inst, direct).ok and verify(inst, cert).ok)
        degrees.append(deg_solver)
    return CriterionResult(
        10, "solver minimum degree matches ml[L^{q-2}] degree; both verify",
        ok, {"instances": len(configs), "degrees": degrees},
        time.monotonic() - start,
    )


def criterion_11(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Property suites: field axioms and Freshman's Dream on 10^3 pairs, ml
    idempotence, division reconstruction, Lucas against the exact binomial,
    the Ben-Or polynomial identity up to n = 6, and CLI byte determinism."""
    start = time.monotonic()
    ok = True
    checks = {}

    rng = random.Random(derive_seed(seed, "c11:field"))
    for spec in (gf.field_spec(3, 3), gf.field_spec(2, 6)):
        p = spec.p
        for _ in range(500):
            a, b, c = spec.sample(rng), spec.sample(rng), spec.sample(rng)
            if (a + b) ** p != a ** p + b ** p:
                ok = False
            if a * (b + c) != a * b + a * c or (a * b) * c != a * (b * c):
                ok = False
            if not a.is_zero() and a * a.inv() != spec.one():
                ok = False
            if a.frobenius(1) != a ** p:
                ok = False
    checks["field_axioms_pairs"] = 1000

    rng = random.Random(derive_seed(seed, "c11:ml"))
    fld = gf.field_spec(3, 1)
    for _ in range(100):
        f = _rand_poly(4, fld, rng, 6, 4)
        g = _rand_poly(4, fld, rng, 6, 4)
        if ml(ml(f)) != ml(f) or ml(f * g) != ml(ml(f) * ml(g)):
            ok = False
        dec = divide_by_axioms(f)
        if dec.recompose() != f or not dec.remainder.is_multilinear():
            ok = False
    checks["ml_and_division_polys"] = 100

    for p in (2, 3, 5):
        for a in range(201):
            for b in range(201):
                if lucas_binom(a, b, p) != math.comb(a, b) % p:
                    ok = False
    checks["lucas_grid"] = "a,b <= 200, p in {2,3,5}"

    for n, spec in [(4, gf.field_spec(2, 3)), (6, gf.field_spec(7, 1))]:
        form = ben_or_coeffs(n, spec)
        for k in range(n + 1):
            if form.expand_row(k) != elem_sym(n, k, spec):
                ok = False
    checks["ben_or_n"] = [4, 6]

    cli_ok = _cli_determinism(seed)
    ok = ok and cli_ok
    checks["cli_byte_determinism"] = cli_ok
    return CriterionResult(
        11, "property suites: fields, ml, division, Lucas, Ben-Or, CLI determinism",
        ok, checks, time.monotonic() - start,
    )


def _child_env() -> dict[str, str]:
    """The environment for a child ``python -m ipsforge.cli``: the absolute
    directory holding the ipsforge package this process imported goes in
    front of PYTHONPATH, so the child imports the same code from any working
    directory, installed or not."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(ipsforge.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def _cli_determinism(seed: int) -> bool:
    """Two identical refute runs in separate processes are byte-identical and
    re-verify through cmd_verify."""
    env = _child_env()
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        dirs = []
        for run in range(2):
            workdir = os.path.join(tmp, f"run{run}")
            os.mkdir(workdir)
            dirs.append(workdir)
            proc = subprocess.run(
                [sys.executable, "-m", "ipsforge.cli", "refute",
                 "--family", "linear-shifted", "--p", "2", "--k", "2",
                 "--n", "3", "--seed", str(seed % 10 ** 6), "--out", "cert.json"],
                capture_output=True, cwd=workdir, env=env,
            )
            if proc.returncode != 0:
                return False
            with open(os.path.join(workdir, "cert.json"), "rb") as fh:
                outs.append(fh.read())
        if outs[0] != outs[1]:
            return False
        check = subprocess.run(
            [sys.executable, "-m", "ipsforge.cli", "verify",
             os.path.join(dirs[0], "cert.json")],
            capture_output=True, env=env,
        )
        return check.returncode == 0


ALL_CRITERIA = [
    criterion_1, criterion_2, criterion_3, criterion_4, criterion_5,
    criterion_6, criterion_7, criterion_8, criterion_9, criterion_10,
    criterion_11,
]


def run_all(seed: int = DEFAULT_SEED, only: int | None = None) -> list[CriterionResult]:
    results = []
    for fn in ALL_CRITERIA:
        cid = int(fn.__name__.split("_")[1])
        if only is not None and cid != only:
            continue
        results.append(fn(seed))
    return results
