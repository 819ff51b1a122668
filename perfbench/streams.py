"""Job streams of the ipsforge benchmark.

Each workload is a fixed list of job *slots*. A slot names one job class
(subcommand, family or oracle kind, field, size) and how many jobs of that
class one pass runs; the workload seed picks, for every job, an instance seed
from the slot's pool. The pools are the instance seeds recorded in
``expected.json``, which holds the sha256 of the canonical output of every
pool job, so any workload seed yields jobs whose correct output is known.
make_expected.py writes that file and keeps in each pool only instances of
typical cost, so that a pass does nearly the same work for every seed.

Every job writes its output to ``out.json`` and reads certificates from
``certs/``, both relative to the job directory, because ``run_config``
embeds those paths in the output bytes.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
POOL = range(1, 11)
OUT = "out.json"

# (p, k) of the towers the linear-shifted family runs over.
SHIFTED_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                  (5, 1), (5, 2), (5, 3), (2, 6), (3, 4)]
SPARSE_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]
BASE_FIELDS = [(2, 2), (3, 1), (3, 2), (5, 1), (5, 2)]
ORACLE_TOWERS = [(2, 12), (2, 6), (3, 4)]


def refute_argv(family, p, k, n, m, seed, out):
    argv = ["refute", "--family", family, "--p", str(p), "--k", str(k),
            "--n", str(n), "--seed", str(seed), "--out", out]
    if family == "symmetric":
        argv[7:7] = ["--m", str(m)]
    return argv


def cert_name(family, p, k, n, m, seed):
    return f"certs/{family}-p{p}k{k}n{n}m{m}-s{seed}.json"


def oracle_argv(kind, p, k, n, seed):
    argv = ["oracle", kind, "--p", str(p), "--k", str(k), "--n", str(n),
            "--out", OUT]
    if kind != "numerator":
        argv[6:6] = ["--seed", str(seed)]
    if kind == "degree-trial":
        argv[6:6] = ["--trials", "10"]
    return argv


def key(argv):
    return " ".join(argv)


# ---------------------------------------------------------------------------
# slot catalogs: (class name, argv builder taking an instance seed, copies[,
# corrupt])

def _refute_slot(family, p, k, n, m=1):
    name = f"{family}/p{p}k{k}n{n}" + (f"m{m}" if family == "symmetric" else "")
    return name, lambda s: refute_argv(family, p, k, n, m, s, OUT)


def refute_slots():
    """The write path: construction, self-check and serialization.

    linear-shifted (5,3,5) is the heaviest job (about 2.8 s). Symmetric
    systems stop at n=8: at n=10 a p=2 job takes 0.03 to 5.8 s depending on
    the instance, and p=3,5 jobs take 6 to 10 s each, so the stream's
    throughput would follow the seed rather than the code.
    """
    slots = []
    for p, k in SHIFTED_FIELDS:
        for n in range(1, 6):
            slots.append(_refute_slot("linear-shifted", p, k, n) + (1,))
    for p, k in SPARSE_FIELDS:
        for nx in (3, 4, 5):
            slots.append(_refute_slot("sparse-shifted", p, k, nx) + (1,))
    for p, k in BASE_FIELDS:
        for n in (2, 4, 6, 8):
            slots.append(_refute_slot("linear-base", p, k, n) + (1,))
    for p in (2, 3, 5):
        for n in (2, 4, 6, 8):
            for m in (1, 2, 3):
                slots.append(_refute_slot("symmetric", p, 1, n, m) + (1,))
    return slots


def verify_cert_configs():
    """Certificates the verify stream reads: (family, p, k, n, m, copies, corrupt).

    They span about 50 to 12k terms: sparse-shifted (2,3,7) is the
    10.5k-12k-term file and linear-shifted (5,3,4) the 5.6k-term one.
    parse_poly's cost grows with the square of a polynomial's term count, so
    these two carry most of the time. (2,3,7) spreads its terms over 29
    polynomials and costs about half as much as linear-shifted (3,4,6), the
    first linear-shifted file past 10k terms, so no single job takes most of
    a pass.

    symmetric (2,8,3), about 1.8k terms, runs 12 times, so that the 90th
    percentile of job time falls among jobs of one class rather than between
    classes of different cost. Its field is prime, so its verify time follows
    its term counts, which make_expected.py holds within 10%; in fields
    with k > 1 it also depends on the coefficients (linear-shifted (5,3,3)
    files of equal size take 0.18 to 0.31 s). ``corrupt`` adds one job on a copy with one
    coefficient changed.
    """
    corrupt = {("linear-shifted", 3, 3, 4, 1), ("linear-shifted", 5, 2, 3, 1),
               ("linear-shifted", 2, 6, 3, 1), ("linear-shifted", 3, 4, 3, 1),
               ("linear-shifted", 5, 3, 2, 1), ("sparse-shifted", 2, 3, 4, 1),
               ("sparse-shifted", 3, 2, 4, 1), ("linear-base", 5, 2, 6, 1),
               ("linear-base", 3, 2, 6, 1), ("symmetric", 2, 1, 6, 2),
               ("symmetric", 3, 1, 6, 2), ("symmetric", 5, 1, 6, 2)}
    configs = []

    def add(family, p, k, n, m=1, copies=1):
        configs.append((family, p, k, n, m, copies, (family, p, k, n, m) in corrupt))

    for p, k in SHIFTED_FIELDS:
        for n in (2, 3, 4):
            add("linear-shifted", p, k, n)
    for p, k in SPARSE_FIELDS:
        for nx in (3, 4, 5):
            add("sparse-shifted", p, k, nx)
    add("sparse-shifted", 2, 3, 7)
    for p, k in BASE_FIELDS:
        for n in (2, 4, 6, 8):
            add("linear-base", p, k, n)
    for p, ns in ((2, (4, 6, 8)), (3, (4, 6)), (5, (4, 6))):
        for n in ns:
            for m in (1, 2, 3):
                add("symmetric", p, 1, n, m, copies=12 if (p, n, m) == (2, 8, 3) else 1)
    return configs


def verify_slots():
    slots = []
    for family, p, k, n, m, copies, corrupt in verify_cert_configs():
        name = f"{family}/p{p}k{k}n{n}m{m}"
        slots.append((name, lambda s, c=(family, p, k, n, m): refute_argv(
            *c, s, cert_name(*c, s)), copies, corrupt))
    return slots


def oracle_slots():
    """Oracle jobs of all eight kinds over the three towers; nothing here
    multiplies or parses polynomials. top-coeff stops at n=8: at n=10 its
    alternating cube sum, 4^n monomial checks, took 60% of the stream."""
    slots = []
    sizes = {"degree-trial": (2, 3, 4), "scan": (2, 3, 4),
             "sparsity": (3, 4, 6, 8, 10), "top-coeff": (3, 4, 6, 8),
             "numerator": (2, 3, 4, 5), "rank": (3, 4, 5),
             "eval-dim": (3, 4, 5), "roabp-width": (3, 4, 5)}
    for p, k in ORACLE_TOWERS:
        for kind, ns in sizes.items():
            for n in ns:
                slots.append((f"{kind}/p{p}k{k}n{n}",
                              lambda s, a=(kind, p, k, n): oracle_argv(*a, s), 2))
    return slots


# ---------------------------------------------------------------------------
# job lists

def load_expected():
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def _pick(rng, build, expected, copies):
    """Distinct pool seeds (with repetition once the pool runs out) whose
    output is recorded in the expected file."""
    pool = [s for s in POOL if key(build(s)) in expected]
    if not pool:
        raise SystemExit(f"no recorded outcome for any pool seed of {build(0)}")
    seeds = rng.sample(pool, min(copies, len(pool)))
    while len(seeds) < copies:
        seeds.append(rng.choice(pool))
    return seeds


def build_jobs(workload, seed, expected):
    """(jobs, certificates to generate) for one workload and seed.

    A job is a dict with its class, argv and expected outcome; a certificate
    to generate is (refute argv, expected sha256, path of a corrupted copy or
    None).
    """
    rng = random.Random(f"{workload}:{seed}")
    jobs, certs = [], []
    if workload == "refute":
        for name, build, copies in refute_slots():
            for s in _pick(rng, build, expected, copies):
                argv = build(s)
                jobs.append({"class": name, "argv": argv,
                             "expect": {"sha256": expected[key(argv)]}})
    elif workload == "oracle":
        for name, build, copies in oracle_slots():
            for s in _pick(rng, build, expected, copies):
                argv = build(s)
                jobs.append({"class": name, "argv": argv,
                             "expect": {"sha256": expected[key(argv)]}})
    elif workload == "verify":
        for name, build, copies, corrupt in verify_slots():
            for i, s in enumerate(_pick(rng, build, expected, copies)):
                gen = build(s)
                path = gen[-1]
                bad = path.replace(".json", "-bad.json") if corrupt and i == 0 else None
                if bad or all(path != c[0][-1] for c in certs):
                    certs.append((gen, expected[key(gen)], bad))
                jobs.append({"class": name, "argv": ["verify", path, "--out", OUT],
                             "expect": {"valid": True}})
                if bad:
                    jobs.append({"class": name + "/corrupt",
                                 "argv": ["verify", bad, "--out", OUT],
                                 "expect": {"rejected": True}})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    return jobs, certs


def sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def corrupt_certificate(src, dst, rng):
    """Copy a certificate with one coefficient of one A or B term changed.

    Changing a coefficient of A_i by d changes the combination by
    d * x^e * f_i (or d * x^e * (x_j^2 - x_j) for B_j), which is never zero,
    so a sound verifier must reject the copy.
    """
    with open(src) as fh:
        data = json.load(fh)
    slots = [(side, i) for side in ("A", "B") for i, t in enumerate(data[side])
             if t != "0"]
    side, i = rng.choice(slots)
    terms = data[side][i].split(" + ")
    t = rng.randrange(len(terms))
    coeff, star, rest = terms[t].partition("*")
    p = int(data["field"][3:].split("^")[0])
    if coeff.startswith("["):
        parts = coeff[1:-1].split(",")
        parts[0] = str((int(parts[0]) + 1) % p)
        coeff = "[" + ",".join(parts) + "]"
    else:
        coeff = str((int(coeff) + 1) % p)
    terms[t] = coeff + star + rest
    data[side][i] = " + ".join(terms)
    with open(dst, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)


def generate_certificates(src_root, job_dir, certs, seed):
    """Write the verify stream's certificate files with ``ipsforge refute``.

    Runs in a child process, so neither its time nor its memory counts
    toward the measured process. Exits non-zero if a certificate differs
    from its recorded bytes.
    """
    import contextlib
    import io
    import os
    import sys

    sys.path.insert(0, str(src_root))
    from ipsforge.cli import main

    os.chdir(job_dir)
    os.makedirs("certs", exist_ok=True)
    rng = random.Random(f"corrupt:{seed}")
    for argv, sha, bad in certs:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            code = main(argv)
        path = argv[-1]
        if code != 0 or sha256_file(path) != sha:
            sys.stderr.write(f"certificate generation failed: {key(argv)} "
                             f"(exit {code}) {out.getvalue()[:200]}\n")
            sys.exit(1)
        if bad:
            corrupt_certificate(path, bad, rng)
