#!/usr/bin/env python3
"""Benchmark the compiled kernel against the pure-Python fallback.

Runs the same workloads in two subprocesses (one with the default backend,
one with IPSFORGE_PURE_PY=1) and prints a comparison table, then one row of
vmul microseconds per call for every field the perfbench streams multiply in,
next to a schoolbook O(k^2) vmul, which shows where packing pays off:

    python benchmarks/bench_kernel.py
"""

import json
import os
import random
import subprocess
import sys
import time


def workload_tower() -> None:
    from ipsforge import gf

    gf.field_tower.cache_clear()
    gf.field_spec.cache_clear()
    gf.field_tower(2, 12)


def workload_frobenius() -> None:
    import random
    from ipsforge import generators, gf
    from ipsforge.certificates import refute_linear_frobenius, verify

    for p, k, n in ((5, 3, 5), (2, 3, 6), (3, 2, 6)):
        tower = gf.field_tower(p, k)
        rng = random.Random(1234)
        inst = generators.linear_shifted(tower, n, rng)
        cert = refute_linear_frobenius(inst.axioms[0], tower)
        assert verify(inst, cert).ok


def workload_ml_inverse() -> None:
    import random
    from ipsforge import gf
    from ipsforge.lowerbounds import ml_inverse

    tower = gf.field_tower(2, 12)
    rng = random.Random(99)
    for _ in range(20):
        alphas = [tower.base.sample(rng) for _ in range(8)]
        beta = tower.sample_beta(rng)
        ml_inverse(alphas, beta, tower)


WORKLOADS = {
    "tower(2,12) construction": workload_tower,
    "frobenius certs (5,3,5)/(2,3,6)/(3,2,6)": workload_frobenius,
    "20x ml_inverse n=8 over GF(2^24)": workload_ml_inverse,
}

# (p, k) of every field of degree k >= 2 that the refute and oracle streams of
# perfbench multiply in: the bases and extensions of their towers
VMUL_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 6), (2, 12), (2, 24),
               (3, 2), (3, 3), (3, 4), (3, 6), (3, 8),
               (5, 2), (5, 3), (5, 4), (5, 6)]


def schoolbook_vmul(a, b, p, modulus):
    """a*b in F_p[t]/(modulus) by a Python-level convolution and reduction."""
    k = len(a)
    conv = [0] * (2 * k - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                conv[i + j] += ai * bj
    for i in range(2 * k - 2, k - 1, -1):
        c = conv[i] % p
        if c:
            for j in range(k):
                conv[i - k + j] -= c * modulus[j]
    return tuple(c % p for c in conv[:k])


def vmul_us_per_call(vmuls, p: int, k: int) -> list[float]:
    """Microseconds per call of each vmul over 256 seeded operand pairs: the
    best of 7 rounds, the vmuls taking turns within each round so that a
    slow spell of the host hits them alike. The first vmul, the kernel's,
    makes min(q, 2^14) + 1 products beforehand, after which the pure kernel
    answers a field of at most 2^14 elements from its log/antilog tables,
    as it does for every busy field."""
    from ipsforge import gf

    spec = gf.field_spec(p, k)
    rng = random.Random(f"vmul:{p}:{k}")
    pairs = [(spec.sample(rng).coeffs, spec.sample(rng).coeffs) for _ in range(256)]
    mod = spec.modulus
    for _ in range(min(spec.order, 1 << 14) + 1):
        vmuls[0](*pairs[0], p, mod)
    best = [float("inf")] * len(vmuls)
    for _ in range(7):
        for idx, vmul in enumerate(vmuls):
            start = time.perf_counter()
            for _ in range(4):
                for a, b in pairs:
                    vmul(a, b, p, mod)
            best[idx] = min(best[idx], time.perf_counter() - start)
    return [t / (4 * len(pairs)) * 1e6 for t in best]


def run_inner() -> None:
    from ipsforge import _kernel, kernel_backend

    timings = {"backend": kernel_backend()}
    for name, fn in WORKLOADS.items():
        start = time.perf_counter()
        fn()
        timings[name] = time.perf_counter() - start
    timings["vmul"] = {f"{p},{k}": vmul_us_per_call([_kernel.vmul, schoolbook_vmul], p, k)
                       for p, k in VMUL_FIELDS}
    print(json.dumps(timings))


def run_outer() -> None:
    results = {}
    for label, env_extra in (("compiled", {}), ("pure-python", {"IPSFORGE_PURE_PY": "1"})):
        env = dict(os.environ)
        env.pop("IPSFORGE_PURE_PY", None)
        env.update(env_extra)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--inner"],
            env=env, capture_output=True, text=True, check=True,
        )
        results[label] = json.loads(proc.stdout)
    print(f"{'workload':<45} {'compiled':>10} {'pure':>10} {'speedup':>9}")
    print("-" * 78)
    for name in WORKLOADS:
        fast = results["compiled"][name]
        slow = results["pure-python"][name]
        print(f"{name:<45} {fast:>9.3f}s {slow:>9.3f}s {slow / fast:>8.1f}x")
    print(f"\n{'vmul, us/call':<20} {'compiled':>10} {'pure':>10} {'schoolbook':>11}")
    print("-" * 54)
    for p, k in VMUL_FIELDS:
        fast, _ = results["compiled"]["vmul"][f"{p},{k}"]
        slow, school = results["pure-python"]["vmul"][f"{p},{k}"]
        print(f"{f'GF({p}^{k})':<20} {fast:>10.2f} {slow:>10.2f} {school:>11.2f}")
    print(f"\nbackends: compiled={results['compiled']['backend']}, "
          f"pure={results['pure-python']['backend']}")
    if results["compiled"]["backend"] == results["pure-python"]["backend"]:
        print("note: compiled kernel unavailable; both runs used the fallback")


if __name__ == "__main__":
    if "--inner" in sys.argv:
        run_inner()
    else:
        run_outer()
