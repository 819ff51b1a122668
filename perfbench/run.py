"""The ipsforge benchmark: seeded refute, verify and oracle job streams.

Run from the root of a checkout:

    python3 perfbench/run.py --workload refute --seed 1 --seconds 40 --trace 0

Workloads: refute, oracle and verify (see streams.py). One client runs the
workload's job list in a closed loop, in process, through
``ipsforge.cli.main(argv)``: each job starts when the previous one returns.
Whole passes over the list repeat until ``--seconds`` have passed, so every
run measures the same mix of jobs. Every job's outcome is checked against
``expected.json``. The last line of standard output is one JSON object with
the end-to-end metrics (``--trace 0``) or, with ``--trace 1``, the per-layer
metrics of two traced passes that follow the untraced ones; their counts must
agree exactly. Each run also writes a result file with the run record and the
per-job log, and a traced run its spans, to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import streams
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPS = 4  # before and again after the timed phase
WORKLOADS = ("refute", "verify", "oracle")
E2E_UNITS = {"setup_s": "s", "jobs_per_s": "1/s", "job_p50_s": "s",
             "job_p90_s": "s", "peak_rss_mb": "MB"}


def fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(1)


# ---------------------------------------------------------------------------
# set-up

def fields_used(jobs):
    """(constructor, p, k) of every field the jobs look up by parameters;
    verify jobs read their field from the certificate instead."""
    fields = set()
    for job in jobs:
        argv = job["argv"]
        if argv[0] == "verify":
            continue
        p, k = int(argv[argv.index("--p") + 1]), int(argv[argv.index("--k") + 1])
        if argv[0] == "refute":
            family = argv[argv.index("--family") + 1]
            tower = family in ("linear-shifted", "sparse-shifted")
        else:
            tower = argv[1] != "numerator"
        fields.add(("tower" if tower else "spec", p, k))
    return sorted(fields)


def setup(fields):
    """Import the CLI afresh and build every field the stream uses; returns
    (seconds, cli module)."""
    for name in [m for m in sys.modules if m.split(".")[0] in ("ipsforge", "click")]:
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    cli = importlib.import_module("ipsforge.cli")
    for kind, p, k in fields:
        getattr(cli.gf, "field_" + kind)(p, k)
    return time.perf_counter() - t0, cli


# ---------------------------------------------------------------------------
# jobs

def check(job, code, stdout, out_path):
    """'ok', or why the outcome differs from the expected one."""
    expect = job["expect"]
    if "rejected" in expect:
        if code == 2 and "not_a_certificate" in stdout:
            return "ok"
        return f"exit {code}, expected rejection with exit 2"
    if code != 0:
        return f"exit {code}"
    try:
        if "sha256" in expect:
            if streams.sha256_file(out_path) == expect["sha256"]:
                return "ok"
            return "output bytes differ from the expected ones"
        with open(out_path) as fh:
            valid = json.load(fh).get("valid")
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    return "ok" if valid is True else f"valid is {valid!r}"


def run_pass(jobs, main, out_path, tracer=None):
    """One pass over the job list; per job (exit code, wall seconds, outcome).

    The heap is collected before each job, outside its timing, so that no job
    pays for its predecessor's garbage, as a fresh ``ipsforge`` process would
    not."""
    results = []
    for i, job in enumerate(jobs):
        with contextlib.suppress(FileNotFoundError):
            out_path.unlink()
        gc.collect()
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            if tracer is None:
                code = main(job["argv"])
            else:
                code = tracer.run_job(i, main, job["argv"])
            wall = time.perf_counter() - t0
        if tracer is not None:
            tracer.counts["bytes_written"] += len(stdout.getvalue())
        results.append((code, wall, check(job, code, stdout.getvalue(), out_path)))
    return results


def traced_passes(jobs, main, out_path, untraced_pass_s, spans_path):
    """Two traced passes: (their job results, per-layer metrics, whether every
    count repeated exactly). Times are the mean of the two passes."""
    tracer = tracing.Tracer()
    tracer.install()
    passes, traced = [], []
    for _ in range(2):
        tracer.reset()
        gc.collect()
        passes.append(run_pass(jobs, main, out_path, tracer))
        pass_s = sum(wall for _, wall, _ in passes[-1])
        traced.append(tracing.layer_metrics(tracer.aggregate(), pass_s, untraced_pass_s))
    tracer.dump_spans(spans_path)
    differ = [n for n in tracing.COUNTS if traced[0][n] != traced[1][n]]
    if differ:
        sys.stderr.write("perfbench: counts differ between the two traced passes: "
                         + ", ".join(f"{n} {traced[0][n]} != {traced[1][n]}"
                                     for n in differ) + "\n")
    layers = {n: traced[1][n] if n in tracing.COUNTS
              else (traced[0][n] + traced[1][n]) / 2 for n in tracing.METRICS}
    return passes, layers, not differ


# ---------------------------------------------------------------------------
# run record

def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "ipsforge").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_record(args, n_jobs):
    import ipsforge

    return {
        "python": platform.python_version(),
        "kernel_backend": ipsforge.kernel_backend(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "jobs_per_pass": n_jobs,
        "env": {k: v for k, v in os.environ.items() if k.startswith("IPSFORGE_")},
    }


# ---------------------------------------------------------------------------
# main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "ipsforge" / "__init__.py").is_file():
        fail(f"no ipsforge sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    try:
        expected = streams.load_expected()
    except (OSError, ValueError) as exc:
        fail(f"cannot read {streams.EXPECTED_PATH}: {exc}")
    jobs, certs = streams.build_jobs(args.workload, args.seed, expected)

    job_dir = OUT_DIR / f"jobs-{args.workload}"
    shutil.rmtree(job_dir, ignore_errors=True)
    job_dir.mkdir(parents=True)
    if certs:
        child = multiprocessing.get_context("spawn").Process(
            target=streams.generate_certificates,
            args=(str(SRC), str(job_dir), certs, args.seed))
        child.start()
        child.join()
        if child.exitcode != 0:
            fail(f"generating the verify certificates failed (exit {child.exitcode})")

    fields = fields_used(jobs)
    setup_samples = []
    for _ in range(SETUP_REPS if args.trace == 0 else 1):
        seconds, cli = setup(fields)
        setup_samples.append(seconds)
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        fail(f"imported {cli.__file__}, not the checkout's sources")
    record = run_record(args, len(jobs))

    os.chdir(job_dir)
    out_path = job_dir / streams.OUT
    gc.collect()
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        passes.append(run_pass(jobs, cli.main, out_path))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace == 0:
        # Set-up samples from both ends of the run, so that their median
        # does not rest on the host's speed during one second.
        setup_samples += [setup(fields)[0] for _ in range(SETUP_REPS)]
    times = [wall for p in passes for _, wall, _ in p]
    e2e = {
        "setup_s": statistics.median(setup_samples),
        "jobs_per_s": len(times) / sum(times),
        "job_p50_s": statistics.median(times),
        "job_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
        "peak_rss_mb": peak_rss_mb,
    }
    metrics = {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in e2e.items()}
    counts_agree = True
    if args.trace:
        traced, layers, counts_agree = traced_passes(
            jobs, cli.main, out_path, sum(times) / len(passes),
            OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        passes += traced
        units = dict(tracing.METRIC_UNITS)
        metrics = {n: {"value": v, "unit": units[n]} for n, v in layers.items()}

    attempted = sum(len(p) for p in passes)
    failed = sum(outcome != "ok" for p in passes for _, _, outcome in p)
    result = {
        "record": record,
        "passes": len(passes),
        "traced_passes": 2 if args.trace else 0,
        "setup_s_samples": setup_samples,
        "error_rate": failed / attempted,
        "end_to_end": {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in e2e.items()},
        "per_layer": metrics if args.trace else None,
        "jobs": [{"class": job["class"], "argv": job["argv"],
                  "exit": [p[i][0] for p in passes],
                  "wall_s": [p[i][1] for p in passes],
                  "outcome": [p[i][2] for p in passes]}
                 for i, job in enumerate(jobs)],
    }
    result_path = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_path, "w") as fh:
        json.dump(result, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  jobs/pass {len(jobs)}  "
          f"passes {len(passes)}  backend {record['kernel_backend']}  "
          f"python {record['python']}  nproc {record['nproc']}  git {record['git_sha']}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    print(f"  {'error_rate':34s} {failed / attempted:.6g} ratio  ({failed} of {attempted} jobs)")
    print(f"result file: {result_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0 and counts_agree, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
