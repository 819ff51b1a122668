"""Record the expected outcome of every pool job in ``expected.json``.

Run from the root of a checkout whose outputs are known to be right:

    python3 perfbench/make_expected.py

Every refute and oracle job of every slot and candidate seed runs once
through ``ipsforge.cli.main``, and so does the refute command that writes each
certificate of the verify stream. Instances of one class can differ in cost
several times over (a drawn coefficient is zero, a symmetric system happens
to be dense), which would make a pass's work follow the workload seed. So a
slot keeps only the seeds whose cost lies within COST_BAND of the median over
its candidates (at least MIN_SEEDS, closest first). Cost is counted, not
timed: the field-kernel calls a job makes, and for a certificate the sum of
the squared term counts of its polynomials, which sets the cost of parsing it.
Jobs that do not exit 0 are never kept. For each kept job the sha256 of its
canonical output is recorded.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

import streams
import tracing

ROOT = Path(__file__).resolve().parent.parent
COST_BAND = 0.10
MIN_SEEDS = 3


def run(cli_main, tracer, argv):
    """(sha256, cost) of the job's output, or None if it does not exit 0."""
    tracer.reset()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli_main(argv)
    if code != 0:
        print(f"left out (exit {code}): {streams.key(argv)}", file=sys.stderr)
        return None
    path = argv[-1]
    if path.startswith("certs/"):
        with open(path) as fh:
            data = json.load(fh)
        cost = sum((t.count(" + ") + 1) ** 2
                   for t in data["instance"] + data["A"] + data["B"])
    else:
        cost = sum(tracer.counts[name] for name in tracing.KERNEL)
    found = streams.sha256_file(path), cost
    os.remove(path)
    return found


def main():
    sys.path.insert(0, str(ROOT / "src"))
    from ipsforge.cli import main as cli_main

    tracer = tracing.Tracer()
    tracer.install()

    work = ROOT / ".perfbench_out" / "expected-build"
    shutil.rmtree(work, ignore_errors=True)
    (work / "certs").mkdir(parents=True)
    os.chdir(work)
    builds = ([b for _, b, _ in streams.refute_slots()]
              + [b for _, b, _, _ in streams.verify_slots()]
              + [b for _, b, _ in streams.oracle_slots()])
    expected = {}
    for build in builds:
        outcomes = {}
        for seed in streams.POOL:
            key = streams.key(build(seed))
            if key not in outcomes:
                found = run(cli_main, tracer, build(seed))
                if found:
                    outcomes[key] = found
        if not outcomes:
            continue
        median = statistics.median(cost for _, cost in outcomes.values())
        ranked = sorted(outcomes, key=lambda k: abs(outcomes[k][1] - median))
        for i, key in enumerate(ranked):
            if i < MIN_SEEDS or abs(outcomes[key][1] - median) <= COST_BAND * median:
                expected[key] = outcomes[key][0]
    with open(streams.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    shutil.rmtree(work)
    print(f"{len(expected)} outcomes recorded")


if __name__ == "__main__":
    main()
