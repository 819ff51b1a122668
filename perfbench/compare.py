"""Compare the result files of two benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE_RESULT.json NEW_RESULT.json

Result files are the ``.perfbench_out/result-*.json`` files that run.py
writes. Numbers measured with different kernel backends, Python versions or
CPU counts are not comparable: such a pair is flagged, and the exit code is 2.
"""

from __future__ import annotations

import json
import sys

RECORD_KEYS = ("kernel_backend", "python", "nproc", "workload", "trace")


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    base, new = (json.load(open(path)) for path in argv)
    mismatched = [k for k in RECORD_KEYS if base["record"][k] != new["record"][k]]
    for k in mismatched:
        print(f"NOT COMPARABLE: {k} differs: {base['record'][k]} vs {new['record'][k]}")
    for section in ("end_to_end", "per_layer"):
        for name, m in (new.get(section) or {}).items():
            old = (base.get(section) or {}).get(name)
            if old is None:
                continue
            ratio = m["value"] / old["value"] if old["value"] else float("nan")
            print(f"{name:34s} {old['value']:12.6g} -> {m['value']:12.6g} {m['unit']:6s}"
                  f" x{ratio:.3f}")
    return 2 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
