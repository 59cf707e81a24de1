"""Frontier timings of the Groebner-complex pipeline, written to BENCH_<label>.json.

    python3 bench/run.py --label NAME [--out DIR]

Each case runs in a fresh Python process that imports `tropideal` from the
`src/` beside this script.  The process builds the case's ideal and then its
Groebner complex, each timed apart with `time.perf_counter`, and repeats the
pair three times; a case whose first build plus `groebner_complex` takes
over 60 s runs once.  Per case the file records the median build and
`groebner_complex` seconds, every run, two peak RSS readings, the number
of cells and the sha256 of
`json.dumps(groebner_complex_to_json(G, verbose=True), sort_keys=True)`,
so two files from different commits can be compared case by case.  Both
readings are the process's `ru_maxrss`, imports included:
`build_peak_rss_mb` right after the first build, before
`groebner_complex`, so the builder's own peak is not hidden behind the
Groebner step's; `peak_rss_mb` right after the first build and
`groebner_complex`, before that JSON is built and before the pair repeats:
the pipeline's own peak.  The cases are the divisibility towers
`nonrealizable_ideal(n, D)` and Example 2.7's g tropicalized at D=4 and
D=6.  Budgets are raised far past any case here, so no run is refused.

Stdlib only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = {
    "tower-2-4": ("tower", 2, 4),
    "tower-3-3": ("tower", 3, 3),
    "tower-2-5": ("tower", 2, 5),
    "tower-2-6": ("tower", 2, 6),
    "tower-3-4": ("tower", 3, 4),
    "tower-4-3": ("tower", 4, 3),
    "tower-5-3": ("tower", 5, 3),
    "example27-g-d4": ("tropicalize", "tests/golden/inputs/example27_g.json", 4),
    "example27-g-d6": ("tropicalize", "tests/golden/inputs/example27_g.json", 6),
}
SLOW_S = 60.0
CAP = 10 ** 15


def _build(spec):
    from tropideal.config import Budget
    from tropideal.ideals import nonrealizable_ideal, tropicalize
    from tropideal.jsonio import classical_input_from_json

    kind, a, b = spec
    if kind == "tower":
        return nonrealizable_ideal(a, b, Budget(CAP))
    with open(ROOT / a, encoding="utf-8") as fh:
        return tropicalize(classical_input_from_json(json.load(fh)), b, Budget(CAP))


def run_case(name: str) -> dict:
    """Time one case in this process; the caller gives it a fresh one."""
    sys.path.insert(0, str(ROOT / "src"))
    from tropideal.config import Budget
    from tropideal.groebner import groebner_complex
    from tropideal.jsonio import groebner_complex_to_json

    runs, digest, cells = [], None, None
    while len(runs) < 3:
        t0 = time.perf_counter()
        ideal = _build(CASES[name])
        t1 = time.perf_counter()
        if not runs:
            build_peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        G = groebner_complex(ideal, Budget(CAP))
        t2 = time.perf_counter()
        if not runs:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        runs.append({"build_s": t1 - t0, "groebner_complex_s": t2 - t1})
        text = json.dumps(groebner_complex_to_json(G, verbose=True), sort_keys=True)
        h = hashlib.sha256(text.encode()).hexdigest()
        if digest not in (None, h):
            raise SystemExit("%s: output differs between runs" % name)
        digest, cells = h, G.cell_count()
        del G, ideal, text
        if t2 - t0 > SLOW_S:
            break
    return {
        "build_s": statistics.median(r["build_s"] for r in runs),
        "groebner_complex_s": statistics.median(r["groebner_complex_s"] for r in runs),
        "runs": runs,
        "build_peak_rss_mb": build_peak_rss_mb,
        "peak_rss_mb": peak_rss_mb,
        "cells": cells,
        "sha256": digest,
    }


def machine() -> dict:
    return {"platform": platform.platform(), "machine": platform.machine(),
            "processor": platform.processor(), "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", help="writes BENCH_<label>.json")
    ap.add_argument("--out", default=str(ROOT), help="directory of the output file")
    ap.add_argument("--one", choices=sorted(CASES), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.one:
        print(json.dumps(run_case(args.one)))
        return 0
    if not args.label:
        ap.error("--label is required")
    results = {}
    for name in CASES:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--one", name],
                              capture_output=True, text=True, check=True)
        results[name] = json.loads(proc.stdout)
        r = results[name]
        print("%-16s build %8.3f s %7.1f MB  groebner_complex %8.3f s %7.1f MB  %s"
              % (name, r["build_s"], r["build_peak_rss_mb"], r["groebner_complex_s"],
                 r["peak_rss_mb"], r["sha256"][:16]), file=sys.stderr)
    path = Path(args.out) / ("BENCH_%s.json" % args.label)
    path.write_text(json.dumps({"label": args.label, "machine": machine(), "cases": results},
                               indent=2, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
