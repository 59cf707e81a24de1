"""The tropideal benchmark: CLI workloads timed end to end, with output checks.

    python3 perfbench/run.py --workload {fan,tower,realizable,all} --seed N \
        --seconds S --trace {0,1}

Run from a checkout: the program is imported from its `src/` directory.
One process runs one workload on one thread.  It writes the seeded inputs,
then runs passes over the workload's job list, one job after another, each
job a `tropideal.cli.main(argv)` call (or one library call) with stdout and
stderr captured, until `--seconds` have passed.  Every job's exit code and
output are checked after each pass, against the checks in workloads.py and,
for seeds listed in expected.json, against the recorded sha256 of stdout.

With `--trace 0` it reports the end-to-end metrics of BENCHMARK.json:
wall_s and slowest_job_s (medians over passes), setup_s (median over
several fresh processes that import tropideal and write the inputs) and
peak_rss_mb.  With `--trace 1` passes alternate untraced and traced (see
tracing.py); it reports the per-layer metrics as medians over traced
passes, the tracing overhead, and writes the spans to .perfbench/.
`--workload all` runs each workload in its own child process in turn.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  A failure of a job marked as a known defect is counted in
`failed` but leaves `correct` true; any other failure makes it false.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROBES = 5


@dataclass
class Result:
    job: workloads.Job
    seconds: float
    exit: int
    out: str
    err: str
    problem: str | None = None


def run_job(cli, job: workloads.Job, tracer: tracing.Tracer | None) -> Result:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.begin_job(job.id) if tracer else None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if job.call is not None:
                out.write(job.call())
                code = 0
            else:
                code = cli.main(job.argv)
        except Exception:  # a crash is this job's failure; the pass goes on
            traceback.print_exc()
            code = 70
    seconds = time.perf_counter() - start
    if span:
        tracer.end_job(span)
        if job.argv is not None:
            tracer.counts["jsonio.bytes_out"] += len(out.getvalue().encode())
    result = Result(job, seconds, code, out.getvalue(), err.getvalue())
    if job.after is not None and code == job.exit:
        try:
            job.after(result.out)
        except (ValueError, KeyError, OSError) as exc:
            result.problem = "output cannot be passed on: %s" % (exc,)
    return result


def run_pass(cli, jobs: list, tracer: tracing.Tracer | None) -> tuple:
    start = time.perf_counter()
    results = [run_job(cli, job, tracer) for job in jobs]
    return time.perf_counter() - start, results


def verify(result: Result, digests: dict) -> str | None:
    """What is wrong with a job's outcome, or None."""
    job = result.job
    if result.problem:
        return result.problem
    if result.exit != job.exit:
        return "exit %d, expected %d: %s" % (result.exit, job.exit, result.err.strip()[-300:])
    if job.check is not None:
        try:
            job.check(result.out, result.err)
        except workloads.CheckFailed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError) as exc:
            return "malformed output: %r" % (exc,)
    ref = digests.get(job.id)
    if ref is not None and hashlib.sha256(result.out.encode()).hexdigest() != ref:
        return "stdout differs from the reference digest"
    return None


def setup_seconds(workload: str, seed: int, work: Path) -> float:
    """Median time of fresh processes that import tropideal and write the inputs."""
    times = []
    for k in range(SETUP_PROBES):
        probe = work / ("setup-probe-%d" % k)
        probe.mkdir()
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "workloads.py"), workload, str(seed),
                        str(probe)], check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        shutil.rmtree(probe)
    return statistics.median(times)


def run_workload(args, spec: dict) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    try:
        from tropideal import cli
    except ImportError as exc:
        sys.stderr.write("cannot import tropideal from %s: %s\n" % (ROOT / "src", exc))
        return 2
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.stderr.write("tropideal was imported from %s, not from this checkout\n"
                         % (cli.__file__,))
        return 2
    os.environ.pop("TROPIDEAL_CAP", None)  # jobs run at the default enumeration cap
    digests = json.loads((HERE / "expected.json").read_text())["seeds"].get(str(args.seed), {})
    OUT.mkdir(exist_ok=True)
    work = OUT / ("work-%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    work.mkdir()
    try:
        setup_s = setup_seconds(args.workload, args.seed, work)
        workloads.write_inputs(args.workload, args.seed, work)
        jobs = workloads.jobs(args.workload, work)
        return measure(args, spec, cli, jobs, digests, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, spec: dict, cli, jobs: list, digests: dict, setup_s: float) -> int:
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layer_runs, kept_spans = [], [], [], []
    attempted, failures = 0, {}
    deadline = time.perf_counter() + args.seconds
    while True:
        trace_this = bool(tracer) and len(plain) > len(traced)
        if trace_this:
            tracer.install()
        try:
            wall, results = run_pass(cli, jobs, tracer if trace_this else None)
        finally:
            if trace_this:
                tracer.remove()
        if trace_this:
            spans, counts = tracer.take()
            layer_runs.append(tracing.layer_metrics(spans, counts))
            kept_spans.append(spans)
            traced.append(wall)
        else:
            plain.append((wall, max(r.seconds for r in results)))
        for r in results:
            attempted += 1
            problem = verify(r, digests)
            if problem:
                failures.setdefault(r.job.id, [r.job, problem, 0])[2] += 1
        if time.perf_counter() >= deadline and (not tracer or traced):
            break

    failed = sum(n for _, _, n in failures.values())
    correct = all(job.known_defect for job, _, _ in failures.values())
    for job_id, (job, problem, n) in sorted(failures.items()):
        note = " (known defect: %s)" % job.known_defect if job.known_defect else ""
        sys.stderr.write("FAIL %s x%d%s: %s\n" % (job_id, n, note, problem))

    wall_s = statistics.median(w for w, _ in plain)
    if tracer:
        values = {name: statistics.median(run[name] for run in layer_runs)
                  for name in layer_runs[0]}
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_s"] = values["trace.wall_s"] - wall_s
        listed = spec["per_layer"]
        write_spans(args, kept_spans)
    else:
        values = {"wall_s": wall_s,
                  "slowest_job_s": statistics.median(s for _, s in plain),
                  "setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}

    print("workload %s, seed %d: %d jobs a pass; untraced pass walls %s s; traced %s s"
          % (args.workload, args.seed, len(jobs), _fmt(w for w, _ in plain), _fmt(traced)))
    for name, metric in metrics.items():
        print("  %-40s %14.6g %s" % (name, metric["value"], metric["unit"]))
    print("  %-40s %14.6g (%d of %d jobs)" % ("fail_ratio", failed / attempted, failed,
                                              attempted))
    if tracer:
        for name in ("polyhedra.self_s", "groebner.self_s", "ideals.self_s", "matroids.self_s",
                     "jsonio.parse_s", "jsonio.emit_s", "ideals.check_compatibility.s"):
            print("  %-40s %13.1f%%" % ("share of traced wall: " + name,
                                        100 * values[name] / values["trace.wall_s"]))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _fmt(seconds) -> str:
    return "[%s]" % ", ".join("%.3f" % s for s in seconds)


def write_spans(args, passes: list) -> None:
    path = OUT / ("spans-%s-seed%d.jsonl" % (args.workload, args.seed))
    with path.open("w") as fh:
        for k, spans in enumerate(passes):
            for name, start, end, parent, job in spans:
                fh.write(json.dumps({"pass": k, "job": job, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def run_all(args) -> int:
    summary, status = {}, 0
    for workload in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        summary[workload] = json.loads(lines[-1])
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return run_workload(args, spec)


if __name__ == "__main__":
    sys.exit(main())
