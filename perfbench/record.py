"""Record the reference stdout digests in expected.json.

    python3 perfbench/record.py SEED [SEED ...]

Runs one untraced pass of every workload per seed and stores the sha256 of
each job's stdout, refusing to record when any job fails its exit-code or
output check.  Jobs marked as known defects get no digest, because their
current output is wrong.  Run it only at a commit whose outputs are meant
to become the reference.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import sys

import run
import workloads


def main(seeds: list) -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    from tropideal import cli

    path = run.HERE / "expected.json"
    expected = json.loads(path.read_text())
    run.OUT.mkdir(exist_ok=True)
    for seed in seeds:
        digests = {}
        for workload in workloads.WORKLOADS:
            work = run.OUT / ("record-%s-%d" % (workload, seed))
            work.mkdir()
            try:
                workloads.write_inputs(workload, seed, work)
                _, results = run.run_pass(cli, workloads.jobs(workload, work), None)
            finally:
                shutil.rmtree(work)
            for r in results:
                problem = run.verify(r, {})
                if r.job.known_defect:
                    continue
                if problem:
                    sys.stderr.write("not recording: %s fails: %s\n" % (r.job.id, problem))
                    return 1
                digests[r.job.id] = hashlib.sha256(r.out.encode()).hexdigest()
        expected["seeds"][str(seed)] = digests
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
