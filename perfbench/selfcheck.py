"""Check that the traced run's counts are deterministic.

    python3 perfbench/selfcheck.py [workload ...]

Runs the traced run of each workload (all three by default) twice, under
PYTHONHASHSEED=1 and PYTHONHASHSEED=12345, and requires every count
(``*.calls`` and the size counters) to come out identical.  Each traced
run also checks itself: traced answers must equal untraced ones, and every
wrapped function must record a call on the workload meant to exercise it.
Exits 1 on any difference or failed run.
"""

import json
import os
import subprocess
import sys

import run
import workloads

COUNT_STATS = ("calls", "terms_in", "basis_out", "syz_out", "cols_in",
               "cols_out", "kept_frac", "unsolvable", "repeat_frac")


def traced_counts(workload, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         workload, "--seed", str(workloads.DEV_SEED), "--seconds", "1",
         "--trace", "1"],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if k.rsplit(".", 1)[-1] in COUNT_STATS}
    return result["correct"], counts


def main(names):
    ok = True
    for workload in names or sorted(workloads.WORKLOADS):
        (c1, a), (c2, b) = traced_counts(workload, 1), \
            traced_counts(workload, 12345)
        diff = sorted(k for k in a if a[k] != b.get(k))
        ok = ok and c1 and c2 and not diff
        print(f"{workload}: correct={c1 and c2}, {len(a)} counts, "
              f"{'identical' if not diff else 'differ: ' + ', '.join(diff)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
