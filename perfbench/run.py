"""homcalc benchmark: one workload, one process, one client.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Run from the repository root.  The workload's tasks go through the public
API (``build_problem``, then ``run_tasks`` one task at a time) in a closed
loop with one client and no threads.  A pass is a fresh import of
``homcalc`` (module-level caches start cold, as in a new CLI process),
``build_problem`` for every problem, then every task.  Passes repeat as
long as the next one would end within ``--seconds`` (at least two).
Every answer is checked after its pass, outside the timed region (see
``gate.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs one
untraced and one traced pass and prints the per-layer metrics (see
``tracer.py``), with the spans written to ``.perfbench_out/``.  The last
line of standard output is the JSON result.
"""

import os

# one BLAS/OpenMP thread in the process that runs the workload; set before
# numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)

import gate  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 5       # extra set-ups timed before each pass, for setup_s
TAIL_BEYOND = 10     # task_tail_ms: samples that must lie above the tail
CAL_REF_S = 0.0005   # reference time of one calibration slice
TICK_S = 0.05        # interval of the calibration slices inside a step
AROUND = 3           # calibration slices just before and after a step
MIN_PASSES = 2

# calibration slice: a fixed product of two dense bivariate polynomials in
# dicts keyed by exponent tuples, mod 32003, the shape of homcalc's inner
# loops.  It never touches homcalc, so a change to the program cannot
# change it.
_CAL_P = 32003
_CAL_POLY = {(i, j): (7 * i + 3 * j + 1) % _CAL_P
             for i in range(6) for j in range(6)}


def cal_slice():
    """Seconds one calibration slice takes now."""
    t0 = time.perf_counter()
    out = {}
    for (a, b), c in _CAL_POLY.items():
        for (d, e), k in _CAL_POLY.items():
            key = (a + d, b + e)
            out[key] = (out.get(key, 0) + c * k) % _CAL_P
    return time.perf_counter() - t0


class Speedometer:
    """Times steps, and their times at the machine's reference speed.

    This shared machine runs the same code up to twice as fast at one
    moment as at another, in spells from seconds to minutes.  A
    calibration slice measures the speed at the moment it runs.  AROUND
    slices run before and after each step, and a timer signal runs one
    every TICK_S seconds inside it.  A step's time is its wall time less the
    slices inside it; its time at the reference speed is that, scaled by
    CAL_REF_S over the mean of the slices around and inside it."""

    def __init__(self):
        self.slices = []
        self.spent = 0.0    # seconds spent in slices

    def _slice(self, *_):
        d = cal_slice()
        self.slices.append(d)
        self.spent += d

    def time(self, fn):
        """(fn(), seconds, seconds at the reference speed)"""
        first = len(self.slices)
        for _ in range(AROUND):
            self._slice()
        spent = self.spent
        old = signal.signal(signal.SIGALRM, self._slice)
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, old)
        seconds = t1 - t0 - (self.spent - spent)
        for _ in range(AROUND):
            self._slice()
        speed = statistics.fmean(self.slices[first:])
        return result, seconds, seconds * CAL_REF_S / speed


def fresh_import():
    """Import homcalc anew, so module-level state starts empty."""
    for name in [n for n in sys.modules
                 if n == "homcalc" or n.startswith("homcalc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return importlib.import_module("homcalc.cli")


def set_up(docs, hook=None):
    """Import and build every problem; returns (cli, problems)."""
    cli = fresh_import()
    if hook is not None:
        hook()
    return cli, [cli.build_problem(doc, default_bound=10) for doc in docs]


def run_pass(docs, meter, hook=None):
    """One timed pass: set-up, then every task in order.  It starts from a
    collected heap, as a new process would.  "norm_*" are times at the
    reference speed (see Speedometer)."""
    gc.collect()
    (cli, problems), setup, norm_setup = meter.time(
        lambda: set_up(docs, hook))
    latencies, norm, entries = [], [], []
    for p in problems:
        rows = []
        for idx, task in enumerate(p.tasks):
            one = cli.Problem(p.name, p.field_desc, p.qr, p.modules,
                              p.complexes, p.maps, [task])
            report, t, n = meter.time(
                lambda: cli.run_tasks(one, default_bound=10, seed=0))
            latencies.append(t)
            norm.append(n)
            entry = report["entries"][0]
            entry["index"] = idx
            rows.append(entry)
        entries.append(rows)
    return {"wall": setup + sum(latencies),
            "norm_wall": norm_setup + sum(norm), "setup": setup,
            "norm_setup": norm_setup, "latencies": latencies,
            "norm_latencies": norm, "entries": entries, "problems": problems,
            "cli": cli}


def check(workload, docs, ps, reference, n):
    """Gate pass n and drop its problems, which later passes need not keep
    alive; returns {(n, problem, task index): reason} for wrong answers."""
    oracle = importlib.import_module("homcalc.oracle")
    bad = gate.check_pass(workload, docs, ps.pop("problems"), ps["entries"],
                          reference, ps.pop("cli").has_fail, oracle)
    return {(n,) + where: why for where, why in bad.items()}


def tail(latencies):
    """(value, percentile): the highest percentile with TAIL_BEYOND samples
    above it."""
    xs = sorted(latencies)
    i = max(len(xs) - TAIL_BEYOND - 1, 0)
    return xs[i], 100.0 * (i + 1) / len(xs)


def end_to_end(workload, docs, seconds, reference):
    start = time.perf_counter()
    meter = Speedometer()
    setups, passes, failures = [], [], {}
    while True:
        cycle = time.perf_counter()
        for _ in range(SETUP_REPS):
            gc.collect()
            setups.append(meter.time(lambda: set_up(docs))[2])
        passes.append(run_pass(docs, meter))
        failures.update(check(workload, docs, passes[-1], reference,
                               len(passes) - 1))
        now = time.perf_counter()
        # start no pass that would end after --seconds, past MIN_PASSES
        if (len(passes) >= MIN_PASSES
                and now - start + (now - cycle) > seconds):
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = sum(len(ps["latencies"]) for ps in passes)
    setups += [ps["norm_setup"] for ps in passes]
    # each task's latency is the median of its samples, one per pass; the
    # percentiles are taken over the tasks
    per_task = [statistics.median(xs) for xs in
                zip(*(ps["norm_latencies"] for ps in passes))]
    tail_value, tail_pct = tail(per_task)
    wall = statistics.mean(ps["norm_wall"] for ps in passes)
    metrics = {
        "wall_s": (wall, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "task_p50_ms": (1000 * statistics.median(per_task), "ms"),
        "task_tail_ms": (1000 * tail_value, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    cal = meter.slices
    print(f"passes: {len(passes)}, {len(per_task)} tasks each; measured "
          "wall " + ", ".join(f"{ps['wall']:.3f}" for ps in passes)
          + " s; at reference speed "
          + ", ".join(f"{ps['norm_wall']:.3f}" for ps in passes)
          + f" s; set-ups timed: {len(setups)}")
    print(f"calibration slices: {len(cal)}, median "
          f"{1000 * statistics.median(cal):.4f} ms, fastest "
          f"{1000 * min(cal):.4f} ms, reference {1000 * CAL_REF_S:.4f} ms")
    print(f"task_tail_ms is p{tail_pct:.1f} of {len(per_task)} task "
          f"latencies ({TAIL_BEYOND} above it), each the median of "
          f"{len(passes)} samples")
    return metrics, attempted, failures, []


def traced(workload, docs, reference, seed):
    from tracer import Tracer, layer_metric_names

    meter = Speedometer()
    plain = run_pass(docs, meter)
    failures = check(workload, docs, plain, reference, 0)
    tr = Tracer()
    traced_pass = run_pass(docs, meter, hook=tr.install)
    # read the tracer before the gate, whose oracle calls would add spans
    layer = tr.metrics()
    uncovered = tr.uncovered(workload, layer)
    os.makedirs(OUT, exist_ok=True)
    tr.write(os.path.join(OUT, f"spans-{workload}-seed{seed}.npz"))
    if uncovered:
        print("tracer self-check FAILED: no call recorded for "
              + ", ".join(uncovered))
    overhead = traced_pass["norm_wall"] - plain["norm_wall"]
    print(f"tracing overhead at reference speed: traced wall "
          f"{traced_pass['norm_wall']:.3f} s - untraced wall "
          f"{plain['norm_wall']:.3f} s = {overhead:.3f} s (measured: "
          f"{traced_pass['wall']:.3f} s - {plain['wall']:.3f} s)")
    failures.update(check(workload, docs, traced_pass, reference, 1))
    attempted = len(plain["latencies"]) + len(traced_pass["latencies"])
    for rows_p, rows_t, doc in zip(plain["entries"], traced_pass["entries"],
                                   docs):
        for p, t in zip(rows_p, rows_t):
            if gate.canonical(p) != gate.canonical(t):
                failures.setdefault((1, doc["name"], t["index"]),
                                    "traced answer differs from untraced")
    metrics = {name: (layer[name], _unit(name)) for name in
               layer_metric_names()}
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["failed_frac"] = (len(failures) / attempted, "ratio")
    return metrics, attempted, failures, uncovered


def _unit(name):
    stat = name.rsplit(".", 1)[1]
    return {"self_s": "s", "total_s": "s", "repeat_frac": "ratio",
            "kept_frac": "ratio"}.get(stat, "count")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "homcalc", "cli.py")):
        print(f"error: no homcalc sources under {SRC}; run from the root "
              f"of a homcalc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    reference = gate.load_reference(args.workload)

    corpus_mod = importlib.import_module("homcalc.corpus")
    docs = workloads.WORKLOADS[args.workload](corpus_mod.corpus_problems,
                                              args.seed)
    print(f"workload {args.workload}, seed {args.seed}: {len(docs)} "
          f"problems, {sum(len(d['tasks']) for d in docs)} tasks")
    if args.workload == "random-complexes":
        for d in docs:
            print(f"  ring {d['name']}: {d['field']} "
                  f"{d['ring']['relations']} M=R/({d['modules']['M']['cyclic'][0]})"
                  f" f={d['maps']['f']['multiply']}"
                  f" bound={d['complexes']['X']['bound']}")

    if args.trace:
        run = traced(args.workload, docs, reference, args.seed)
    else:
        run = end_to_end(args.workload, docs, args.seconds, reference)
    metrics, attempted, failures, uncovered = run
    failed = len(failures)
    print(f"failed_frac: {failed / attempted:.6f} ({failed} of {attempted} "
          f"task answers)")
    for (n, name, idx), why in sorted(failures.items())[:20]:
        print(f"  pass {n} {name}[{idx}]: {why}")
    result = {
        "correct": not failures and not uncovered,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
