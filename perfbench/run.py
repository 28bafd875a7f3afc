"""Benchmark entry point for ``jafs``.

    python3 perfbench/run.py --workload {flagship,replay,sweep} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each set-up and each measured run is a
separate ``worker.py`` process, with the machine's default BLAS threading,
so peak RSS belongs to that workload alone.  The set-up is repeated
``SETUP_REPEATS`` times and ``setup_s`` is its median.

With ``--trace 0`` the measured process runs operations untraced for S
seconds and the end-to-end metrics are reported.  With ``--trace 1`` it
runs S/2 seconds untraced, then S/2 traced, and a second process repeats
the workload with one BLAS thread as the single-threaded reference; the
per-layer metrics are reported.  Human-readable lines come first; the last
stdout line is the JSON result.  Full details (environment, every
operation time, the per-span table) go to
``.perfbench_run/<workload>-seed<N>-trace<T>.json``.

See perfbench/README.md for why each workload exists and what each
per-layer metric should move.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
REQUIRED = (
    "BENCHMARK.json",
    "src/jafs/__init__.py",
    "scenarios/mra36_q71.scenario",
    "scenarios/smoke.scenario",
)
SETUP_REPEATS = 5
DEADLINE_S = 170
SINGLE_THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# tail percentile per workload; None reports the maximum, for workloads
# whose runs hold too few operations (about 20 to 25 in 30 s) for p75 to
# have ten samples beyond it
TAIL_PERCENTILE = {"flagship": None, "replay": 90, "sweep": None}

# counters derived from shapes or counted calls; they repeat exactly
COMPUTED = {
    "simulate.generated_mb",
    "simulate.kept_mb",
    "simulate.kept_ratio",
    "estimate.gram_flops",
    "scenario.export_bytes",
    "geometry.ruler_calls",
    "model.rank_report_calls",
}


class ChildFailed(RuntimeError):
    pass


def child(args, deadline, env=None):
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildFailed(f"out of time before starting worker {args[0]}")
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
            env=env,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"worker {args[0]} timed out")
    if proc.returncode != 0:
        raise ChildFailed(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values, pct):
    """Nearest-rank percentile ``pct`` when at least ten samples lie
    beyond it, else the maximum; with its label."""
    v = sorted(values)
    n = len(v)
    if pct is not None and n * (100 - pct) / 100 >= 10:
        return v[math.ceil(pct / 100 * n) - 1], f"p{pct} of {n} ops"
    return v[-1], f"max of {n} ops"


def op_times(run):
    return [op["s"] for op in run["ops"]]


def end_to_end(workload, setups, m):
    untraced = m["untraced"]
    times = op_times(untraced)
    tail_s, tail_label = tail(times, TAIL_PERCENTILE[workload])
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "blocks_per_s": sum(op["blocks"] for op in untraced["ops"]) / untraced["wall_s"],
        "peak_rss_mb": m["rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups",
        "op_s.p50": f"median of {len(times)} ops",
        "op_s.tail": tail_label,
        "blocks_per_s": f"over {untraced['wall_s']:.1f} s",
    }
    return values, notes


def per_layer(names, setups, m, single):
    """Median over traced operations; a metric the operations never touch
    (replay's simulation, done in set-up) takes the traced set-ups' median,
    and one neither touches reads 0."""
    values = {
        "cli.import_s": statistics.median(s["import_s"] for s in setups),
        "trace.overhead_s": statistics.median(op_times(m["traced"]))
        - statistics.median(op_times(m["untraced"])),
        "blas1.op_s.p50": statistics.median(op_times(single["untraced"])),
        "blas1.estimate.angular_s": statistics.median(
            d["estimate.angular_s"] for d in single["traced"]["layers"]
        ),
    }
    notes = {"cli.import_s": "set-up", "trace.overhead_s": "traced minus untraced op_s.p50"}
    op_layers = m["traced"]["layers"]
    for key in names:
        if key in values:
            continue
        v = statistics.median(d.get(key, 0) for d in op_layers)
        if v == 0:
            v = statistics.median(s["layers"].get(key, 0) for s in setups)
            notes[key] = "set-up" if v else "not exercised"
        values[key] = v
    for key in COMPUTED:
        notes[key] = ("computed, " + notes[key]) if key in notes else "computed"
    return values, notes


def span_table(m):
    """Per span name, medians over traced operations."""
    per_op = m["traced"]["spans"]
    names = sorted({name for op in per_op for name in op})
    table = {}
    for name in names:
        rows = [op.get(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "peak_mb": 0.0}) for op in per_op]
        table[name] = {
            field: statistics.median(r[field] for r in rows)
            for field in ("calls", "incl_s", "self_s", "peak_mb")
        }
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a jafs checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = ROOT / ".perfbench_run"
    work = runs / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--work", str(work),
              "--trace", str(args.trace)]
    single = None
    try:
        setups = [child(["setup", *common], deadline) for _ in range(SETUP_REPEATS)]
        if args.trace:
            half = str(args.seconds / 2)
            m = child(["measure", *common, "--seconds", half, "--traced-seconds", half], deadline)
            quarter = str(args.seconds / 4)
            single = child(
                ["measure", *common, "--seconds", quarter, "--traced-seconds", quarter],
                deadline,
                env={**os.environ, **SINGLE_THREAD_ENV},
            )
            values, notes = per_layer([d["name"] for d in declared], setups, m, single)
        else:
            m = child(["measure", *common, "--seconds", str(args.seconds)], deadline)
            values, notes = end_to_end(args.workload, setups, m)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = [m["warmup"], *m["untraced"]["ops"], *m.get("traced", {}).get("ops", [])]
    if single:
        ops += [single["warmup"], *single["untraced"]["ops"], *single["traced"]["ops"]]
    failed = sum(not op["ok"] for op in ops)

    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": m["env"],
        "warmup_s": m["warmup"]["s"],
        "op_s": op_times(m["untraced"]),
        "fail_ratio": failed / len(ops),
        "metrics": metrics,
        "notes": notes,
    }
    if args.trace:
        details["spans"] = span_table(m)
        details["single_thread_env"] = single["env"]
    (runs / f"{tag}.json").write_text(json.dumps(details, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("env " + json.dumps(m["env"]))
    if args.trace:
        print(f"{'span':34s} {'calls':>6s} {'incl_s':>10s} {'self_s':>10s} {'peak_mb':>9s}")
        for name, row in details["spans"].items():
            print(f"{name:34s} {row['calls']:6g} {row['incl_s']:10.5f} "
                  f"{row['self_s']:10.5f} {row['peak_mb']:9.2f}")
    for name, metric in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:28s} {metric['value']:.6g} {metric['unit']}{note}")
    print(f"{'fail_ratio':28s} {details['fail_ratio']:.6g} ratio  ({failed} of {len(ops)} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
