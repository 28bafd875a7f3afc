"""One set-up or one measured run of a workload, in a process of its own.
``run.py`` starts it; it prints one JSON object as its last stdout line.

    python3 perfbench/worker.py setup   --workload W --seed S --work DIR --trace T
    python3 perfbench/worker.py measure --workload W --seed S --work DIR --trace T \\
        --seconds X [--traced-seconds Y]

``setup`` times imports, scenario loading, design and (for ``replay``) the
block dump, from the first line of this file.  ``measure`` repeats the
set-up without the dump, runs one warm-up operation, then operations
untraced for ``--seconds`` and traced for ``--traced-seconds``.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def blas_info(package):
    """Vendor of a package's BLAS, and the threads its bundled OpenBLAS
    reports (numpy and scipy each ship their own)."""
    try:
        blas = package.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        vendor = None
    threads = None
    for path in glob.glob(os.path.dirname(package.__file__) + ".libs/*openblas*"):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            func = getattr(lib, sym, None)
            if func is not None:
                func.restype = ctypes.c_int
                threads = func()
                break
    return {"vendor": vendor, "threads": threads}


def l3_bytes():
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            if Path(index, "level").read_text().strip() == "3":
                size = Path(index, "size").read_text().strip()
                return int(size.rstrip("K")) * 1024 if size.endswith("K") else int(size)
        except (OSError, ValueError):
            return None
    return None


def environment(args, wl):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "numpy_blas": blas_info(numpy),
        "scipy_blas": blas_info(scipy),
        "blas_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ
        },
        "sweep_workers": wl.workers if wl.name == "sweep" else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "l3_bytes": l3_bytes(),
        "workload_seed": args.seed,
        "output_dir": wl.output_note,
    }


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("phase", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--traced-seconds", type=float, default=0.0)
    args = parser.parse_args()

    t = time.perf_counter()
    import jafs.cli  # noqa: F401  (pulls in every layer)

    import_s = time.perf_counter() - t

    import layers
    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload](ROOT, Path(args.work), args.seed)
    tracer = tracing.Tracer()

    if args.phase == "setup":
        if args.trace:
            layers.instrument(tracer)
        with tracer.span("setup") if args.trace else nullcontext():
            counters = wl.setup(dump=True)
        result = {"setup_s": time.perf_counter() - T0, "import_s": import_s}
        if args.trace:
            result["layers"] = layers.layer_values(tracer.take(), counters, wl.workers)
        print(json.dumps(result))
        return

    wl.setup(dump=False)
    next_op = 0

    def one():
        nonlocal next_op
        t = time.perf_counter()
        try:
            ok, blocks = wl.run_op(next_op)
        except Exception:
            traceback.print_exc()
            ok, blocks = False, 0
        next_op += 1
        return {"s": time.perf_counter() - t, "ok": bool(ok), "blocks": blocks if ok else 0}

    def run_pass(seconds, traced):
        ops, per_op_layers, per_op_spans = [], [], []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            if traced:
                with tracer.span("op"):
                    ops.append(one())
                spans = tracer.take()
                per_op_spans.append(tracing.summarize(spans))
                per_op_layers.append(
                    layers.layer_values(spans, wl.op_counters(), wl.workers)
                )
            else:
                ops.append(one())
        result = {"ops": ops, "wall_s": time.perf_counter() - start}
        if traced:
            result["layers"] = per_op_layers
            result["spans"] = per_op_spans
        return result

    result = {
        "import_s": import_s,
        "env": environment(args, wl),
        "warmup": one(),
        "untraced": run_pass(args.seconds, traced=False),
    }
    if args.trace:
        layers.instrument(tracer)
        result["traced"] = run_pass(args.traced_seconds, traced=True)
        tracer.restore()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
