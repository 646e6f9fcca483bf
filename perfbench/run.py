"""Run the tokzip benchmark and print its metrics.

    python3 perfbench/run.py --workload doc576 --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --seed 1      # every workload, one process each

Run from the repository root; the program is imported from ``src/``. The load
is a closed loop: one client in one process sends the next document only
after the previous one has completed. Set-up (import, input generation and
writing, warm-up and oracle verification) is untimed by the loop and reported
as ``setup_s``. With ``--trace 0`` the last stdout line carries the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it carries the
per-layer metrics, taken from a traced half of the run, and the other half
runs untraced to give the tracing overhead. Each run leaves its record and
spans under ``.perfbench/results/``.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Set-up minus the oracle pass is repeated and its median taken; the oracle
# pass (about 2 s per N=2304 crop, pure Python) runs once.
SETUP_REPEATS = 3
# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10


def blas_threads():
    """BLAS thread pin: the usable cores, at most 2."""
    return min(2, len(os.sched_getaffinity(0)))


def import_seconds():
    """Time `import tokzip` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import tokzip; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, check=True, timeout=120)
    return float(done.stdout)


def environment(args, pin):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        vendor = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": vendor,
        "blas_threads": pin,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
    }


def closed_loop(workload, handle, digest, seconds, tracer=None):
    """Send the document again and again for `seconds`; check each output digest."""
    latencies, windows, failed, attempted = [], {}, 0, 0
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        if tracer is not None:
            tracer.doc = attempted
        start = time.perf_counter_ns()
        try:
            output = workload.run(handle)
        except Exception:  # a failed document counts in fail_ratio; the loop goes on
            end = time.perf_counter_ns()
            traceback.print_exc()
            ok = False
        else:
            end = time.perf_counter_ns()
            ok = workload.digest(output) == digest
            del output
            if not ok:
                print(f"document {attempted}: output digest differs from the verified one",
                      file=sys.stderr)
        windows[attempted] = (start, end)
        attempted += 1
        if ok:
            latencies.append((end - start) / 1e6)
        else:
            failed += 1
    busy_s = sum(end - start for start, end in windows.values()) / 1e9
    return {
        "attempted": attempted,
        "failed": failed,
        "latencies_ms": latencies,
        "windows": windows,
        "docs_per_s": len(latencies) / busy_s,
    }


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with TAIL_BEYOND
    samples beyond it, or the maximum when too few samples put that above the median."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n >= 2 * TAIL_BEYOND:
        return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND
    return ordered[-1], 100.0, 0


def run_workload(args, spec, pin):
    import numpy as np

    import spans
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{args.workload}_seed{args.seed}_trace{args.trace}"
    try:
        repeated, handle = [], None
        for _ in range(SETUP_REPEATS):
            handle = None  # free the previous inputs before building new ones
            shutil.rmtree(workdir, ignore_errors=True)
            imported = import_seconds()
            start = time.perf_counter()
            handle = workload.make_inputs(args.seed, workdir)
            repeated.append(imported + time.perf_counter() - start)
        start = time.perf_counter()
        output = workload.run(handle)
        digest = workload.digest(output)
        crops = workload.check(handle, output, np.random.default_rng(args.seed))
        del output
        setup_s = statistics.median(repeated) + time.perf_counter() - start

        if args.trace:
            plain = closed_loop(workload, handle, digest, args.seconds / 2)
            tracer = spans.Tracer()
            with tracer:
                loop = closed_loop(workload, handle, digest, args.seconds / 2, tracer)
            probe = spans.Tracer(memory=True)
            with probe:
                workload.run(handle)
            values = spans.layer_metrics(
                [m["name"] for m in spec["per_layer"]], tracer.spans, loop["windows"],
                probe.spans, (plain["docs_per_s"], loop["docs_per_s"]))
            metric_spec = spec["per_layer"]
            loop["attempted"] += plain["attempted"]
            loop["failed"] += plain["failed"]
            with open(f"{stem}_spans.jsonl", "w") as f:
                for s in tracer.spans:
                    f.write(json.dumps(s._asdict()) + "\n")
        else:
            loop = closed_loop(workload, handle, digest, args.seconds)
            value, percentile, beyond = tail(loop["latencies_ms"] or [float("nan")])
            values = {
                "docs_per_s": loop["docs_per_s"],
                "latency_p50_ms": statistics.median(loop["latencies_ms"] or [float("nan")]),
                "latency_tail_ms": value,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "setup_s": setup_s,
                "ok_ratio": 1 - loop["failed"] / loop["attempted"],
            }
            metric_spec = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    record = {
        "environment": environment(args, pin),
        "crops": crops,
        "output_sha256": digest,
        "setup_repeats_s": repeated,
        "latencies_ms": loop["latencies_ms"],
        "fail_ratio": loop["failed"] / loop["attempted"],
        "metrics": metrics,
    }
    if not args.trace:
        record["tail"] = {"percentile": percentile, "samples": len(loop["latencies_ms"]),
                          "samples_beyond": beyond}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print("environment " + json.dumps(record["environment"]))
    for c in crops:
        d = "-" if c["d"] is None else f"{c['d']:.4f}"
        print(f"{c['image_id']:<7} N={c['N']} d={d} R={c['R']}")
    print(f"output_sha256 {digest}")
    if not args.trace:
        print(f"latency tail at p{percentile:.1f} of {len(loop['latencies_ms'])} documents, "
              f"{beyond} beyond it")
    print(f"fail_ratio {record['fail_ratio']} ratio ({loop['failed']}/{loop['attempted']})")
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = loop["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": loop["attempted"],
                      "failed": loop["failed"], "metrics": metrics}))
    return 0 if correct else 1


def run_all(args, spec):
    """Each workload in its own process, so peak RSS is per workload."""
    status = 0
    summary = {}
    for w in spec["workloads"]:
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(f"== {w['name']}\n{done.stdout}", end="", flush=True)
        status = status or done.returncode
        lines = done.stdout.strip().splitlines()
        summary[w["name"]] = json.loads(lines[-1]) if done.returncode == 0 and lines else None
    print(json.dumps(summary))
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tokzip" / "__init__.py").is_file():
        print(f"error: no tokzip sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(names)}")

    # Pin BLAS threads before numpy is first imported; children inherit the pin.
    pin = blas_threads()
    for var in BLAS_ENV:
        os.environ[var] = str(pin)
    sys.path.insert(0, str(SRC))
    return run_workload(args, spec, pin)


if __name__ == "__main__":
    sys.exit(main())
