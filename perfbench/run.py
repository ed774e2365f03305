"""amdet benchmark: one workload per process, closed loop, checked outputs.

    python3 perfbench/run.py --workload kfold-c16 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; amdet is imported from ``src/`` there. The
workload inputs are made from ``--seed``. With ``--trace 0`` the run sets up
several times, then repeats the workload's operation back to back for about
``--seconds`` and reports the end-to-end metrics named in BENCHMARK.json.
With ``--trace 1`` it times a few untraced operations, installs the span
tracer (perfbench/tracing.py), sets up twice and runs at least two operations
traced, and reports the per-layer metrics plus the tracing overhead. The
last line of stdout is the result object; the line before it carries the
environment, every operation's time and every failed check. Both also go to
``.perfbench/results/``; a traced run writes its spans to
``.perfbench/traces/``.

BLAS is pinned to one thread: on a two-core box two threads ran only about
10% faster with about four times the run-to-run spread.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:                 # must precede the numpy import
    os.environ[_var] = str(BLAS_THREADS)

import argparse                          # noqa: E402
import contextlib                        # noqa: E402
import json                              # noqa: E402
import platform                          # noqa: E402
import resource                          # noqa: E402
import shutil                            # noqa: E402
import statistics                        # noqa: E402
import sys                               # noqa: E402
import tempfile                          # noqa: E402
import time                              # noqa: E402
import traceback                         # noqa: E402
from pathlib import Path                 # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3        # set-up time is the median of this many set-ups
TRACED_SETUPS = 2        # two, so set-up counts can be compared
MIN_OPS = 2              # the second operation checks determinism


def load_program() -> float:
    """Import numpy and this checkout's amdet; returns the seconds taken."""
    started = time.perf_counter()
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(HERE)]
    import numpy  # noqa: F401
    import amdet
    if Path(amdet.__file__).resolve().parent != src / "amdet":
        raise ImportError(f"amdet imported from {amdet.__file__}, "
                          f"not from {src}")
    import workloads  # noqa: F401
    return time.perf_counter() - started


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu, "seed": seed,
    }


def run_ops(workload, state, seconds: float, workdir: Path, min_ops: int,
            reference: bytes | None = None, tracer=None):
    """Run operations back to back until the next would end past ``seconds``.

    Each operation is checked after it is timed; a check that fails or an
    exception counts it as failed and the loop goes on. Returns the
    per-operation records and the reference fingerprint.
    """
    def phase(name):
        return tracer.root(name) if tracer else contextlib.nullcontext()

    records = []
    started = time.perf_counter()
    while True:
        out_dir = Path(tempfile.mkdtemp(dir=workdir))
        result, problems = None, []
        with phase("op"):
            t0 = time.perf_counter()
            try:
                result = workload.run(state, out_dir)
            except Exception:
                problems.append(traceback.format_exc())
            elapsed = time.perf_counter() - t0
        if result is not None:
            with phase("check"):
                try:
                    problems += workload.check(state, result, out_dir)
                except Exception:
                    problems.append(traceback.format_exc())
            if reference is None and not problems:
                reference = result.fingerprint
            elif reference is not None and result.fingerprint != reference:
                problems.append("result differs from the first operation "
                                "on this seed")
        shutil.rmtree(out_dir)
        records.append({
            "seconds": elapsed,
            "accuracy": None if result is None else result.accuracy,
            "planted_top4_hits":
                None if result is None else result.planted_top4_hits,
            "problems": problems,
        })
        typical = statistics.median(r["seconds"] for r in records)
        if len(records) >= min_ops and \
                time.perf_counter() - started + typical > seconds:
            return records, reference


def _median_of(records, key: str) -> float:
    ok = [r for r in records if not r["problems"]] or records
    values = [r[key] for r in ok if r[key] is not None]
    return statistics.median(values) if values else 0.0


def measure(workload, seed: int, seconds: float, workdir: Path,
            import_s: float) -> tuple[dict, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - t0)
    records, _ = run_ops(workload, state, seconds, workdir, MIN_OPS)
    experiment_s = _median_of(records, "seconds")
    failed = sum(bool(r["problems"]) for r in records)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "experiment_s": experiment_s,
        "samples_per_s": workload.samples_per_op(state) / experiment_s,
        "accuracy": _median_of(records, "accuracy"),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "success_ratio": 1 - failed / len(records),
    }
    return metrics, {"import_s": import_s, "setup_runs_s": setups,
                     "operations": records}


def measure_traced(workload, seed: int, seconds: float, workdir: Path,
                   trace_file: Path) -> tuple[dict, dict]:
    from tracing import Tracer

    state = workload.setup(seed, workdir)
    untraced, reference = run_ops(workload, state, seconds / 3, workdir, 1)
    tracer = Tracer()
    tracer.install()
    try:
        for _ in range(TRACED_SETUPS):
            with tracer.root("setup"):
                state = workload.setup(seed, workdir)
        traced, _ = run_ops(workload, state, 2 * seconds / 3, workdir,
                            MIN_OPS, reference, tracer)
    finally:
        tracer.uninstall()

    # counts must repeat exactly between traced set-ups and between
    # traced operations
    by_phase: dict[str, list[dict]] = {}
    for counts in tracer.exact_counts().values():
        by_phase.setdefault(counts.pop("phase"), []).append(counts)
    for phase in ("setup", "op"):
        runs = by_phase.get(phase, [])
        if any(c != runs[0] for c in runs[1:]):
            traced[-1]["problems"].append(
                f"exact counts differ between traced {phase} runs")

    metrics = tracer.per_layer()
    metrics["trace.overhead"] = (_median_of(traced, "seconds")
                                 / _median_of(untraced, "seconds"))
    metrics["attribution.planted_top4_hits"] = _median_of(
        traced, "planted_top4_hits")
    tracer.dump(trace_file)
    return metrics, {"untraced_operations": untraced,
                     "operations": traced,
                     "spans": len(tracer.spans),
                     "trace_file": str(trace_file.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="small: the reduced inputs the benchmark's own "
                             "tests use")
    args = parser.parse_args(argv)

    try:
        import_s = load_program()
    except ImportError as e:
        print(f"perfbench: cannot import the program: {e}", file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload][args.size]()

    out = ROOT / ".perfbench"
    for sub in ("work", "results", "traces"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = Path(tempfile.mkdtemp(prefix=stem + "-", dir=out / "work"))
    try:
        if args.trace:
            metrics, detail = measure_traced(
                workload, args.seed, args.seconds, workdir,
                out / "traces" / f"{stem}.json")
        else:
            metrics, detail = measure(workload, args.seed, args.seconds,
                                      workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = spec["per_layer" if args.trace else "end_to_end"]
    ops = detail["operations"] + detail.get("untraced_operations", [])
    failed = sum(bool(r["problems"]) for r in ops)
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]),
                                "unit": m["unit"]} for m in declared},
    }
    detail = {"workload": args.workload, "size": args.size,
              "env": environment(args.seed),
              "accuracy": _median_of(detail["operations"], "accuracy"),
              **detail}
    (out / "results" / f"{stem}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
