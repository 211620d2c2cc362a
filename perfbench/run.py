"""meshmoe benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory and from nowhere else.  `--trace 0` measures the
end-to-end metrics with nothing patched.  `--trace 1` runs the fixed
schedule traced, untraced, then traced again, and reports the per-layer
metrics, the tracing overhead and whether the exact counters repeated.
Human-readable lines come first, then one `record` line holding the
environment, digest and every metric, and last the result object.
Spans of traced runs are written under `.bench_out/`.
"""

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# --- environment record ------------------------------------------------------

def blas_runtime_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            query = getattr(lib, symbol, None)
            if query is not None:
                query.restype = ctypes.c_int
                return query()
    return None


def git_commit(root: str):
    """HEAD commit read from .git, or None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: str) -> str:
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(src, "meshmoe", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def environment(args) -> dict:
    import numpy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(ROOT), "source_sha256": source_digest(SRC),
    }


# --- the two kinds of run --------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(workload, seed: int, seconds: float, scratch: str) -> dict:
    from workloads import end_to_end, run_job, timed_setups
    # set-up is timed before and after the steps: the machine's speed drifts
    # over seconds, and one short burst of set-ups sees a single phase of it
    before, before_wall, built = timed_setups(workload, seed, scratch)
    job = run_job(workload, built, seed, seconds, scratch)
    after, after_wall, _ = timed_setups(workload, seed, scratch)
    metrics, notes = end_to_end(job, statistics.median(before + after),
                                statistics.median(before_wall + after_wall),
                                peak_rss_mb())
    return {
        "metrics": metrics, "notes": notes, "digest": job.digest,
        "attempted": len(job.step_times) + job.extra_attempted + built.checks,
        "failed": (sum(f > 0 for f in job.step_failures) + job.extra_failed
                   + built.checks_failed),
    }


def run_traced(workload, seed: int, scratch: str, spans_path: str,
               header: dict) -> dict:
    from spans import Tracer, exact_counts, layer_metrics
    from workloads import run_job, setup

    def traced_job():
        tracer = Tracer()
        with tracer.install():
            built = setup(workload, seed, scratch, tracer)
            return tracer, built, run_job(workload, built, seed, 0.0, scratch, tracer)

    # the untraced job runs between the traced ones, so that neither side
    # alone pays for the process's first steps
    first = traced_job()
    base = run_job(workload, setup(workload, seed, scratch), seed, 0.0, scratch)
    traced = [first, traced_job()]
    tracers = [tracer for tracer, _, _ in traced]
    jobs = [job for _, _, job in traced]
    attempted = failed = 0
    for tracer, built, job in traced:
        bad_steps = {i for i, f in enumerate(job.step_failures) if f}
        bad_steps |= {r for r, n in tracer.violations.items() if n}
        attempted += len(job.step_times) + job.extra_attempted + built.checks
        failed += len(bad_steps) + job.extra_failed + built.checks_failed

    counts = [exact_counts(t) for t in tracers]
    digests = {base.digest} | {job.digest for job in jobs}
    # one more operation each: the counters and the results repeat exactly
    attempted += 2
    failed += (counts[0] != counts[1]) + (len(digests) != 1)
    overhead = (statistics.median(t for j in jobs for t in j.scaled_times)
                / statistics.median(base.scaled_times))
    metrics, notes = layer_metrics(tracers, overhead)
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for index, tracer in enumerate(tracers):
            tracer.write(fh, job=index)
    notes["counters_repeat"] = counts[0] == counts[1]
    notes["exact_counts"] = counts[0]
    notes["spans"] = os.path.relpath(spans_path, ROOT)
    return {"metrics": metrics, "notes": notes, "digest": base.digest,
            "attempted": attempted, "failed": failed}


# --- entry point -------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "meshmoe", "__init__.py")):
        print(f"error: meshmoe sources not found under {SRC}", file=sys.stderr)
        return 2
    # the BLAS pool is sized when numpy loads, so this precedes every import
    os.environ["OPENBLAS_NUM_THREADS"] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    sys.path.insert(0, SRC)
    import meshmoe
    if os.path.dirname(os.path.abspath(meshmoe.__file__)) != os.path.join(SRC, "meshmoe"):
        print(f"error: meshmoe imported from {meshmoe.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    env = environment(args)
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.trace:
            spans_path = os.path.join(
                OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            result = run_traced(workload, args.seed, scratch, spans_path, env)
        else:
            result = run_untraced(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = result["metrics"]
    width = max(len(name) for name in metrics)
    print(f"meshmoe benchmark  workload={args.workload}  seed={args.seed}  "
          f"trace={args.trace}  blas_threads={env['blas_threads']}  "
          f"nproc={env['nproc']}")
    for name, (value, unit) in metrics.items():
        note = result["notes"].get(name)
        print(f"  {name:<{width}}  {value:.6g} {unit}"
              + (f"  ({note})" if note else ""))
    for name, note in result["notes"].items():
        if name not in metrics:
            print(f"  {name}: {note}")
    print(f"  failed_share  {result['failed'] / result['attempted']:.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(json.dumps({"record": {**env, "digest": result["digest"],
                                 "notes": result["notes"],
                                 "failed": result["failed"],
                                 "attempted": result["attempted"],
                                 "metrics": {n: v for n, (v, _) in metrics.items()}}}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
