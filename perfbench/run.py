"""Benchmark for topicxfer: three seeded workloads through the public API.

Run from the root of a checkout (the package is imported from ``src/``)::

    python3 perfbench/run.py --workload pipeline-small --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` spends half the
time on untraced operations and half on traced set-up + operation passes, and
reports the per-layer metrics.  Either way the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the full
record (environment, digests, every sample, spans) goes under
``.perfbench_run/results/``.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

# BLAS threads per workload process, at most nproc; set before numpy loads
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPS, SETUP_MIN_S, SETUP_MAX_REPS = 3, 1.0, 100
MAX_OPS = 1000
# share of a traced pass that the spans must account for; the rest is the
# benchmark's own glue between calls, reported as trace.remainder_s
MIN_COVERAGE = 0.95


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def median(values):
    return float(statistics.median(values))


def blas_info(np):
    """(name, version, threads) of the BLAS numpy uses, as far as it can tell."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    try:
        import ctypes
        import glob

        libdir = os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs")
        for lib in glob.glob(os.path.join(libdir, "*openblas*")):
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    getattr(handle, symbol).restype = ctypes.c_int
                    threads = getattr(handle, symbol)()
                    break
    except OSError:
        pass
    return blas.get("name"), blas.get("version"), threads


def environment(np, kernels, nproc):
    name, version, threads = blas_info(np)
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": name, "blas_version": version, "blas_threads": threads,
            "blas_threads_set": BLAS_THREADS, "nproc": nproc,
            "machine": platform.machine(), "kernels_backend": kernels.BACKEND}


class Run:
    """Counts and samples of one benchmark invocation."""

    def __init__(self, workload):
        self.w = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None     # digest of the first successful operation
        self.last_result = None
        self.stages = {}          # stage name -> samples, untraced operations only

    def record(self, result, error):
        """Count one operation; its result must match the first one's digest.
        Returns whether it passed."""
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.problems.append(error)
            return False
        digest = self.w.digest(result)
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self.failed += 1
            self.problems.append(f"digest {digest} differs from {self.reference}")
            return False
        self.last_result = result
        return True

    def timed(self, fn, *args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # a failing operation is counted, the run goes on
            return None, time.perf_counter() - t0, traceback.format_exc()
        return out, time.perf_counter() - t0, None

    def setups(self):
        """Set up several times; returns (the last state, every set-up time)."""
        samples = []
        state = None
        while (len(samples) < SETUP_MIN_REPS
               or (sum(samples) < SETUP_MIN_S and len(samples) < SETUP_MAX_REPS)):
            state = None  # one state at a time, so peak memory does not count two
            gc.collect()  # every set-up starts from the same collector state
            t0 = time.perf_counter()
            state = self.w.setup()
            samples.append(time.perf_counter() - t0)
        return state, samples

    def operations(self, state, seconds):
        """Timed operations until the next one would end past ``seconds``."""
        samples = []
        start = time.perf_counter()
        while len(samples) < MAX_OPS:
            self.prepare_op()
            out, dt, error = self.timed(self.w.op, state)
            if error is None:
                self.record(out[0], None)
                for name, value in out[1].items():
                    self.stages.setdefault(name, []).append(value)
            else:
                self.record(None, error)
            out = None
            samples.append(dt)
            if time.perf_counter() - start + median(samples) > seconds:
                break
        return samples

    def prepare_op(self):
        """Untimed: remove the last operation's files and drop its result, so
        neither adds to the next operation's time or peak memory."""
        self.w.clear()
        self.last_result = None
        gc.collect()

    def traced_passes(self, tracer_mod, seconds):
        """Traced set-up + operation passes; returns (per-pass tuples, spans)."""
        passes = []
        start = time.perf_counter()
        with tracer_mod.Tracer() as tracer:
            while len(passes) < MAX_OPS:
                self.prepare_op()
                mark = len(tracer.spans)
                out, wall, error = self.timed(lambda: self.w.op(self.w.setup()))
                ok = self.record(out[0] if error is None else None, error)
                out = None
                covered = tracer_mod.root_time(tracer.spans, mark)
                if ok and covered < MIN_COVERAGE * wall:
                    self.failed += 1
                    self.problems.append(f"spans cover {covered:.3f} s of a {wall:.3f} s pass")
                passes.append((wall, tracer_mod.layer_table(tracer.spans[mark:]), covered))
                if time.perf_counter() - start + median([p[0] for p in passes]) > seconds:
                    break
        return passes, tracer.spans

    def check(self):
        """Reference check of the last good result; a wrong result fails every
        operation that matched its digest."""
        if self.last_result is None:
            self.problems.append("the last operation failed; nothing to check")
            self.failed = self.attempted
            return
        problems = self.w.check(self.last_result)
        if problems:
            self.problems += problems
            self.failed = self.attempted


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "topicxfer", "__init__.py")):
        print("perfbench: no src/topicxfer here; run from the root of a topicxfer checkout",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(min(BLAS_THREADS, nproc))
    sys.path.insert(0, src)

    import numpy as np

    import tracer as tracer_mod
    import workloads
    from topicxfer import kernels

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload](args.seed)
    w.prepare()
    run = Run(w)
    detail = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(np, kernels, nproc)}

    op_seconds = args.seconds / 2 if args.trace else args.seconds
    state, setup_samples = run.setups()
    op_samples = run.operations(state, op_seconds)
    detail.update(setup_s=setup_samples, op_s=op_samples, digest=run.reference,
                  stages={name: median(v) for name, v in run.stages.items()})
    if args.trace:
        passes, spans = run.traced_passes(tracer_mod, op_seconds)
        untraced_pass_s = median(setup_samples) + median(op_samples)
        metrics = tracer_mod.per_layer_metrics(passes, untraced_pass_s)
        detail["traced_pass_s"] = [p[0] for p in passes]
    else:
        metrics = {
            "setup_s": {"value": median(setup_samples), "unit": "s"},
            "op_s": {"value": median(op_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
    run.check()
    detail.update(problems=run.problems, metrics=metrics)

    results = os.path.join(workloads.WORK_DIR, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{w.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace:
        tracer_mod.write_spans(stem + ".spans.jsonl", spans)
    for problem in run.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({"environment": detail["environment"], "digest": run.reference}))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
