"""limitalg benchmark: run one workload for one seed and print its metrics.

Run from the repository root:

    python3 bench/run.py --workload regularity --seed 1 --seconds 15 --trace 0

Workloads: regularity, census, zigzag, cli-mix (see workloads.py for what
each one stresses and why). A run is a closed loop with one client: the
next operation starts when the previous one has returned. It repeats whole
rounds of the seeded operation list until ``--seconds`` have passed and at
least 100 operations were timed, then prints one line per metric and, as
the last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` runs the same rounds untraced and then traced, and reports
the per-layer metrics of the traced pass plus ``trace.overhead_ratio``.
Every operation, warm-ups included, is checked by its oracle; a wrong
verdict, a failed certificate, an unexpected exception, a wrong CLI exit
code or CLI bytes that differ from the recorded digest count as failed.

Results, with the size parameters of every input and the environment,
go to ``.bench_out/<workload>-seed<seed>-trace<t>.json``; a traced run
also writes its spans next to it.

For steadiness on a shared machine BLAS runs single-threaded, glibc's
mmap threshold is pinned (``fix_mmap_threshold``) and the timed loop stays
on the least disturbed vCPU (``CorePicker``).
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

_START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

MIN_OPS = 100
SETUPS = 3          # set-up is repeated and its median reported
HARD_CAP_S = 60.0   # a timed loop never runs longer, so a run ends in time
BLAS_THREADS = 1    # single-threaded BLAS: steadier on a shared machine
SETTLE_EVERY_S = 0.5  # how often the timed loop may move to another vCPU

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "success_ratio": "ratio",
    "setup_s": "s",
}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_bytes", "bytes_out")):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def per_layer_units(tracing) -> dict:
    """Per-layer metrics of a traced run that go into the final JSON line.

    Function and layer times are printed and written to the results file
    for every run, but only times that are non-zero on every workload are
    listed here: a function a workload never calls reads 0 s on every run.
    """
    names = [f"{layer}.{fn}.calls"
             for layer, fns in tracing.TRACED.items() for fn in fns]
    for layer in tracing.LAYERS:
        names += [f"{layer}.calls", f"{layer}.errors"]
    names += ["homs.self_s", "detect.census_candidates",
              "detect.census_hit_ratio", "detect.kernel_rows",
              "detect.kernel_params", "detect.kernel_u_bytes",
              "homs.envelope_units", "homs.sweep_pairs", "spectrum.pairs",
              "spectrum.paths", "io.bytes_out", "trace.overhead_ratio",
              "trace.spans"]
    return {name: unit_of(name) for name in names}


def environment() -> dict:
    import numpy as np
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    threads = None
    libs = os.path.join(os.path.dirname(np.__file__), "..", "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
    nproc = len(os.sched_getaffinity(0))
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": threads, "blas_threads_requested": BLAS_THREADS,
            "nproc": nproc, "machine": platform.machine()}


def fix_mmap_threshold() -> bool:
    """Pin glibc's mmap threshold at its default, 128 KiB.

    Left dynamic, glibc raises the threshold after the first large free;
    how much heap the seeded operation order then leaves behind moved peak
    RSS by about 10% between seeds. Pinned, every large array is mapped
    and unmapped on its own, so peak RSS follows the largest live set.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
    except OSError:
        return False
    m_mmap_threshold = -3
    return bool(libc.mallopt(m_mmap_threshold, 128 * 1024))


class CorePicker:
    """Keeps the timed loop on the vCPU where a fixed probe runs fastest.

    Co-tenants load the vCPUs of a shared machine unevenly and in phases
    of a few seconds to half a minute: one CLI call read 48 ms in one
    phase and 79 ms in the next, and two vCPUs change phase
    independently. Before an operation, at most every ``SETTLE_EVERY_S``
    seconds, the run moves to the vCPU that ran the probe fastest. The
    probe runs outside the timed region.
    """

    def __init__(self):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.last = float("-inf")
        self.probe_ms = []  # fastest probe of each settle, a machine record

    def _probe(self, cpu: int) -> float:
        os.sched_setaffinity(0, {cpu})
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            acc = 0
            for i in range(20000):
                acc += i * i
            best = min(best, time.perf_counter() - start)
        return best

    def settle(self, force: bool = False) -> None:
        recent = time.perf_counter() - self.last < SETTLE_EVERY_S
        if len(self.cpus) < 2 or (recent and not force):
            return
        probes = {cpu: self._probe(cpu) for cpu in self.cpus}
        fastest = min(probes, key=probes.get)
        os.sched_setaffinity(0, {fastest})
        self.probe_ms.append(round(1e3 * probes[fastest], 3))
        self.last = time.perf_counter()


class Tally:
    """Oracle outcomes of every operation a run executes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, op, reason) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append({"kind": op.kind, "reason": reason})


def execute(op, tally: Tally, tracer=None) -> float:
    """Run one operation, check it outside the timed region, return its
    wall time in seconds."""
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # an unexpected exception is a failed operation
        result, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.active = False
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"oracle raised {type(exc).__name__}: {exc}"
    tally.record(op, error)
    return elapsed


def warm_up(ops, tally: Tally) -> None:
    """Run one operation of every size class, so first-touch page faults
    and lazy library set-up are paid before timing."""
    seen = set()
    for op in ops:
        if op.kind not in seen:
            seen.add(op.kind)
            execute(op, tally)


def timed_rounds(ops, tally, seconds, min_ops, picker, rounds=None,
                 tracer=None):
    """Whole rounds until the time and count floors are met (or exactly
    ``rounds`` rounds); returns the latencies of each round."""
    per_round = []
    start = time.perf_counter()
    while True:
        latencies = []
        per_round.append(latencies)
        for op in ops:
            picker.settle()
            latencies.append(execute(op, tally, tracer))
            if time.perf_counter() - start > HARD_CAP_S:
                return per_round
        done = sum(len(r) for r in per_round)
        if rounds is not None:
            if len(per_round) >= rounds:
                return per_round
        elif time.perf_counter() - start >= seconds and done >= min_ops:
            return per_round


def set_up(workloads, name, seed, tiny, workdir, tally, picker):
    picker.settle(force=True)
    start = time.perf_counter()
    ops = workloads.build(name, seed, tiny=tiny, workdir=workdir)
    warm_up(ops, tally)
    return ops, time.perf_counter() - start


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False, min_ops: int = MIN_OPS,
            scratch: str = OUT) -> dict:
    """One benchmark run; returns the full result record. CLI workspace
    files go to a fresh directory under ``scratch``, removed at the end."""
    import tracing
    import workloads
    import_s = time.perf_counter() - _START
    tally = Tally()
    picker = CorePicker()
    workdir = os.path.join(scratch, f"work-{name}-{seed}-{os.getpid()}")
    try:
        setups = []
        for _ in range(1 if trace else SETUPS):
            ops, took = set_up(workloads, name, seed, tiny, workdir, tally,
                               picker)
            setups.append(took)
        record = {"workload": name, "seed": seed, "seconds": seconds,
                  "trace": int(trace), "environment": environment(),
                  "round": [{"kind": op.kind, **op.sizes} for op in ops]}
        if trace:
            record.update(_traced(tracing, ops, tally, seconds, min_ops,
                                  picker))
        else:
            record.update(_untraced(ops, tally, seconds, min_ops, picker,
                                    import_s + statistics.median(setups)))
        record["setup_runs_s"] = setups
        record["probe_ms"] = picker.probe_ms
        record["import_s"] = import_s
    finally:
        os.sched_setaffinity(0, picker.cpus)
        shutil.rmtree(workdir, ignore_errors=True)
    record.update({"correct": tally.failed == 0 and tally.attempted > 0,
                   "attempted": tally.attempted, "failed": tally.failed,
                   "failures": tally.failures})
    return record


def _untraced(ops, tally, seconds, min_ops, picker, setup_s) -> dict:
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    per_round = timed_rounds(ops, tally, seconds, min_ops, picker)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    lat = [x for r in per_round for x in r]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
    # every round runs the same operations in the same order; the median
    # wall time of each operation across the rounds, summed over the
    # round, is the time of a round at its usual speed. Co-tenant load
    # slows the machine in phases of seconds to tens of seconds, so a
    # round-level or whole-loop figure moves with how much of the run a
    # slow phase covered; a per-operation median does not.
    typical = [statistics.median(r[i] for r in per_round if i < len(r))
               for i in range(len(per_round[0]))]
    metrics = {
        "throughput_ops_s": len(typical) / sum(typical),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * p90,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": 1.0 - tally.failed / tally.attempted,
        "setup_s": setup_s,
    }
    return {"metrics": {k: {"value": v, "unit": END_TO_END[k]}
                        for k, v in metrics.items()},
            "latency_samples": len(lat), "rounds": len(per_round),
            "round_s": [sum(r) for r in per_round],
            "round_latencies_s": per_round,
            "samples_beyond_p90": sum(1 for x in lat if x > p90),
            "minor_faults_per_round": faults / len(per_round),
            "timed_s": sum(lat)}


def _traced(tracing, ops, tally, seconds, min_ops, picker) -> dict:
    # the untraced pass fixes the number of rounds; the traced pass repeats
    # exactly those operations, so the wall-time ratio is the overhead
    plain = timed_rounds(ops, tally, seconds / 2, min_ops // 2, picker)
    rounds = len(plain)
    plain = [x for r in plain for x in r]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [x for r in timed_rounds(ops, tally, 0, 0, picker,
                                          rounds=rounds, tracer=tracer)
                  for x in r]
    finally:
        tracer.uninstall()
    left = tracing.leftover_wrappers()
    if left:
        raise RuntimeError(f"wrappers left on {left}")
    layer = tracer.summary()
    layer["trace.overhead_ratio"] = sum(traced) / sum(plain)
    units = per_layer_units(tracing)
    return {"metrics": {k: {"value": layer[k], "unit": units[k]}
                        for k in units},
            "per_layer_all": {k: {"value": v, "unit": unit_of(k)}
                              for k, v in sorted(layer.items())},
            "rounds": rounds, "untraced_s": sum(plain),
            "traced_s": sum(traced), "spans": tracer.span_rows()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "limitalg", "__init__.py")):
        print(f"limitalg sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    pinned = fix_mmap_threshold()
    sys.path.insert(0, SRC)
    import limitalg
    if not os.path.abspath(limitalg.__file__).startswith(SRC + os.sep):
        print(f"limitalg imported from {limitalg.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {workloads.WORKLOADS}")
    os.makedirs(OUT, exist_ok=True)
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    record["environment"]["mmap_threshold_pinned"] = pinned
    stem = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if "spans" in record:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(record.pop("spans"), fh)
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    shown = record.get("per_layer_all", record["metrics"])
    for k, m in shown.items():
        print(f"{k} = {m['value']:.6g} {m['unit']}")
    for k in ("latency_samples", "samples_beyond_p90", "rounds"):
        if k in record:
            print(f"{k} = {record[k]} count")
    for f in record["failures"]:
        print(f"FAILED {f['kind']}: {f['reason']}")
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
