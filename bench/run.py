"""Benchmark of the extbloch library: four workloads, each one caller in a
closed loop (the next operation starts when the previous one returns), in
this one process, with no threads or worker processes.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

Run from the root of a checkout; the library is imported from ./src and the
fixtures are read from ./tests/fixtures.  Inputs are generated from the seed
and every output is checked against a reference the library did not compute
(bench/oracles.py).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.

--workload all runs the four workloads one after another; peak_rss_mb is
then the process's high-water mark so far.  --trace 0 measures the
end-to-end metrics over repeated passes through one seeded set of inputs,
with every time scaled to a reference machine speed by a calibration
kernel timed between operations (see ScaledClock and end_to_end).
--trace 1 instead runs the inputs twice: once plain for --seconds/2, then
again with every traced function wrapped (bench/tracing.py), and reports
per-layer metrics per operation, in measured seconds, plus the tracing
overhead.  --smoke runs one checked operation per
workload and one traced operation, and exits non-zero on any failure.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from fractions import Fraction

import mpmath

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
MODULES = ("field", "extgroup", "bloch", "regulator", "torsion", "cochain",
           "cli")
SETUP_PER_PASS = 3         # set-ups before each pass of end_to_end
# End-to-end timings are reported at the machine speed at which the
# calibration kernel takes this long (see ScaledClock).
CALIBRATION_REFERENCE_S = 1e-3
CALIBRATION_INTERVAL_S = 0.1   # operation time between calibrations
HEAD_INPUTS = 32           # inputs hashed to identify the input stream


def environment():
    """What a result depends on besides the code: interpreter, mpmath and
    its arithmetic backend, commit, cores and CPU model."""
    env = {"python": platform.python_version(),
           "mpmath": mpmath.__version__,
           "mpmath_backend": mpmath.libmp.BACKEND,
           "commit": _commit(),
           "nproc": len(os.sched_getaffinity(0)),
           "cpu": "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return env


def _commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_library():
    """A fresh import of every extbloch module, so that each set-up pays
    for module import and starts with empty module-level caches."""
    for name in [m for m in sys.modules
                 if m == "extbloch" or m.startswith("extbloch.")]:
        del sys.modules[name]
    lib = {name: importlib.import_module(f"extbloch.{name}")
           for name in MODULES}
    if not lib["field"].__file__.startswith(SRC + os.sep):
        raise SystemExit(f"extbloch imported from {lib['field'].__file__}, "
                         f"not from {SRC}")
    return lib


def canonical(raw):
    return (json.dumps(raw, sort_keys=True, separators=(",", ":"))
            + "\n").encode()


class Loop:
    """Runs operations one after another and keeps what the metrics need."""

    def __init__(self, workload, state):
        self.workload = workload
        self.state = state
        self.latencies = []
        self.elapsed = 0.0
        self.failures = []
        self.digits = []
        self.digest = hashlib.sha256()

    def step(self, i):
        """Run, time and check input i; returns its latency in seconds."""
        w = self.workload
        raw = w.raw(i)
        self.digest.update(canonical(raw))
        args = w.prepare(self.state, raw)
        start = time.perf_counter()
        try:
            out = w.op(self.state, args)
        except Exception as exc:       # a failed operation; keep measuring
            latency = self._record(time.perf_counter() - start)
            where = traceback.format_tb(exc.__traceback__)[-1].strip()
            self.failures.append(f"input {i}: {type(exc).__name__}: {exc} "
                                 f"at {where}")
            return latency
        latency = self._record(time.perf_counter() - start)
        try:
            d = w.check(raw, out)
        except Exception as exc:       # wrong answer or unreadable output
            self.failures.append(f"input {i}: {exc}")
            return latency
        if d is not None:
            self.digits.append(d)
        return latency

    def _record(self, latency):
        self.latencies.append(latency)
        self.elapsed += latency
        return latency

    def run_count(self, count):
        for i in range(count):
            self.step(i)


def _calibration_kernel():
    """Fixed pure-Python work of the kinds the library does: big-integer
    fractions, mpmath floats at 50 digits, small dicts and tuples."""
    x, y = Fraction(123456789123, 987654321), Fraction(1)
    for k in range(60):
        y = y * x + Fraction(k + 1, 7)
        y = Fraction(y.numerator % 10 ** 40 + 1, y.denominator % 10 ** 30 + 1)
    with mpmath.mp.workdps(50):
        s = mpmath.mpf(0)
        for k in range(1, 120):
            s += mpmath.mpf(1) / (k * k)
    d = {(k, k % 7): [k] * 3 for k in range(300)}
    return y, s, len(d)


def calibrate():
    """Best of three timings of the calibration kernel, in seconds.  The
    cyclic garbage collector is off meanwhile, so that garbage left by the
    library is not charged to the kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            _calibration_kernel()
            best = min(best, time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


class ScaledClock:
    """Converts measured durations to the reference machine speed.

    A small shared host changes speed by 30-40% for seconds to minutes at a
    time (seen on a 2-vCPU Xeon VM), as other tenants come and go, and
    wall-clock medians of whole runs drift with it.  The fixed calibration
    kernel slows down with the host, so each duration is multiplied by
    CALIBRATION_REFERENCE_S over the mean of the kernel timings taken just
    before and just after it.  The kernel is part of the benchmark, so a
    change to the library moves the scaled times as much as the measured
    ones."""

    def __init__(self):
        self.last = calibrate()
        self.calibrations = [self.last]

    def scale(self, durations):
        """Scale durations measured since the last call, in seconds."""
        after = calibrate()
        self.calibrations.append(after)
        factor = 2 * CALIBRATION_REFERENCE_S / (self.last + after)
        self.last = after
        return [d * factor for d in durations]


def setup_timed(workload, clock):
    """Set up SETUP_PER_PASS times, each from a fresh import; returns the
    last state and every set-up time, measured and scaled."""
    measured, scaled = [], []
    state = None
    for _ in range(SETUP_PER_PASS):
        state = None
        start = time.perf_counter()
        state = workload.setup(import_library())
        measured.append(time.perf_counter() - start)
        scaled += clock.scale(measured[-1:])
    return state, measured, scaled


def metric(value, unit):
    return {"value": value, "unit": unit}


def timing_metrics(best, setups):
    """Throughput, latency percentiles and set-up time from per-input
    latencies and set-up times in seconds."""
    n = len(best)
    return {
        "throughput_ops_s": metric(n / sum(best), "1/s"),
        "latency_p50_ms": metric(statistics.median(best) * 1e3, "ms"),
        "latency_p90_ms": metric(
            (statistics.quantiles(best, n=10)[8] if n > 1 else best[0])
            * 1e3, "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
    }


def end_to_end(workload, seconds):
    """Time the workload's first pass_inputs inputs in passes, one after
    another, until the operations have taken `seconds`; the first pass
    always completes.  Each pass starts from fresh imports and set-ups, so
    every pass does the same work and none reuses another's caches.

    Timings are scaled to the reference speed (ScaledClock), with a
    calibration after every CALIBRATION_INTERVAL_S of operations; the
    measured ones are printed beside them.  An operation's latency is the
    best of its repetitions, as timeit reports, which drops the spikes that
    the scaling misses.  Throughput is the inverse of the mean of those
    latencies; set-up time is the median of every set-up in the run."""
    n = workload.pass_inputs
    clock = ScaledClock()
    loop = Loop(workload, None)
    setups, measured_setups = [], []
    best, measured_best = [math.inf] * n, [math.inf] * n
    passes = 0
    while passes == 0 or loop.elapsed < seconds:
        loop.state = None
        loop.state, measured, scaled = setup_timed(workload, clock)
        measured_setups += measured
        setups += scaled
        pending = []       # latencies of inputs i - len(pending) + 1 .. i
        for i in range(n):
            latency = loop.step(i)
            measured_best[i] = min(measured_best[i], latency)
            pending.append(latency)
            done = passes and loop.elapsed >= seconds
            if done or i == n - 1 or sum(pending) >= CALIBRATION_INTERVAL_S:
                for j, t in enumerate(clock.scale(pending),
                                      i + 1 - len(pending)):
                    best[j] = min(best[j], t)
                pending = []
            if done:
                break
        passes += 1
    metrics = timing_metrics(best, setups)
    metrics["peak_rss_mb"] = metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info = {"samples": n, "passes": passes,
            "operations": len(loop.latencies), "setup_repeats": len(setups),
            "inputs_sha256": input_digest(workload, n),
            "calibration_ms (min, median, max)": [
                round(f(clock.calibrations) * 1e3, 4)
                for f in (min, statistics.median, max)]}
    # reported but not in BENCHMARK.json: 0 on a correct run, or (digits)
    # undefined where a workload has no numeric identity to check
    printed = {"fail_ratio": metric(len(loop.failures)
                                    / len(loop.latencies), "ratio"),
               "min_agree_digits": metric(
                   min(loop.digits) if loop.digits else None, "digits")}
    printed.update({f"measured.{key}": m for key, m in
                    timing_metrics(measured_best, measured_setups).items()})
    return loop, loop.state, metrics, info, printed


def traced(workload, seconds):
    """Each input runs twice, plain and traced, in alternating order, until
    the plain runs have taken seconds/2 (and at least the workload's
    min_traced inputs have run, so that every layer it uses is reached)."""
    import tracing
    lib = import_library()
    state = workload.setup(lib)
    tracer = tracing.Tracer()
    plain, spans = Loop(workload, state), Loop(workload, state)
    count = 0
    while (plain.elapsed < seconds / 2
           or count < getattr(workload, "min_traced", 1)):
        for loop in ((plain, spans) if count % 2 == 0 else (spans, plain)):
            if loop is plain:
                loop.step(count)
                continue
            tracer.install(lib)
            try:
                loop.step(count)
            finally:
                tracer.uninstall()
        count += 1
    metrics, missing = tracer.summarize(count, workload.name)
    metrics["trace.overhead_pct"] = metric(
        (spans.elapsed / plain.elapsed - 1) * 100, "%")
    path = os.path.join(_outdir(), f"spans-{workload.name}.bin")
    tracer.dump(path)
    info = {"samples": count, "spans": len(tracer.start), "spans_file": path,
            "missing_spans": missing,
            "inputs_sha256": spans.digest.hexdigest()}
    return [plain, spans], state, metrics, info


def input_digest(workload, count):
    h = hashlib.sha256()
    for i in range(count):
        h.update(canonical(workload.raw(i)))
    return h.hexdigest()


def run(name, seed, seconds, trace_on):
    from workloads import WORKLOADS
    workdir = tempfile.mkdtemp(prefix="work-", dir=_outdir())
    try:
        workload = WORKLOADS[name](seed, ROOT, workdir)
        print(f"workload {name} seed {seed} seconds {seconds} "
              f"trace {int(trace_on)}")
        print("why: " + workload.why)
        print("env: " + json.dumps(environment(), sort_keys=True))
        print(f"inputs: first {HEAD_INPUTS} sha256 "
              f"{input_digest(workload, HEAD_INPUTS)}")
        printed = {}
        if trace_on:
            loops, state, metrics, info = traced(workload, seconds)
        else:
            loop, state, metrics, info, printed = end_to_end(workload,
                                                             seconds)
            loops = [loop]
        failures = [f for loop in loops for f in loop.failures]
        attempted = sum(len(loop.latencies) for loop in loops)
        for key, value in info.items():
            print(f"{key}: {value}")
        correct = not failures and not info.get("missing_spans")
        if info.get("missing_spans"):
            print("self-check FAILED: no calls recorded for "
                  + ", ".join(info["missing_spans"]))
        if hasattr(workload, "known_defects"):
            cases = workload.known_defects(state)
            for case, got, true in cases:
                verdict = "wrong" if got != true else "right"
                print(f"known defect {case}: reported (m, nu) {got}, "
                      f"true {true}: {verdict}")
            wrong = sum(got != true for _, got, true in cases)
            print(f"known_defect_wrong: {wrong}/{len(cases)} (not timed, "
                  "not counted in failed)")
        for msg in failures[:20]:
            print("FAILED " + msg)
        for key, m in {**metrics, **printed}.items():
            print(f"{name} {key} = {m['value']!r} {m['unit']}")
        return {"correct": correct, "attempted": attempted,
                "failed": len(failures), "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke():
    """One checked operation per workload, then one traced operation."""
    import tracing
    from workloads import WORKLOADS
    workdir = tempfile.mkdtemp(prefix="work-", dir=_outdir())
    failures, attempted = [], 0
    try:
        for name, cls in WORKLOADS.items():
            workload = cls(0, ROOT, workdir)
            loop = Loop(workload, workload.setup(import_library()))
            loop.run_count(1)
            attempted += 1
            failures += [f"{name}: {f}" for f in loop.failures]
            print(f"smoke {name}: {loop.latencies[0] * 1e3:.1f} ms, "
                  f"{'FAILED' if loop.failures else 'ok'}")
        workload = WORKLOADS["flag_exact"](0, ROOT, workdir)
        lib = import_library()
        state = workload.setup(lib)
        tracer = tracing.Tracer()
        tracer.install(lib)
        try:
            loop = Loop(workload, state)
            loop.run_count(1)
        finally:
            tracer.uninstall()
        attempted += 1
        _, missing = tracer.summarize(1, workload.name)
        failures += [f"traced flag_exact: {f}" for f in loop.failures]
        failures += [f"traced flag_exact: no calls of {m}" for m in missing]
        print(f"smoke traced flag_exact: {len(tracer.start)} spans, "
              f"{'FAILED' if missing or loop.failures else 'ok'}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for msg in failures:
        print("FAILED " + msg)
    return {"correct": not failures, "attempted": attempted,
            "failed": len(failures), "metrics": {}}


def _outdir():
    os.makedirs(OUT, exist_ok=True)
    return OUT


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    for path in (os.path.join(SRC, "extbloch"),
                 os.path.join(ROOT, "tests", "fixtures")):
        if not os.path.isdir(path):
            print(f"error: {path} not found; run from a checkout of the "
                  "repository", file=sys.stderr)
            return 2
    sys.path.insert(0, SRC)
    if args.smoke:
        result = smoke()
    else:
        from workloads import WORKLOADS
        if args.workload == "all":
            names = list(WORKLOADS)
        elif args.workload in WORKLOADS:
            names = [args.workload]
        else:
            parser.error("--workload must be all or one of "
                         + ", ".join(WORKLOADS))
        results = {name: run(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
        result = results[names[0]]
        if len(names) > 1:
            result = {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": {f"{name}.{key}": m
                            for name, r in results.items()
                            for key, m in r["metrics"].items()}}
    print(json.dumps(result))
    return 1 if args.smoke and not result["correct"] else 0


if __name__ == "__main__":
    sys.exit(main())
