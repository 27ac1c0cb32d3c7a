"""Repository benchmark: one workload per process, metrics as one JSON line.

    python3 bench/run.py --workload mc_ccdf --seed 1 --seconds 15 --trace 0

Run it from the root of a checkout: the library is imported from the
checkout's own `src/` and nowhere else.  `--trace 0` prints the end-to-end
metrics of BENCHMARK.json; `--trace 1` runs the same loop with every other
cycle traced and prints the per-layer metrics.  Human-readable lines come
first; the last line of standard output is the result object.  A run's
environment, metrics and counts are also written under `.bench_out/`.
See bench/README.md for the workloads and metrics.
"""

import time

T0 = time.perf_counter()   # set-up is timed from here, before numpy loads

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_SAMPLES = 5          # set-ups per run: this process plus four children
# Time of the calibration kernel on an idle 2-core Xeon VM: one calibrated second
# ("cal_s") is the time in which that VM runs the kernel 1 / CAL_REF_S times.
CAL_REF_S = 0.010
MIN_CALLS = 100            # leaves at least ten calls beyond the p90 latency
CAL_EVERY_S = 0.25         # timed seconds between calibrations
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")
NPROC = len(os.sched_getaffinity(0))
# Units of the end-to-end metrics.  Calibrated times are in seconds of the
# reference machine, "cal_s" (see Calibration); setup_s is calibrated too,
# but keeps the plain "s" that the result contract asks of it.
E2E_UNITS = {"ops_per_s": "1/cal_s", "latency_p50_ms": "cal_ms", "latency_p90_ms": "cal_ms",
             "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
RAW_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}


def cap_threads() -> None:
    """Cap BLAS and OpenMP pools at nproc; must precede the numpy import."""
    for var in THREAD_VARS:
        if not os.environ.get(var, "").isdigit() or int(os.environ[var]) > NPROC:
            os.environ[var] = str(NPROC)


def fix_malloc_thresholds() -> None:
    """Fix glibc's mmap threshold at the largest value its own adaptation
    reaches (32 MB), and the trim threshold at twice that.  Left adaptive,
    they settle in each process on values that depend on the order of
    earlier frees, so that the same workload took 0 to about 400 page
    faults per call from one run to the next, and its speed moved with
    them.  A no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return
    mallopt(-3, 32 << 20)     # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)     # M_TRIM_THRESHOLD


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("mc_ccdf", "rician_model", "preamble_design"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set the workload up, print its set-up time and exit")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def load_library():
    """Import fbmc_preamble from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "fbmc_preamble" / "__init__.py").is_file():
        print(f"error: {src}/fbmc_preamble not found; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    import fbmc_preamble
    from fbmc_preamble import analysis, cli, prototype, sequences, waveform
    if Path(fbmc_preamble.__file__).resolve().parent != src / "fbmc_preamble":
        print(f"error: imported {fbmc_preamble.__file__}, not the checkout's copy",
              file=sys.stderr)
        sys.exit(2)
    return types.SimpleNamespace(pkg=fbmc_preamble, sequences=sequences,
                                 prototype=prototype, waveform=waveform,
                                 analysis=analysis, cli=cli)


def setup_probe(args) -> float:
    """Set-up time of a fresh process of the same workload."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def source_digest() -> str:
    """SHA-256 over the library and benchmark sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": NPROC,
        "cpu_model": cpu_model(), "thread_caps": {v: os.environ[v] for v in THREAD_VARS},
        "git_revision": git_revision(), "source_sha256": source_digest(),
    }


def current_cpu() -> str:
    """The CPU this process last ran on, or "" where /proc does not say."""
    try:
        return Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[36]
    except (OSError, IndexError):
        return ""


class Calibration:
    """The calibration kernel of calibrate.py, in a child process that lives
    as long as the run.  Call times are rescaled by CAL_REF_S / (the
    kernel's time), so that the machine's drifting speed, which other
    tenants set, cancels out."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, str(HERE / "calibrate.py")],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)

    def __call__(self) -> float:
        """Best of five timings of the kernel, in seconds, on the CPU this
        process last ran on."""
        self._proc.stdin.write(current_cpu() + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError(f"calibration process ended with code {self._proc.wait()}")
        return float(line)

    def close(self) -> None:
        self._proc.stdin.close()
        self._proc.wait(timeout=60)
        self._proc.stdout.close()


class Record(NamedTuple):
    ops: int          # operations in the call
    passed: int       # operations that passed the output check
    seconds: float    # uncalibrated duration of the call
    traced: bool
    cal: int          # index of the last calibration before the call


def check(workload, call, result) -> int:
    """Operations of one call that passed its output check."""
    if isinstance(result, Exception):
        return 0
    try:
        return workload.check(call, result)
    except Exception:                     # a check that cannot run is a failure
        return 0


def run_loop(workload, args, tracer, lib, calibrate):
    """Closed loop over whole cycles until --seconds of timed calls and at
    least MIN_CALLS calls.  With tracing, odd cycles are traced.  The
    calibration kernel runs before the first call, after the last, and
    between calls whenever CAL_EVERY_S of timed calls have passed.  Each
    cycle's outputs are checked after the cycle, untimed and untraced, and
    then dropped, so memory does not grow with the run.  Returns the
    records, the calibrations and the traced cycles' span ranges."""
    import spans as tr
    records, cals, ranges = [], [calibrate()], []
    timed = since_cal = 0.0
    root_id = tracer.name(tr.ROOT_SPAN) if tracer is not None else None
    cycle = 0
    while timed < args.seconds or len(records) < MIN_CALLS or (tracer is not None and cycle < 2):
        traced = tracer is not None and cycle % 2 == 1
        undo = tr.install(tracer, lib) if traced else None
        first_span = len(tracer) if traced else 0
        outputs = []
        for call in workload.cycle():
            if since_cal >= CAL_EVERY_S:
                cals.append(calibrate())
                since_cal = 0.0
            sid = tracer.open(root_id) if traced else None
            t = time.perf_counter()
            try:
                result = workload.call(call)
            except Exception as exc:      # a failed operation, counted below
                result = exc
            dt = time.perf_counter() - t
            if traced:
                tracer.close(sid, error=isinstance(result, Exception))
            outputs.append((call, result, dt, len(cals) - 1))
            timed += dt
            since_cal += dt
        if traced:
            tr.uninstall(undo)
            ranges.append((first_span, len(tracer)))
        records += [Record(workload.ops(call), check(workload, call, result), dt, traced, k)
                    for call, result, dt, k in outputs]
        cycle += 1
    cals.append(calibrate())
    return records, cals, ranges


def same_work_guard(args, counts_per_cycle: list[dict], digest: str) -> tuple[bool, str]:
    """The exact-repeat counts must agree between the traced cycles of this
    run and with the last traced run of the same sources."""
    counts = counts_per_cycle[0]
    if any(c != counts for c in counts_per_cycle[1:]):
        return False, f"same-work counts differ between cycles: {counts_per_cycle}"
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"same-work-{args.workload}.json"
    if path.is_file():
        prev = json.loads(path.read_text())
        if prev["source_sha256"] == digest and prev["counts"] != counts:
            return False, f"same-work counts {counts} differ from an earlier run: {prev['counts']}"
    path.write_text(json.dumps({"source_sha256": digest, "counts": counts}, indent=1) + "\n")
    return True, ""


def main(argv=None) -> int:
    args = parse_args(argv)
    cap_threads()
    fix_malloc_thresholds()
    lib = load_library()
    sys.path.insert(0, str(HERE))
    import numpy as np
    import spans as tr
    from workloads import WORKLOADS

    setup_tracer = tr.Tracer() if args.trace else None
    undo = tr.install(setup_tracer, lib) if setup_tracer is not None else None
    workload = WORKLOADS[args.workload](lib, np.random.default_rng(args.seed))
    setup_s = time.perf_counter() - T0
    if undo:
        tr.uninstall(undo)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    calibrate = Calibration()
    try:
        setup_times, setup_cals = [setup_s], [calibrate()]
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_times.append(setup_probe(args))
                setup_cals.append(calibrate())
        tracer = tr.Tracer() if args.trace else None
        records, cals, span_ranges = run_loop(workload, args, tracer, lib, calibrate)
    finally:
        calibrate.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(r.ops for r in records)
    failed = attempted - sum(r.passed for r in records)
    correct, problems = failed == 0, []
    if failed:
        problems.append(f"{failed} of {attempted} operations failed their output check")

    # Calibrated seconds: each call is rescaled by the calibrations around it.
    scale = [2.0 * CAL_REF_S / (a + b) for a, b in zip(cals, cals[1:])]
    cal_dt = [r.seconds * scale[r.cal] for r in records]

    def rate(traced: bool, dts) -> float:
        sel = [(r.ops, dt) for dt, r in zip(dts, records) if r.traced == traced]
        return sum(n for n, _ in sel) / sum(dt for _, dt in sel)

    def end_to_end(dts, setup) -> dict:
        lat_ms = [dt * 1e3 for dt, r in zip(dts, records) if not r.traced]
        return {
            "ops_per_s": rate(False, dts),
            "latency_p50_ms": float(np.percentile(lat_ms, 50)),
            "latency_p90_ms": float(np.percentile(lat_ms, 90)),
            "setup_s": setup,
            "peak_rss_mb": peak_rss_mb,
            "ok_frac": (attempted - failed) / attempted,
        }

    e2e = end_to_end(cal_dt, statistics.median(setup_times) * CAL_REF_S
                     / statistics.median(setup_cals))
    raw = end_to_end([r.seconds for r in records], statistics.median(setup_times))
    digest = source_digest()
    latency_samples = sum(1 for r in records if not r.traced)
    extra = {"latency_samples": latency_samples, "calls": len(records),
             "timed_s": sum(r.seconds for r in records), "setup_s_samples": setup_times,
             "setup_calibrations_s": setup_cals, "calibrations_s": cals,
             "failed_frac": failed / attempted,
             "minor_page_faults": resource.getrusage(resource.RUSAGE_SELF).ru_minflt,
             "uncalibrated": {k: {"value": v, "unit": RAW_UNITS[k]} for k, v in raw.items()}}

    if args.trace:
        traced_ops = sum(r.ops for r in records if r.traced)
        overhead = rate(False, cal_dt) / rate(True, cal_dt) - 1.0
        metrics = tr.layer_metrics(tr.SpanTable(tracer), tr.SpanTable(setup_tracer),
                                   traced_ops, overhead)
        per_cycle = [tr.same_work_counts(tr.SpanTable(tracer, first, last),
                                         traced_ops // len(span_ranges))
                     for first, last in span_ranges]
        ok, why = same_work_guard(args, per_cycle, digest)
        if not ok:
            correct = False
            problems.append(why)
        units = {name: unit for name, (unit, _) in tr.PER_LAYER.items()}
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"trace-{args.workload}.npz")
    else:
        result_metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    env = environment(args)
    print(f"# env {json.dumps(env)}")
    print(f"# {args.workload}: {len(records)} calls ({latency_samples} untraced latency "
          f"samples), {attempted} operations, {extra['timed_s']:.2f} s timed")
    print(f"# {'metric':<20s} {'calibrated':>22s} {'uncalibrated':>22s}")
    for name, value in e2e.items():
        print(f"# {name:<20s} {value:14.6g} {E2E_UNITS[name]:<7s} "
              f"{raw[name]:14.6g} {RAW_UNITS[name]}")
    print(f"# {'failed_frac':<20s} {extra['failed_frac']:14.6g} frac")
    if args.trace:
        for name, m in result_metrics.items():
            print(f"# {name:<36s} {m['value']:14.6g} {m['unit']}")
    for why in problems:
        print(f"error: {why}", file=sys.stderr)

    OUT_DIR.mkdir(exist_ok=True)
    record = {"env": env, "metrics": result_metrics,
              "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
              **extra, "correct": correct, "attempted": attempted, "failed": failed}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
