"""Benchmark entry point, run from the root of a source checkout:

    python3 bench/run.py --workload certify --seed 1 --seconds 15 --trace 0

One single-threaded closed loop: one caller, the next call sent only after
the previous one returned, for ``--seconds`` seconds.  Outputs are checked
afterwards by independent oracles; a wrong output makes the run exit 1.
With ``--trace 0`` the last stdout line carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  Lines before it
are the same numbers for people, the raw wall-clock ones too, plus input
properties.

End-to-end times are calibrated.  While calls run, a wall-clock timer
interrupts the caller every CALIBRATION_PERIOD seconds to time a fixed
reference kernel for a few runs; that time is taken out of the call it
interrupted.  Each call's time is scaled by REFERENCE_S / (mean kernel time
sampled during and just around the call).  The shared machine's speed drifts
by tens of percent within seconds; the kernel drifts with it, so the scaled
figures move with the program, not with the machine.
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_PROBES = 5
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail
# The reference kernel's time on the 2-core Xeon machine that set the scale,
# so calibrated seconds are close to wall seconds there.
REFERENCE_S = 2e-4
CALIBRATION_PERIOD = 0.1  # seconds between kernel samples
CALIBRATION_RUNS = 10  # kernel runs per sample: 2 % of the time


def reference_kernel() -> None:
    """Fixed pure-Python work, float lists and integer arithmetic like the
    package's, that never touches the package."""
    y = [1.0 + i for i in range(64)]
    for _ in range(10):
        top = max(y)
        y = [v / top + 0.5 for v in y]
    acc = 0
    for i in range(1500):
        acc += (i * i) & 7


def reference_time(budget: float) -> tuple[float, int]:
    """Run the kernel at least once and until ``budget`` seconds are spent;
    return the time spent and the number of runs."""
    clock = time.perf_counter
    spent, runs = 0.0, 0
    while runs == 0 or spent < budget:
        t = clock()
        reference_kernel()
        spent += clock() - t
        runs += 1
    return spent, runs


class Calibrator:
    """Samples the reference kernel on a wall-clock timer (SIGALRM, in the
    caller's own thread) while it is active.  ``paused`` is the time spent
    in samples, which the caller takes out of the calls they interrupted."""

    def __init__(self):
        self.times: list[float] = []  # when each sample started
        self.kernel: list[float] = []  # seconds per kernel run in each sample
        self.paused = 0.0

    def _sample(self, signum, frame) -> None:
        clock = time.perf_counter
        t = clock()
        for _ in range(CALIBRATION_RUNS):
            reference_kernel()
        self.times.append(t)
        self.kernel.append((clock() - t) / CALIBRATION_RUNS)
        self.paused += clock() - t

    def __enter__(self):
        self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_PERIOD, CALIBRATION_PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample(None, None)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean kernel time of the samples taken from
        one period before ``start`` to one period after ``end``, or of the
        two samples nearest the call when none was."""
        lo = bisect.bisect_left(self.times, start - CALIBRATION_PERIOD)
        hi = bisect.bisect_right(self.times, end + CALIBRATION_PERIOD)
        if lo == hi:
            lo, hi = max(lo - 1, 0), lo + 1
        return REFERENCE_S / statistics.fmean(self.kernel[lo:hi])


def _import_package() -> None:
    """Put the checkout's own sources first on the path, or fail."""
    if not (ROOT / "src" / "factor_spectra" / "__init__.py").is_file():
        sys.exit(f"error: no package sources under {ROOT / 'src'}; run from a source checkout")
    sys.path.insert(0, str(ROOT / "src"))


def measure(workload, seconds: float | None = None, count: int | None = None):
    """Serve calls until ``seconds`` have passed and a round is complete, or
    exactly ``count`` calls.  Returns the calls, the calibrated per-item
    latency of each call, and the wall and calibrated time spent in calls."""
    calls, spans = [], []
    clock = time.perf_counter
    with Calibrator() as cal:
        t0 = clock()
        i = 0
        while (clock() - t0 < seconds or not workload.round_start(i)) if count is None else (i < count):
            paused = cal.paused
            t = clock()
            call = workload.call(i)
            end = clock()
            spans.append((t, end, end - t - (cal.paused - paused)))
            calls.append(call)
            i += 1
    busy = calibrated = 0.0
    latencies = []
    for call, (start, end, dt) in zip(calls, spans):
        dt_cal = dt * cal.scale(start, end)
        busy += dt
        calibrated += dt_cal
        latencies.append(dt_cal / max(call.items, 1))
    return calls, latencies, busy, calibrated


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest-ranked sample with TAIL_BEYOND samples above it (the
    maximum when there are fewer), and its 1-based rank."""
    ordered = sorted(samples)
    rank = len(ordered) - TAIL_BEYOND if len(ordered) > TAIL_BEYOND else len(ordered)
    return ordered[rank - 1], rank


def setup_seconds(args) -> list[tuple[float, float]]:
    """Time fresh processes from spawn until their inputs are ready; each
    probe then times the reference kernel for its calibration scale."""
    samples = []
    for _ in range(SETUP_PROBES):
        t = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - t
            scale = probe.stdout.read()
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {line!r}, exit {probe.returncode}")
        samples.append((elapsed, float(scale)))
    return samples


def untraced_seconds(args, count: int) -> float:
    """Calibrated time of exactly ``count`` untraced calls in a fresh process."""
    out = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed), "--calls", str(count)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    )
    return float(out.stdout.split()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("certify", "explore", "spectral-sparse", "crossval"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--calls", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    _import_package()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        spent, runs = reference_time(0.05)
        print(REFERENCE_S * runs / spent)
        return 0
    if args.calls is not None:
        _, _, _, calibrated = measure(workload, count=args.calls)
        print(calibrated)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        calls, latencies, busy, calibrated = measure(workload, seconds=args.seconds)
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outputs = [c.output for c in calls]
    errors = workload.check(outputs)
    attempted = sum(c.items for c in calls)
    failed = sum(c.failed for c in calls)
    lines = [
        f"workload {args.workload} seed {args.seed}: {len(calls)} calls, {attempted} items "
        f"in {busy:.3f} s wall, calibration scale {calibrated / busy:.4f}"
    ]

    if tracer:
        metrics = {name: (value, "s" if name.endswith("_s") else "count") for name, value in tracer.metrics().items()}
        for name in ("criticality.critical_ratio", "factors.found_ratio"):
            metrics[name] = (metrics[name][0], "ratio")
        metrics["trace.overhead_ratio"] = (calibrated / untraced_seconds(args, len(calls)), "ratio")
        out_dir = ROOT / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans)
        lines.append(f"spans {len(tracer.start)} written to {spans.relative_to(ROOT)}")
    else:
        lat_ms = [x * 1000 for x in latencies]
        tail_ms, rank = tail(lat_ms)
        setups = setup_seconds(args)
        metrics = {
            "setup_s": (statistics.median(t * k for t, k in setups), "s"),
            "items_per_s": ((attempted - failed) / calibrated, "1/s"),
            "item_p50_ms": (statistics.median(lat_ms), "ms"),
            "item_tail_ms": (tail_ms, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        raw = {
            "setup_s": statistics.median(t for t, _ in setups),
            "items_per_s": (attempted - failed) / busy,
        }
        lines.append(f"item_tail_ms is rank {rank} of {len(lat_ms)} samples (p{100 * rank / len(lat_ms):.1f})")
        lines.append(f"failed_ratio {failed / attempted:.6f} ({failed} of {attempted} items raised)")
        lines.append("setup_s samples " + " ".join(f"{t:.4f}" for t, _ in setups))
        lines += [f"raw {name} {value}" for name, value in raw.items()]
    for name, (value, unit) in metrics.items():
        lines.append(f"{name} {value} {unit}")
    for name, value in workload.properties(outputs).items():
        lines.append(f"input {name} {json.dumps(value)}")
    lines += [f"WRONG {why}" for why in errors]
    print("\n".join(lines))
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
