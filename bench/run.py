"""oscsync benchmark: one closed-loop client, one instance at a time.

Usage (from the repository root):

    python3 bench/run.py --workload decide --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run; metric names and units come from BENCHMARK.json.
Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  oscsync is
imported from ``src/`` of the same checkout.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the benchmark is the single-threaded baseline.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 60
# Time of ``reference_time``'s loop at the nominal machine speed: the
# fastest this loop ran on the machine the bounds were set on.
REFERENCE_S = 1.25e-3


def reference_time(repeats: int = 3) -> float:
    """Median time of a fixed loop of Fraction arithmetic and small complex
    eigenvalue problems, the two kinds of work oscsync does.  It touches
    no oscsync code, so it measures only how fast the machine is running
    right now."""
    import numpy as np
    from fractions import Fraction

    m = (np.arange(256.0).reshape(16, 16) % 7) + 1j * np.eye(16)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        x = Fraction(1, 3)
        for i in range(150):
            x = x * Fraction(i + 1, i + 2) + Fraction(1, i + 3)
        for _ in range(6):
            np.linalg.eigvals(m)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _load_oscsync() -> None:
    """Import oscsync from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "oscsync" / "__init__.py").is_file():
        raise SystemExit(f"error: no oscsync sources under {src}")
    sys.path[:0] = [str(src), str(BENCH)]
    import oscsync

    if Path(oscsync.__file__).resolve().parent != src / "oscsync":
        raise SystemExit(f"error: imported oscsync from {oscsync.__file__}, not {src}")


def setup(workload_name: str, seed: int, workdir: Path):
    """Everything before the first timed instance: import oscsync, build
    the seeded corpus, run one fixed warm-up instance."""
    _load_oscsync()
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    workdir.mkdir(parents=True, exist_ok=True)
    cases = workload.corpus(seed, workdir)
    warm = workload.warmup_case(workdir)
    problems = workload.check(warm, workload.run(warm))
    if problems:
        raise SystemExit(f"error: warm-up instance failed its check: {problems}")
    return workload, cases


def _setup_child(args) -> None:
    workdir = OUT / f"work-{os.getpid()}"
    try:
        setup(args.workload, args.seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "slowness": reference_time(5) / REFERENCE_S}))


def setup_times(args) -> list[float]:
    """Set-up time of fresh processes, from spawn to ready, measured
    ``SETUP_SAMPLES`` times one after another; each is divided by the
    machine slowness its process measured right after set-up."""
    times = []
    for _ in range(SETUP_SAMPLES):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        start = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up process failed:\n{done.stderr.strip()}")
        child = json.loads(done.stdout.strip().splitlines()[-1])
        times.append((child["ready"] - start) / child["slowness"])
    return times


class Run:
    """Latencies and failures of the instances run so far.

    ``latencies`` are wall times.  ``by_case`` holds, per corpus case, the
    wall times divided by the machine's slowness measured just before and
    just after each instance (``reference_time`` ÷ ``REFERENCE_S``):
    neighbours on a shared machine slow it by a third for minutes at a
    time, and this keeps those stretches out of the end-to-end metrics."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        self.by_case: dict[str, list[float]] = {}
        self.failed = 0
        self.problems: list[str] = []

    def instance(self, index: int, case) -> float:
        """Run one case timed, then check its output untimed."""
        error = None
        before = reference_time()
        start = time.perf_counter()
        try:
            if self.tracer is None:
                out = self.workload.run(case)
            else:
                out = self.tracer.run_instance(index, self.workload.run, case)
        except Exception as exc:  # a raising instance is a failed instance
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        slowness = (before + reference_time()) / (2 * REFERENCE_S)
        if self.tracer is not None:
            self.tracer.recording = False
        try:
            problems = [error] if error else self.workload.check(case, out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if self.tracer is not None:
            self.tracer.recording = True
        self.latencies.append(elapsed)
        self.by_case.setdefault(case.name, []).append(elapsed / slowness)
        if problems:
            self.failed += 1
            self.problems.append(f"{case.name}: {'; '.join(problems)}")
        return elapsed


def case_latencies(run: Run) -> list[float]:
    """One latency per corpus case, ascending: the fastest of its repeats
    at nominal speed.  Repeats lie at least a pass apart, so a slow moment
    the reference loop missed does not count, and a pass cut short by the
    clock does not change the mix of cases."""
    return sorted(min(v) for v in run.by_case.values())


def tail(sorted_values: list[float], pct: float) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at ``pct``, lowered until at
    least ten samples lie beyond it."""
    n = len(sorted_values)
    while pct > 50 and n - int(-(-n * pct // 100)) < 10:
        pct -= 5
    rank = int(max(1, -(-n * pct // 100)))
    return sorted_values[rank - 1], pct, n - rank


def run_untraced(workload, cases, seconds: int) -> Run:
    """Closed loop over the corpus, in order and wrapping around, until at
    least two whole passes and ``seconds`` of timed instances have run."""
    run = Run(workload)
    timed = 0.0
    i = 0
    while i < 2 * len(cases) or timed < seconds:
        timed += run.instance(i, cases[i % len(cases)])
        i += 1
    return run


def run_traced(workload, cases, seconds: int, seed: int):
    """One untraced pass over the corpus for reference, then traced whole
    passes until ``seconds`` of traced instances have run.  Per-layer
    metrics are per pass, so they do not depend on the pass count."""
    from tracing import Tracer

    reference = Run(workload)
    for i, case in enumerate(cases):
        reference.instance(i, case)
    tracer = Tracer().install()
    run = Run(workload, tracer)
    traced = 0.0
    passes = 0
    tracer.recording = True
    try:
        while passes == 0 or traced < seconds:
            traced += sum(run.instance(i, c) for i, c in enumerate(cases))
            passes += 1
    finally:
        tracer.recording = False
        tracer.uninstall()
    metrics = tracer.layer_metrics(passes)
    untraced_rate = len(cases) / sum(case_latencies(reference))
    metrics["trace.instances_per_s"] = len(cases) / sum(case_latencies(run))
    metrics["trace.slowdown"] = untraced_rate / metrics["trace.instances_per_s"]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload.name}.jsonl.gz"
    tracer.write_spans(spans, {"workload": workload.name, "seed": seed, "passes": passes})
    run.failed += reference.failed
    run.problems += reference.problems
    return run, metrics, tracer.span_count(), spans


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.setup_only:
        _setup_child(args)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    setups = setup_times(args) if not args.trace else []
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload, cases = setup(args.workload, args.seed, workdir)
        print(f"workload {args.workload}  seed {args.seed}  corpus {len(cases)} cases")
        if args.trace:
            run, values, nspans, spans = run_traced(workload, cases, args.seconds, args.seed)
            print(f"traced: {len(run.latencies)} instances, {nspans} spans written to "
                  f"{spans.relative_to(ROOT)}")
            print(f"tracing overhead: traced time / untraced time = {values['trace.slowdown']:.3f}")
        else:
            run = run_untraced(workload, cases, args.seconds)
            values = report_end_to_end(run, workload, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: metrics not measured: {missing}")
    attempted = len(run.latencies)
    print(f"failed_ratio      {run.failed / attempted:.4g} ratio  ({run.failed} of {attempted} failed)")
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": run.failed == 0, "attempted": attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


def report_end_to_end(run: Run, workload, setups: list[float]) -> dict[str, float]:
    import resource

    lat = case_latencies(run)
    tail_value, tail_pct, beyond = tail(lat, workload.tail_percentile)
    values = {
        "instances_per_s": len(lat) / sum(lat),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail_value * 1e3,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    print(f"instances_per_s   {values['instances_per_s']:.4f} 1/s  ({len(run.latencies)} instances "
          f"in {sum(run.latencies):.2f} s wall, {len(lat)} corpus cases; times at nominal speed)")
    print(f"latency_p50_ms    {values['latency_p50_ms']:.2f} ms  ({len(lat)} case samples)")
    print(f"latency_tail_ms   {values['latency_tail_ms']:.2f} ms  (p{tail_pct:g}, {len(lat)} case samples, {beyond} beyond)")
    print(f"setup_s           {values['setup_s']:.4f} s  (median of {len(setups)}: "
          + ", ".join(f"{s:.3f}" for s in setups) + ")")
    print(f"peak_rss_mb       {values['peak_rss_mb']:.1f} MB")
    return values


if __name__ == "__main__":
    sys.exit(main())
