"""Run one workload: set up, measure for a fixed time, reduce to metrics.

The loop is closed: one caller issues one operation at a time, and the next
starts when the previous one has been verified. Every operation runs under a
main-thread SIGALRM deadline; a timeout, an exception or a failed gate counts
the operation as failed, and a failed operation's time counts at its
deadline. Only the call into celab is timed, and times are scaled to the
reference host speed (see calibrate.py).
"""

from __future__ import annotations

import functools
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np

from .calibrate import REFERENCE_MS, HostSpeed
from .gates import digest
from .tracer import Tracer
from .workloads import WORKLOADS, Outcome

SETUP_SAMPLES = 4  # per call; a run takes 8
TRACE_PHASES = 6
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Metrics that exist on some workloads only, or can be 0, so BENCHMARK.json
# does not list them; printed and stored with every result, and checked by
# --compare: (unit, better, bound as a share of the base median).
DETAIL_METRICS = {
    "fail_share": ("share", "lower", 0.25),
    "work_ms.p90": ("ms", "lower", 0.25),
    "epoch_ms": ("ms", "lower", 0.1),
    "estimate.ok_share": ("share", "higher", 0.1),
    "ce.solve_ms.p50": ("ms", "lower", 0.1),
    "ce.solve_ms.p90": ("ms", "lower", 0.2),
    "estimate.ms.p50": ("ms", "lower", 0.1),
    "ce.solves": ("count", None, None),
    "ce.solves_beyond_p90": ("count", None, None),
    "raw.work_ms.p50": ("ms", None, None),  # wall time, not scaled
    "raw.setup_s": ("s", None, None),
    "host.reference_ms.p50": ("ms", None, None),  # the calibration kernel
}


class Deadline(BaseException):
    """An operation ran past its deadline (BaseException, so that no
    `except Exception` on the way up can swallow it)."""


def _on_alarm(signum, frame):
    raise Deadline()


@dataclass(slots=True)
class Record:
    index: int
    kind: str
    size: int
    seconds: float
    deadline: float
    units: int
    failure: str | None
    known_defect: bool
    scale: float = 1.0  # wall time to reference-host time
    counts: dict = field(default_factory=dict)
    anchors: dict = field(default_factory=dict)

    @property
    def raw_ms(self) -> float:
        """Wall time of the call, or the deadline if the operation failed."""
        return 1e3 * (self.deadline if self.failure else self.seconds)

    @property
    def charged_ms(self) -> float:
        return self.raw_ms * self.scale

    @property
    def work_ms(self) -> float:
        return self.charged_ms / max(self.units, 1)


def execute(request, tracer: Tracer | None = None, scale: float = 1.0) -> Record:
    call = request.call
    if tracer is not None:
        call = functools.partial(tracer.call_operation, request.index, request.kind, call)
    result, failure = None, None
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, request.deadline)
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Deadline:
        failure = "timeout"
    except Exception as exc:  # any exception is a failed operation, never a crash
        failure = f"raised {type(exc).__name__}: {exc}"
    seconds = perf_counter() - start
    if failure is None:
        try:
            outcome = request.verify(result)
        except Exception as exc:
            outcome = Outcome(units=0, failure=f"gate raised {type(exc).__name__}: {exc}")
    else:
        outcome = Outcome(units=0, failure=failure)
    return Record(
        index=request.index,
        kind=request.kind,
        size=request.size,
        seconds=seconds,
        deadline=request.deadline,
        units=outcome.units or request.units,
        failure=outcome.failure,
        known_defect=request.known_defect,
        scale=scale,
        counts=outcome.counts,
        anchors=outcome.anchors,
    )


def measure(workload, seconds: float, tracer: Tracer | None = None,
            host: HostSpeed | None = None, start: int = 0) -> list[Record]:
    """Issue operations start, start + 1, ... until `seconds` have passed
    and at least `workload.min_ops` have run."""
    records = []
    host = host or HostSpeed()
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        end = perf_counter() + seconds
        while len(records) < workload.min_ops or perf_counter() < end:
            before = host.scale()
            record = execute(workload.request(start + len(records)), tracer, before)
            # a long operation can outlast a change of host speed
            record.scale = (before + host.scale()) / 2
            if record.index >= workload.min_ops:  # only these feed the anchors
                record.anchors = {}
            records.append(record)
    finally:
        signal.signal(signal.SIGALRM, previous)
    return records


def set_up(name: str, root: Path, seed: int, workdir: Path, started: float):
    """Import celab (with its CLI), load fixtures, generate the inputs and
    run one warm-up operation. Returns the workload, the wall seconds taken
    since `started`, and why the warm-up failed, if it did."""
    import celab  # noqa: F401
    import celab.cli  # noqa: F401

    workload = WORKLOADS[name](root, seed, workdir)
    failure = None
    try:
        workload.warmup()
    except Exception as exc:  # reported as an incorrect run, not a crash
        failure = f"raised {type(exc).__name__}: {exc}"
    return workload, perf_counter() - started, failure


def setup_samples(run_py: Path, root: Path, name: str, seed: int) -> list[float]:
    """Wall set-up time of SETUP_SAMPLES fresh processes, one after another.
    Called before and after the measurement, so that the samples straddle
    it rather than share one state of the host."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(run_py), "--setup-only", "--workload", name,
             "--seed", str(seed)],
            cwd=root, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def run_metadata(root: Path) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def _quantile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records: list[Record], setup: list[float], host: HostSpeed) -> dict[str, float]:
    work = [r.work_ms for r in records]
    return {
        # scaled by the host speed over the whole run, which the set-up
        # samples straddle
        "setup_s": median(setup) * REFERENCE_MS / median(host.samples),
        "peak_rss_mb": peak_rss_mb(),
        "work_ms.p50": _quantile(work, 50),
        "work_ms.p75": _quantile(work, 75),
    }


def detail(records: list[Record], host: HostSpeed) -> dict[str, float]:
    """The per-workload metrics, where the workload has them, and the raw
    wall times behind the scaled ones."""
    out = {"fail_share": sum(r.failure is not None for r in records) / len(records)}
    out["work_ms.p90"] = _quantile([r.work_ms for r in records], 90)
    out["raw.work_ms.p50"] = _quantile([r.raw_ms / max(r.units, 1) for r in records], 50)
    out["host.reference_ms.p50"] = _quantile(host.samples, 50)
    kinds = {r.kind for r in records}
    if kinds & {"train", "pipeline"}:
        out["epoch_ms"] = _quantile([r.work_ms for r in records], 50)
    if kinds & {"estimate", "pipeline"}:
        attempted = ok = 0
        for r in records:
            if r.kind == "estimate":
                attempted += 1
            else:
                attempted += r.counts.get("estimates", 0)
            ok += r.counts.get("estimates_ok", 0)
        out["estimate.ok_share"] = ok / attempted if attempted else 0.0
    if "ce" in kinds:
        ce = [r.charged_ms for r in records if r.kind == "ce"]
        out["ce.solve_ms.p50"] = _quantile(ce, 50)
        out["ce.solve_ms.p90"] = _quantile(ce, 90)
        out["ce.solves"] = len(ce)
        out["ce.solves_beyond_p90"] = sum(t > out["ce.solve_ms.p90"] for t in ce)
    if "estimate" in kinds:
        out["estimate.ms.p50"] = _quantile(
            [r.charged_ms for r in records if r.kind == "estimate"], 50)
    return out


def record_layer_metrics(records: list[Record]) -> dict[str, float]:
    """Per-layer numbers the benchmark reads off the outputs, not off spans."""
    ops = max(len(records), 1)
    m = {}
    for status, key in (("trained_estimated", "trained"), ("analytic_ce", "analytic"),
                        ("skipped_not_against", "skipped"),
                        ("estimation_infeasible", "infeasible"), ("stalled", "stalled")):
        m[f"pipeline.tasks.{key}"] = sum(r.counts.get(f"tasks.{status}", 0) for r in records) / ops
    m["pipeline.passes"] = sum(r.counts.get("passes", 0) for r in records) / ops
    for key in ("round_trip_linf", "linf_vs_truth"):
        values = [r.counts[key] for r in records if key in r.counts]
        m[f"estimation.{key}.max"] = max(values, default=0.0)
    return m


def anchors(records: list[Record], count: int) -> dict[str, str]:
    """Digest per anchor kind over the first `count` operations' outputs."""
    out: dict[str, list[str]] = {}
    for r in records[:count]:
        for kind, value in r.anchors.items():
            out.setdefault(kind, []).append(f"{r.index}:{value}")
    return {kind: digest(",".join(values)) for kind, values in out.items()}


def failure_summary(records: list[Record]) -> dict[str, int]:
    out: dict[str, int] = {}
    for r in records:
        if r.failure:
            key = f"{r.kind} n={r.size}: {r.failure.split(':')[0]}"
            out[key] = out.get(key, 0) + 1
    return dict(sorted(out.items()))


def run_workload(name: str, root: Path, run_py: Path, seed: int, seconds: float,
                 trace: bool) -> dict:
    """Set up and measure one workload; returns the full result record."""
    with tempfile.TemporaryDirectory(dir=root / "perfbench", prefix=".work-") as tmp:
        workload, _, warmup_failure = set_up(name, root, seed, Path(tmp), perf_counter())
        if workload.uses_highs:  # import the oracle now, not inside the timed loop
            try:
                import scipy.optimize  # noqa: F401
            except ImportError:
                pass
        setup = [] if trace else setup_samples(run_py, root, name, seed)
        host = HostSpeed()
        records, traced = [], []
        if not trace:
            records = measure(workload, seconds, host=host)
            setup += setup_samples(run_py, root, name, seed)
        else:
            # untraced and traced phases alternate, so that a drift in host
            # speed does not pass for tracing overhead
            tracer = Tracer()
            for phase in range(TRACE_PHASES):
                start = len(records) + len(traced)
                if phase % 2 == 0:
                    records += measure(workload, seconds / TRACE_PHASES, None, host, start)
                    continue
                tracer.install()
                try:
                    traced += measure(workload, seconds / TRACE_PHASES, tracer, host, start)
                finally:
                    tracer.uninstall()
    every = records + traced
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "meta": run_metadata(root),
        "correct": warmup_failure is None
        and all(r.failure is None or r.known_defect for r in every),
        "warmup_failure": warmup_failure,
        "attempted": len(every),
        "failed": sum(r.failure is not None for r in every),
        "failures": failure_summary(every),
        "anchors": anchors(records, workload.min_ops),
        "detail": detail(records, host),
    }
    if trace:
        layer = tracer.layer_metrics({r.index: r.scale for r in traced})
        layer.update(record_layer_metrics(traced))
        base = _quantile([r.work_ms for r in records], 50)
        layer["trace.overhead_share"] = (
            _quantile([r.work_ms for r in traced], 50) / base - 1.0 if base else 0.0)
        result["metrics"] = layer
        result["span_counts"] = tracer.span_counts()
    else:
        result["metrics"] = end_to_end(records, setup, host)
        result["detail"]["raw.setup_s"] = median(setup)
        result["setup_samples"] = setup
    return result
