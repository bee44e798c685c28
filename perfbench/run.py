#!/usr/bin/env python3
"""indicyl benchmark: one workload per run, end to end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 10 --trace 0

--trace 0 runs the workload's batch of CLI invocations as fresh
`python -m indicyl.cli` processes, one after another (a closed loop with one
client), as many times as fill about --seconds, and reports the end-to-end
metrics.  --trace 1 runs the same invocations in this process
through `indicyl.cli.main(argv)` with spans around the package's public
functions and reports the per-layer metrics.  Either way every output is
checked.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; a record of the run, and for traced
runs its spans, go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import environment
import workloads
from tracer import MIB, Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = Path("perfbench") / "out"  # relative to ROOT, which is the working directory
SETUP_REPEATS = 5
# A run starts no batch it could not finish inside this many seconds, so
# that every run ends within three minutes.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics read from span totals: metric -> (unit, span name, field).
SPAN_METRICS = {
    "cli.self_s": ("s", "cli.main", "self_s"),
    "spectra.lens_scalar_multiplicity.s": ("s", "spectra.lens_scalar_multiplicity", "s"),
    "spectra.lens_scalar_multiplicity.calls": ("count", "spectra.lens_scalar_multiplicity", "calls"),
    "spectra.torus_spectrum.s": ("s", "spectra.torus_spectrum", "s"),
    "spectra.torus_spectrum.calls": ("count", "spectra.torus_spectrum", "calls"),
    "spectra.load_hyperbolic_spectrum.s": ("s", "spectra.load_hyperbolic_spectrum", "s"),
    "indicial.assemble_catalog.self_s": ("s", "indicial.assemble_catalog", "self_s"),
    "indicial.assemble_catalog.calls": ("count", "indicial.assemble_catalog", "calls"),
    "oracle.flat_mode_pencil.s": ("s", "oracle.flat_mode_pencil", "s"),
    "oracle.flat_mode_pencil.calls": ("count", "oracle.flat_mode_pencil", "calls"),
    "oracle.pencil_roots.s": ("s", "oracle.pencil_roots", "s"),
    "oracle.companion_roots.s": ("s", "oracle.companion_roots", "s"),
    "oracle.companion_roots.calls": ("count", "oracle.companion_roots", "calls"),
    "fields.identity_suite.s": ("s", "fields.identity_suite", "s"),
    "fields.f_forward.s": ("s", "fields.f_forward", "s"),
    "fields.f_forward.calls": ("count", "fields.f_forward", "calls"),
    "curvature.christoffel_riemann.s": ("s", "curvature.christoffel_riemann", "s"),
    "curvature.christoffel_riemann.calls": ("count", "curvature.christoffel_riemann", "calls"),
    "curvature.asd_form_background.s": ("s", "curvature.asd_form_background", "s"),
    "curvature.sample.s": ("s", "curvature.sample", "s"),
    "curvature.fd_linearization_errors.self_s": ("s", "curvature.fd_linearization_errors", "self_s"),
}
# Per-layer metrics that are not span totals.
OTHER_LAYER_UNITS = {
    "cli.output_bytes": "bytes",
    "indicial.catalog_roots": "count",
    "curvature.result_mb": "MB",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}
PER_LAYER_UNITS = {m: spec[0] for m, spec in SPAN_METRICS.items()} | OTHER_LAYER_UNITS
# Per-layer metrics that must repeat exactly from batch to batch and run to
# run; the others are times, reported as the median over batches.
EXACT_UNITS = ("count", "bytes")


class SetupError(RuntimeError):
    """The program could not be started; the run reports no result."""


@dataclass
class Invocation:
    seconds: float
    exit_code: int
    stdout: str
    stderr: str
    rss_mb: float = 0.0


def _failure(job: workloads.Job, inv: Invocation) -> str | None:
    if inv.exit_code != 0:
        last = inv.stderr.strip().splitlines()[-1:] or [""]
        return f"exit code {inv.exit_code}: {last[0][:200]}"
    return checks.run_check(job.check, inv.stdout)


def _failures(jobs, batches) -> list[dict]:
    return [
        {"batch": b, "argv": list(job.argv), "reason": reason}
        for b, batch in enumerate(batches)
        for job, (_, reason) in zip(jobs, batch)
        if reason
    ]


def _run_batches(jobs, count: int, deadline: float, run_job):
    """Run the batch `count` times, but start no batch that the last one
    says would overrun the deadline.  Returns per batch the list of
    (invocation, failure reason or None)."""
    batches = []
    while True:
        t0 = time.monotonic()
        batch = []
        for job in jobs:
            inv = run_job(job)
            batch.append((inv, _failure(job, inv)))
        batches.append(batch)
        now = time.monotonic()
        if len(batches) >= count or now + (now - t0) > deadline:
            return batches


# ---------------------------------------------------------------------------
# Untraced run: fresh processes, end-to-end metrics
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = dict(os.environ)
    # An installed package has its bytecode cached; let the warm-up write it.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _spawn(args, env: dict, deadline: float) -> Invocation:
    """Run `python <args>` to completion with its own rusage; a child still
    running at the deadline is killed and reported with its signal.  The
    child writes to files in OUT, named per run so that runs do not mix."""
    paths = [OUT / f"{stream}-{os.getpid()}.tmp" for stream in ("stdout", "stderr")]
    with open(paths[0], "w+b") as out, open(paths[1], "w+b") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        seconds = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        inv = Invocation(
            seconds,
            proc.returncode,
            out.read().decode(errors="replace"),
            err.read().decode(errors="replace"),
            usage.ru_maxrss / 1024.0,  # KiB on Linux
        )
    for path in paths:
        path.unlink()
    return inv


def untraced_run(jobs, count: int, deadline: float) -> dict:
    env = _child_env()
    warm = _spawn(["-m", "indicyl.cli", *workloads.WARMUP_ARGV], env, deadline)
    if warm.exit_code != 0:
        raise SetupError(f"warm-up invocation failed with exit code {warm.exit_code}: {warm.stderr[-500:]}")
    described = _spawn([str(Path("perfbench") / "environment.py")], env, deadline)
    if described.exit_code != 0:
        raise SetupError(f"cannot describe the environment: {described.stderr[-500:]}")
    setups = [_spawn(["-c", "import indicyl.cli"], env, deadline) for _ in range(SETUP_REPEATS)]
    batches = _run_batches(jobs, count, deadline, lambda job: _spawn(["-m", "indicyl.cli", *job.argv], env, deadline))
    invocations = [inv for batch in batches for inv, _ in batch]
    failures = _failures(jobs, batches) + [
        {"setup": i, "reason": f"exit code {s.exit_code}: {s.stderr.strip()[-200:]}"}
        for i, s in enumerate(setups)
        if s.exit_code != 0
    ]
    return {
        "environment": json.loads(described.stdout),
        "attempted": len(invocations) + len(setups),
        "failures": failures,
        "metrics": {
            "wall_s": statistics.median(sum(inv.seconds for inv, _ in batch) for batch in batches),
            "setup_s": statistics.median(s.seconds for s in setups),
            "peak_rss_mb": max(inv.rss_mb for inv in invocations),
        },
        "setup_seconds": [s.seconds for s in setups],
        "batches": [
            [{"argv": list(job.argv), "seconds": inv.seconds, "rss_mb": inv.rss_mb, "exit_code": inv.exit_code}
             for job, (inv, _) in zip(jobs, batch)]
            for batch in batches
        ],
    }


# ---------------------------------------------------------------------------
# Traced run: in-process, spans around each layer
# ---------------------------------------------------------------------------


def _call_main(main, argv) -> Invocation:
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as e:  # argparse rejects bad flags this way
            code = e.code if isinstance(e.code, int) else 2
        except Exception as e:  # a traceback: count it, keep tracing the batch
            code = 1
            print(f"{type(e).__name__}: {e}", file=sys.stderr)
    return Invocation(time.perf_counter() - t0, code, out.getvalue(), err.getvalue())


def traced_run(jobs, count: int, deadline: float) -> tuple[dict, dict]:
    sys.path.insert(0, str(ROOT / "src"))
    import indicyl.cli

    tracer = Tracer()
    missing = tracer.install()
    main = indicyl.cli.main  # the wrapped entry point

    def run_job(job):
        tracer.job += 1
        return _call_main(main, job.argv)

    try:
        warm = _call_main(main, workloads.WARMUP_ARGV)
        if warm.exit_code != 0:
            raise SetupError(f"warm-up invocation failed with exit code {warm.exit_code}: {warm.stderr[-500:]}")
        tracer.enabled = True
        batches = _run_batches(jobs, count, deadline, run_job)
        span_cost = tracer.span_cost()
    finally:
        tracer.enabled = False
        tracer.uninstall()
    n = len(jobs)
    ranges = [range(b * n, (b + 1) * n) for b in range(len(batches))]
    per_batch = [_layer_metrics(tracer, batch, jobs_b, span_cost) for batch, jobs_b in zip(batches, ranges)]
    counts = [{m: layer[m] for m, unit in PER_LAYER_UNITS.items() if unit in EXACT_UNITS} for layer in per_batch]
    metrics = {
        m: counts[0][m] if unit in EXACT_UNITS else statistics.median(layer[m] for layer in per_batch)
        for m, unit in PER_LAYER_UNITS.items()
    }
    record = {
        "environment": environment.describe(ROOT),
        "attempted": sum(len(batch) for batch in batches),
        "failures": _failures(jobs, batches),
        "metrics": metrics,
        "missing_targets": missing,
        "span_cost_s": span_cost,
        "counts_repeat": all(c == counts[0] for c in counts),
        "per_batch": per_batch,
        # calls, inclusive and self seconds of every traced function, per batch
        "layers": [tracer.layer_totals(jobs_b) for jobs_b in ranges],
    }
    trace = {
        "spans": tracer.dump(),
        "jobs": [
            {"job": b * n + i, "batch": b, "argv": list(job.argv), "seconds": inv.seconds}
            for b, batch in enumerate(batches)
            for i, (job, (inv, _)) in enumerate(zip(jobs, batch))
        ],
        "counts": counts,
    }
    return record, trace


def _layer_metrics(tracer: Tracer, batch, jobs: range, span_cost: float) -> dict:
    totals = tracer.layer_totals(jobs)
    layer = {
        m: totals.get(name, {}).get(field, 0 if unit == "count" else 0.0)
        for m, (unit, name, field) in SPAN_METRICS.items()
    }
    spans = sum(t["calls"] for t in totals.values())
    layer.update(
        {
            "cli.output_bytes": sum(len(inv.stdout.encode()) for inv, _ in batch),
            "indicial.catalog_roots": sum(n for job, n in tracer.catalog_roots if job in jobs),
            "curvature.result_mb": max((n for job, n in tracer.result_bytes if job in jobs), default=0) / MIB,
            "trace.wall_s": sum(inv.seconds for inv, _ in batch),
            "trace.overhead_s": spans * span_cost,
            "trace.spans": spans,
        }
    )
    return layer


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "indicyl" / "cli.py").is_file():
        print(f"error: no indicyl sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}"
    jobs, inputs = workloads.make_jobs(args.workload, args.seed, OUT / "inputs" / name)
    count = workloads.batches_per_run(args.workload, args.seconds)
    try:
        if args.trace:
            record, trace = traced_run(jobs, count, deadline)
            (OUT / f"trace-{name}.json").write_text(json.dumps(trace) + "\n")
        else:
            record = untraced_run(jobs, count, deadline)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    failed = len(record["failures"])
    result = {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {m: {"value": record["metrics"][m], "unit": u} for m, u in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "inputs": inputs, "jobs": [list(j.argv) for j in jobs],
              "fail_frac": failed / record["attempted"], **record}
    record_path = OUT / f"result-{name}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")
    for f in record["failures"]:
        print(f"FAILED {f}")
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} attempted={result['attempted']} "
          f"failed={failed} fail_frac={record['fail_frac']:.3g} record={record_path.as_posix()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
