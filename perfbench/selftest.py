#!/usr/bin/env python3
"""Self-test of the benchmark: every output check passes on real output and
fails on a corrupted copy, a bad exit code counts as a failure, the traced
run sees the layers, and BENCHMARK.json names the metrics run.py reports.

Run from the root of a checkout (about 15 s):

    python3 perfbench/selftest.py

Exit code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import random
import sys
import time

import checks
import run
import workloads
from workloads import Job


def _json_edit(edit):
    """A corruption that edits the parsed JSON document in place."""
    def corrupt(text: str) -> str:
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return corrupt


def _first(rows, pred):
    return next(r for r in rows if pred(r))


def _drop_csv_zero_root(text: str) -> str:
    lines = text.splitlines()
    return "\n".join([lines[0]] + [ln for ln in lines[1:] if not ln.startswith("0,")]) + "\n"


def _cases(spectrum: str, b1: int, codazzi: int):
    """(job, corruption) pairs: each corruption must make the check fail."""
    hyp_dims = functools.partial(checks.hyperbolic_dims, b1=b1, codazzi=codazzi)
    ks = functools.partial(checks.ks_predicate, b1=b1, codazzi=codazzi)
    return [
        (Job(("roots", "--sphere", "--jmax", "10"), checks.sphere_roots),
         _json_edit(lambda d: _first(d["roots"], lambda r: abs(r["re"]) >= 2).update(re=1.5))),
        (Job(("roots", "--sphere", "--jmax", "10", "--format", "csv"),
             functools.partial(checks.sphere_roots, fmt="csv")), _drop_csv_zero_root),
        (Job(("gap", "--sphere", "--jmax", "10"), checks.gluing_window),
         _json_edit(lambda d: d.update(window=[0.0, 1.5]))),
        (Job(("roots", "--torus", workloads.CUBE, "--jmax", "10"), checks.torus_dims),
         _json_edit(lambda d: d.update(kernel_dim_at_zero=13))),
        (Job(("roots", "--hyperbolic", spectrum, "--jmax", "300"), hyp_dims),
         _json_edit(lambda d: d.update(cokernel_dim_at_zero=d["cokernel_dim_at_zero"] + 1))),
        (Job(("ks", "--hyperbolic", spectrum), ks),
         _json_edit(lambda d: d.update(h2plus_vanishes=not d["h2plus_vanishes"]))),
        (Job(("verify", "identities", "--N", "8", "--seed", "3"),
             functools.partial(checks.verify_passed, suite="identities")),
         _json_edit(lambda d: d.update({"pass": False}))),
        (Job(("verify", "oracle", "--jmax", "10"), functools.partial(checks.verify_passed, suite="oracle")),
         _json_edit(lambda d: d.update({"pass": False}))),
        (Job(("lens", "--lens", "7,2,3", "--jmax", "8"),
             functools.partial(checks.lens_table, p=7, q1=2, q2=3, j_max=8)),
         _json_edit(lambda d: d["multiplicities"][7].__setitem__(1, d["multiplicities"][7][1] + 1))),
        (Job(("roots", "--lens", "5,1,2", "--jmax", "8"),
             functools.partial(checks.lens_roots, p=5, q1=1, q2=2, j_max=8)),
         _json_edit(lambda d: _first(d["roots"], lambda r: r["origin_kind"] == "scalar" and r["j"] > 1)
                    .update(multiplicity=99))),
    ]


def main() -> int:
    errors: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            errors.append(what)

    os.chdir(run.ROOT)
    run.OUT.mkdir(parents=True, exist_ok=True)
    spectrum = run.OUT / "inputs" / "selftest" / "hyperbolic.txt"
    b1, codazzi = workloads._hyperbolic_file(random.Random("selftest"), spectrum)
    env = run._child_env()
    deadline = time.monotonic() + run.RUN_LIMIT_S

    for job, corrupt in _cases(spectrum.as_posix(), b1, codazzi):
        name = " ".join(job.argv[:3])
        inv = run._spawn(["-m", "indicyl.cli", *job.argv], env, deadline)
        expect(run._failure(job, inv) is None, f"{name}: real output passes")
        reason = run._failure(job, dataclasses.replace(inv, stdout=corrupt(inv.stdout)))
        expect(reason is not None, f"{name}: corrupted output fails ({reason})")

    job = Job(("roots", "--sphere", "--torus", "1,1,1"), checks.sphere_roots)
    inv = run._spawn(["-m", "indicyl.cli", *job.argv], env, deadline)
    reason = run._failure(job, inv)
    expect(inv.exit_code == 2 and reason is not None, f"bad flags: exit code counts as a failure ({reason})")
    reason = run._failure(Job(("gap",), checks.gluing_window), run.Invocation(0.0, 0, "not json", ""))
    expect(reason is not None, f"unreadable output fails ({reason})")
    batches = [[(inv, reason)]]
    expect(len(run._failures([job], batches)) == 1, "a failed invocation is counted in the result")

    record, trace = run.traced_run([Job(("roots", "--sphere", "--jmax", "4"), checks.sphere_roots)], 1, deadline)
    m = record["metrics"]
    expect(
        not record["failures"] and m["indicial.assemble_catalog.calls"] == 1
        and m["spectra.lens_scalar_multiplicity.calls"] == 5 and m["trace.spans"] == 7
        and not record["missing_targets"],
        "traced run: one catalog, five lens calls, seven spans "
        f"(got {m['indicial.assemble_catalog.calls']}, {m['spectra.lens_scalar_multiplicity.calls']}, "
        f"{m['trace.spans']})",
    )

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS), "BENCHMARK.json workloads")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END_UNITS,
           "BENCHMARK.json end-to-end metrics")
    expect({m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER_UNITS,
           "BENCHMARK.json per-layer metrics")

    print(f"{len(errors)} failing case(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
