"""Seeded inputs and job lists for the benchmark workloads.

The seed belongs to the benchmark: each workload turns it into CLI flags and
input files, so the program only ever sees generated inputs, and the same
seed gives byte-identical inputs.  Why each workload exists, and which
layer it should move or leave alone, is in README.md.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

# Untimed invocation that imports every module before timing starts.
WARMUP_ARGV = ("roots", "--sphere", "--jmax", "2")

# Seeded tori share this volume, so every seed asks the torus enumeration
# for the same number of lattice points; the seed varies the shape only.
TORUS_VOLUME = 216.0
TORUS_SIDES = (3.0, 9.0)
CUBE = ",".join([repr(2 * math.pi)] * 3)

# Entries per operator kind in the generated hyperbolic spectrum file.
HYPERBOLIC_ENTRIES = 300

# Seconds one batch of each workload takes on a 2-vCPU Xeon virtual
# machine (README.md).  A run makes round(--seconds / this) batches,
# at least one, so the amount of work per run is fixed by the workload and
# --seconds alone; letting the clock decide would run extra batches
# exactly when the first one was fast, and bias the median.
BATCH_SECONDS = {"catalog": 15.0, "lens": 11.0, "verify_spectral": 6.5, "fd_linearization": 37.0}


@dataclass(frozen=True)
class Job:
    argv: tuple[str, ...]
    check: Callable[[str], str | None]


def _torus_lengths(rng: random.Random) -> str:
    lo, hi = TORUS_SIDES
    while True:
        l1, l2 = round(rng.uniform(lo, hi), 4), round(rng.uniform(lo, hi), 4)
        l3 = round(TORUS_VOLUME / (l1 * l2), 4)
        if lo <= l3 <= hi:
            return f"{l1!r},{l2!r},{l3!r}"


def _hyperbolic_file(rng: random.Random, path: Path) -> tuple[int, int]:
    """Write a valid spectrum file and return its (b1, codazzi).

    Each kind gets HYPERBOLIC_ENTRIES strictly increasing eigenvalues.  The
    harmonic 1-forms (eigenvalue 0, multiplicity b1) and the Codazzi
    tensors (TT eigenvalue 3, multiplicity codazzi) are listed only when
    nonzero; the other eigenvalues keep clear of 0 and 3.
    """
    b1, codazzi = rng.randint(0, 3), rng.randint(0, 2)
    lines = ["# seeded hyperbolic spectrum for the catalog workload", f"b1 {b1}", f"codazzi {codazzi}"]
    for kind, zero_ev, zero_mult, start in (
        ("scalar", 0.0, 0, 0.5),
        ("oneform", 0.0, b1, 0.5),
        ("tt", 3.0, codazzi, 3.5),
    ):
        rows = [(zero_ev, zero_mult)] if zero_mult else []
        ev = start
        while len(rows) < HYPERBOLIC_ENTRIES:
            ev = round(ev + rng.uniform(0.05, 1.0), 6)
            rows.append((ev, rng.randint(1, 4)))
        lines += [f"{kind} {j} {ev!r} {mult}" for j, (ev, mult) in enumerate(rows)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return b1, codazzi


def _catalog(rng: random.Random, input_dir: Path) -> tuple[list[Job], dict]:
    torus = _torus_lengths(rng)
    spectrum = input_dir / "hyperbolic.txt"
    b1, codazzi = _hyperbolic_file(rng, spectrum)
    hyp = spectrum.as_posix()
    jobs = [
        Job(("roots", "--sphere", "--jmax", "300", "--format", "csv"),
            functools.partial(checks.sphere_roots, fmt="csv")),
        Job(("gap", "--sphere", "--jmax", "100"), checks.gluing_window),
        Job(("roots", "--torus", torus, "--jmax", "300"), checks.torus_dims),
        Job(("roots", "--torus", CUBE, "--jmax", "120"), checks.torus_dims),
        Job(("roots", "--hyperbolic", hyp, "--jmax", "300"),
            functools.partial(checks.hyperbolic_dims, b1=b1, codazzi=codazzi)),
        Job(("ks", "--hyperbolic", hyp), functools.partial(checks.ks_predicate, b1=b1, codazzi=codazzi)),
        Job(("roots", "--sphere", "--jmax", "10"), checks.sphere_roots),
        Job(("gap", "--sphere", "--jmax", "10"), checks.gluing_window),
    ]
    return jobs, {"torus": torus, "hyperbolic_file": hyp, "b1": b1, "codazzi": codazzi}


def _lens(rng: random.Random, input_dir: Path) -> tuple[list[Job], dict]:
    # Every q in 1..p-1 is coprime to the prime orders 7 and 5.
    q7 = (rng.randint(1, 6), rng.randint(1, 6))
    q5 = (rng.randint(1, 4), rng.randint(1, 4))
    jobs = [
        Job(("lens", "--lens", "7,%d,%d" % q7, "--jmax", "14"),
            functools.partial(checks.lens_table, p=7, q1=q7[0], q2=q7[1], j_max=14)),
        Job(("roots", "--lens", "5,%d,%d" % q5, "--jmax", "12"),
            functools.partial(checks.lens_roots, p=5, q1=q5[0], q2=q5[1], j_max=12)),
        Job(("gap", "--lens", "2,1,1", "--jmax", "12"), checks.gluing_window),
    ]
    return jobs, {"lens7": list(q7), "lens5": list(q5)}


def _verify_spectral(rng: random.Random, input_dir: Path) -> tuple[list[Job], dict]:
    s32, s16 = rng.randint(1, 10**6), rng.randint(1, 10**6)
    jobs = [
        Job(("verify", "oracle", "--jmax", "10"), functools.partial(checks.verify_passed, suite="oracle")),
        Job(("verify", "identities", "--N", "32", "--seed", str(s32)),
            functools.partial(checks.verify_passed, suite="identities")),
        Job(("verify", "identities", "--N", "16", "--seed", str(s16)),
            functools.partial(checks.verify_passed, suite="identities")),
    ]
    return jobs, {"identity_seeds": [s32, s16]}


def _fd_linearization(rng: random.Random, input_dir: Path) -> tuple[list[Job], dict]:
    seed = rng.randint(1, 10**6)
    jobs = [
        Job(("verify", "linearization", "--N", "16", "--eps", "1e-4", "--seed", str(seed)),
            functools.partial(checks.verify_passed, suite="linearization")),
    ]
    return jobs, {"linearization_seed": seed}


_GENERATORS = {
    "catalog": _catalog,
    "lens": _lens,
    "verify_spectral": _verify_spectral,
    "fd_linearization": _fd_linearization,
}
WORKLOADS = tuple(_GENERATORS)


def batches_per_run(workload: str, seconds: float) -> int:
    return max(1, round(seconds / BATCH_SECONDS[workload]))


def make_jobs(workload: str, seed: int, input_dir: Path) -> tuple[list[Job], dict]:
    """The workload's batch of CLI invocations and a record of its inputs.

    Input files are written under input_dir, which callers pass relative
    to the checkout root so that the generated flags do not depend on
    where the checkout lives.
    """
    rng = random.Random(f"indicyl-perfbench/{workload}/{seed}")
    return _GENERATORS[workload](rng, input_dir)
