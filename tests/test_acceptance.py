"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Every tolerance is pinned here; the battery sizes, seeds and
grids are fixed.
"""

import math
import time

import numpy as np
import pytest

from indicyl import cli, curvature, fields, indicial, oracle, spectra
from indicyl.indicial import CaseTag, assemble_catalog, gluing_window, type3_roots
from indicyl.spectra import GroupAction, OperatorKind, Sphere, SpectrumEntry, Torus

SQRT5 = math.sqrt(5.0)
SQRT6 = math.sqrt(6.0)


def report(num, ok, detail):
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_criterion_1_spherical_gap_theorem():
    t0 = time.monotonic()
    catalog = assemble_catalog(Sphere(), j_max=10)
    low = sorted(
        {r.value for r in catalog.roots if abs(r.value.real) < 2 - 1e-9},
        key=lambda z: (z.real, z.imag),
    )
    ok = low == [(-1 + 0j), 0j, (1 + 0j)]
    for r in catalog.roots:
        if r.case_tag in (CaseTag.CASE2, CaseTag.CASE3):
            ok = ok and abs(r.value.imag) < 1e-9
            ok = ok and abs(r.value.real - round(r.value.real)) < 1e-9
            ok = ok and abs(r.value) >= 2 - 1e-9
        elif r.case_tag is CaseTag.CASE4:
            ok = ok and abs(r.value.real) > SQRT6
        elif r.case_tag is CaseTag.CASE5:
            ok = ok and abs(r.value.real) >= SQRT5 - 1e-9
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    report(1, ok, f"low roots {low}, {len(catalog.roots)} entries, {elapsed:.3f}s")


def test_criterion_2_case2_integer_identity():
    worst = 0.0
    ok = True
    for j in range(2, 11):
        lam = float(j * j + 2 * j - 2)
        got = sorted(v.real for v, _ in type3_roots(lam, 1))
        expected = sorted([-(j + 2.0), -float(j), float(j), j + 2.0])
        worst = max(worst, max(abs(g - e) for g, e in zip(got, expected)))
        ok = ok and all(abs(v.imag) == 0.0 for v, _ in type3_roots(lam, 1))
    ok = ok and worst <= 1e-12
    report(2, ok, f"j in [2,10], max deviation {worst:.2e}")


def test_criterion_3_oracle_agreement():
    t0 = time.monotonic()
    rep, ok = cli.run_oracle()
    by_name = {r["check"]: r for r in rep}
    for name in (
        "mixed_system_matrix_vs_closed_form",
        "tt_branch_ode_vs_closed_form",
        "coclosed_mixed_ode_vs_closed_form",
    ):
        ok = ok and by_name[name]["pass"] and by_name[name]["max_mismatch"] < 1e-9
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(
        3,
        ok,
        "matrix/ODE grids matched, worst "
        f"{max(by_name[n]['max_mismatch'] for n in by_name):.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_flat_dimension_14():
    dims = []
    for lengths in [(2 * math.pi,) * 3, (3.0, 4.0, 5.5)]:
        catalog = assemble_catalog(Torus(lengths), j_max=3)
        dims.append(catalog.dim_at_zero)
    clusters = oracle.pencil_roots(oracle.flat_mode_pencil((0, 0, 0)))
    pencil_dim = sum(c.algebraic for c in clusters if abs(c.value) < 1e-9)
    ok = all(d == 14 for d in dims) and pencil_dim == 14
    report(4, ok, f"catalog dims {dims}, zero-mode pencil dimension {pencil_dim}")


def test_criterion_5_flat_pencil_end_to_end():
    t0 = time.monotonic()
    ok = True
    worst = 0.0
    checked = 0
    for k1 in range(0, 4):
        for k2 in range(0, k1 + 1):
            for k3 in range(0, k2 + 1):
                ksq = k1 * k1 + k2 * k2 + k3 * k3
                if ksq == 0 or ksq > 9:
                    continue
                clusters = oracle.pencil_roots(oracle.flat_mode_pencil((k1, k2, k3)))
                r = math.sqrt(float(ksq))
                cmp = oracle.compare_root_sets([r, -r], [c.value for c in clusters], 1e-8)
                ok = ok and cmp.matched
                worst = max(worst, cmp.max_mismatch)
                # Every nonzero root of the flat reduction carries t-terms
                # (double characteristic roots of both contributing families).
                ok = ok and all(c.jordan for c in clusters)
                checked += 1
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 10.0
    report(5, ok, f"{checked} modes matched within {worst:.2e}, {elapsed:.2f}s")


def test_criterion_6_operator_identity_suite():
    t0 = time.monotonic()
    results = fields.identity_suite(band=3, seed=7, tol=1e-10)
    ok = len(results) == 11 and all(r.ok for r in results)
    worst = max(r.residual for r in results)
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 5.0
    report(6, ok, f"11 identities, worst residual {worst:.2e}, {elapsed:.2f}s")


def test_criterion_7_fd_linearization():
    t0 = time.monotonic()
    rep, ok = cli.run_linearization(n=16, seed=11, eps=1e-4, tol=1e-6)
    worst = max(r["relative_error"] for r in rep)
    ratio = rep[0]["convergence_ratio"]
    ok = ok and len(rep) == 10 and ratio >= 3.5
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    report(
        7,
        ok,
        f"10 cases, worst relative error {worst:.2e}, halving ratio {ratio:.2f}, "
        f"{elapsed:.1f}s",
    )


def test_criterion_8_hyperbolic_predicates(tmp_path):
    with_c = tmp_path / "with_codazzi.txt"
    with_c.write_text("b1 0\ncodazzi 2\nscalar 1 2.1 3\noneform 1 1.3 4\ntt 1 3.0 2\n")
    without = tmp_path / "rhs.txt"
    without.write_text("b1 0\ncodazzi 0\nscalar 1 2.5 4\noneform 1 2.2 2\ntt 1 4.1 6\n")
    with_b1 = tmp_path / "b1.txt"
    with_b1.write_text("b1 3\ncodazzi 1\noneform 0 0.0 3\ntt 1 3.0 1\n")

    ok = True
    for path, expect_vanish, expect_dim in (
        (with_c, False, 1 + 0 + 4),
        (without, True, 1),
        (with_b1, False, 1 + 3 + 2),
    ):
        geo = spectra.load_hyperbolic_spectrum(path)
        vanishes, _ = indicial.h2plus_predicate(geo)
        catalog = assemble_catalog(geo, j_max=9)
        ok = ok and vanishes == expect_vanish
        ok = ok and catalog.dim_at_zero == expect_dim
    report(8, ok, "vanishing predicate and dimension 1 + b1 + 2 dim(Codazzi) exact")


def test_criterion_9_lens_multiplicities():
    rp3 = GroupAction(2, 1, 1)
    ok = True
    for j in range(1, 10, 2):
        ok = ok and spectra.lens_scalar_multiplicity(rp3, j) == 0
    for j in range(0, 9, 2):
        ok = ok and spectra.lens_scalar_multiplicity(rp3, j) == (j + 1) ** 2
    triv = assemble_catalog(Sphere(), j_max=4)
    quot = assemble_catalog(Sphere(rp3), j_max=4)
    ok = ok and any(r.case_tag is CaseTag.CASE1 for r in triv.roots)
    ok = ok and not any(r.case_tag is CaseTag.CASE1 for r in quot.roots)
    report(9, ok, "odd degrees vanish, even degrees (j+1)^2, case 1 only on the sphere")


def test_criterion_10_gluing_window():
    ok = True
    windows = []
    for group in (GroupAction(1, 1, 1), GroupAction(2, 1, 1), GroupAction(5, 1, 2)):
        catalog = assemble_catalog(Sphere(group), j_max=6)
        w = gluing_window(catalog)
        windows.append(w)
        ok = ok and w == (0.0, 2.0)
    report(10, ok, f"windows {windows}")
