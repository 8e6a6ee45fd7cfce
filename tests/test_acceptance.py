"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned in the assertion itself.
"""

import json
import math
import time

import numpy as np
import pytest

from projlab import (ExperimentConfig, cantor_dust, cantor_middle_thirds,
                     cantor_on_axis, cauchy_binet, chart_stability, contains,
                     exceptional_scan, fiber_hyperplane, fiber_sample,
                     from_basis, from_chart, generate, good_submatrix,
                     box_dimension, inverse, kaufman_bound, marstrand_sweep,
                     metric_rho, perturbation_inverse_bound, project_point,
                     row_submatrix, sample_uniform,
                     singular_values, smallest_singular_value, spectral_norm,
                     to_chart)
from projlab.cli import run_cli


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num}: {detail}"


def _sweep_config_dict(seed=20260823):
    return dict(ifs=json.loads(cantor_dust().to_json()), n=2, k=1,
                num_directions=50, depth=10, scale_lo=2, scale_hi=13,
                threshold_s=0.9, seed=seed, mode="sweep")


def test_criterion_01_linear_algebra_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    failures = []
    for trial in range(10000):
        n = int(rng.integers(2, 7))
        a = rng.standard_normal((n, n))
        s = singular_values(a)
        # (i) |det| = product of singular values.
        if not math.isclose(abs(float(np.linalg.det(a))), float(np.prod(s)),
                            rel_tol=1e-8, abs_tol=1e-12):
            failures.append(("i", trial))
        # (ii) spectral norm is the top singular value.
        if abs(spectral_norm(a) - s[0]) > 1e-10 * max(1.0, s[0]):
            failures.append(("ii", trial))
        # (iii) inverse norm is the reciprocal smallest singular value.
        if s[-1] > 1e-8:
            if abs(spectral_norm(inverse(a)) * s[-1] - 1.0) > 1e-6:
                failures.append(("iii", trial))
        # (iv) minimum stretch over 200 random unit vectors.
        x = rng.standard_normal((n, 200))
        x /= np.linalg.norm(x, axis=0)
        if float(np.min(np.linalg.norm(a @ x, axis=0))) < s[-1] - 1e-8:
            failures.append(("iv", trial))
        # (v) row-submatrix norm never exceeds the full norm.
        size = int(rng.integers(1, n + 1))
        idx = tuple(sorted(rng.choice(n, size=size, replace=False)))
        if spectral_norm(row_submatrix(a, idx)) > s[0] + 1e-10:
            failures.append(("v", trial))
        # (vi) submultiplicativity.
        b = rng.standard_normal((n, n))
        if spectral_norm(a @ b) > s[0] * spectral_norm(b) + 1e-9:
            failures.append(("vi", trial))
        # (vii) column bound on the norm of a difference.
        a2 = a + 0.1 * rng.standard_normal((n, n))
        col_bound = math.sqrt(float(np.sum(np.linalg.norm(a - a2, axis=0) ** 2)))
        if spectral_norm(a - a2) > col_bound + 1e-10:
            failures.append(("vii", trial))
        # (viii) inverse perturbation bound (Neumann premise).
        res = perturbation_inverse_bound(a, a2)
        if res.premise_holds and res.actual > res.bound + 1e-8:
            failures.append(("viii", trial))
    cb_worst = 0.0
    for n in range(1, 8):
        for m in range(1, min(n, 4) + 1):
            for _ in range(30):
                a = rng.standard_normal((n, m))
                lhs, terms = cauchy_binet(a)
                cb_worst = max(cb_worst,
                               abs(lhs - sum(terms)) / max(1.0, abs(lhs)))
    elapsed = time.perf_counter() - start
    _report(1, not failures and cb_worst <= 1e-9 and elapsed < 30.0,
            f"facts i-viii on 10000 matrices, {len(failures)} violations; "
            f"Cauchy-Binet worst relative residual {cb_worst:.2e} (<= 1e-9); "
            f"{elapsed:.1f}s (< 30s)")


def test_criterion_02_submatrix_bound():
    rng = np.random.default_rng(202)
    violations = 0
    for _ in range(10000):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(n, 4) + 1))
        a = rng.standard_normal((n, m))
        if smallest_singular_value(a) <= 1e-6:
            continue
        idx, report = good_submatrix(a)
        sub = row_submatrix(a, idx)
        if spectral_norm(np.linalg.inv(sub)) > report.inv_norm_bound + 1e-8:
            violations += 1
        gram_det = float(np.linalg.det(a.T @ a))
        if report.det_AI**2 < gram_det / math.comb(n, m) - 1e-8:
            violations += 1
    _report(2, violations == 0,
            f"inverse-norm bound and det lower bound on 10000 instances, "
            f"{violations} violations beyond 1e-8 slack")


def test_criterion_03_chart_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    worst_rho, worst_sigma = 0.0, math.inf
    for n, k in [(3, 1), (4, 2), (5, 2), (6, 3)]:
        for _ in range(1000):
            v = sample_uniform(n, k, rng)
            c = to_chart(v)
            worst_rho = max(worst_rho, metric_rho(from_chart(c), v))
            worst_sigma = min(worst_sigma,
                              smallest_singular_value(c.reconstruct()))
    elapsed = time.perf_counter() - start
    _report(3, worst_rho <= 1e-9 and worst_sigma >= 1.0 - 1e-10
            and elapsed < 60.0,
            f"4000 round trips, worst rho {worst_rho:.2e} (<= 1e-9), "
            f"worst sigma(A') {worst_sigma:.12f} (>= 1 - 1e-10); "
            f"{elapsed:.1f}s (< 1min)")


def test_criterion_04_chart_stability():
    rng = np.random.default_rng(404)
    eps = 2.0**-30
    worst_margin = math.inf
    ok = True
    for _ in range(100):
        v = sample_uniform(4, 2, rng)
        max_observed, constant = chart_stability(v, eps, trials=10, rng=rng)
        ok = ok and (max_observed <= constant * eps)
        worst_margin = min(worst_margin, constant * eps - max_observed)
    _report(4, ok,
            f"100 subspaces in G(4,2) at eps=2^-30, observed deviation <= "
            f"instance constant * eps in every trial "
            f"(tightest margin {worst_margin:.2e})")


def test_criterion_05_metric_suite():
    rng = np.random.default_rng(505)
    ok = True
    for _ in range(1000):
        u, v, w = (sample_uniform(4, 2, rng) for _ in range(3))
        duv, dvw, duw = metric_rho(u, v), metric_rho(v, w), metric_rho(u, w)
        ok = ok and abs(duv - metric_rho(v, u)) <= 1e-12
        ok = ok and duw <= duv + dvw + 1e-10
        ok = ok and max(duv, dvw, duw) <= 1.0 + 1e-12
    x_axis = from_basis(np.array([[1.0], [0.0]]))
    worst_angle = 0.0
    for theta in np.linspace(0.0, math.pi, 100):
        line = from_basis(np.array([[math.cos(theta)], [math.sin(theta)]]))
        worst_angle = max(worst_angle,
                          abs(metric_rho(x_axis, line) - abs(math.sin(theta))))
    _report(5, ok and worst_angle <= 1e-9,
            f"symmetry/triangle (slack 1e-10)/rho<=1 on 1000 triples; "
            f"rho(x-axis, theta-line) vs |sin theta| worst error "
            f"{worst_angle:.2e} (<= 1e-9) over 100 angles")


def test_criterion_06_fiber_geometry():
    rng = np.random.default_rng(606)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 6))
        k = int(rng.integers(1, n))
        v = sample_uniform(n, k, rng)
        z = rng.standard_normal(n)
        w = fiber_sample(v, z, radius=1.0, rng=rng)
        ok = ok and np.linalg.norm(project_point(v, w) - project_point(v, z)) <= 1e-9
        ok = ok and np.linalg.norm(v.proj @ (w - z)) <= 1e-9
        ok = ok and contains(fiber_hyperplane(z, w), v)
    _report(6, ok,
            "1000 random (V, z, w): equal projections within 1e-9, "
            "displacement orthogonal to V within 1e-9, V inside the fiber "
            "hyperplane")


def test_criterion_07_dimension_calibration():
    start = time.perf_counter()
    cantor = box_dimension(generate(cantor_middle_thirds(), 12)).value
    rng = np.random.default_rng(707)
    interval = box_dimension(rng.uniform(0.0, 1.0, 100000)[:, None], 2, 8).value
    point = box_dimension(np.full((100, 1), 0.37), 2, 8).value
    elapsed = time.perf_counter() - start
    ok = (0.60 <= cantor <= 0.66 and 0.95 <= interval <= 1.05
          and -0.05 <= point <= 0.05 and elapsed < 60.0)
    _report(7, ok,
            f"Cantor depth 12: {cantor:.4f} in [0.60, 0.66] (oracle 0.6309); "
            f"unit interval: {interval:.4f} in [0.95, 1.05]; "
            f"single point: {point:.4f} in [-0.05, 0.05]; "
            f"{elapsed:.1f}s (< 1min)")


def test_criterion_08_marstrand_sweep():
    start = time.perf_counter()
    config = ExperimentConfig.from_dict(_sweep_config_dict())
    result = marstrand_sweep(config)
    hits = sum(row.estimate.value >= 0.9 for row in result.rows)
    elapsed = time.perf_counter() - start
    _report(8, hits >= 45 and elapsed < 300.0,
            f"product Cantor set (oracle dim 1.2619), 50 sampled lines, "
            f"depth 10: {hits}/50 directions with est_dim >= 0.9 (need >= 45); "
            f"{elapsed:.1f}s (< 5min)")


def test_criterion_09_exceptional_scan():
    config = ExperimentConfig(ifs=cantor_on_axis(), n=2, k=1,
                              num_directions=180, depth=12, scale_lo=2,
                              scale_hi=17, threshold_s=0.5, seed=909,
                              mode="scan")
    result = exceptional_scan(config)
    flagged = [r for r in result.rows if r.exceptional]
    others_in_window = all(0.55 <= r.estimate.value <= 0.70
                           for r in result.rows if not r.exceptional)
    vertical_only = len(flagged) == 1 and flagged[0].params == (0.5,)
    bound = kaufman_bound(2, 1, 0.5)
    _report(9, vertical_only and others_in_window and bound == 0.5,
            f"axis-aligned Cantor set, s=0.5, 180-cell angle grid: "
            f"{len(flagged)} cell(s) flagged "
            f"(vertical-only: {vertical_only}), all other cells in "
            f"[0.55, 0.70]: {others_in_window}; kaufman_bound(2,1,0.5) = {bound}")


def test_criterion_10_determinism(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_sweep_config_dict()))
    outputs = []
    for label in ["run_a", "run_b", "run_c"]:
        out = tmp_path / label
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append((out / "results.csv").read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    _report(10, identical,
            "three sweep runs with the same seed "
            f"produced byte-identical results.csv: {identical}")
