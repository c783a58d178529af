"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The full module takes ~7 s, dominated by the Monte Carlo criteria.
"""

import time

import numpy as np
import pytest

from laoa import (
    ArrayConfig,
    DirectionPair,
    EstimatorMode,
    SourceSet,
    estimate_2d_aoa,
    find_roots,
    generate_noise,
    parse_config,
    svd,
    synthesize,
)
from laoa.montecarlo import monte_carlo, run_trial
from laoa.synthesis import MIN_ELECTRICAL_SEPARATION, electrical_angle_sets


def _report(name, ok):
    print(f"{'PASS' if ok else 'FAIL'}  {name}")
    assert ok, name


def _random_scenario(rng, cfg, q, theta_range=(5.0, 175.0), phi_range=(2.0, 178.0)):
    """Uniform directions, redrawn until the electrical-angle separation holds."""
    while True:
        pairs = tuple(
            DirectionPair(float(rng.uniform(*theta_range)), float(rng.uniform(*phi_range)))
            for _ in range(q)
        )
        src = SourceSet(directions=pairs)
        psis, xis = electrical_angle_sets(src, cfg)
        sep_ok = True
        for vals in (psis, xis):
            d = np.abs(vals[:, None] - vals[None, :]) % (2 * np.pi)
            d = np.minimum(d, 2 * np.pi - d) + np.eye(q)
            sep_ok &= bool(np.min(d) >= MIN_ELECTRICAL_SEPARATION)
        if sep_ok:
            return src


def test_criterion_1_noiseless_exact_recovery():
    cfg = ArrayConfig(m=8, spacing_ratio=0.5)
    rng = np.random.default_rng(1001)
    t0 = time.time()
    hits = 0
    for _ in range(100):
        src = _random_scenario(rng, cfg, q=3)
        Z, X, _ = synthesize(src, cfg, 50, 0.0, rng)
        est = estimate_2d_aoa(Z, X, 3, cfg, EstimatorMode.NOISELESS)
        got = sorted((s.theta_deg, s.phi_deg) for s in est.sources)
        want = sorted((d.theta, d.phi) for d in src.directions)
        if max(
            max(abs(g[0] - w[0]), abs(g[1] - w[1])) for g, w in zip(got, want)
        ) < 1e-6:
            hits += 1
    elapsed = time.time() - t0
    _report(
        f"criterion 1: noiseless exact recovery {hits}/100 seeds (<1e-6 deg), {elapsed:.1f}s",
        hits == 100 and elapsed < 10.0,
    )


def test_criterion_2_truncated_svd_moderate_noise():
    cfg = parse_config(
        "m = 8\nspacing_ratio = 0.5\nM = 200\nq = 1\nsources = 60/45\n"
        "signal_model = unit_power_random_phase\nsnr_db_list = 20\n"
        "trials = 500\nseed = 2002\nmode = truncated_svd\noutput_path = unused.csv\n"
    )
    theta_err, phi_err, failures = [], [], 0
    for ti in range(500):
        te, pe, (failure,) = run_trial(cfg, 20.0, 0, ti)
        if failure is not None:
            failures += 1
        else:
            theta_err.append(abs(te[0, 0]))
            phi_err.append(abs(pe[0, 0]))
    med_t, med_p = np.median(theta_err), np.median(phi_err)
    _report(
        f"criterion 2: 20 dB medians theta={med_t:.4f} deg, phi={med_p:.4f} deg, "
        f"failures={failures}/500",
        med_t < 1.0 and med_p < 2.0 and failures < 0.01 * 500,
    )


def test_criterion_3_rmse_monotone_in_snr():
    cfg = parse_config(
        "m = 8\nspacing_ratio = 0.5\nM = 200\nq = 1\nsources = 60/45\n"
        "signal_model = unit_power_random_phase\nsnr_db_list = 0, 10, 20, 30\n"
        "trials = 500\nseed = 3003\nmode = truncated_svd\noutput_path = unused.csv\n"
    )
    t0 = time.time()
    report = monte_carlo(cfg, workers=1)
    elapsed = time.time() - t0
    rmse_t = [row["rmse_theta_deg"] for row in report.rows]
    rmse_p = [row["rmse_phi_deg"] for row in report.rows]

    def violations(series):
        return sum(
            1 for a, b in zip(series, series[1:]) if b > a and (b - a) >= 0.01
        )

    ok = violations(rmse_t) == 0 and violations(rmse_p) == 0 and elapsed < 60.0
    _report(
        f"criterion 3: rmse_theta={['%.3f' % v for v in rmse_t]}, "
        f"rmse_phi={['%.3f' % v for v in rmse_p]} non-increasing, {elapsed:.1f}s",
        ok,
    )


def test_criterion_4_svd_oracle_equivalence():
    rng = np.random.default_rng(4004)
    worst = 0.0
    for _ in range(200):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 9))
        A = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        U, sigma, V = svd(A)
        # independent oracle: eigendecomposition of the Gram matrix
        w = np.linalg.eigvalsh(A.conj().T @ A)
        ref = np.sqrt(np.clip(w[::-1], 0.0, None))[: len(sigma)]
        worst = max(worst, float(np.max(np.abs(sigma - ref)) / max(ref[0], 1e-300)))
        k = len(sigma)
        worst = max(worst, float(np.linalg.norm(U.conj().T @ U - np.eye(k), 2)))
        worst = max(worst, float(np.linalg.norm(V.conj().T @ V - np.eye(k), 2)))
        rec = U @ np.diag(sigma) @ V.conj().T
        worst = max(worst, float(np.linalg.norm(rec - A) / max(np.linalg.norm(A), 1e-300)))
    _report(f"criterion 4: svd vs Gram-eigendecomposition, worst deviation {worst:.2e}", worst < 1e-8)


def test_criterion_5_root_finder_oracle():
    rng = np.random.default_rng(5005)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 11))
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        roots = np.array(find_roots(c))
        poly = np.concatenate(([1.0], c))
        for r in roots:
            scale = 1.0 + np.sum(np.abs(c) * np.abs(r) ** np.arange(1, n + 1))
            worst = max(worst, abs(np.polyval(poly[::-1], r)) / scale)
        prod_ref = (-1) ** n / c[-1]
        worst = max(worst, abs(np.prod(roots) - prod_ref) / abs(prod_ref))
        sum_ref = -(c[-2] if n > 1 else 1.0) / c[-1]
        worst = max(worst, abs(np.sum(roots) - sum_ref) / max(1.0, abs(sum_ref)))
    _report(f"criterion 5: root residual + Vieta, worst deviation {worst:.2e}", worst < 1e-8)


def test_criterion_6_noise_model_moments():
    m, M, sigma2 = 4, 50000, 2.0
    N = generate_noise(m, M, sigma2, np.random.default_rng(6006))
    # 5-sigma sampling tolerances for means of M terms
    tol_diag = 5 * sigma2 / np.sqrt(M)             # var(|n|^2) = sigma2^2
    tol_off = 5 * sigma2 / np.sqrt(M)              # var of cross products
    tol_pseudo = 5 * np.sqrt(2) * sigma2 / np.sqrt(M)
    tol_mean = 5 * np.sqrt(sigma2 / M)

    mean_ok = np.max(np.abs(N.mean(axis=1))) < tol_mean
    cov = N @ N.conj().T / M
    diag_ok = np.max(np.abs(np.real(np.diag(cov)) - sigma2)) < tol_diag
    off = cov - np.diag(np.diag(cov))
    off_ok = np.max(np.abs(off)) < tol_off
    pcov = N @ N.T / M
    pseudo_ok = np.max(np.abs(pcov)) < tol_pseudo
    _report(
        "criterion 6: noise moments (zero mean, sigma2*I covariance, zero pseudo-covariance) "
        "at 5-sigma tolerance",
        mean_ok and diag_ok and off_ok and pseudo_ok,
    )


def test_criterion_7_pairing_correctness():
    from laoa.array_model import steering_vector

    cfg = ArrayConfig(m=8, spacing_ratio=0.5)
    rng = np.random.default_rng(7007)
    correct = 0
    min_ratio = np.inf
    for _ in range(50):
        src = _random_scenario(rng, cfg, q=2, theta_range=(15.0, 165.0), phi_range=(10.0, 170.0))
        Z, X, _ = synthesize(src, cfg, 50, 0.0, rng)
        est = estimate_2d_aoa(Z, X, 2, cfg, EstimatorMode.NOISELESS)
        got = sorted((s.theta_deg, s.phi_deg) for s in est.sources)
        want = sorted((d.theta, d.phi) for d in src.directions)
        if max(abs(g[0] - w[0]) + abs(g[1] - w[1]) for g, w in zip(got, want)) < 1e-6:
            correct += 1
        # residual ratio between the wrong and right association
        psis, xis = electrical_angle_sets(src, cfg)
        Y = np.vstack([Z.data, X.data])

        def resid(xi_order):
            A = np.vstack(
                [
                    np.column_stack([steering_vector(p, cfg.m) for p in psis]),
                    np.column_stack([steering_vector(x, cfg.m) for x in xi_order]),
                ]
            )
            S, *_ = np.linalg.lstsq(A, Y, rcond=None)
            return np.linalg.norm(Y - A @ S)

        min_ratio = min(min_ratio, resid(xis[::-1]) / max(resid(xis), 1e-300))
    _report(
        f"criterion 7: pairing correct {correct}/50, min wrong/right residual ratio {min_ratio:.1e}",
        correct == 50 and min_ratio > 1e3,
    )


def test_criterion_8_report_determinism():
    cfg = parse_config(
        "m = 8\nspacing_ratio = 0.5\nM = 50\nq = 2\nsources = 30/40, 70/120\n"
        "signal_model = unit_power_random_phase\nsnr_db_list = 5, 25\n"
        "trials = 30\nseed = 8008\nmode = truncated_svd\noutput_path = unused.csv\n"
    )
    serial = monte_carlo(cfg, workers=1).to_csv()
    parallel = monte_carlo(cfg, workers=4).to_csv()
    _report(
        "criterion 8: CSV byte-identical under 1 worker and 4 workers",
        serial.encode() == parallel.encode(),
    )
