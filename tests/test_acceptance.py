"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Everything is seeded, so
outcomes are reproducible; statistical tolerances are the stated ones
(standard-error multiples, KS levels, fit thresholds).
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

import hjsim
from hjsim import cli
from hjsim.diagnostics import (autocorr_decay, invariant_histogram,
                               mixing_curve, time_average)
from hjsim.model import KernelMatrix, model_to_dict
from hjsim.engine import _simulate_reference
from hjsim.rng import derive_path_seed, derive_path_seeds
from hjsim.stability import (LyapunovSpec, drift_scan, dynkin_quotient,
                             generator_apply, interaction_matrix,
                             perron_left_vector, spectral_radius,
                             stability_data, vandermonde_check)

from helpers import (make_model, ou_cfg, poisson_model, pure_ou_model,
                     random_state, reference_model, two_component_model)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"\n[criterion {criterion:>2}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def test_criterion_1_poisson_degeneracy():
    model = poisson_model((1.0, 2.0))
    cfg = ou_cfg(grid_dt=10.0)
    started = time.monotonic()
    counts = np.array([p.n_events for p in hjsim.simulate_ensemble(model, 10.0, cfg, 1001,
                                                                   10_000)], dtype=float)
    elapsed = time.monotonic() - started
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    ok = abs(counts.mean() - 30.0) <= 3 * se and elapsed < 60.0
    report(1, ok, f"mean count {counts.mean():.3f} vs 30 (3*SE = {3 * se:.3f}), "
                  f"runtime {elapsed:.1f}s < 60s")


def test_criterion_2_self_exciting_mean_intensity():
    model = make_model(1, [{"type": "affine_clipped", "floor": 1e-6,
                            "intercept": 1.0, "slope": 1.0}],
                       [0.5], [1.0],
                       {"type": "linear", "rate": 1.0, "intercept": 0.0},
                       {"type": "constant", "value": 1.0},
                       {"type": "linear_damping", "eta": 0.5})
    path = hjsim.simulate_path(model, 10_000.0, ou_cfg(0.05), seed=1002)
    est = time_average(path, "rate", burn_in=1_000.0, model=model)
    # first-moment fixed point: 1 / (1 - c/alpha) = 2
    ok = abs(est.value - 2.0) <= 0.02 * 2.0
    report(2, ok, f"time-averaged total rate {est.value:.4f} vs 2.0 "
                  f"(2% band, batch SE {est.standard_error:.4f})")


def test_criterion_3_engine_vs_reference_law():
    model = two_component_model()
    assert spectral_radius(interaction_matrix(model)) == pytest.approx(0.5, abs=1e-9)
    cfg = ou_cfg(grid_dt=5.0)
    engine_counts = np.array([
        p.n_events for p in hjsim.simulate_ensemble(model, 5.0, cfg, 1003, 10_000)])
    # the seeds of simulate_path_reference(model, 5.0, cfg, derive_path_seed(2003, i)),
    # thinned as one group
    reference_counts = np.array([
        p.n_events for p in _simulate_reference(model, 5.0, cfg,
                                                derive_path_seeds(2003, 10_000).tolist())])
    p = stats.ks_2samp(engine_counts, reference_counts).pvalue
    ok = p > 0.01
    report(3, ok, f"two-sample KS p = {p:.4f} > 0.01 (means "
                  f"{engine_counts.mean():.3f} / {reference_counts.mean():.3f})")


def test_criterion_4_spectral_radius_and_perron_residual():
    h = np.array([[0.3, 0.2], [0.1, 0.4]])
    rho = spectral_radius(h)
    kappa = perron_left_vector(h)
    residual = float(np.max(np.abs(kappa @ h - rho * kappa)))
    ok = abs(rho - 0.5) <= 1e-9 and residual <= 1e-10
    report(4, ok, f"rho = {rho:.12f} (err {abs(rho - 0.5):.2e} <= 1e-9), "
                  f"residual {residual:.2e} <= 1e-10")


def test_criterion_5_generator_matches_dynkin_quotient():
    model = reference_model()
    stab = stability_data(model)
    lyap = LyapunovSpec("exponential")
    cfg = ou_cfg(0.001)
    rng = np.random.default_rng(1005)
    worst = 0.0
    failures = 0
    for k in range(20):
        z = random_state(rng, 1)
        exact = generator_apply(model, lyap, stab, z)
        quotient, se = dynkin_quotient(model, lyap, stab, z, 1e-3, 10 ** 6,
                                       seed=3000 + k, cfg=cfg)
        ratio = abs(quotient - exact) / se
        worst = max(worst, ratio)
        failures += ratio > 3.0
    ok = failures == 0
    report(5, ok, f"20 states, 1e6 paths each at h=1e-3: worst |MC - exact| "
                  f"= {worst:.2f} SE (all <= 3 SE)" if ok else
                  f"{failures} state(s) beyond 3 SE (worst {worst:.2f})")


def test_criterion_6_drift_inequality_scan():
    model = reference_model()
    stab = stability_data(model)
    lyap = LyapunovSpec("exponential")
    scan = drift_scan(model, lyap, stab, (-20, 20, -20, 20), 10_000, seed=1006)
    ok = scan.success and scan.d2 > 0 and scan.n_violations == 0
    report(6, ok, f"fitted d1 = {scan.d1:.3f}, d2 = {scan.d2:.3f} > 0, "
                  f"violations {scan.n_violations}/10000")


def test_criterion_7_ergodic_averages():
    ou = pure_ou_model()
    path = hjsim.simulate_path(ou, 10_000.0, ou_cfg(0.05), seed=1007)
    first = time_average(path, "x", burn_in=1_000.0)
    second = time_average(path, "x2", burn_in=1_000.0)
    ok_mean = abs(first.value) <= 3 * first.standard_error
    ok_var = abs(second.value - 0.5) <= 3 * second.standard_error

    model_a = reference_model(x0=0.0, y0=0.0)
    model_b = reference_model(x0=5.0, y0=4.0)
    est_a = time_average(hjsim.simulate_path(model_a, 10_000.0, ou_cfg(0.05),
                                             seed=2007), "x2", burn_in=1_000.0)
    est_b = time_average(hjsim.simulate_path(model_b, 10_000.0, ou_cfg(0.05),
                                             seed=2008), "x2", burn_in=1_000.0)
    combined = math.hypot(est_a.standard_error, est_b.standard_error)
    ok_two_start = abs(est_a.value - est_b.value) <= 3 * combined
    ok = ok_mean and ok_var and ok_two_start
    report(7, ok, f"OU mean {first.value:+.4f} (3SE {3 * first.standard_error:.4f}), "
                  f"second moment {second.value:.4f} vs 0.5 "
                  f"(3SE {3 * second.standard_error:.4f}); two-start x2 "
                  f"{est_a.value:.4f} vs {est_b.value:.4f} "
                  f"(3*combined SE {3 * combined:.4f})")


def test_criterion_8_invariant_density_positivity():
    model = reference_model()
    # 6 paths x 2000 time units at dt 0.01, 10% burn-in: over 1e6 pooled samples
    paths = [hjsim.simulate_path(model, 2_000.0, ou_cfg(0.01),
                                 derive_path_seed(1008, i)) for i in range(6)]
    est = invariant_histogram(paths, bins=50, compact=(-1.0, 1.0),
                              grid_dt=0.01, burn_in=200.0)
    n_samples = sum(len(hjsim.regular_samples(p, 0.01, 200.0)[0]) for p in paths)
    ok = n_samples >= 10 ** 6 and est.min_mass_on_compact > 0
    report(8, ok, f"{n_samples} post-burn-in samples; min bin mass on [-1,1] "
                  f"= {est.min_mass_on_compact:.2e} > 0")


def test_criterion_9_exponential_mixing_faces():
    model = reference_model()
    curve = mixing_curve(model, hjsim.State(-4.0, np.zeros((1, 1))),
                         hjsim.State(4.0, np.array([[5.0]])),
                         times=np.arange(1.0, 11.0), n_paths=10_000, bins=20,
                         cfg=ou_cfg(10.0), master_seed=1009)
    ok_mix = curve.fitted_rate > 0 and curve.fit_r2 >= 0.9

    ou_path = hjsim.simulate_path(pure_ou_model(), 10_000.0, ou_cfg(0.1), seed=2009)
    fit = autocorr_decay(ou_path, "x", lags=np.arange(0.2, 2.2, 0.2),
                         grid_dt=0.1, burn_in=100.0)
    ok_acf = abs(fit.rate - 1.0) <= 0.15
    ok = ok_mix and ok_acf
    report(9, ok, f"TV decay rate {curve.fitted_rate:.3f} > 0 with R^2 "
                  f"{curve.fit_r2:.3f} >= 0.9 ({int(curve.fit_mask.sum())} fit "
                  f"points); OU autocorrelation rate {fit.rate:.3f} in 1.0±0.15")


def test_criterion_10_vandermonde_determinants():
    rng = np.random.default_rng(1010)
    ok = True
    details = []
    for trial in range(5):
        alphas = rng.uniform(0.2, 3.0, size=(3, 3))
        kernel = KernelMatrix(c=np.ones((3, 3)), alpha=alphas)
        for j in (1, 2, 3):
            for t0 in (0.1, 1.0):
                chk = vandermonde_check(kernel, j, t0)
                ok = ok and abs(chk.determinant) > 1e-12 and chk.invertible
    degenerate = KernelMatrix(c=np.ones((2, 2)), alpha=[[1.3, 1.0], [1.3, 2.0]])
    chk0 = vandermonde_check(degenerate, 1, 0.1)
    ok = ok and abs(chk0.determinant) <= 1e-12 and not chk0.invertible
    report(10, ok, f"distinct decays: all |det| > 1e-12 at t0 in {{0.1, 1}}; "
                   f"coincident decays: det = {chk0.determinant:.1e} (flagged "
                   f"non-invertible)")


def test_criterion_11_byte_identical_reproducibility(tmp_path, monkeypatch):
    config_path = tmp_path / "model.json"
    config_path.write_text(json.dumps(model_to_dict(reference_model())))
    args = ["simulate", "--config", str(config_path), "--horizon", "5",
            "--paths", "6", "--seed", "99", "--grid-dt", "0.1",
            "--format", "bin"]
    monkeypatch.setenv("HJS_THREADS", "1")
    assert cli.main(args + ["--out", str(tmp_path / "serial")]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "serial2")]) == 0
    monkeypatch.setenv("HJS_THREADS", "2")
    assert cli.main(args + ["--out", str(tmp_path / "parallel")]) == 0
    ok = True
    for i in range(6):
        name = f"path_{i:05d}.hjsm"
        blob = (tmp_path / "serial" / name).read_bytes()
        ok = ok and blob == (tmp_path / "serial2" / name).read_bytes()
        ok = ok and blob == (tmp_path / "parallel" / name).read_bytes()
    report(11, ok, "6 binary path files byte-identical across rerun and "
                   "serial vs 2-worker execution")
