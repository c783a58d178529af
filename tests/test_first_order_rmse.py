"""The Monte Carlo RMSE and bias against the estimator's own perturbation prediction.

At high SNR the estimator is smooth in the data, so its error expands in the
noise: delta = J n + (1/2) n^T H n + ..., with J and H its Jacobian and
Hessian at the noiseless data and n the 4mM real noise entries, each of
variance sigma^2 / 2.  Both come from the code under test by central
differences of ``estimate_stack``, two perturbed copies per real noise entry,
so the prediction needs no formula.  To first order each angle's RMSE is
sqrt((sigma^2 / 2) * ||J_row||^2) (the analysis of Rao & Hari, IEEE Trans.
ASSP 1989, and Li, Liu & Vaccaro, IEEE Trans. AES 1993); to second order its
bias is E[delta] = (sigma^2 / 4) * tr H (as in Xu & Buckley, IEEE Trans. SP
1992, on MUSIC's bias).  Both are averaged over a few draws of S.

The fixed-geometry gate holds the measured RMSE within +-15% of its
prediction.  The relative spread of an RMSE over T trials is ~1/sqrt(2T),
3.5% at T = 400, so the band is above 4 standard deviations, and a noise
scale off by sqrt(2) (a ratio of 1.41) or a wrong pairing on some trials
fails it.  The bias must lie
within 3 combined standard errors of its prediction: the Monte Carlo one,
RMSE / sqrt(T), and the spread of the prediction over the S draws.  On the
q = 5 geometry phi's bias for source 0 (about +0.066 deg at 20 dB) is over 6
Monte Carlo standard errors from zero, so it must also come out with the
prediction's sign; the bias grows as sigma^2, so a noise scale off by
sqrt(2) doubles it and fails.  The prediction covers
the truncated-SVD mode only: the noiseless mode's rank jumps at the
noiseless point.

A second, looser gate needs no threshold per geometry, so it runs over
random accepted configs: every angle's RMSE / prediction at 60 dB must lie in
[0.5, 2] on each config where no trial fails.  A wrong pairing or a wrong
root on some trials lands far above 2.  Configs with failing trials are
counted, not gated: their survivors' statistics are censored.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from laoa import parse_config, synthesize
from laoa.errors import AoaError
from laoa.estimator import estimate_stack
from laoa.montecarlo import _match_to_truth, monte_carlo

H = 1e-4  # central-difference step on each real noise entry
CHUNK = 400  # perturbed real noise entries per estimate_stack call, two copies each

# the README geometry and the q = 3 sources of CI's QPSK config, both at M = 50, and the
# q = 5 geometry of the mc_five_sources benchmark workload (M = 64) at 20 dB only
README = """m = 8
spacing_ratio = 0.5
M = 50
q = 2
sources = 30/40, 70/120
signal_model = unit_power_random_phase
snr_db_list = 20, 30
trials = 400
seed = 12345
mode = truncated_svd
output_path = unused.csv
"""
THREE_SOURCES = (
    README.replace("q = 2", "q = 3")
    .replace("sources = 30/40, 70/120", "sources = 30/40, 70/120, 110/80")
    .replace("unit_power_random_phase", "qpsk")
)
FIVE_SOURCES = (
    README.replace("M = 50", "M = 64").replace("q = 2", "q = 5")
    .replace("sources = 30/40, 70/120", "sources = 30/40, 60/100, 100/60, 140/130, 80/150")
    .replace("snr_db_list = 20, 30", "snr_db_list = 20").replace("trials = 400", "trials = 2000")
)


def _matched_errors(Y, cfg):
    # theta's then phi's errors (T x 2q, truth order) of the estimates of a stack; none may fail
    est = estimate_stack(Y, cfg.q, cfg.array_config(), cfg.mode)
    assert all(exc is None for exc in est.errors)
    return np.concatenate(_match_to_truth(est.theta_deg, est.phi_deg, cfg.sources), axis=1)


def _perturbation_terms(cfg, draws):
    # per S draw (rows) and for each of the 2q angles: ||J_row||^2 and tr H, in degrees per unit
    # noise^2, so the RMSE is sqrt((sigma^2 / 2) * the first) and the bias (sigma^2 / 4) * the second
    jacobian2 = np.zeros((draws, 2 * cfg.q))
    trace = np.zeros((draws, 2 * cfg.q))
    for draw in range(draws):
        Z, X, _ = synthesize(cfg.source_set(), cfg.array_config(), cfg.M, 0.0, np.random.default_rng(draw))
        Y0 = np.vstack([Z.data, X.data])
        base = _matched_errors(Y0[None], cfg)
        entries = Y0.size
        # entry k < entries steps the real part of entry k, entry entries + k its imaginary part
        steps = np.concatenate([np.full(entries, H), np.full(entries, 1j * H)])
        for k0 in range(0, len(steps), CHUNK):
            k = np.arange(k0, min(k0 + CHUNK, len(steps)))
            # copies 0..len(k)-1 step each entry up, the next len(k) step it down
            Y = np.repeat(Y0[None], 2 * len(k), axis=0)
            Y.reshape(2 * len(k), -1)[np.arange(2 * len(k)), np.tile(k % entries, 2)] += np.concatenate([steps[k], -steps[k]])
            up, down = np.split(_matched_errors(Y, cfg), 2)
            jacobian2[draw] += np.sum(((up - down) / (2 * H)) ** 2, axis=0)
            trace[draw] += np.sum((up - 2 * base + down) / H**2, axis=0)
    return jacobian2, trace


# q = 5 takes 8 draws: its per-draw biases spread widely, and 4 draws understate that spread
@pytest.mark.parametrize("text, draws, signed", [(README, 4, None), (THREE_SOURCES, 4, None), (FIVE_SOURCES, 8, 0)],
                         ids=["readme", "three_sources", "five_sources"])
def test_rmse_and_bias_match_the_perturbation_prediction(text, draws, signed):
    # signed: the source whose phi bias the prediction puts far enough from zero to fix its sign
    cfg = parse_config(text)
    jacobian2, trace = _perturbation_terms(cfg, draws)
    report = monte_carlo(cfg, workers=1)
    for row in report.rows:
        assert row["failure_count"] == 0
        i = row["source_index"]
        sigma2 = cfg.noise_variance(row["snr_db"])
        angles = [i, cfg.q + i]
        rmse = np.array([row["rmse_theta_deg"], row["rmse_phi_deg"]])
        bias = np.array([row["bias_theta_deg"], row["bias_phi_deg"]])
        predicted_rmse = np.sqrt(sigma2 / 2.0 * jacobian2[:, angles].mean(axis=0))
        predicted_bias = sigma2 / 4.0 * trace[:, angles].mean(axis=0)
        se = np.hypot(rmse / np.sqrt(row["trials"]), sigma2 / 4.0 * trace[:, angles].std(axis=0, ddof=1) / np.sqrt(draws))
        where = f"{row['snr_db']} dB, source {i}"
        np.testing.assert_array_less(np.abs(rmse / predicted_rmse - 1.0), 0.15, err_msg=where)
        np.testing.assert_array_less(np.abs(bias - predicted_bias), 3.0 * se, err_msg=where)
        if i == signed:
            assert abs(predicted_bias[1]) > 3.0 * se[1], where
            assert np.sign(bias[1]) == np.sign(predicted_bias[1]), where


# the fuzz's config space: every config the parser accepts with m from 3 to 10, q from 1 to 4,
# d / lambda from 0.05 to 0.5, M from max(q, m - 1) to 4m and random-phase sources at 60 dB
FUZZ = """m = {m}
spacing_ratio = {spacing!r}
M = {M}
q = {q}
sources = {sources}
signal_model = unit_power_random_phase
snr_db_list = 60
trials = 40
seed = 1
mode = truncated_svd
output_path = unused.csv
"""
# measured over 184 failure-free configs of this space (40 trials, 2 S draws): RMSE / prediction
# spanned 0.66-1.48, 0.70-1.35 from the 1st to the 99th percentile; the top of the range sits at
# M <= 6, where S S^H / M is far from I and two draws do not average it out
BAND = (0.5, 2.0)
FUZZ_CONFIGS = 50
MIN_GATED = 40  # failure-free configs the gate must cover, so that it cannot pass vacuously


@st.composite
def _accepted_configs(draw):
    # each value is uniform, as in the measured fuzz, from a stream Hypothesis seeds: its own draws
    # favour the ends of a range, where M = q or a source at phi = 0 or 180 would dominate the sample
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = int(rng.integers(3, 11))
    q = int(rng.integers(1, min(4, m - 2) + 1))
    M = int(rng.integers(max(q, m - 1), 4 * m + 1))
    spacing = float(rng.uniform(0.05, 0.5))
    sources = ", ".join(f"{theta!r}/{phi!r}" for theta, phi in rng.uniform(0.0, 180.0, (q, 2)).tolist())
    try:
        return parse_config(FUZZ.format(m=m, spacing=spacing, M=M, q=q, sources=sources))
    except AoaError:
        assume(False)  # a source near the Z axis, or two too close in psi or xi


def test_accepted_configs_match_the_perturbation_prediction():
    gated, failing = set(), set()

    @settings(max_examples=FUZZ_CONFIGS, deadline=None, derandomize=True, database=None)
    @given(cfg=_accepted_configs())
    def check(cfg):
        rows = monte_carlo(cfg, workers=1).rows
        if any(row["failure_count"] for row in rows):
            failing.add(cfg)
            return
        jacobian2, _ = _perturbation_terms(cfg, 2)
        predicted = np.sqrt(cfg.noise_variance(60.0) / 2.0 * jacobian2.mean(axis=0))
        measured = np.array([[row["rmse_theta_deg"], row["rmse_phi_deg"]] for row in rows]).T.ravel()
        ratio = measured / predicted
        assert np.all((BAND[0] <= ratio) & (ratio <= BAND[1])), (cfg, ratio)
        gated.add(cfg)

    check()
    assert len(gated) >= MIN_GATED, (len(gated), len(failing))
