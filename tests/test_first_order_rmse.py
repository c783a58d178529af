"""The Monte Carlo RMSE against the estimator's own first-order prediction.

At high SNR the estimator is smooth in the data, so its error is linear in
the noise: delta = J n, with J its Jacobian at the noiseless data and n the
4mM real noise entries, each of variance sigma^2 / 2.  J comes from the code
under test by forward differences of ``estimate_stack``, one perturbed copy
per real noise entry, so the prediction needs no formula (the first-order
analysis of Rao & Hari, IEEE Trans. ASSP 1989, and Li, Liu & Vaccaro, IEEE
Trans. AES 1993).  Each angle's predicted RMSE is
sqrt((sigma^2 / 2) * mean ||J_row||^2) over a few draws of S.

The gate holds the measured RMSE within +-15% of it at 20 and 30 dB.  The
relative spread of an RMSE over T = 400 trials is ~1/sqrt(2T) = 3.5%, so the
band is above 4 standard deviations, and a noise scale off by sqrt(2) (a
ratio of 1.41) or a wrong pairing on some trials fails it.  The bias is held
below 3 standard errors.  The prediction covers the truncated-SVD mode only:
the noiseless mode's rank jumps at the noiseless point.
"""

import numpy as np
import pytest

from laoa import parse_config, synthesize
from laoa.estimator import estimate_stack
from laoa.montecarlo import _match_to_truth, monte_carlo

H = 1e-7  # forward-difference step on each real noise entry
S_DRAWS = 4
CHUNK = 400  # perturbed copies per estimate_stack call

# the README geometry and the q = 3 sources of CI's QPSK config, both at M = 50
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


def _matched_errors(Y, cfg):
    # theta's then phi's errors (T x 2q, truth order) of the estimates of a stack; none may fail
    est = estimate_stack(Y, cfg.q, cfg.array_config(), cfg.mode)
    assert all(exc is None for exc in est.errors)
    return np.concatenate(_match_to_truth(est.theta_deg, est.phi_deg, cfg.sources), axis=1)


def _mean_squared_jacobian(cfg):
    # mean over S draws of ||J_row||^2 for each of the 2q angles, in degrees^2 per unit noise^2
    total = np.zeros(2 * cfg.q)
    for draw in range(S_DRAWS):
        Z, X, _ = synthesize(cfg.source_set(), cfg.array_config(), cfg.M, 0.0, np.random.default_rng(draw))
        Y0 = np.vstack([Z.data, X.data])
        base = _matched_errors(Y0[None], cfg)
        entries = Y0.size
        # copy k perturbs the real part of entry k, copy entries + k its imaginary part
        steps = np.concatenate([np.full(entries, H), np.full(entries, 1j * H)])
        for k0 in range(0, len(steps), CHUNK):
            k = np.arange(k0, min(k0 + CHUNK, len(steps)))
            Y = np.repeat(Y0[None], len(k), axis=0)
            Y.reshape(len(k), -1)[np.arange(len(k)), k % entries] += steps[k]
            J = (_matched_errors(Y, cfg) - base) / H
            total += np.sum(J**2, axis=0)
    return total / S_DRAWS


@pytest.mark.parametrize("text", [README, THREE_SOURCES], ids=["readme", "three_sources"])
def test_rmse_matches_the_first_order_prediction(text):
    cfg = parse_config(text)
    jacobian2 = _mean_squared_jacobian(cfg)
    report = monte_carlo(cfg, workers=1)
    for row in report.rows:
        assert row["failure_count"] == 0
        i = row["source_index"]
        predicted = np.sqrt(cfg.noise_variance(row["snr_db"]) / 2.0 * jacobian2[[i, cfg.q + i]])
        rmse = np.array([row["rmse_theta_deg"], row["rmse_phi_deg"]])
        bias = np.array([row["bias_theta_deg"], row["bias_phi_deg"]])
        where = f"{row['snr_db']} dB, source {i}"
        np.testing.assert_array_less(np.abs(rmse / predicted - 1.0), 0.15, err_msg=where)
        np.testing.assert_array_less(np.abs(bias), 3.0 * rmse / np.sqrt(row["trials"]), err_msg=where)
