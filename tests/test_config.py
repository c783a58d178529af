from dataclasses import fields, replace

import pytest

from laoa import ExperimentConfig, parse_config, serialize_config
from laoa.config import _KEYS
from laoa.errors import ParseError
from laoa.estimator import EstimatorMode
from laoa.synthesis import SignalModel

GOOD = """\
# sample experiment
m = 8
spacing_ratio = 0.5
M = 200
q = 2
sources = 30/40, 70/120
signal_model = unit_power_random_phase
snr_db_list = 0, 10, 20, 30
trials = 500
seed = 12345
mode = truncated_svd
output_path = report.csv
"""


def test_parse_good():
    cfg = parse_config(GOOD)
    assert cfg.m == 8 and cfg.M == 200 and cfg.q == 2
    assert cfg.sources[1].theta == 70 and cfg.sources[1].phi == 120
    assert cfg.snr_db_list == (0, 10, 20, 30)
    assert cfg.mode is EstimatorMode.TRUNCATED_SVD
    assert cfg.signal_model is SignalModel.UNIT_POWER_RANDOM_PHASE
    assert cfg.seed == 12345


def test_round_trip_lossless():
    cfg = parse_config(GOOD)
    again = parse_config(serialize_config(cfg))
    assert again == cfg
    assert serialize_config(again) == serialize_config(cfg)


def test_the_key_table_follows_the_config_fields():
    assert list(_KEYS) == [f.name for f in fields(ExperimentConfig)]


def test_serialize_the_readme_config():
    assert serialize_config(parse_config(GOOD)) == (
        "m = 8\n"
        "spacing_ratio = 0.5\n"
        "M = 200\n"
        "q = 2\n"
        "sources = 30.0/40.0, 70.0/120.0\n"
        "signal_model = unit_power_random_phase\n"
        "snr_db_list = 0.0, 10.0, 20.0, 30.0\n"
        "trials = 500\n"
        "seed = 12345\n"
        "mode = truncated_svd\n"
        "output_path = report.csv\n"
    )


def test_missing_keys_are_listed_in_file_order():
    text = "".join(line + "\n" for line in GOOD.splitlines() if not line.startswith(("mode", "M ", "sources")))
    with pytest.raises(ParseError, match="^missing keys: M, sources, mode$"):
        parse_config(text)


def test_missing_key():
    text = GOOD.replace("trials = 500\n", "")
    with pytest.raises(ParseError, match="trials"):
        parse_config(text)


def test_unknown_key():
    with pytest.raises(ParseError, match="unknown"):
        parse_config(GOOD + "bogus = 1\n")


def test_duplicate_key():
    with pytest.raises(ParseError, match="duplicate"):
        parse_config(GOOD + "m = 9\n")


def test_q_source_mismatch():
    text = GOOD.replace("q = 2", "q = 3")
    with pytest.raises((ParseError, ValueError)):
        parse_config(text)


def test_bad_mode():
    text = GOOD.replace("truncated_svd", "banana")
    with pytest.raises(ParseError):
        parse_config(text)


def test_seed_override():
    cfg = parse_config(GOOD)
    assert cfg.with_seed(99).seed == 99


@pytest.mark.parametrize(
    "old, new, match",
    [
        ("m = 8", "m = 3", "q <= m - 2"),
        ("M = 200", "M = 6", "M >= max"),
        ("sources = 30/40, 70/120", "sources = 30/40, 31/41", "psi"),
        ("sources = 30/40, 70/120", "sources = 60/90, 120/90", "xi"),
        ("snr_db_list = 0, 10, 20, 30", "snr_db_list = 0, nan", "non-finite noise"),
        ("snr_db_list = 0, 10, 20, 30", "snr_db_list = -inf, 10", "non-finite noise"),
        ("snr_db_list = 0, 10, 20, 30", "snr_db_list = 0, -4000", "non-finite noise"),
        ("trials = 500", "trials = 500\npower = 1", "unknown keys: power"),
        ("sources = 30/40, 70/120", "sources = 30/40, 0.5/120", "source 1 at theta = 0.5 deg .* Z axis"),
        ("sources = 30/40, 70/120", "sources = 179.5/40, 70/120", "source 0 at theta = 179.5 deg .* Z axis"),
        ("snr_db_list = 0, 10, 20, 30", "snr_db_list = 10, 0, 10", "repeats an entry"),
        ("q = 2", "q 2", r"expected 'key = value', got 'q 2' \(line 5\)"),
        # (0, 2) and (1, 2) are both too close in psi, (1, 2) the closer: the first pair in row order is named
        ("q = 2\nsources = 30/40, 70/120", "q = 4\nsources = 90/20, 87.8/60, 88.6/100, 140/140",
         r"^invalid config value: sources 0 and 2 have psi separated by only 0\.07676 rad \(< 0\.1\); "
         "steering matrix would be near rank-deficient$"),
        # every psi is far from the others, so xi's check is the one that fails
        ("q = 2\nsources = 30/40, 70/120", "q = 3\nsources = 30/40, 60/88, 100/89",
         r"^invalid config value: sources 1 and 2 have xi separated by only 0\.04096 rad \(< 0\.1\); "
         "steering matrix would be near rank-deficient$"),
        # psi = +-3.1397 lie 6.279 rad apart on the line but 0.0038 rad apart on the circle
        ("sources = 30/40, 70/120", "sources = 2/40, 178/120", r"sources 0 and 1 have psi separated by only 0\.003828 rad"),
    ],
    ids=["q_too_large", "too_few_snapshots", "psi_too_close", "xi_too_close",
         "snr_nan", "snr_minus_inf", "snr_overflows", "power_is_not_a_key",
         "near_z_axis", "near_minus_z_axis", "snr_repeated", "line_without_equals",
         "psi_first_pair_named", "xi_only", "psi_across_pi"],
)
def test_rejects_scenarios_the_estimator_cannot_handle(old, new, match):
    with pytest.raises(ParseError, match=match):
        parse_config(GOOD.replace(old, new))


@pytest.mark.parametrize(
    "change, fragment",
    [
        ({"trials": 0}, "trials must be >= 1"),
        ({"snr_db_list": ()}, "snr_db_list must be nonempty"),
        ({"seed": -1}, "seed must be a 64-bit unsigned integer"),
        ({"seed": 2 ** 64}, "seed must be a 64-bit unsigned integer"),
    ],
    ids=["no_trials", "no_snr_points", "negative_seed", "seed_past_64_bits"],
)
def test_config_object_checks(change, fragment):
    # ExperimentConfig's own checks, on a config built in code: a file's empty snr_db_list fails in its reader first
    with pytest.raises(ValueError) as info:
        replace(parse_config(GOOD), **change)
    assert fragment in str(info.value)


def test_a_source_at_the_elevation_guard_is_accepted():
    # directions_from_electrical fails only min(theta, 180 - theta) < GUARD_DEG, so the
    # guard is symmetric about 90 deg (a test on sin(theta) refused 179 but not 1)
    for sources, i, theta in (("1/40, 70/120", 0, 1.0), ("30/40, 179/120", 1, 179.0)):
        cfg = parse_config(GOOD.replace("sources = 30/40, 70/120", f"sources = {sources}"))
        assert cfg.sources[i].theta == theta


def test_sources_have_unit_power():
    # power is a class constant, not a setting: the SNR alone sets the noise variance
    cfg = parse_config(GOOD)
    assert "power" not in {f.name for f in fields(ExperimentConfig)}
    assert cfg.power == 1.0
    assert cfg.noise_variance(10.0) == 0.1
    assert not any(line.startswith("power") for line in serialize_config(cfg).splitlines())


def test_plus_inf_db_is_the_noiseless_case():
    cfg = parse_config(GOOD.replace("snr_db_list = 0, 10, 20, 30", "snr_db_list = 0, inf"))
    assert cfg.snr_db_list == (0.0, float("inf"))


def test_rejects_more_sources_than_the_pairing_budget():
    # separated for m = 10, but 8! pairings exceed the permutation budget
    text = (GOOD.replace("m = 8", "m = 10").replace("q = 2", "q = 8")
            .replace("sources = 30/40, 70/120",
                     "sources = 41/166, 145/142, 87/47, 132/158, 57/96, 82/159, 26/127, 106/15"))
    with pytest.raises(ParseError, match="pairings"):
        parse_config(text)
