import pytest

from laoa import parse_config, serialize_config
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
    ],
    ids=["q_too_large", "too_few_snapshots", "psi_too_close", "xi_too_close"],
)
def test_rejects_scenarios_the_estimator_cannot_handle(old, new, match):
    with pytest.raises(ParseError, match=match):
        parse_config(GOOD.replace(old, new))


def test_rejects_more_sources_than_the_pairing_budget():
    # separated for m = 10, but 8! pairings exceed the permutation budget
    text = (GOOD.replace("m = 8", "m = 10").replace("q = 2", "q = 8")
            .replace("sources = 30/40, 70/120",
                     "sources = 41/166, 145/142, 87/47, 132/158, 57/96, 82/159, 26/127, 106/15"))
    with pytest.raises(ParseError, match="pairings"):
        parse_config(text)
