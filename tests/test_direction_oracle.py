"""``directions_from_electrical`` against the scalar mapping it replaced.

The reference below is ``direction_from_electrical`` as it was when it mapped
one (psi, xi) pair at a time, with its ``_clamped`` helper.  Every trial of a
stack must get the same bits of (theta, phi) as mapping its pairs one at a
time, or the same exception class and message as the first pair that fails.
The one deliberate difference is the number in the xi message, which the
reference printed as a numpy repr, np.float64(...).
"""

import re

import numpy as np
from hypothesis import given, settings, strategies as st

from laoa.array_model import (
    CLAMP_TOL,
    GUARD_DEG,
    ArrayConfig,
    DirectionPair,
    direction_from_electrical,
    directions_from_electrical,
)
from laoa.errors import AoaError, DegenerateElevation, OutOfRange, ParseError


def oracle_direction(psi: float, xi: float, cfg: ArrayConfig) -> DirectionPair:
    scale = 2.0 * np.pi * cfg.spacing_ratio

    cos_theta = _clamped(psi / scale, "psi")
    theta = np.arccos(cos_theta)

    if np.sin(theta) < np.sin(np.deg2rad(GUARD_DEG)):
        raise DegenerateElevation(
            f"theta = {np.rad2deg(theta):.6g} deg is within {GUARD_DEG} deg of an "
            "array axis; azimuth is undefined"
        )

    cos_phi = _clamped(xi / (scale * np.sin(theta)), "xi")
    phi = np.arccos(cos_phi)
    return DirectionPair(theta=float(np.rad2deg(theta)), phi=float(np.rad2deg(phi)))


def _clamped(x: float, label: str) -> float:
    if not abs(x) <= 1.0 + CLAMP_TOL:  # written as "not <=" so NaN is out of range too
        raise OutOfRange(
            f"arccos argument {x!r} derived from {label} exceeds [-1, 1] "
            f"beyond CLAMP_TOL={CLAMP_TOL}"
        )
    return min(1.0, max(-1.0, x))


def _oracle_trial(psi_row, xi_row, cfg):
    # the trial's (theta, phi) bits, or its first failure as (class, message)
    theta, phi = [], []
    for psi, xi in zip(psi_row, xi_row):
        try:
            d = oracle_direction(psi, xi, cfg)
        except (OutOfRange, DegenerateElevation) as exc:
            return type(exc), _plain(str(exc))
        theta.append(d.theta.hex())
        phi.append(d.phi.hex())
    return theta, phi


def _edges(scale: float) -> list[float]:
    # arccos arguments at and next to the clamp tolerance, and psi at the elevation guard
    edges = []
    for x in (1.0 + CLAMP_TOL, 1.0, np.cos(np.deg2rad(GUARD_DEG)), 0.0):
        for y in (np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)):
            edges += [y * scale, -y * scale]
    return edges


@st.composite
def _stacks(draw):
    cfg = ArrayConfig(m=4, spacing_ratio=draw(st.sampled_from([0.5, 0.37, 0.05])))
    scale = 2.0 * np.pi * cfg.spacing_ratio
    q = draw(st.integers(1, 5))
    T = draw(st.integers(1, 6))
    wide = st.floats(-1.1 * scale, 1.1 * scale)
    psi = draw(st.lists(st.lists(wide | st.sampled_from(_edges(scale)), min_size=q, max_size=q), min_size=T, max_size=T))
    # xi on the clamp edges of its own psi's sin(theta), where that is defined, or anywhere
    xi = []
    for row in psi:
        xi_row = []
        for p in row:
            sin_theta = np.sin(np.arccos(min(1.0, max(-1.0, p / scale))))
            edge = st.sampled_from([e * sin_theta for e in _edges(scale)[:6]])
            xi_row.append(draw(wide | edge | st.sampled_from([np.nan, np.inf, -0.0])))
        xi.append(xi_row)
    if draw(st.booleans()):
        psi[0][0] = np.nan
    preset = draw(st.lists(st.booleans(), min_size=T, max_size=T))
    return cfg, np.array(psi, dtype=float), np.array(xi, dtype=float), preset


@settings(max_examples=400, deadline=None, derandomize=True)
@given(stack=_stacks())
def test_each_trial_maps_as_its_pairs_map_one_at_a_time(stack):
    cfg, psi, xi, preset = stack
    marker = ParseError("set before the mapping")
    errors = [marker if p else None for p in preset]
    theta, phi = directions_from_electrical(psi, xi, cfg, errors)
    assert theta.shape == phi.shape == psi.shape
    for t, (psi_row, xi_row) in enumerate(zip(psi.tolist(), xi.tolist())):
        if preset[t]:
            # a trial that already failed is left alone
            assert errors[t] is marker and np.all(np.isnan(theta[t])) and np.all(np.isnan(phi[t]))
            continue
        want = _oracle_trial(psi_row, xi_row, cfg)
        if isinstance(want[0], list):
            assert errors[t] is None
            assert ([x.hex() for x in theta[t].tolist()], [x.hex() for x in phi[t].tolist()]) == want
        else:
            assert isinstance(errors[t], AoaError) and (type(errors[t]), str(errors[t])) == want
            assert np.all(np.isnan(theta[t])) and np.all(np.isnan(phi[t]))
        # the scalar mapping is a stack of one over the same code
        for p, x in zip(psi_row, xi_row):
            assert _scalar(direction_from_electrical, p, x, cfg) == _scalar(oracle_direction, p, x, cfg, _plain)


def _scalar(mapping, psi, xi, cfg, message=str):
    # one pair's (theta, phi) bits, or its failure as (class, message)
    try:
        d = mapping(psi, xi, cfg)
    except (OutOfRange, DegenerateElevation) as exc:
        return type(exc), message(str(exc))
    return d.theta.hex(), d.phi.hex()


def _plain(message: str) -> str:
    return re.sub(r"np\.float64\((.*?)\)", r"\1", message)
