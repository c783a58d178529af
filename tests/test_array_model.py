import numpy as np
import pytest

from laoa import (
    ArrayConfig,
    DirectionPair,
    direction_from_electrical,
    psi_from_direction,
    steering_vector,
    xi_from_direction,
)
from laoa.array_model import directions_from_electrical, electrical_angles
from laoa.errors import DegenerateElevation, OutOfRange


HALF = ArrayConfig(m=4, spacing_ratio=0.5)


class TestValidation:
    def test_m_too_small(self):
        with pytest.raises(ValueError):
            ArrayConfig(m=1, spacing_ratio=0.5)

    @pytest.mark.parametrize("ratio", [0.0, -0.1, 0.6])
    def test_spacing_out_of_range(self, ratio):
        with pytest.raises(ValueError):
            ArrayConfig(m=4, spacing_ratio=ratio)

    @pytest.mark.parametrize("theta,phi", [(0.0, 90.0), (180.0, 90.0), (90.0, -1.0), (90.0, 181.0)])
    def test_direction_domain(self, theta, phi):
        with pytest.raises(ValueError):
            DirectionPair(theta=theta, phi=phi)


class TestForwardMapping:
    def test_psi_broadside_is_zero(self):
        assert psi_from_direction(DirectionPair(90.0, 45.0), HALF) == pytest.approx(0.0, abs=1e-15)

    def test_psi_sixty_degrees(self):
        # cos 60 = 1/2 exactly
        assert psi_from_direction(DirectionPair(60.0, 10.0), HALF) == pytest.approx(np.pi / 2, abs=1e-12)

    def test_psi_quarter_spacing(self):
        cfg = ArrayConfig(m=4, spacing_ratio=0.25)
        assert psi_from_direction(DirectionPair(45.0, 10.0), cfg) == pytest.approx(np.pi * np.sqrt(2) / 4, abs=1e-12)

    def test_xi_orthogonal_azimuth(self):
        assert xi_from_direction(DirectionPair(90.0, 90.0), HALF) == pytest.approx(0.0, abs=1e-15)

    def test_xi_endfire(self):
        assert xi_from_direction(DirectionPair(90.0, 0.0), HALF) == pytest.approx(np.pi, abs=1e-12)

    def test_xi_sixty_sixty(self):
        assert xi_from_direction(DirectionPair(60.0, 60.0), HALF) == pytest.approx(np.pi * np.sqrt(3) / 4, abs=1e-12)

    def test_psi_bounded_by_spacing(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            cfg = ArrayConfig(m=3, spacing_ratio=float(rng.uniform(0.01, 0.5)))
            d = DirectionPair(float(rng.uniform(0.01, 179.99)), float(rng.uniform(0, 180)))
            bound = 2 * np.pi * cfg.spacing_ratio
            assert abs(psi_from_direction(d, cfg)) <= bound + 1e-12
            assert bound <= np.pi + 1e-12

    def test_array_mapping_keeps_the_scalar_order_of_operations(self):
        # ((2 pi d/lambda) cos theta) and (((2 pi d/lambda) sin theta) cos phi), bit for bit,
        # and the scalar functions are its stack of one
        rng = np.random.default_rng(8)
        for q in range(1, 8):
            cfg = ArrayConfig(m=3, spacing_ratio=float(rng.uniform(0.01, 0.5)))
            dirs = [DirectionPair(float(rng.uniform(0.01, 179.99)), float(rng.uniform(0, 180))) for _ in range(q)]
            psi, xi = electrical_angles(dirs, cfg)
            assert psi.shape == xi.shape == (q,)
            for d, p, x in zip(dirs, psi, xi):
                t, f = np.deg2rad(d.theta), np.deg2rad(d.phi)
                assert p == 2.0 * np.pi * cfg.spacing_ratio * np.cos(t) == psi_from_direction(d, cfg)
                assert x == 2.0 * np.pi * cfg.spacing_ratio * np.sin(t) * np.cos(f) == xi_from_direction(d, cfg)


class TestSteeringVector:
    @pytest.mark.parametrize("m", [1, 0, -2])
    def test_needs_two_elements(self, m):
        with pytest.raises(ValueError) as info:
            steering_vector(0.5, m)
        assert f"m must be >= 2, got {m}" in str(info.value)

    def test_zero_phase(self):
        assert np.array_equal(steering_vector(0.0, 4), np.ones(4, dtype=complex))

    def test_quarter_turn(self):
        np.testing.assert_allclose(steering_vector(np.pi / 2, 3), [1, 1j, -1], atol=1e-15)

    def test_numeric_value(self):
        # second entry frozen from a 30-digit evaluation of e^{j*pi*sqrt(2)/4}
        v = steering_vector(np.pi * np.sqrt(2) / 4, 2)
        np.testing.assert_allclose(v, [1, 0.4440158403 + 0.8960189359j], atol=1e-9)

    def test_first_element_exactly_one(self):
        assert steering_vector(1.234, 5)[0] == 1.0 + 0.0j

    def test_unit_modulus_and_conjugate_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = float(rng.uniform(-np.pi, np.pi))
            m = int(rng.integers(2, 12))
            v = steering_vector(a, m)
            np.testing.assert_allclose(np.abs(v), 1.0, atol=1e-14)
            np.testing.assert_allclose(v * steering_vector(-a, m), 1.0, atol=1e-14)

    def test_array_of_angles_gives_the_stacked_columns(self):
        rng = np.random.default_rng(4)
        for q in (1, 2, 5):
            angles = rng.uniform(-np.pi, np.pi, q)
            stacked = np.column_stack([steering_vector(a, 8) for a in angles])
            assert np.array_equal(steering_vector(angles, 8), stacked)


class TestInverseMapping:
    def test_broadside(self):
        d = direction_from_electrical(0.0, 0.0, HALF)
        assert d.theta == pytest.approx(90.0, abs=1e-12)
        assert d.phi == pytest.approx(90.0, abs=1e-12)

    def test_sixty_sixty(self):
        d = direction_from_electrical(np.pi / 2, np.pi * np.sqrt(3) / 4, HALF)
        assert d.theta == pytest.approx(60.0, abs=1e-9)
        assert d.phi == pytest.approx(60.0, abs=1e-9)

    def test_boundary_psi_out_of_range(self):
        with pytest.raises(OutOfRange):
            direction_from_electrical(np.pi * (1 + 1e-7), 0.0, HALF)

    @pytest.mark.parametrize("psi, xi", [(np.nan, 0.0), (0.0, np.nan)])
    def test_nan_is_out_of_range(self, psi, xi):
        with pytest.raises(OutOfRange):
            direction_from_electrical(psi, xi, HALF)

    @pytest.mark.parametrize("psi, xi, label", [(np.pi * (1 + 1e-7), 0.0, "psi"), (1.0, 3.1, "xi")], ids=["psi", "xi"])
    def test_out_of_range_message_prints_a_plain_number(self, psi, xi, label):
        # numpy scalars in, so a message built from them would show np.float64(...)
        with pytest.raises(OutOfRange, match=f"derived from {label}") as info:
            direction_from_electrical(np.float64(psi), np.float64(xi), ArrayConfig(8, 0.5))
        number = str(info.value).split()[2]
        assert abs(float(number)) > 1.0

    def test_boundary_psi_clamped_then_degenerate(self):
        with pytest.raises(DegenerateElevation):
            direction_from_electrical(np.pi * (1 + 1e-12), 0.0, HALF)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            cfg = ArrayConfig(m=3, spacing_ratio=float(rng.uniform(0.05, 0.5)))
            d = DirectionPair(float(rng.uniform(1.5, 178.5)), float(rng.uniform(0.0, 180.0)))
            back = direction_from_electrical(psi_from_direction(d, cfg), xi_from_direction(d, cfg), cfg)
            assert back.theta == pytest.approx(d.theta, abs=1e-9)
            assert back.phi == pytest.approx(d.phi, abs=1e-9)


class TestElevationGuard:
    """The guard measures theta to the nearer pole, so it is symmetric about 90 degrees."""

    def _map(self, theta):
        d = DirectionPair(theta, 40.0)
        errors = [None]
        psi, xi = np.array([[psi_from_direction(d, HALF)]]), np.array([[xi_from_direction(d, HALF)]])
        theta_deg, phi_deg = directions_from_electrical(psi, xi, HALF, errors)
        return errors[0], theta_deg[0, 0], phi_deg[0, 0]

    @pytest.mark.parametrize("theta", [0.5, 179.5])
    def test_degenerate_near_either_pole(self, theta):
        exc, theta_deg, phi_deg = self._map(theta)
        assert type(exc) is DegenerateElevation and np.isnan(theta_deg) and np.isnan(phi_deg)

    @pytest.mark.parametrize("theta", [1.5, 178.5])
    def test_mapped_just_outside_the_guard(self, theta):
        exc, theta_deg, phi_deg = self._map(theta)
        assert exc is None
        assert theta_deg == pytest.approx(theta, abs=1e-9) and phi_deg == pytest.approx(40.0, abs=1e-6)
