import numpy as np
import pytest

from laoa import electrical_angles_from_roots, find_roots, select_unit_roots
from laoa.errors import ConvergenceFailure, NotEnoughRoots


class TestFindRoots:
    def test_linear(self):
        roots = find_roots(np.array([1j]))
        np.testing.assert_allclose(roots, [1j], atol=1e-12)

    def test_difference_of_squares(self):
        roots = sorted(find_roots(np.array([0.0, -1.0])), key=lambda r: r.real)
        np.testing.assert_allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_degree_deflation(self):
        # trailing near-zero coefficients are stripped before solving
        roots = find_roots(np.array([1j, 1e-15, 1e-16]))
        assert len(roots) == 1
        np.testing.assert_allclose(roots, [1j], atol=1e-10)

    def test_all_zero_coefficients(self):
        with pytest.raises(NotEnoughRoots, match="no roots exist"):
            find_roots(np.array([0.0, 0.0]))

    def test_eigenvalue_failure_is_convergence_failure(self, monkeypatch):
        def no_convergence(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np, "roots", no_convergence)
        with pytest.raises(ConvergenceFailure):
            find_roots(np.array([1j, 0.5]))

    def test_random_polynomials_vieta(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            roots = np.array(find_roots(c))
            assert len(roots) == n
            # residual bound
            poly = np.concatenate(([1.0], c))
            for r in roots:
                scale = 1.0 + np.sum(np.abs(c) * np.abs(r) ** np.arange(1, n + 1))
                assert abs(np.polyval(poly[::-1], r)) <= 1e-8 * scale
            # Vieta: product and sum of roots from the extreme coefficients
            prod_ref = (-1) ** n / c[-1]
            assert abs(np.prod(roots) - prod_ref) <= 1e-8 * abs(prod_ref)
            sum_ref = -(c[-2] if n > 1 else 1.0) / c[-1]
            assert abs(np.sum(roots) - sum_ref) <= 1e-8 * max(1.0, abs(sum_ref))

    def test_root_coefficient_round_trip(self):
        rng = np.random.default_rng(32)
        for _ in range(50):
            n = int(rng.integers(2, 8))
            # well-separated roots away from zero
            while True:
                roots = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
                if np.min(np.abs(roots[:, None] - roots[None, :]) + np.eye(n)) >= 0.1:
                    break
            poly = np.poly(roots)[::-1]  # ascending, leading 1 at the end
            c = (poly / poly[0])[1:]
            got = np.array(find_roots(c))
            np.testing.assert_allclose(
                np.sort_complex(got), np.sort_complex(roots), rtol=1e-7, atol=1e-7
            )


class TestSelectUnitRoots:
    def test_unique_minimizer(self):
        roots = [0.5 + 0j, 1.01 * np.exp(1j * np.pi / 4), 3j]
        assert select_unit_roots(roots, 1) == [1]

    def test_all_on_circle(self):
        assert sorted(select_unit_roots([1 + 0j, -1 + 0j], 2)) == [0, 1]

    def test_not_enough_roots(self):
        with pytest.raises(NotEnoughRoots):
            select_unit_roots([1 + 0j], 2)

    def test_permutation_invariant_values(self):
        rng = np.random.default_rng(33)
        roots = list(rng.uniform(0.2, 2.0, 7) * np.exp(1j * rng.uniform(-np.pi, np.pi, 7)))
        sel = select_unit_roots(roots, 3)
        values = sorted((roots[i] for i in sel), key=lambda r: (r.real, r.imag))
        for _ in range(10):
            perm = rng.permutation(7)
            shuffled = [roots[i] for i in perm]
            sel2 = select_unit_roots(shuffled, 3)
            values2 = sorted((shuffled[i] for i in sel2), key=lambda r: (r.real, r.imag))
            np.testing.assert_allclose(values, values2)


class TestElectricalAnglesFromRoots:
    def test_quarter_turn(self):
        assert electrical_angles_from_roots([1j], [0]) == [np.pi / 2]

    def test_branch_convention_at_minus_one(self):
        assert electrical_angles_from_roots([-1 + 0j], [0]) == [np.pi]
        assert electrical_angles_from_roots([complex(-1, -0.0)], [0]) == [np.pi]

    def test_argument_ignores_magnitude(self):
        out = electrical_angles_from_roots([0.97 * np.exp(-2j)], [0])
        assert out[0] == pytest.approx(-2.0, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(34)
        roots = list(rng.standard_normal(50) + 1j * rng.standard_normal(50))
        out = electrical_angles_from_roots(roots, list(range(50)))
        assert all(-np.pi < a <= np.pi for a in out)
