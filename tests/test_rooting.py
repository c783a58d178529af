import warnings

import numpy as np
import pytest

from laoa import electrical_angles_from_roots, find_roots, select_unit_roots
from laoa.errors import ConvergenceFailure, NotEnoughRoots


class TestFindRoots:
    def test_linear(self):
        errors = [None]
        roots = find_roots(np.array([[1j]]), errors)
        assert errors == [None]
        np.testing.assert_allclose(roots[0], [1j], atol=1e-12)

    def test_difference_of_squares(self):
        errors = [None]
        roots = sorted(find_roots(np.array([[0.0, -1.0]]), errors)[0], key=lambda r: r.real)
        assert errors == [None]
        np.testing.assert_allclose(roots, [-1.0, 1.0], atol=1e-12)

    def test_degree_deflation(self):
        # trailing near-zero coefficients are stripped before solving; the row is NaN past its degree
        errors = [None]
        roots = find_roots(np.array([[1j, 1e-15, 1e-16]]), errors)[0]
        assert errors == [None]
        assert np.count_nonzero(~np.isnan(roots)) == 1 and np.all(np.isnan(roots[1:]))
        np.testing.assert_allclose(roots[:1], [1j], atol=1e-10)

    def test_all_zero_coefficients(self):
        errors = [None]
        find_roots(np.array([[0.0, 0.0]]), errors)
        assert isinstance(errors[0], NotEnoughRoots)
        assert "no roots exist" in str(errors[0])

    def test_eigenvalue_failure_is_convergence_failure(self, monkeypatch):
        real_eigvals = np.linalg.eigvals

        def no_convergence(a):
            # fails a call unless each matrix is an identity, which LAPACK always handles and on which
            # lapack_stack's last call runs the failed items
            if not np.array_equal(a, np.broadcast_to(np.eye(a.shape[-1]), a.shape)):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigvals(a)

        monkeypatch.setattr(np.linalg, "eigvals", no_convergence)
        errors = [None]
        find_roots(np.array([[1j, 0.5]]), errors)
        assert isinstance(errors[0], ConvergenceFailure)

    def test_nan_rows_fail_without_a_warning_and_leave_their_neighbours_alone(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors = [None, None]
            roots = find_roots(np.array([[np.nan, 1], [1j, 0.5]]), errors)
            alone = find_roots(np.array([[1j, 0.5]]), [None])
            nan_errors = [None, None]
            find_roots(np.array([[np.nan, 1], [np.nan, 0.5]]), nan_errors)
        assert isinstance(errors[0], ConvergenceFailure) and errors[1] is None
        assert roots[1:].tobytes() == alone.tobytes()
        assert all(isinstance(exc, ConvergenceFailure) for exc in nan_errors)

    @pytest.mark.parametrize("degree", range(1, 8))
    def test_each_row_alone_gets_the_bits_it_gets_in_a_stack(self, degree):
        # a row's roots do not depend on its neighbours; numpy multiplies a one-element complex
        # array in place by another path than a longer one, which a lone degree-1 row's Newton
        # step once took
        rng = np.random.default_rng(40 + degree)
        for _ in range(50):
            c = rng.standard_normal((3, degree)) + 1j * rng.standard_normal((3, degree))
            stack = find_roots(c, [None] * 3)
            for i in range(3):
                assert find_roots(c[i:i + 1], [None]).tobytes() == stack[i:i + 1].tobytes()

    def test_random_polynomials_vieta(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(1, 11))
            c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            errors = [None]
            roots = find_roots(c[None], errors)[0]
            assert errors == [None]
            assert np.count_nonzero(~np.isnan(roots)) == n
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
            errors = [None]
            got = find_roots(c[None], errors)[0]
            assert errors == [None]
            np.testing.assert_allclose(
                np.sort_complex(got), np.sort_complex(roots), rtol=1e-7, atol=1e-7
            )


class TestResidualPolyval:
    """``np.polyval``, as the residual bound calls it, against the Horner loop it replaced."""

    @staticmethod
    def loop_polyval(poly, y):
        # the replaced loop: each row's value, coefficients ascending, in np.polyval's steps
        p = np.zeros_like(y)
        for k in range(poly.shape[1] - 1, -1, -1):
            p *= y
            p += poly[:, k:k + 1]
        return p

    @staticmethod
    def numpy_polyval(poly, y):
        return np.polyval(poly.T[::-1, :, None], y)

    @staticmethod
    def stacks(rng, special):
        # (coefficients, points) of 2..40 rows of degree 1..7, complex and, as the majorant takes them, absolute
        for _ in range(400):
            d, n = int(rng.integers(1, 8)), int(rng.integers(2, 41))
            a = rng.standard_normal((n, d + 1)) + 1j * rng.standard_normal((n, d + 1))
            r = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
            for x in (a, r):
                hit = rng.random(x.shape) < 0.1
                x[hit] = rng.choice(special, size=x.shape)[hit]
            yield a, r
            yield np.abs(a), np.abs(r)

    def test_finite_stacks_give_the_same_bits(self):
        for a, r in self.stacks(np.random.default_rng(33), np.array([0.0, -0.0, 1.0, 1j])):
            assert self.numpy_polyval(a, r).tobytes() == self.loop_polyval(a, r).tobytes()

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_and_inf_entries_give_the_same_bits_but_a_nan_sign(self):
        # a NaN's sign can differ between an in-place and an out-of-place multiply;
        # the bound takes the residual's modulus and fails on any NaN, so every NaN counts as one
        special = np.array([np.nan, np.inf, -np.inf, complex(np.inf, np.nan), complex(0, -np.inf), complex(np.nan, 1)])
        for a, r in self.stacks(np.random.default_rng(34), special):
            got, want = self.numpy_polyval(a, r), self.loop_polyval(a, r)
            for v in (got, want):
                v.view(float)[np.isnan(v.view(float))] = np.nan
            assert got.tobytes() == want.tobytes()

    def test_a_single_value_is_evaluated_as_in_a_stack(self):
        # numpy multiplies a one-element complex array in place by another path than a longer
        # one, so the loop's bits for one row of degree 1 could differ by an ulp from the same
        # row in a longer stack; np.polyval multiplies out of place and gives the stack's bits
        rng = np.random.default_rng(35)
        a = rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2))
        r = rng.standard_normal((200, 1)) + 1j * rng.standard_normal((200, 1))
        alone = np.concatenate([self.numpy_polyval(a[i:i + 1], r[i:i + 1]) for i in range(200)])
        assert alone.tobytes() == self.numpy_polyval(a, r).tobytes() == self.loop_polyval(a, r).tobytes()


class TestSelectUnitRoots:
    def test_unique_minimizer(self):
        roots = [0.5 + 0j, 1.01 * np.exp(1j * np.pi / 4), 3j]
        errors = [None]
        assert select_unit_roots(np.array([roots]), 1, errors)[0].tolist() == [1]
        assert errors == [None]

    def test_all_on_circle(self):
        errors = [None]
        assert sorted(select_unit_roots(np.array([[1 + 0j, -1 + 0j]]), 2, errors)[0]) == [0, 1]
        assert errors == [None]

    def test_not_enough_roots(self):
        # NaN padding past a row's degree counts as no root
        errors = [None, None]
        select_unit_roots(np.array([[1 + 0j], [np.nan]]), 1, errors)
        assert errors[0] is None and isinstance(errors[1], NotEnoughRoots)
        errors = [None]
        select_unit_roots(np.array([[1 + 0j]]), 2, errors)
        assert isinstance(errors[0], NotEnoughRoots)

    def test_permutation_invariant_values(self):
        rng = np.random.default_rng(33)
        roots = rng.uniform(0.2, 2.0, 7) * np.exp(1j * rng.uniform(-np.pi, np.pi, 7))
        # row 0 is the root set itself, rows 1-10 shuffles of it
        stack = np.stack([roots] + [roots[rng.permutation(7)] for _ in range(10)])
        errors = [None] * len(stack)
        sel = select_unit_roots(stack, 3, errors)
        assert errors == [None] * len(stack)
        values = sorted(stack[0, sel[0]], key=lambda r: (r.real, r.imag))
        for shuffled, sel2 in zip(stack[1:], sel[1:]):
            values2 = sorted(shuffled[sel2], key=lambda r: (r.real, r.imag))
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
