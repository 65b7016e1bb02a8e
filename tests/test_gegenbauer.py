"""Gauss rule, barycentric interpolation, and integration matrix checks."""

import math

import numpy as np
import pytest
from numpy.polynomial import Polynomial
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import roots_jacobi

from adspectral import (bary_interpolate, build_basis,
                        build_integration_matrix, shift_integration_matrix,
                        singular_values, time_grid)
from adspectral import gegenbauer
from adspectral.gegenbauer import _gauss_legendre, _lagrange_matrix, \
    reference_rule

LAMBDAS = [-0.4, 0.0, 0.5, 1.0, 2.0]


def per_row_integration_matrix(basis):
    """Reference Q built one row at a time, as before the row blocks.

    Each row evaluates the Lagrange basis at its own Gauss-Legendre points,
    from a fresh leggauss call.
    """
    npts = (basis.order + 2) // 2 + 1
    glx, glw = np.polynomial.legendre.leggauss(npts)
    size = basis.order + 1
    entries = np.empty((size, size))
    for l in range(size):
        half = 0.5 * (basis.nodes[l] + 1.0)
        pts = -1.0 + half * (glx + 1.0)
        entries[l] = half * (glw @ _lagrange_matrix(basis, pts))
    return entries


class TestBuildBasis:
    def test_chebyshev_closed_form_m1(self):
        basis = build_basis(0.0, 1)
        assert_allclose(basis.nodes, [-np.sqrt(2) / 2, np.sqrt(2) / 2], atol=1e-15)
        assert_allclose(basis.christoffel, [np.pi / 2, np.pi / 2], atol=1e-15)

    def test_legendre_closed_form_m1(self):
        basis = build_basis(0.5, 1)
        assert_allclose(basis.nodes, [-1 / np.sqrt(3), 1 / np.sqrt(3)], atol=1e-15)
        assert_allclose(basis.christoffel, [1.0, 1.0], atol=1e-15)

    def test_chebyshev_closed_form_m12(self):
        basis = build_basis(0.0, 12)
        l = np.arange(13)
        expected = np.sort(np.cos(np.pi * (2 * l + 1) / 26))
        assert_allclose(basis.nodes, expected, atol=1e-14)
        assert_allclose(basis.christoffel, np.pi / 13, atol=1e-14)

    def test_weight_mass_negative_lambda(self):
        # Oracle: adaptive quadrature of (1 - x^2)^(-0.9) over (-1, 1).
        basis = build_basis(-0.4, 12)
        assert len(basis.nodes) == 13
        mass, _ = quad(lambda x: 1.0, -1.0, 1.0, weight="alg", wvar=(-0.9, -0.9))
        assert_allclose(basis.christoffel.sum(), mass, rtol=1e-12)
        closed = math.sqrt(math.pi) * math.gamma(0.1) / math.gamma(0.6)
        assert_allclose(basis.christoffel.sum(), closed, rtol=1e-12)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("order", [4, 12, 40])
    def test_node_symmetry_and_positivity(self, lam, order):
        basis = build_basis(lam, order)
        assert np.all(np.diff(basis.nodes) > 0)
        assert basis.nodes[0] > -1 and basis.nodes[-1] < 1
        assert_allclose(basis.nodes, -basis.nodes[::-1], atol=1e-13)
        assert_allclose(basis.christoffel, basis.christoffel[::-1], atol=1e-13)
        assert np.all(basis.christoffel > 0)

    @pytest.mark.parametrize("lam,order", [(-0.4, 12), (1.7, 25), (0.3, 8)])
    def test_against_gauss_jacobi_oracle(self, lam, order):
        # Independent route: the same rule is the Gauss-Jacobi rule with
        # alpha = beta = lam - 1/2.
        basis = build_basis(lam, order)
        nodes, weights = roots_jacobi(order + 1, lam - 0.5, lam - 0.5)
        assert_allclose(basis.nodes, nodes, atol=1e-13)
        assert_allclose(basis.christoffel, weights, atol=1e-12)

    def test_bary_weights_alternate(self):
        basis = build_basis(-0.4, 9)
        signs = np.sign(basis.bary_weights)
        assert_allclose(signs, (-1.0) ** np.arange(10))

    def test_rejects_degenerate_lambda(self):
        with pytest.raises(ValueError, match="lam"):
            build_basis(-0.5, 4)
        with pytest.raises(ValueError, match="lam"):
            build_basis(-0.4999999, 4)

    def test_rejects_tiny_order(self):
        with pytest.raises(ValueError, match="order"):
            build_basis(0.0, 0)

    def test_rejects_overflowing_weight_mass(self):
        # The gamma function terms of b0 overflow just above lam = 85.31,
        # which still builds.
        assert np.isfinite(build_basis(85.31, 8).christoffel).all()
        for lam in (85.32, 100.0):
            with pytest.raises(ValueError, match=rf"lam = {lam} is too large: "
                                                 r"the gamma function terms"):
                build_basis(lam, 8)


class TestBaryInterpolate:
    def test_constant_partition_of_unity(self):
        basis = build_basis(1.0, 6)
        values = np.full(7, 2.75 + 0.5j)
        for t in (-0.93, 0.0, 0.41, 1.0):
            assert bary_interpolate(basis, values, t) == pytest.approx(2.75 + 0.5j)

    def test_linear_exactness(self):
        basis = build_basis(0.5, 2)
        assert bary_interpolate(basis, basis.nodes, 0.3) == pytest.approx(0.3, abs=1e-15)

    def test_cubic_exactness(self):
        basis = build_basis(0.0, 3)
        got = bary_interpolate(basis, basis.nodes ** 3, 0.25)
        assert got == pytest.approx(0.015625, abs=1e-15)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_reproduces_degree_m_polynomials(self, lam):
        rng = np.random.default_rng(11)
        order = 12
        basis = build_basis(lam, order)
        poly = Polynomial(rng.uniform(-1, 1, order + 1))
        values = poly(basis.nodes)
        points = rng.uniform(-1, 1, 50)
        got = np.array([bary_interpolate(basis, values, t) for t in points])
        expected = poly(points)
        scale = np.max(np.abs(poly(np.linspace(-1, 1, 500))))
        assert_allclose(got, expected, rtol=1e-12, atol=1e-12 * scale)

    def test_node_coincidence_is_exact(self):
        basis = build_basis(-0.4, 5)
        values = np.sin(basis.nodes) + 2j * basis.nodes
        for l in range(6):
            assert bary_interpolate(basis, values, basis.nodes[l]) == values[l]

    def test_rejects_wrong_length(self):
        basis = build_basis(0.0, 4)
        with pytest.raises(ValueError, match="nodal values"):
            bary_interpolate(basis, np.ones(4), 0.1)

    @pytest.mark.parametrize("tail", [(), (3,)])
    def test_points_give_one_scalar_call_per_row(self, tail):
        # At the nodes each row is the nodal values, exactly. Between them it
        # is the scalar call's sum of order + 1 products, which BLAS may add
        # in another order for one row than for many: the two differ by at
        # most the rounding of both sums.
        rng = np.random.default_rng(5)
        basis = build_basis(-0.4, 12)
        values = (rng.standard_normal((13, *tail))
                  + 1j * rng.standard_normal((13, *tail)))
        points = np.concatenate([basis.nodes, rng.uniform(-1, 1, 9),
                                 [-1.0, 1.0]])
        got = bary_interpolate(basis, values, points)
        assert got.shape == (len(points), *tail)
        for t, row in zip(points, got):
            want = bary_interpolate(basis, values, t)
            assert row.shape == want.shape == tail
            scale = np.abs(_lagrange_matrix(basis, t)[0]) @ np.abs(values)
            assert np.all(np.abs(row - want) <= 4 * 13 * np.finfo(float).eps * scale)
        assert np.array_equal(got[:13], values)
        for l in range(13):
            assert np.array_equal(bary_interpolate(basis, values, basis.nodes[l]),
                                  values[l])

    @pytest.mark.parametrize("t", [0.1, np.array([0.1, -0.5])])
    def test_rejects_wrong_leading_axis(self, t):
        basis = build_basis(0.0, 4)
        with pytest.raises(ValueError, match=r"expected 5 nodal values, "
                                             r"got shape \(3, 5\)"):
            bary_interpolate(basis, np.ones((3, 5)), t)

    def test_rejects_points_of_two_axes(self):
        basis = build_basis(0.0, 4)
        with pytest.raises(ValueError, match="scalar or a 1-D array"):
            bary_interpolate(basis, np.ones(5), np.zeros((2, 2)))


class TestIntegrationMatrix:
    def test_two_by_two_closed_form(self):
        # Symbolic integration of the two linear Lagrange polynomials at the
        # Legendre nodes +-1/sqrt(3).
        q = build_integration_matrix(build_basis(0.5, 1))
        expected = np.array([[0.5, 0.5 - 1 / np.sqrt(3)],
                             [0.5 + 1 / np.sqrt(3), 0.5]])
        assert_allclose(q.entries, expected, atol=1e-15)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("order", [4, 12, 40])
    def test_row_sums_integrate_one(self, lam, order):
        basis = build_basis(lam, order)
        q = build_integration_matrix(basis)
        assert_allclose(q.entries.sum(axis=1), basis.nodes + 1.0, atol=1e-13)

    def test_integrates_identity_map(self):
        basis = build_basis(-0.4, 8)
        q = build_integration_matrix(basis)
        expected = (basis.nodes ** 2 - 1.0) / 2.0
        assert_allclose(q.entries @ basis.nodes, expected, atol=1e-14)

    @pytest.mark.parametrize("lam", LAMBDAS)
    @pytest.mark.parametrize("order", [4, 12, 40])
    def test_degree_m_exactness(self, lam, order):
        # Oracle: antiderivative of the random polynomial via Polynomial.integ.
        rng = np.random.default_rng(1000 + order)
        basis = build_basis(lam, order)
        q = build_integration_matrix(basis)
        poly = Polynomial(rng.uniform(-1, 1, order + 1))
        primitive = poly.integ()
        expected = primitive(basis.nodes) - primitive(-1.0)
        got = q.entries @ poly(basis.nodes)
        scale = 1.0 + np.max(np.abs(poly(np.linspace(-1, 1, 500))))
        assert np.max(np.abs(got - expected)) <= 1e-12 * scale

    @pytest.mark.parametrize("order", [4, 40, 80])
    def test_smallest_singular_value_decays_toward_half(self, order):
        smins = []
        for lam in (-0.4999, -0.49, -0.4):
            q = build_integration_matrix(build_basis(lam, order))
            smins.append(singular_values(q.entries)[-1])
        assert smins[0] < smins[1] < smins[2]

    @pytest.mark.parametrize("lam,order", [(-0.49, 40), (-0.4, 7), (0.0, 8),
                                           (2.0, 64)])
    def test_real_schur_in_standard_form(self, lam, order):
        # The real solve reads each 2x2 diagonal block [[a, b], [c, a]] with
        # b c < 0 as the pair a +- i sqrt(-b c).
        q = reference_rule(lam, order)[1]
        s, z = q.real_schur
        assert q.real_schur is q.real_schur
        assert not s.flags.writeable and not z.flags.writeable
        assert s.dtype == z.dtype == np.float64
        assert_allclose(z @ s @ z.T, q.entries, rtol=0,
                        atol=1e-13 * np.abs(q.entries).max())
        assert_allclose(z.T @ z, np.eye(order + 1), rtol=0, atol=1e-14)
        assert not np.tril(s, -2).any()
        starts = np.flatnonzero(s.diagonal(-1))
        assert not np.isin(starts + 1, starts).any()
        for j in starts:
            assert s[j, j] == s[j + 1, j + 1]
            assert s[j, j + 1] * s[j + 1, j] < 0


class TestBlockedBuild:
    @pytest.mark.parametrize("lam", [-0.49, -0.4, 0.0, 0.5, 2.0])
    def test_bit_identical_to_per_row_build(self, lam):
        # Orders up to 38 take one row block, larger ones several.
        orders = [*range(1, 71), 128, 160]
        for order in orders:
            basis = build_basis(lam, order)
            assert np.array_equal(build_integration_matrix(basis).entries,
                                  per_row_integration_matrix(basis)), order

    def test_blocks_span_one_and_several(self):
        # The orders above cover both cases at the shipped block size.
        def blocks(order):
            npts, size = (order + 2) // 2 + 1, order + 1
            rows = max(1, gegenbauer.Q_BLOCK_DOUBLES // (npts * size))
            return -(-size // rows)

        assert blocks(38) == 1 and blocks(39) == 2 and blocks(160) > 2

    @pytest.mark.parametrize("block_doubles", [1, 500, 2 ** 30])
    def test_independent_of_block_size(self, monkeypatch, block_doubles):
        # One row per block, a few rows per block, and one block.
        bases = [build_basis(lam, order)
                 for lam, order in [(-0.4, 7), (0.5, 30), (2.0, 64)]]
        shipped = [build_integration_matrix(basis).entries for basis in bases]
        monkeypatch.setattr(gegenbauer, "Q_BLOCK_DOUBLES", block_doubles)
        for basis, entries in zip(bases, shipped):
            assert np.array_equal(build_integration_matrix(basis).entries,
                                  entries)

    def test_gauss_legendre_rule_cached_and_read_only(self):
        glx, glw = _gauss_legendre(9)
        assert _gauss_legendre(9)[0] is glx
        expected = np.polynomial.legendre.leggauss(9)
        assert np.array_equal(glx, expected[0])
        assert np.array_equal(glw, expected[1])
        for arr in (glx, glw):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0

    def test_reference_rule_matrix_read_only(self):
        _, qmat = reference_rule(-0.4, 12)
        with pytest.raises(ValueError, match="read-only"):
            qmat.entries[0, 0] = 0.0


class TestShiftedMatrixAndGrid:
    def test_horizon_two_is_identity_scale(self):
        q = build_integration_matrix(build_basis(0.0, 5))
        shifted = shift_integration_matrix(q, 2.0)
        assert np.array_equal(shifted.entries, q.entries)

    def test_scalar_scaling(self):
        q = build_integration_matrix(build_basis(0.0, 5))
        shifted = shift_integration_matrix(q, 0.2)
        assert_allclose(shifted.entries, 0.1 * q.entries, rtol=1e-15)

    def test_row_sums_equal_shifted_nodes(self):
        # Oracle: integral of 1 from 0 to t_l is t_l itself.
        basis = build_basis(-0.4, 10)
        horizon = 0.7
        shifted = shift_integration_matrix(build_integration_matrix(basis), horizon)
        grid = time_grid(basis, horizon)
        assert_allclose(shifted.entries.sum(axis=1), grid.nodes, atol=1e-13)

    def test_rejects_nonpositive_horizon(self):
        q = build_integration_matrix(build_basis(0.0, 3))
        with pytest.raises(ValueError, match="horizon"):
            shift_integration_matrix(q, 0.0)
        with pytest.raises(ValueError, match="horizon"):
            shift_integration_matrix(q, -1.0)

    def test_time_grid_interior_and_increasing(self):
        basis = build_basis(0.5, 9)
        grid = time_grid(basis, 0.25)
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[0] > 0.0 and grid.nodes[-1] < 0.25
