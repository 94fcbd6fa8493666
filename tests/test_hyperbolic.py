"""Disk geometry: the point at infinity, the affine disk isometries, and the
involution iota that the Palm map applies to the interior coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circdirac import ensembles as ens
from circdirac import hyperbolic as hyp

#: Cayley transform z -> (z - i) / (z + i) from H onto the disk.
CAYLEY = np.array([[1.0, -1.0j], [1.0, 1.0j]])


def mobius(M, z):
    """Oracle: the fractional linear map of M at a finite z."""
    return (M[0, 0] * z + M[0, 1]) / (M[1, 0] * z + M[1, 1])


def affine_matrix(p, model):
    """Oracle: the affine isometry sending p to the center (0 or i).

    In the disk it fixes the boundary point 1, in H the point at infinity;
    the two are conjugate through the Cayley transform.
    """
    p = complex(p)
    if model == "half-plane":
        return np.array([[1.0, -p.real], [0.0, p.imag]], dtype=complex)
    gc = p.conjugate()
    return np.array([[1.0 / (1.0 - p), p / (p - 1.0)], [gc / (gc - 1.0), 1.0 / (1.0 - gc)]])


def cayley_inv(w):
    return 1j * (1.0 + w) / (1.0 - w)


def interior_points(max_mod=0.95):
    return st.tuples(
        st.floats(-max_mod, max_mod), st.floats(-max_mod, max_mod)
    ).map(lambda p: complex(*p)).filter(lambda z: abs(z) < max_mod)


def iota_all(g):
    """iota entrywise, as the interior of a Palm-mapped sequence."""
    return ens.palm_gammas(np.append(g, 1.0))[:-1]


def iota(g):
    return complex(iota_all(np.array([g]))[0])


class TestIsInf:
    def test_infinity_conventions(self):
        assert hyp.is_inf(complex(math.inf, 0.0))
        assert hyp.is_inf(complex(0.0, -math.inf))
        assert hyp.is_inf(-math.inf)
        assert not hyp.is_inf(1e308 + 1e308j)
        assert not hyp.is_inf(0.0)


class TestAffineMatrix:
    def test_disk_zero_is_identity(self):
        np.testing.assert_allclose(affine_matrix(0.0, "disk"), np.eye(2))

    def test_halfplane_i_is_identity(self):
        np.testing.assert_allclose(affine_matrix(1j, "half-plane"), np.eye(2))

    def test_disk_half(self):
        A = affine_matrix(0.5, "disk")
        np.testing.assert_allclose(A.real, [[2.0, -1.0], [-1.0, 2.0]], atol=1e-15)
        np.testing.assert_allclose(A.imag, 0.0, atol=1e-15)

    def test_sends_parameter_to_center(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            g = (rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7))
            assert abs(mobius(affine_matrix(g, "disk"), g)) < 1e-12
            assert abs(mobius(affine_matrix(g, "disk"), 1.0) - 1.0) < 1e-12
            z = rng.uniform(-2, 2) + 1j * rng.uniform(0.1, 3.0)
            img = mobius(affine_matrix(z, "half-plane"), z)
            assert abs(img - 1j) < 1e-12

    def test_composition_matches_matrix_product(self):
        # the affine matrix of A^{-1}_{g1} o A^{-1}_{g2} (0) is A_{g2} A_{g1}
        rng = np.random.default_rng(5)
        for _ in range(25):
            g1, g2 = (rng.uniform(-0.6, 0.6, 2) + 1j * rng.uniform(-0.6, 0.6, 2))
            A1 = affine_matrix(g1, "disk")
            A2 = affine_matrix(g2, "disk")
            b = mobius(np.linalg.inv(A1) @ np.linalg.inv(A2), 0.0)
            np.testing.assert_allclose(affine_matrix(b, "disk"), A2 @ A1,
                                       atol=1e-12)

    def test_cayley_conjugation(self):
        Uinv = np.linalg.inv(CAYLEY)
        rng = np.random.default_rng(6)
        for _ in range(50):
            g = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)
            z = cayley_inv(g)
            assert abs(mobius(CAYLEY, z) - g) < 1e-12
            lhs = Uinv @ affine_matrix(g, "disk") @ CAYLEY
            rhs = affine_matrix(z, "half-plane")
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)


class TestIota:
    def test_zero(self):
        assert iota(0.0) == 0.0

    def test_half_i(self):
        assert iota(0.5j) == pytest.approx(0.4 - 0.3j, abs=1e-15)

    def test_pole(self):
        with pytest.warns(RuntimeWarning):
            out = iota_all(np.array([1.0 + 0j]))
        assert np.isnan(out).all()

    def test_involution_hand_case(self):
        g = 0.3 + 0.2j
        assert iota(iota(g)) == pytest.approx(g, abs=1e-14)

    def test_parametrizes_inverse_matrix(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = rng.uniform(-0.7, 0.7) + 1j * rng.uniform(-0.7, 0.7)
            lhs = np.linalg.inv(affine_matrix(g, "disk"))
            rhs = affine_matrix(iota(g), "disk")
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_involution_bulk(self):
        rng = np.random.default_rng(8)
        g = rng.uniform(-0.8, 0.8, 1000) + 1j * rng.uniform(-0.8, 0.8, 1000)
        g = g[np.abs(g) < 0.95]
        back = iota_all(iota_all(g))
        assert np.max(np.abs(back - g)) < 1e-12
        assert np.max(np.abs(np.abs(iota_all(g)) - np.abs(g))) < 1e-14

    @settings(max_examples=200)
    @given(interior_points())
    def test_involution_property(self, g):
        if abs(g - 1.0) < 1e-6:
            return
        assert abs(iota(iota(g)) - g) < 1e-12
        assert abs(abs(iota(g)) - abs(g)) < 1e-14
