import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circdirac import dirac, opuc
from circdirac import hyperbolic as hyp

TWO_PI = 2.0 * math.pi


def random_alphas(rng, n, max_mod=0.7):
    a = rng.uniform(-max_mod, max_mod, n) + 1j * rng.uniform(-max_mod, max_mod, n)
    a[-1] = np.exp(1j * rng.uniform(0.0, TWO_PI))
    return opuc.CoefficientSequence("verblunsky", a)


def random_measure(rng, n):
    ang = TWO_PI * (np.arange(n) + 0.5 + rng.uniform(-0.3, 0.3, n)) / n
    w = rng.dirichlet(np.ones(n)) + 0.2 / n
    return opuc.UnitCircleMeasure(angles=ang, weights=w / w.sum())


def inner(mu, f_vals, g_vals):
    return np.sum(mu.weights * f_vals * np.conj(g_vals))


def first_moment(mu):
    """sum_j w_j e^{i angle_j}."""
    return inner(mu, np.exp(1j * mu.angles), 1.0)


def szego_eval(alphas, z, return_all=False):
    """Oracle: (Phi_n, Phi*_n) at ``z`` by the two-term recursion.

    With ``return_all`` the stacks (Phi_k), (Phi*_k), k = 0..n.
    """
    alphas.require_kind("verblunsky")
    zz = np.asarray(z, dtype=complex)
    phi = phis = np.ones_like(zz)
    stack = [(phi, phis)]
    for ak in alphas.values:
        zphi = zz * phi
        phi, phis = zphi - np.conj(ak) * phis, phis - ak * zphi
        stack.append((phi, phis))
    if return_all:
        return tuple(np.stack(side) for side in zip(*stack))
    return phi, phis


def path_loop(gammas):
    """Oracle: the measure's path point by point, (b_k, z_k) for k = 0..n.

    The disk recursion b_{k+1} = A^{-1}_{gamma_0} o ... o A^{-1}_{gamma_k}(0)
    and the half-plane steps z_{k+1} = z_k + y_k (v_k + i w_k) run side by
    side; gamma_{n-1} = 1 gives b_n = 1 and an infinite z_n.
    """
    g = gammas.values
    n = g.size
    b = np.zeros(n + 1, dtype=complex)
    z = np.empty(n + 1, dtype=complex)
    z[0] = 1j
    for k in range(n):
        gk, bk = complex(g[k]), b[k]
        t = gk * (1.0 - bk) / (1.0 - bk.conjugate())
        b[k + 1] = (bk + t) / (1.0 + bk.conjugate() * t)
        if abs(gk - 1.0) < 1e-13:
            b[k + 1], z[k + 1] = 1.0, complex(math.inf, 0.0)
        else:
            q = gk / (1.0 - gk)
            v, w = -2.0 * q.imag, 2.0 * q.real
            z[k + 1] = z[k] + (v + 1j * w) * z[k].imag
    if not hyp.is_inf(z[n]):
        z[n] = complex(z[n].real, 0.0)   # w_{n-1} = -1 kills Im exactly
        b[n] = b[n] / abs(b[n])
    return b, z


def reverse_path(gammas):
    """Oracle: the reversed path b'_k = A_{b_{n-1}}(b_{n-k-1}), k < n.

    A_c(w) = (1 - conj c) / (1 - c) * (w - c) / (1 - conj(c) w) is the affine
    disk isometry fixing 1 and sending c to 0.
    """
    b, _ = path_loop(gammas)
    c, w = b[-2], b[-2::-1]
    return (1.0 - np.conj(c)) / (1.0 - c) * (w - c) / (1.0 - np.conj(c) * w)


class TestTypes:
    def test_interior_modulus_enforced(self):
        with pytest.raises(ValueError, match="strictly inside"):
            opuc.CoefficientSequence("verblunsky", np.array([1.2, 1.0 + 0j]))

    def test_last_modulus_enforced(self):
        with pytest.raises(ValueError, match="unit modulus"):
            opuc.CoefficientSequence("verblunsky", np.array([0.1, 0.5 + 0j]))

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            opuc.CoefficientSequence("other", np.array([1.0 + 0j]))

    @pytest.mark.parametrize("values", [
        [math.nan] * 3,
        [0.1, complex(0.2, math.nan), 1.0],
        [0.1, 0.2, complex(math.inf, 0.0)],
    ])
    def test_nonfinite_coefficients_rejected(self, values):
        # nan fails every comparison, so the modulus checks alone let it through
        with pytest.raises(ValueError, match="finite"):
            opuc.CoefficientSequence("verblunsky", np.array(values, dtype=complex))

    def test_duplicate_atoms_rejected(self):
        with pytest.raises(ValueError, match="duplicate atoms"):
            opuc.UnitCircleMeasure(angles=np.array([1.0, 1.0 + 1e-12]),
                                   weights=np.array([0.5, 0.5]))

    @pytest.mark.parametrize("angles, weights", [
        ([1.0, 2.0], [0.5, math.nan]),
        ([1.0, math.inf], [0.5, 0.5]),
        ([math.nan, 2.0], [0.5, 0.5]),
    ])
    def test_nonfinite_rejected(self, angles, weights):
        with pytest.raises(ValueError, match="finite"):
            opuc.UnitCircleMeasure(angles=np.array(angles),
                                   weights=np.array(weights))

    @pytest.mark.parametrize("angle", [-1e-17, -0.0, TWO_PI])
    def test_angles_wrap_below_two_pi(self, angle):
        # np.mod(-1e-17, 2 pi) rounds to 2 pi itself
        mu = opuc.UnitCircleMeasure(angles=np.array([angle, 1.0]),
                                    weights=np.array([0.5, 0.5]))
        np.testing.assert_array_equal(mu.angles, [0.0, 1.0])
        assert not np.signbit(mu.angles[0])

    def test_positive_weights(self):
        with pytest.raises(ValueError, match="positive"):
            opuc.UnitCircleMeasure(angles=np.array([1.0, 2.0]),
                                   weights=np.array([1.0, 0.0]))

    def test_normalized_flag(self):
        mu = opuc.UnitCircleMeasure(angles=np.array([1.0, 2.0]),
                                    weights=np.array([0.5, 0.5]))
        assert mu.normalized
        nu = opuc.UnitCircleMeasure(angles=np.array([1.0, 2.0]),
                                    weights=np.array([0.5, 0.6]))
        assert not nu.normalized

    def test_json_roundtrip(self):
        rng = np.random.default_rng(0)
        mu = random_measure(rng, 5)
        back = opuc.UnitCircleMeasure.from_dict(
            json.loads(json.dumps(mu.to_dict())))
        np.testing.assert_array_equal(back.angles, mu.angles)
        np.testing.assert_array_equal(back.weights, mu.weights)
        seq = random_alphas(rng, 4)
        back = opuc.CoefficientSequence.from_dict(
            json.loads(json.dumps(seq.to_dict())))
        assert back.kind == seq.kind
        np.testing.assert_array_equal(back.values, seq.values)


class TestSzego:
    def test_free_coefficients_give_monomials(self):
        n = 6
        seq = opuc.CoefficientSequence(
            "verblunsky", np.concatenate([np.zeros(n - 1), [np.exp(0.7j)]]))
        z = 0.3 - 1.2j
        phi, phis = szego_eval(seq, z, return_all=True)
        for k in range(n):
            assert phi[k] == pytest.approx(z ** k)
            assert phis[k] == pytest.approx(1.0)

    def test_lattice_final_polynomial(self):
        n, theta = 5, 0.9
        a = np.zeros(n, dtype=complex)
        a[-1] = np.exp(-1j * theta)
        seq = opuc.CoefficientSequence("verblunsky", a)
        z = np.exp(0.31j)
        phi, _ = szego_eval(seq, z)
        assert phi == pytest.approx(z ** n - np.exp(1j * theta))

    def test_single_atom_root(self):
        lam = 1.1
        seq = opuc.CoefficientSequence("verblunsky",
                                       np.array([np.exp(-1j * lam)]))
        phi, _ = szego_eval(seq, np.exp(1j * lam))
        assert abs(phi) < 1e-15

    def test_equal_moduli_on_circle(self):
        rng = np.random.default_rng(1)
        seq = random_alphas(rng, 6)
        z = np.exp(1j * rng.uniform(0, TWO_PI, 50))
        phi, phis = szego_eval(seq, z)
        np.testing.assert_allclose(np.abs(phi), np.abs(phis), rtol=1e-12)

    def test_requires_verblunsky(self):
        seq = opuc.CoefficientSequence("modified", np.array([1.0 + 0j]))
        with pytest.raises(ValueError, match="verblunsky"):
            szego_eval(seq, 1.0)


class TestConvert:
    def test_zero_sequence(self):
        a = np.concatenate([np.zeros(4), [1.0 + 0j]])
        seq = opuc.CoefficientSequence("verblunsky", a)
        out = opuc.convert_coefficients(seq, "modified")
        np.testing.assert_array_equal(out.values, a)

    def test_lattice_case(self):
        theta = 0.8
        a = np.concatenate([np.zeros(3), [np.exp(-1j * theta)]])
        seq = opuc.CoefficientSequence("verblunsky", a)
        g = opuc.convert_coefficients(seq, "modified")
        assert g.values[-1] == pytest.approx(np.exp(1j * theta))
        np.testing.assert_allclose(g.values[:-1], 0.0)

    def test_roundtrip_bulk(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(1000):
            seq = random_alphas(rng, 6)
            back = opuc.convert_coefficients(
                opuc.convert_coefficients(seq, "modified"), "verblunsky")
            worst = max(worst, np.max(np.abs(back.values - seq.values)))
        assert worst < 1e-12

    def test_moduli_preserved(self):
        rng = np.random.default_rng(3)
        seq = random_alphas(rng, 8)
        g = opuc.convert_coefficients(seq, "modified")
        np.testing.assert_allclose(np.abs(g.values), np.abs(seq.values),
                                   atol=1e-14)

    def test_interior_entry_next_to_one_is_refused(self):
        # inside the disk, so a valid sequence, but 1 - gamma within 1e-14
        # of 0 would divide the phase twist by almost nothing
        g = np.array([0.2j, 1.0 - 5e-15, np.exp(0.3j)])
        assert abs(g[1]) < 1.0
        for kind, target in (("modified", "verblunsky"), ("verblunsky", "modified")):
            seq = opuc.CoefficientSequence(kind, g)
            with pytest.raises(ValueError, match="degenerate product"):
                opuc.convert_coefficients(seq, target)

    def test_phase_twist_is_unimodular_at_large_n(self):
        # a running product of the twist factors let |alpha_k| drift from
        # |gamma_k| by 6.9e-15 here, and the round trip erred by 1.4e-13
        from circdirac.ensembles import SeedSpec, sample_kn

        drift = roundtrip = 0.0
        for seed in range(301, 313):
            for stream in (0, 1):
                g = sample_kn(400, 2.0, SeedSpec(seed, stream)).values
                a = opuc.alphas_from_gammas(g)
                drift = max(drift, np.max(np.abs(np.abs(a) - np.abs(g))))
                back = opuc.gammas_from_alphas(a)
                roundtrip = max(roundtrip, np.max(np.abs(back - g)))
        assert drift < 1e-15
        assert roundtrip < 1e-13


class TestBatchRows:
    """A single sequence or measure equals its row of a batch, bit for bit.

    numpy rounds a product of complex scalars differently from its array
    loop, so the phase twist runs a single sequence as a one-row array.
    """

    @staticmethod
    def bits(a):
        return np.ascontiguousarray(a).view(np.uint8)

    @pytest.fixture
    def alphas(self):
        from circdirac.ensembles import SeedSpec, kn_gammas

        return opuc.alphas_from_gammas(kn_gammas(SeedSpec(13, 0).rng(), 50, 2.0, 20))

    def test_one_sequence_twist_is_its_batch_row(self, alphas):
        batch = opuc.gammas_from_alphas(alphas)
        for i, a in enumerate(alphas):
            assert np.array_equal(self.bits(opuc.gammas_from_alphas(a)), self.bits(batch[i]))
        # any leading shape runs as rows
        stacked = opuc.gammas_from_alphas(alphas.reshape(4, 5, 50))
        assert np.array_equal(self.bits(stacked.reshape(20, 50)), self.bits(batch))

    def test_sequence_calls_are_their_batch_rows(self, alphas):
        gammas = opuc.gammas_from_alphas(alphas)
        eta = np.exp(0.7j)
        rotated = opuc.gammas_from_alphas(eta * opuc.alphas_from_gammas(gammas))
        angles, weights = opuc._measures_from_gammas_batch(gammas)
        for i, a in enumerate(alphas):
            seq = opuc.CoefficientSequence("verblunsky", a)
            modified = opuc.convert_coefficients(seq, "modified")
            assert np.array_equal(self.bits(modified.values), self.bits(gammas[i]))
            turned = opuc.aleksandrov_transform(modified, eta)
            assert np.array_equal(self.bits(turned.values), self.bits(rotated[i]))
            mu = opuc.alpha_to_measure(seq)
            assert np.array_equal(mu.angles, angles[i])
            assert np.array_equal(mu.weights, weights[i] / weights[i].sum())


class TestRecursionBits:
    """The O(n) recursions keep the arithmetic of their plain loops, bit for bit.

    They update preallocated arrays in place; the references below are the
    two-term loops, operand order included (numpy's complex product is not
    commutative in its last bit).
    """

    bits = staticmethod(TestBatchRows.bits)

    @staticmethod
    def gammas():
        from circdirac.ensembles import SeedSpec, kn_gammas, palm_gammas

        rng = SeedSpec(17, 0).rng()
        return [kn_gammas(rng, n, 2.0, m) for n, m in ((1, 3), (2, 1), (7, 5), (50, 4))] + [
            palm_gammas(kn_gammas(rng, 9, 2.0, 3))]

    def test_twist_and_phi_n(self):
        for g in self.gammas():
            a = opuc.alphas_from_gammas(g)
            twist, turn = np.empty_like(a), np.zeros(len(a))
            for k in range(a.shape[1]):
                twist[:, k] = np.conj(a[:, k]) * np.exp(-2j * turn)
                turn = turn + np.angle(1.0 - twist[:, k])
            assert np.array_equal(self.bits(opuc.gammas_from_alphas(a)), self.bits(twist))
            z = np.exp(1j * np.linspace(0.0, 7.0, 3 * a.shape[1] + 2))[None, :] ** np.arange(
                1, len(a) + 1)[:, None]
            phi = phis = np.ones_like(z)
            dphi = dphis = np.zeros_like(z)
            for k in range(a.shape[1]):
                ak = a[:, k, None]
                zphi = z * phi
                w = zphi + z * dphi
                dphi, dphis = w - np.conj(ak) * dphis, dphis - ak * w
                phi, phis = zphi - np.conj(ak) * phis, phis - ak * zphi
            got, dgot = opuc._phi_n(a, z, derivative=True)
            assert np.array_equal(self.bits(got), self.bits(phi))
            assert np.array_equal(self.bits(dgot), self.bits(dphi))
            assert np.array_equal(self.bits(opuc._phi_n(a, z)), self.bits(phi))

    def test_szego_and_christoffel(self):
        for g in self.gammas():
            angles, weights = opuc._measures_from_gammas_batch(g)
            a = opuc.alphas_from_gammas(g)
            z = np.exp(1j * angles)
            norm2 = np.cumprod(1.0 - np.abs(g[:, :-1]) ** 2, axis=1)
            inv_w = np.ones(angles.shape)
            phi = phis = np.ones_like(z)
            for k in range(a.shape[1] - 1):
                ak = a[:, k, None]
                zphi = z * phi
                phi, phis = zphi - np.conj(ak) * phis, phis - ak * zphi
                inv_w += np.abs(phi) ** 2 / norm2[:, k, None]
            assert np.array_equal(self.bits(weights), self.bits(1.0 / inv_w))

            w = weights / weights.sum(axis=1, keepdims=True)
            szego = np.empty_like(a)
            phi = phis = np.ones_like(z)
            for k in range(a.shape[1] - 1):
                zphi = z * phi
                wphis = w * np.conj(phis)
                ak = np.conj(np.sum(zphi * wphis, axis=1) / np.sum(wphis * phis, axis=1).real)
                szego[:, k] = ak
                phi, phis = zphi - np.conj(ak[:, None]) * phis, phis - ak[:, None] * zphi
            got = opuc._measures_to_alphas_batch(angles, w)
            assert np.array_equal(self.bits(got[:, :-1]), self.bits(szego[:, :-1]))


class TestMeasureToAlpha:
    def test_single_atom(self):
        lam = 2.2
        mu = opuc.UnitCircleMeasure(angles=np.array([lam]),
                                    weights=np.array([1.0]))
        seq = opuc.measure_to_alpha(mu)
        assert seq.values[0] == pytest.approx(np.exp(-1j * lam))

    def test_lattice_measure(self):
        n, theta = 6, 1.1
        angles = (theta + TWO_PI * np.arange(n)) / n
        mu = opuc.UnitCircleMeasure(angles=angles, weights=np.full(n, 1.0 / n))
        seq = opuc.measure_to_alpha(mu)
        np.testing.assert_allclose(seq.values[:-1], 0.0, atol=1e-12)
        assert seq.values[-1] == pytest.approx(np.exp(-1j * theta), abs=1e-12)

    def test_requires_normalized(self):
        mu = opuc.UnitCircleMeasure(angles=np.array([1.0, 2.0]),
                                    weights=np.array([0.4, 0.7]))
        with pytest.raises(ValueError, match="normalized"):
            opuc.measure_to_alpha(mu)

    @pytest.mark.parametrize("gap", [1e-6, 1e-8, 1e-9])
    def test_merging_atoms_raise(self, gap):
        # 1 - |alpha_k|^2 shrinks like gap^2; at 1e-8 it is at rounding level
        mu = opuc.UnitCircleMeasure(angles=np.array([0.3, 0.3 + gap, 2.0, 4.0]),
                                    weights=np.full(4, 0.25))
        with pytest.raises(ValueError, match="conditioning"):
            opuc.measure_to_alpha(mu)

    def test_close_atoms_above_the_floor_convert(self):
        mu = opuc.UnitCircleMeasure(angles=np.array([0.3, 0.3 + 1e-4, 2.0, 4.0]),
                                    weights=np.full(4, 0.25))
        back = opuc.alpha_to_measure(opuc.measure_to_alpha(mu))
        np.testing.assert_allclose(back.weights, mu.weights, atol=1e-9)

    def test_gamma0_is_first_moment(self):
        rng = np.random.default_rng(4)
        for n in (2, 4, 7):
            mu = random_measure(rng, n)
            g = opuc.convert_coefficients(opuc.measure_to_alpha(mu), "modified")
            assert g.values[0] == pytest.approx(first_moment(mu), abs=1e-12)

    def test_orthogonality_and_norms(self):
        rng = np.random.default_rng(5)
        for n in (4, 6, 9):
            mu = random_measure(rng, n)
            seq = opuc.measure_to_alpha(mu)
            g = opuc.convert_coefficients(seq, "modified").values
            phi, phis = szego_eval(seq, np.exp(1j * mu.angles), return_all=True)
            for j in range(n):
                for k in range(j):
                    assert abs(inner(mu, phi[j], phi[k])) < 1e-10
                norm = inner(mu, phi[j], phi[j]).real
                expect = np.prod(1.0 - np.abs(g[:j]) ** 2)
                assert norm == pytest.approx(expect, abs=1e-10)

    def test_phi_at_one_is_gamma_product(self):
        rng = np.random.default_rng(6)
        seq = random_alphas(rng, 7)
        g = opuc.convert_coefficients(seq, "modified").values
        phi, phis = szego_eval(seq, 1.0, return_all=True)
        for k in range(8):
            assert phi[k] == pytest.approx(np.prod(1.0 - g[:k]), abs=1e-12)
            assert phis[k] == pytest.approx(np.prod(1.0 - np.conj(g[:k])),
                                            abs=1e-12)


class TestAlphaToMeasure:
    def test_lattice_measure(self):
        n, theta = 5, 0.7
        a = np.concatenate([np.zeros(n - 1), [np.exp(-1j * theta)]])
        mu = opuc.alpha_to_measure(opuc.CoefficientSequence("verblunsky", a))
        np.testing.assert_allclose(mu.angles, (theta + TWO_PI * np.arange(n)) / n,
                                   atol=1e-12)
        np.testing.assert_allclose(mu.weights, 1.0 / n, atol=1e-12)

    def test_single_atom(self):
        lam = 0.4
        mu = opuc.alpha_to_measure(opuc.CoefficientSequence(
            "verblunsky", np.array([np.exp(-1j * lam)])))
        assert len(mu) == 1
        assert mu.angles[0] == pytest.approx(lam)
        assert mu.weights[0] == pytest.approx(1.0)

    def test_weights_sum_to_one_bulk(self):
        rng = np.random.default_rng(7)
        gam = rng.uniform(-0.55, 0.55, (1000, 8)) + 1j * rng.uniform(-0.55, 0.55, (1000, 8))
        gam[:, -1] = np.exp(1j * rng.uniform(0, TWO_PI, 1000))
        _, w = opuc._measures_from_gammas_batch(gam)
        assert np.max(np.abs(w.sum(axis=1) - 1.0)) < 1e-12

    def test_large_kn_draw_is_normalized(self):
        # the raw weights of this n = 400 draw sum to within 3e-15 of 1 (they
        # were 1e-12 off with the companion-matrix atoms); the renormalization
        # itself is checked on scaled weights below
        from circdirac.ensembles import SeedSpec, sample_kn

        seq = sample_kn(400, 2.0, SeedSpec(207, 0))
        mu = opuc.alpha_to_measure(opuc.convert_coefficients(seq, "verblunsky"))
        assert mu.normalized

    def test_weights_off_by_rounding_are_renormalized(self, monkeypatch):
        # raw weights summing to 1 + 1e-11, outside the 1e-12 band of
        # UnitCircleMeasure.normalized, come back divided by their sum
        from circdirac.ensembles import SeedSpec, sample_kn

        seq = opuc.convert_coefficients(sample_kn(50, 2.0, SeedSpec(207, 0)), "verblunsky")
        raw = opuc._measures_from_gammas_batch
        _, w = raw(opuc.gammas_from_alphas(seq.values)[None, :])
        scaled = w[0] * (1.0 + 1e-11)
        assert abs(scaled.sum() - 1.0) > 5e-12

        def off(g):
            angles, weights = raw(g)
            return angles, weights * (1.0 + 1e-11)

        monkeypatch.setattr(opuc, "_measures_from_gammas_batch", off)
        mu = opuc.alpha_to_measure(seq)
        assert mu.normalized
        assert abs(mu.weights.sum() - 1.0) <= 1e-14
        np.testing.assert_allclose(mu.weights, scaled / scaled.sum(), rtol=1e-15, atol=0)

    @pytest.mark.parametrize("n", [200, 400])
    def test_large_kn_coefficient_roundtrip(self, n):
        from circdirac.ensembles import SeedSpec, sample_kn

        for stream in range(3):
            g = sample_kn(n, 2.0, SeedSpec(301, stream))
            mu = opuc.alpha_to_measure(opuc.convert_coefficients(g, "verblunsky"))
            back = opuc.convert_coefficients(opuc.measure_to_alpha(mu), "modified")
            assert np.max(np.abs(back.values - g.values)) < 1e-10

    def test_roundtrip(self):
        rng = np.random.default_rng(8)
        for n in (2, 5, 9, 12):
            mu = random_measure(rng, n)
            back = opuc.alpha_to_measure(opuc.measure_to_alpha(mu))
            np.testing.assert_allclose(back.angles, mu.angles, atol=1e-9)
            np.testing.assert_allclose(back.weights, mu.weights, atol=1e-9)

    def test_coefficient_space_roundtrip(self):
        rng = np.random.default_rng(21)
        for n in (3, 7, 12):
            a = rng.uniform(-0.5, 0.5, n) + 1j * rng.uniform(-0.5, 0.5, n)
            a[-1] = np.exp(1j * rng.uniform(0, TWO_PI))
            seq = opuc.CoefficientSequence("verblunsky", a)
            back = opuc.measure_to_alpha(opuc.alpha_to_measure(seq))
            np.testing.assert_allclose(back.values, a, atol=1e-9)

    def test_christoffel_identity(self):
        rng = np.random.default_rng(9)
        mu = random_measure(rng, 6)
        seq = opuc.measure_to_alpha(mu)
        g = opuc.convert_coefficients(seq, "modified").values
        phi, _ = szego_eval(seq, np.exp(1j * mu.angles), return_all=True)
        psi_norm = lambda k: np.prod((1 - np.abs(g[:k]) ** 2)
                                     / np.abs(1 - g[:k]) ** 2)
        phi_one = lambda k: np.prod(1 - g[:k])
        for j in range(6):
            total = sum(abs(phi[k][j] / phi_one(k)) ** 2 / psi_norm(k)
                        for k in range(6))
            assert total == pytest.approx(1.0 / mu.weights[j], rel=1e-10)


def kn_draw(n, seed, stream):
    from circdirac.ensembles import SeedSpec, sample_kn

    return sample_kn(n, 2.0, SeedSpec(seed, stream)).values


def cmv(alphas):
    """Oracle: the CMV matrices L M, shape (m, n, n), of rows of ``alphas``.

    L = Theta_0 + Theta_2 + ..., M = 1 + Theta_1 + Theta_3 + ... (direct
    sums, Theta_k = [[conj a_k, rho_k], [rho_k, -a_k]], cut to conj a_{n-1}
    at index n-1), so det(z - L M) = Phi_n.  Row pair (k, k+1), k even, is
    Theta_k times rows k, k+1 of M: rho_{k-1}, -a_{k-1} in columns k-1, k
    and conj a_{k+1}, rho_{k+1} in columns k+1, k+2.  With a_{-1} = -1 and
    rho_{-1} = rho_{n-1} = 0, entries outside the matrix are all zero.
    """
    alphas = np.atleast_2d(alphas)
    rho = np.sqrt(1.0 - np.abs(alphas[:, :-1]) ** 2)
    m, n = alphas.shape
    a = np.pad(alphas, ((0, 0), (1, 1)), constant_values=((0, 0), (-1, 0)))
    r = np.pad(rho, ((0, 0), (1, 2)))   # a[:, j+1] = a_j, r[:, j+1] = rho_j
    k = np.arange(0, n, 2)
    ak, rk = a[:, k + 1], r[:, k + 1]
    out = np.zeros((m, n, n), dtype=complex)
    for row, t0, t1 in ((k, np.conj(ak), rk), (k + 1, rk, -ak)):
        for col, val in ((k - 1, t0 * r[:, k]), (k, -t0 * a[:, k]),
                         (k + 1, t1 * np.conj(a[:, k + 2])), (k + 2, t1 * r[:, k + 2])):
            inside = (row < n) & (col >= 0) & (col < n)
            out[:, row[inside], col[inside]] = val[:, inside]
    return out


def cmv_factors(a):
    """Oracle: the dense factors L, M of one row of Verblunsky coefficients."""
    n = len(a)
    rho = np.sqrt(1.0 - np.abs(a[:-1]) ** 2)
    factors = [np.zeros((n, n), dtype=complex) for _ in range(2)]
    factors[1][0, 0] = 1.0
    for k in range(n):
        f = factors[k % 2]
        if k == n - 1:
            f[k, k] = np.conj(a[k])
        else:
            f[k:k + 2, k:k + 2] = [[np.conj(a[k]), rho[k]], [rho[k], -a[k]]]
    return factors


def m_root(a):
    """S = M^{1/2} of one row, dense, from the diagonal and sides opuc builds."""
    n = len(a)
    diag, side = opuc._m_root_conj(a[None, :], np.sqrt(1.0 - np.abs(a[None, :-1]) ** 2))
    s_bar = np.diag(diag[0])
    for j in range(n):
        partner = j + 1 if j % 2 else j - 1
        if 0 <= partner < n:
            s_bar[j, partner] = side[0, j]
        else:
            assert side[0, j] == 0.0   # a 1 x 1 block
    return np.conj(s_bar)


def angle_error(a, b):
    return np.abs(np.mod(np.asarray(a) - b + math.pi, TWO_PI) - math.pi)


def random_gammas(rng, m, n):
    g = rng.uniform(-0.6, 0.6, (m, n)) + 1j * rng.uniform(-0.6, 0.6, (m, n))
    g[:, -1] = np.exp(1j * rng.uniform(0, TWO_PI, m))
    return g


def eigvals_angles(g):
    """Oracle: sorted angles of the CMV eigenvalues from np.linalg.eigvals."""
    eig = np.linalg.eigvals(cmv(opuc.alphas_from_gammas(np.atleast_2d(g))))
    return np.sort(np.mod(np.angle(eig), TWO_PI), axis=1)


def polished(alphas, angles, picks):
    """Oracle at 40 digits: each pick's root of Phi_n and its weight.

    The root is one Newton step from e^{i angles[j]}, which squares a
    1e-15 start error; the weight inverts the Christoffel sum there.
    Returns (|root angle - angles[j]|, weight) as float arrays.
    """
    mpmath = pytest.importorskip("mpmath")
    errors, weights = [], []
    with mpmath.workdps(40):
        a = [mpmath.mpc(complex(x)) for x in alphas]
        for j in picks:
            z = mpmath.expj(angles[j])
            phi = phis = mpmath.mpc(1)
            dphi = dphis = mpmath.mpc(0)
            for ak in a:
                zphi, dzphi = z * phi, phi + z * dphi
                phi, phis = zphi - mpmath.conj(ak) * phis, phis - ak * zphi
                dphi, dphis = dzphi - mpmath.conj(ak) * dphis, dphis - ak * dzphi
            z -= phi / dphi
            errors.append(abs(float(mpmath.arg(z * mpmath.expj(-angles[j])))))
            phi = phis = mpmath.mpc(1)
            inv_w = norm = mpmath.mpf(1)
            for ak in a[:-1]:
                zphi = z * phi
                phi, phis = zphi - mpmath.conj(ak) * phis, phis - ak * zphi
                norm *= 1 - abs(ak) ** 2
                inv_w += abs(phi) ** 2 / norm
            weights.append(float(1 / inv_w))
    return np.array(errors), np.array(weights)


class TestCMV:
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 400])
    def test_unitary(self, n):
        rng = np.random.default_rng(n)
        for a in (random_alphas(rng, n).values,
                  opuc.alphas_from_gammas(kn_draw(n, 5, 0))):
            c = cmv(a)[0]
            assert np.max(np.abs(c @ c.conj().T - np.eye(n))) < 1e-13

    def test_matches_dense_factors(self):
        rng = np.random.default_rng(3)
        for n in (1, 2, 3, 4, 5, 6, 7, 50):
            a = random_alphas(rng, n).values
            L, M = cmv_factors(a)
            assert np.max(np.abs(cmv(a)[0] - L @ M)) < 1e-15

    @staticmethod
    def factor_rows(n):
        """Random, Killip-Nenciu and Palm Verblunsky coefficients of length n."""
        from circdirac.ensembles import palm_gammas

        rng = np.random.default_rng(40 + n)
        return [random_alphas(rng, n).values,
                opuc.alphas_from_gammas(kn_draw(n, 5, 0)),
                opuc.alphas_from_gammas(palm_gammas(kn_draw(n, 5, 1)))]

    # odd and even n end L and M with 1 x 1 blocks in turn
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 50])
    def test_root_of_m_is_symmetric_unitary(self, n):
        for a in self.factor_rows(n):
            _, M = cmv_factors(a)
            S = m_root(a)
            assert np.array_equal(S, S.T)
            assert np.max(np.abs(S @ S.conj().T - np.eye(n))) < 1e-14
            assert np.max(np.abs(S @ S - M)) < 1e-14

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 50])
    def test_symmetric_cmv_is_unitary_with_roots_of_phi_n(self, n):
        # Phi_n at the eigenvalues, against its largest value on the circle
        # (up to 8e2 at n = 50, where |Phi_n| at the eigenvalues is 5e-12)
        circle = np.exp(1j * TWO_PI / (4 * n) * np.arange(4 * n))
        for a in self.factor_rows(n):
            L, _ = cmv_factors(a)
            S = m_root(a)
            W = S @ L @ S
            assert np.max(np.abs(W - W.T)) < 1e-14
            assert np.max(np.abs(W @ W.conj().T - np.eye(n))) < 1e-13
            seq = opuc.CoefficientSequence("verblunsky", a)
            phi, _ = szego_eval(seq, np.linalg.eigvals(W))
            scale = np.max(np.abs(szego_eval(seq, circle)[0]))
            assert np.max(np.abs(phi)) < 1e-12 * scale

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 50])
    def test_cayley_resolvent_has_real_part_one_half(self, n):
        # the psi of the conversion: where |Phi_n| is largest on 4n points
        grid = TWO_PI / (4 * n) * np.arange(4 * n)
        for a in self.factor_rows(n):
            L, _ = cmv_factors(a)
            S = m_root(a)
            seq = opuc.CoefficientSequence("verblunsky", a)
            psi = grid[np.argmax(np.abs(szego_eval(seq, np.exp(1j * grid))[0]))]
            R = np.linalg.inv(np.eye(n) - np.exp(-1j * psi) * (S @ L @ S))
            assert np.max(np.abs(R.real - np.eye(n) / 2)) < 1e-13

    def test_characteristic_polynomial_is_phi_n(self):
        rng = np.random.default_rng(4)
        for n in (2, 3, 4, 7):
            seq = random_alphas(rng, n)
            eig = np.linalg.eigvals(cmv(seq.values)[0])
            phi, _ = szego_eval(seq, eig)
            assert np.max(np.abs(phi)) < 1e-12

    def test_single_coefficient_gives_its_conjugate(self):
        a = np.exp(0.9j)
        ang, w = opuc._measures_from_gammas_batch(np.array([[np.conj(a)]]))
        assert ang[0, 0] == np.mod(np.angle(np.conj(a)), TWO_PI)
        assert w[0, 0] == 1.0

    def test_batch_rows_match_single_rows(self):
        # at n = 50 the 40 rows span several row blocks
        assert opuc._BLOCK_ENTRIES // 50 ** 2 < 40
        for n in (6, 50):
            g = random_gammas(np.random.default_rng(11), 40, n)
            ang, w = opuc._measures_from_gammas_batch(g)
            for i in range(40):
                a1, w1 = opuc._measures_from_gammas_batch(g[i])
                np.testing.assert_array_equal(a1[0], ang[i])
                np.testing.assert_array_equal(w1[0], w[i])

    def test_palm_atom_sits_at_zero(self):
        from circdirac.ensembles import SeedSpec, kn_gammas, palm_gammas

        g = palm_gammas(kn_gammas(SeedSpec(7, 150).rng(), 5, 2.0, 10_000))
        ang, _ = opuc._measures_from_gammas_batch(g)
        assert np.max(np.min(angle_error(ang, 0.0), axis=1)) < 4e-15

    def test_atoms_against_polished_roots(self):
        # Newton-polished 40-digit roots of Phi_n for the same double
        # alphas.  Atoms 45 and 46 are where companion-matrix roots of
        # Phi_n erred most (1.4e-14); the rest are spread over the circle.
        mpmath = pytest.importorskip("mpmath")
        g = kn_draw(400, 203, 1)
        ang, _ = opuc._measures_from_gammas_batch(g)
        alphas = opuc.alphas_from_gammas(g)
        picks = sorted({45, 46, *np.linspace(0, 399, 8).astype(int)})
        with mpmath.workdps(40):
            a = [mpmath.mpc(complex(x)) for x in alphas]
            ca = [mpmath.conj(x) for x in a]

            def newton_step(z):
                phi = phis = mpmath.mpc(1)
                dphi = dphis = mpmath.mpc(0)
                for ak, cak in zip(a, ca):
                    zphi, dzphi = z * phi, phi + z * dphi
                    phi, phis = zphi - cak * phis, phis - ak * zphi
                    dphi, dphis = dzphi - cak * dphis, dphis - ak * dzphi
                return z - phi / dphi

            worst = 0.0
            for j in picks:
                z = mpmath.expj(ang[0, j])
                for _ in range(2):
                    z = newton_step(z)
                worst = max(worst, abs(float(mpmath.arg(z * mpmath.expj(-ang[0, j])))))
        assert worst < 1e-14


    @pytest.mark.parametrize("n", [2, 3, 6, 7, 50])
    def test_atoms_match_cmv_eigvals(self, n):
        # odd and even n end the tridiagonal factor with different blocks
        g = random_gammas(np.random.default_rng(30 + n), 30, n)
        ang, _ = opuc._measures_from_gammas_batch(g)
        assert np.max(angle_error(ang, eigvals_angles(g))) < 1e-14

    @staticmethod
    def close_pair(n):
        """Gammas of n equal atoms: a pair 1e-4 apart, the rest on [1, 6]."""
        angles = np.concatenate([[0.5, 0.5 + 1e-4], np.linspace(1.0, 6.0, n - 2)])
        mu = opuc.UnitCircleMeasure(angles=angles, weights=np.full(n, 1.0 / n))
        return opuc.gammas_from_alphas(opuc.measure_to_alpha(mu).values)

    def test_close_pair_matches_cmv_eigvals(self):
        # min 1 - |alpha_k|^2 is 1.6e-4 here
        g = self.close_pair(20)
        ang, _ = opuc._measures_from_gammas_batch(g)
        assert np.max(angle_error(ang, eigvals_angles(g))) < 1e-14

    def test_close_pair_among_few_atoms(self):
        # Among 5 atoms the pair drives 1 - |alpha_3|^2 to 5.7e-9, and the
        # double alphas fix the atoms to about 1e-13 only: eigvals and this
        # conversion then differ by 1.6e-13, so the check is against the
        # 40-digit roots of Phi_n.
        g = self.close_pair(5)
        ang, _ = opuc._measures_from_gammas_batch(g)
        errors, _ = polished(opuc.alphas_from_gammas(g), ang[0], range(5))
        assert errors.max() < 1e-12

    @pytest.mark.parametrize("seed, stream", [(203, 1), (301, 0)])
    def test_atoms_and_weights_against_40_digits(self, seed, stream):
        # np.linalg.eigvals atoms erred by 3.2e-15 / 5.1e-15 at the atom
        # picks, and their weights by 3.8e-13 / 1.2e-12 at the weight picks.
        # Over all 400 atoms the weights err by up to 6.4e-13 / 9.1e-13:
        # |d log w / d theta| reaches 1.6e3, times the rounding of the
        # stored angle itself.
        g = kn_draw(400, seed, stream)
        ang, w = opuc._measures_from_gammas_batch(g)
        alphas = opuc.alphas_from_gammas(g)
        picks = sorted({45, 46, *np.linspace(0, 399, 8).astype(int)})
        errors, _ = polished(alphas, ang[0], picks)
        assert errors.max() < 2e-15
        picks = np.linspace(0, 399, 12).astype(int)
        _, exact = polished(alphas, ang[0], picks)
        assert np.max(np.abs(w[0, picks] / exact - 1.0)) < 3e-13

    def test_large_kn_draw_converts_at_800(self):
        # the real symmetric eigenproblem makes n = 800 cheap; the round
        # trip and the atoms hold as at n = 400
        g = kn_draw(800, 401, 0)
        seq = opuc.CoefficientSequence("modified", g)
        mu = opuc.alpha_to_measure(opuc.convert_coefficients(seq, "verblunsky"))
        assert len(mu) == 800 and mu.normalized
        back = opuc.convert_coefficients(opuc.measure_to_alpha(mu), "modified")
        assert np.max(np.abs(back.values - g)) < 1e-10
        ang, _ = opuc._measures_from_gammas_batch(g)
        errors, _ = polished(opuc.alphas_from_gammas(g), ang[0],
                             np.linspace(0, 799, 6).astype(int))
        assert errors.max() < 2e-15

    def test_coefficient_outside_the_disk_raises(self):
        g = random_gammas(np.random.default_rng(12), 3, 6)
        g[1, 2] = 1.0 + 1e-15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^conditioning: 1 of 3 rows"):
                opuc._measures_from_gammas_batch(g)

    def test_small_beta_rows_on_the_circle_are_refused_up_front(self):
        # at beta = 0.1, 542 of these rows hold an interior |gamma_k| that
        # rounds to 1 or above; the refusal comes before any sqrt can warn
        from circdirac.ensembles import SeedSpec, kn_gammas

        g = kn_gammas(SeedSpec(3, 0).rng(), 6, 0.1, 4000)
        assert not np.all(np.abs(g[:, :-1]) < 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^conditioning: 542 of 4000 rows"):
                opuc._measures_from_gammas_batch(g)

    def test_memory_stays_below_one_matrix_stack(self):
        from circdirac.ensembles import SeedSpec, kn_gammas

        m, n = 30_000, 6
        g = kn_gammas(SeedSpec(7, 170).rng(), n, 2.0, m)
        tracemalloc.start()
        try:
            opuc._measures_from_gammas_batch(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < m * n * n * 16   # one complex (m, n, n) stack, 17 MB


class TestPath:
    def test_lattice_path(self):
        n, theta = 5, 1.3
        g = opuc.CoefficientSequence(
            "modified", np.concatenate([np.zeros(n - 1), [np.exp(1j * theta)]]))
        op = dirac.coefficient_operator(g)
        np.testing.assert_allclose(op.path, 1j, atol=1e-15)
        # slope: the Cayley preimage of e^{i theta}, u1 = [-q, -1]
        assert -op.u1[0] == pytest.approx(-1.0 / math.tan(theta / 2))
        assert op.u1[1] == -1.0
        assert path_loop(g)[0][-1] == pytest.approx(np.exp(1j * theta))

    def test_boundary_one_goes_to_infinity(self):
        g = opuc.CoefficientSequence("modified", np.array([0.0, 0.0, 1.0 + 0j]))
        np.testing.assert_array_equal(dirac.coefficient_operator(g).u1, [1.0, 0.0])
        b, z = path_loop(g)
        assert hyp.is_inf(z[-1])
        assert b[-1] == 1.0

    def test_models_agree(self):
        rng = np.random.default_rng(10)
        for _ in range(30):
            seq = random_alphas(rng, 6)
            g = opuc.convert_coefficients(seq, "modified")
            b, _ = path_loop(g)
            cells = dirac.coefficient_operator(g).path
            np.testing.assert_allclose(1j * (1.0 + b[:-1]) / (1.0 - b[:-1]), cells,
                                       rtol=0.0, atol=1e-10)
            # boundary point: compare in the disk (z may be huge or infinite)
            assert abs(abs(b[-1]) - 1.0) < 1e-10

    def test_heights_are_norm_products(self):
        rng = np.random.default_rng(11)
        seq = random_alphas(rng, 7)
        g = opuc.convert_coefficients(seq, "modified")
        heights = dirac.coefficient_operator(g).path.imag
        for k in range(7):
            expect = np.prod((1 - np.abs(g.values[:k]) ** 2) / np.abs(1 - g.values[:k]) ** 2)
            assert heights[k] == pytest.approx(expect, rel=1e-10)

    def test_alpha_product_definition(self):
        # disk path from the raw coefficient products, as a cross-check
        rng = np.random.default_rng(12)
        seq = random_alphas(rng, 5)
        a = seq.values
        b_path, _ = path_loop(opuc.convert_coefficients(seq, "modified"))
        M = np.eye(2, dtype=complex)
        for k in range(5):
            M = M @ np.array([[1.0, np.conj(a[k])], [a[k], 1.0]])
            b = (M @ np.array([0.0, 1.0]))
            assert abs(b[0] / b[1] - b_path[k + 1]) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 50, 400])
    def test_builder_matches_loop(self, n):
        from circdirac.ensembles import SeedSpec, sample_kn

        for seed in range(201, 221):
            for stream in (0, 1):
                g = sample_kn(n, 2.0, SeedSpec(seed, stream))
                _, z = path_loop(g)
                op = dirac.coefficient_operator(g)
                cells = np.abs(op.path - z[:-1]) / np.abs(z[:-1])
                assert np.max(cells) <= 1e-12
                assert abs(-op.u1[0] - z[-1].real) <= 1e-12 * abs(z[-1].real)


class TestReversePath:
    def test_zero_path(self):
        g = np.concatenate([np.zeros(4), [np.exp(0.4j)]])
        rev = reverse_path(opuc.CoefficientSequence("modified", g))
        np.testing.assert_allclose(rev, 0.0, atol=1e-14)

    def test_matches_iota_reversed_sequence(self):
        from circdirac.ensembles import palm_gammas

        rng = np.random.default_rng(13)
        for _ in range(20):
            seq = random_alphas(rng, 5)
            g = opuc.convert_coefficients(seq, "modified")
            rev = reverse_path(g)
            flipped = palm_gammas(np.append(g.values[:-1][::-1], 1.0))
            oracle, _ = path_loop(opuc.CoefficientSequence("modified", flipped))
            np.testing.assert_allclose(rev, oracle[:5], atol=1e-10)

    def test_two_coefficients_hand_case(self):
        from circdirac.ensembles import palm_gammas

        rng = np.random.default_rng(14)
        g0 = 0.3 - 0.45j
        g = opuc.CoefficientSequence(
            "modified", np.array([g0, np.exp(1j * rng.uniform(0, TWO_PI))]))
        rev = reverse_path(g)
        assert abs(rev[0]) < 1e-14
        assert rev[1] == pytest.approx(palm_gammas([g0, 1.0])[0], abs=1e-12)


class TestAleksandrov:
    def test_identity_parameter(self):
        rng = np.random.default_rng(15)
        seq = random_alphas(rng, 5)
        out = opuc.aleksandrov_transform(seq, 1.0)
        np.testing.assert_array_equal(out.values, seq.values)

    def test_requires_unimodular(self):
        rng = np.random.default_rng(16)
        with pytest.raises(ValueError, match="unit modulus"):
            opuc.aleksandrov_transform(random_alphas(rng, 4), 0.9)
        with pytest.raises(ValueError, match="unit modulus"):
            opuc.aleksandrov_transform(random_alphas(rng, 4), complex(math.nan, math.nan))

    def test_path_rotates(self):
        rng = np.random.default_rng(17)
        seq = random_alphas(rng, 5)
        eta = np.exp(0.77j)
        g0 = opuc.convert_coefficients(seq, "modified")
        g1 = opuc.convert_coefficients(
            opuc.aleksandrov_transform(seq, eta), "modified")
        p0, _ = path_loop(g0)
        p1, _ = path_loop(g1)
        np.testing.assert_allclose(p1, p0 / eta, atol=1e-10)

    def test_charges_one_iff_eta_is_final_point(self):
        rng = np.random.default_rng(18)
        seq = random_alphas(rng, 5)
        g = opuc.convert_coefficients(seq, "modified")
        bn = path_loop(g)[0][-1]
        adj = opuc.aleksandrov_transform(seq, bn)
        mu = opuc.alpha_to_measure(adj)
        d = np.abs(np.mod(mu.angles + math.pi, TWO_PI) - math.pi)
        assert d.min() < 1e-9
        # a different parameter must not charge 1
        other = opuc.aleksandrov_transform(seq, bn * np.exp(0.5j))
        mu2 = opuc.alpha_to_measure(other)
        d2 = np.abs(np.mod(mu2.angles + math.pi, TWO_PI) - math.pi)
        assert d2.min() > 1e-4

    def test_modified_kind_roundtrips(self):
        rng = np.random.default_rng(19)
        seq = random_alphas(rng, 4)
        g = opuc.convert_coefficients(seq, "modified")
        eta = np.exp(-1.1j)
        via_g = opuc.convert_coefficients(
            opuc.aleksandrov_transform(g, eta), "verblunsky")
        via_a = opuc.aleksandrov_transform(seq, eta)
        np.testing.assert_allclose(via_g.values, via_a.values, atol=1e-12)

    def test_spectral_average_of_moments(self):
        rng = np.random.default_rng(20)
        mu = random_measure(rng, 4)
        alphas = opuc.measure_to_alpha(mu)
        grid = np.exp(1j * TWO_PI * np.arange(256) / 256)
        total = 0.0
        for eta in grid:
            nu = opuc.alpha_to_measure(opuc.aleksandrov_transform(alphas, eta))
            total += first_moment(nu)
        assert abs(total / 256) < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
def test_measure_coefficient_roundtrip_property(n, s):
    rng = np.random.default_rng(s)
    mu = random_measure(rng, n)
    back = opuc.alpha_to_measure(opuc.measure_to_alpha(mu))
    assert np.max(np.abs(back.angles - mu.angles)) < 1e-9
    assert np.max(np.abs(back.weights - mu.weights)) < 1e-9
