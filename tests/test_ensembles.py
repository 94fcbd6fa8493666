import math

import numpy as np
import pytest
from scipy import stats as sps

from circdirac import dirac, ensembles as ens, opuc
from circdirac import stats as cstats
from circdirac.opuc import _measures_from_gammas_batch

TWO_PI = 2.0 * math.pi


def assert_same_row(a, i, b, j):
    """Row i of the OperatorBatch a holds the bits of row j of b."""
    for got, want in zip(*((c.v[k], c.r[k], c.start[:, k], c.last[:, k], c.u[k],
                            c.u0sq[k]) for c, k in ((a, i), (b, j)))):
        np.testing.assert_array_equal(got, want)


class TestSeedSpec:
    def test_reproducible(self):
        a = ens.SeedSpec(5, 3).rng().random(10)
        b = ens.SeedSpec(5, 3).rng().random(10)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = ens.SeedSpec(5, 0).rng().random(10)
        b = ens.SeedSpec(5, 1).rng().random(10)
        assert not np.array_equal(a, b)


class TestStreamUniforms:
    # master seeds of one word, two words and five words: the entropy is
    # padded to the pool size below four words and mixed on beyond it
    SEEDS = [0, 7, 2**40 + 3, 2**130 + 99]
    IDS = np.array([0, 1, 2**31, 2**32 - 1])

    @staticmethod
    def oracle(master_seed, ids, k):
        return np.array([np.random.default_rng(np.random.SeedSequence(
            master_seed, spawn_key=(int(i),))).random(k) for i in ids])

    @pytest.mark.parametrize("master_seed", SEEDS)
    @pytest.mark.parametrize("k", [1, 2 * 400 - 1])
    def test_matches_one_generator_per_stream(self, master_seed, k):
        got = ens._stream_uniforms(master_seed, self.IDS, k)
        assert got.shape == (self.IDS.size, k) and got.flags.c_contiguous
        np.testing.assert_array_equal(got, self.oracle(master_seed, self.IDS, k))

    def test_rows_are_seedspec_streams(self):
        got = ens._stream_uniforms(201, np.arange(3), 11)
        for i in range(3):
            np.testing.assert_array_equal(got[i], ens.SeedSpec(201, i).rng().random(11))

    def test_refuses_negative_seed_like_seedsequence(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(-1, spawn_key=(0,))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            ens._stream_uniforms(-1, self.IDS, 3)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            ens._stream_uniforms(7, np.array([0, -1]), 3)
        with pytest.raises(ValueError, match="expected non-negative integer"):
            ens.KNMeasureSampler(6, 2.0).gammas_for(ens.SeedSpec(-1, 0), 3)

    def test_refuses_ids_of_two_spawn_key_words(self):
        with pytest.raises(ValueError, match="below 2\\*\\*32"):
            ens._stream_uniforms(7, np.array([0, 2**32]), 3)
        # refused from the replica count alone, before any id array exists
        with pytest.raises(ValueError, match="below 2\\*\\*32"):
            ens.KNMeasureSampler(6, 2.0).gammas_for(ens.SeedSpec(7, 0), 2**32 + 1)


class TestSampleKN:
    def test_single_coefficient_is_boundary(self):
        seq = ens.sample_kn(1, 2.0, ens.SeedSpec(0, 0))
        assert len(seq) == 1
        assert abs(abs(seq.values[0]) - 1.0) < 1e-14

    def test_deterministic(self):
        a = ens.sample_kn(6, 2.0, ens.SeedSpec(1, 4))
        b = ens.sample_kn(6, 2.0, ens.SeedSpec(1, 4))
        np.testing.assert_array_equal(a.values, b.values)

    def test_radial_marginal(self):
        g = ens._kn_gammas(ens.SeedSpec(2, 0).rng(), 6, 2.0, 10_000)
        rep = cstats.ks_test(np.abs(g[:, 0]) ** 2,
                             lambda x: sps.beta.cdf(x, 1.0, 5.0))
        assert rep.statistic < 0.02

    def test_rotation_invariant_phases(self):
        g = ens._kn_gammas(ens.SeedSpec(3, 0).rng(), 6, 2.0, 10_000)
        ang = np.mod(np.angle(g[:, 1]), TWO_PI)
        rep = cstats.ks_test(ang, lambda t: np.clip(t / TWO_PI, 0, 1))
        assert rep.passed

    def test_aleksandrov_rotation_leaves_law_invariant(self):
        # multiplying the alphas by a fixed unimodular eta preserves the law
        draws = 10_000
        g = ens._kn_gammas(ens.SeedSpec(4, 0).rng(), 6, 2.0, draws)
        alph = opuc._alphas_from_gammas(g)
        rot = opuc._gammas_from_alphas(np.exp(0.83j) * alph)
        ref = ens._kn_gammas(ens.SeedSpec(5, 0).rng(), 6, 2.0, draws)
        for k in range(5):
            r1 = cstats.ks_test(np.abs(rot[:, k]), np.abs(ref[:, k]),
                                level=1e-3)
            assert r1.statistic < 0.025
            a1 = np.mod(np.angle(rot[:, k]), TWO_PI)
            a2 = np.mod(np.angle(ref[:, k]), TWO_PI)
            assert cstats.ks_test(a1, a2, level=1e-3).statistic < 0.025


class TestKNMeasure:
    def test_single_atom(self):
        _, angles, weights = ens.KNMeasureSampler(1, 2.0).sample_batch(
            ens.SeedSpec(6, 0), 3)
        assert angles.shape == weights.shape == (3, 1)
        np.testing.assert_allclose(weights, 1.0, rtol=1e-15)

    def test_weight_marginal_is_beta(self):
        n, beta, draws = 5, 2.0, 10_000
        sampler = ens.KNMeasureSampler(n, beta)
        _, _, weights = sampler.sample_batch(ens.SeedSpec(7, 0), draws)
        # a Dirichlet(b/2,...) coordinate is Beta(b/2, b(n-1)/2)
        rep = cstats.ks_test(weights[:, 0],
                             lambda x: sps.beta.cdf(x, beta / 2,
                                                    beta * (n - 1) / 2))
        assert rep.statistic < 0.02

    def test_batch_matches_serial(self):
        sampler = ens.KNMeasureSampler(4, 2.0)
        _, angles, weights = sampler.sample_batch(ens.SeedSpec(8, 0), 3)
        for i in range(3):
            seq = ens.sample_kn(4, 2.0, ens.SeedSpec(8, i))
            mu = opuc.alpha_to_measure(opuc.convert_coefficients(seq, "verblunsky"))
            np.testing.assert_allclose(angles[i], mu.angles, atol=1e-14)
            np.testing.assert_allclose(weights[i], mu.weights, atol=1e-14)

    def test_gammas_follow_per_replica_streams(self):
        n, beta = 5, 1.5
        base = ens.SeedSpec(11, 3)
        g = ens.KNMeasureSampler(n, beta).gammas_for(base, 4)
        for i in range(4):
            np.testing.assert_array_equal(
                g[i], ens.sample_kn(n, beta, base.stream(i)).values)

    def test_weights_independent_of_support(self):
        # distance correlation between the weight vector and the sorted
        # support, against a permutation null
        n, draws = 5, 300
        sampler = ens.KNMeasureSampler(n, 2.0)
        _, angles, weights = sampler.sample_batch(ens.SeedSpec(9, 0), draws)

        def dcor(xm, ym):
            def centered(dm):
                return (dm - dm.mean(0, keepdims=True)
                        - dm.mean(1, keepdims=True) + dm.mean())
            dx = centered(np.linalg.norm(xm[:, None] - xm[None, :], axis=2))
            dy = centered(np.linalg.norm(ym[:, None] - ym[None, :], axis=2))
            v = math.sqrt(abs((dx * dx).mean() * (dy * dy).mean()))
            return (dx * dy).mean() / v if v > 0 else 0.0

        stat = dcor(angles, weights[:, :-1])
        rng = np.random.default_rng(10)
        null = []
        for _ in range(99):
            perm = rng.permutation(draws)
            null.append(dcor(angles, weights[perm][:, :-1]))
        assert stat < np.quantile(null, 0.99)


class TestPalmTransform:
    def test_zero_sequence(self):
        g = opuc.CoefficientSequence(
            "modified", np.concatenate([np.zeros(4), [np.exp(0.3j)]]))
        out = ens.palm_transform(g)
        np.testing.assert_array_equal(
            out.values, np.concatenate([np.zeros(4), [1.0]]))

    def test_moduli_preserved(self):
        g = ens.sample_kn(6, 2.0, ens.SeedSpec(11, 0))
        out = ens.palm_transform(g)
        np.testing.assert_allclose(np.abs(out.values[:-1]),
                                   np.abs(g.values[:-1]), atol=1e-14)
        assert out.values[-1] == 1.0

    def test_measure_charges_angle_zero(self):
        for i in range(5):
            g = ens.sample_kn(5, 2.0, ens.SeedSpec(12, i))
            mu = opuc.alpha_to_measure(opuc.convert_coefficients(
                ens.palm_transform(g), "verblunsky"))
            d = np.abs(np.mod(mu.angles + math.pi, TWO_PI) - math.pi)
            assert d.min() < 1e-9

    def test_requires_modified(self):
        seq = opuc.CoefficientSequence("verblunsky", np.array([1.0 + 0j]))
        with pytest.raises(ValueError, match="modified"):
            ens.palm_transform(seq)

    def test_batch_matches_rows(self):
        g = ens.KNMeasureSampler(5, 2.0).gammas_for(ens.SeedSpec(12, 0), 6)
        palm = ens.palm_gammas(g)
        for i in range(g.shape[0]):
            row = ens.palm_transform(opuc.CoefficientSequence("modified", g[i]))
            np.testing.assert_array_equal(palm[i], row.values)

    @pytest.mark.parametrize("n", [2, 5, 20, 50])
    def test_operator_pins_zero_and_lifts_the_palm_measure(self, n):
        # gamma_{n-1} = 1 sends the boundary slope to infinity, and the
        # operator's spectrum is the Palm measure, stretched by n
        for i in range(5):
            palm = ens.palm_transform(ens.sample_kn(n, 2.0, ens.SeedSpec(21, i)))
            op = dirac.coefficient_operator(palm)
            np.testing.assert_array_equal(op.u1, [1.0, 0.0])
            sm = dirac.spectral_measure(op, (-0.5, TWO_PI * n - 0.5), "left")
            assert np.min(np.abs(sm.lambdas)) < 1e-10
            mu = opuc.alpha_to_measure(opuc.convert_coefficients(palm, "verblunsky"))
            ang = np.where(mu.angles >= TWO_PI - 0.5 / n, mu.angles - TWO_PI, mu.angles)
            order = np.argsort(ang)
            np.testing.assert_allclose(sm.lambdas, n * ang[order], rtol=0.0, atol=1e-9)
            np.testing.assert_allclose(sm.weights, 2 * n * mu.weights[order],
                                       rtol=1e-9, atol=0.0)

    def test_single_column_maps_to_one(self):
        g = np.exp(1j * np.array([[0.3], [2.0], [-1.1]]))
        np.testing.assert_array_equal(ens.palm_gammas(g), np.ones((3, 1)))


class TestBiasedDirect:
    def test_single_coefficient_is_one(self):
        g = ens._biased_gammas(ens.SeedSpec(13, 0).rng(), 1, 2.0, 1)
        np.testing.assert_array_equal(g, [[1.0]])

    def test_last_is_one(self):
        g = ens._biased_gammas(ens.SeedSpec(14, 0).rng(), 4, 2.0, 5)
        np.testing.assert_array_equal(g[:, -1], 1.0)
        assert np.all(np.abs(g[:, :-1]) < 1.0)

    def test_matches_palm_route_in_law(self):
        n, beta, draws = 6, 2.0, 10_000
        direct = ens._biased_gammas(ens.SeedSpec(15, 0).rng(), n, beta, draws)
        palm = ens.palm_gammas(
            ens._kn_gammas(ens.SeedSpec(16, 0).rng(), n, beta, draws))
        for k in range(n - 1):
            for part in (np.real, np.imag):
                rep = cstats.ks_test(part(palm[:, k]), part(direct[:, k]))
                assert rep.passed, rep

    def test_radial_marginal_by_quadrature(self):
        # integrate the planar density over angles numerically, then compare
        # the implied radial CDF with the sampled radii
        n, beta, k = 6, 2.0, 1
        s = 0.5 * beta * (n - k - 1)
        draws = ens._biased_gammas(ens.SeedSpec(17, 0).rng(), n, beta, 5000)
        r = np.abs(draws[:, k])
        rr = np.linspace(0.0, 1.0 - 1e-9, 2001)
        phi = np.linspace(0.0, TWO_PI, 512, endpoint=False)
        zz = rr[:, None] * np.exp(1j * phi[None, :])
        dens = (1.0 - np.abs(zz) ** 2) ** s / np.abs(1.0 - zz) ** 2
        radial = rr * dens.mean(axis=1)
        cdf_grid = np.cumsum(radial)
        cdf_grid /= cdf_grid[-1]
        cdf = lambda x: np.interp(x, rr, cdf_grid)
        rep = cstats.ks_test(r, cdf)
        assert rep.statistic < 0.025

    def test_mean_pulled_toward_one(self):
        draws = ens._biased_gammas(ens.SeedSpec(18, 0).rng(), 2, 2.0, 4000)
        assert draws[:, 0].real.mean() > 0.05


class TestSineOperator:
    def test_grid_and_anchor(self):
        spec = ens.SinePathSpec(beta=2.0, t_min=1e-3, cells=256)
        op = ens.sample_sine_operator(spec, ens.SeedSpec(19, 0))
        assert op.grid[0] == spec.t_min
        assert op.grid[-1] == 1.0
        assert op.cells == 256
        assert op.origin == "sine-beta"
        # the path is anchored at z = i at t = 1; the last cell sits one
        # Brownian step away
        assert abs(op.path[-1] - 1j) < 0.8

    def test_deterministic(self):
        spec = ens.SinePathSpec(beta=2.0, cells=64)
        a = ens.sample_sine_operator(spec, ens.SeedSpec(20, 7))
        b = ens.sample_sine_operator(spec, ens.SeedSpec(20, 7))
        np.testing.assert_array_equal(a.path, b.path)
        np.testing.assert_array_equal(a.u1, b.u1)

    def test_infinity_mode_pins_zero(self):
        spec = ens.SinePathSpec(beta=2.0, cells=256, q_mode="infinity")
        for i in range(5):
            op = ens.sample_sine_operator(spec, ens.SeedSpec(21, i))
            eigs = dirac.eigenvalues_in(op, (-0.5, 0.5))
            assert np.min(np.abs(eigs)) < 1e-10

    def test_batch_rows_do_not_depend_on_the_batch(self):
        spec = ens.SinePathSpec(beta=2.0, cells=64)
        seeds = [ens.SeedSpec(24, i) for i in range(5)]
        batch = ens.sample_sine_paths(spec, seeds)
        assert batch.v.shape == batch.r.shape == (5, 64) and batch.u.shape == (5,)
        tail = ens.sample_sine_paths(spec, seeds[3:])
        for i in (3, 4):
            assert_same_row(tail, i - 3, batch, i)
        op = ens.sample_sine_operator(spec, seeds[2])
        np.testing.assert_array_equal(op.batch.dt, batch.dt)
        assert_same_row(op.batch, 0, batch, 2)

    def test_rows_across_copy_blocks(self):
        # rows are copied out a block at a time; a batch of two full blocks
        # and a partial one holds every row as drawn alone
        spec = ens.SinePathSpec(beta=2.0, cells=16, q_mode="cauchy")
        rows = 2 * ens._PATH_BLOCK + 3
        seeds = [ens.SeedSpec(25, i) for i in range(rows)]
        batch = ens.sample_sine_paths(spec, seeds)
        assert batch.v.flags.f_contiguous and batch.r.flags.f_contiguous
        for i in (0, ens._PATH_BLOCK - 1, ens._PATH_BLOCK, rows - 1):
            assert_same_row(ens.sample_sine_operator(spec, seeds[i]).batch, 0, batch, i)

    def test_fixed_q(self):
        spec = ens.SinePathSpec(beta=2.0, cells=64, q_mode="fixed", q=1.5)
        op = ens.sample_sine_operator(spec, ens.SeedSpec(22, 0))
        np.testing.assert_array_equal(op.u1, [-1.5, -1.0])

    def test_mean_count_near_intensity(self):
        # reduced desk check of the 1/(2 pi) intensity
        spec = ens.SinePathSpec(beta=2.0, cells=512)
        counts = [dirac.eigenvalue_count(
            ens.sample_sine_operator(spec, ens.SeedSpec(23, i)),
            (0.0, 20.0 * math.pi)) for i in range(60)]
        mean = np.mean(counts)
        se = np.std(counts, ddof=1) / math.sqrt(len(counts))
        assert abs(mean - 10.0) < 4.0 * se + 0.05

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ens.SinePathSpec(beta=-1.0)
        with pytest.raises(ValueError):
            ens.SinePathSpec(beta=2.0, t_min=1.5)
        with pytest.raises(ValueError):
            ens.SinePathSpec(beta=2.0, q_mode="fixed")
        with pytest.raises(ValueError, match="q_mode 'fixed'"):
            ens.SinePathSpec(beta=2.0, q_mode="cauchy", q=1.5)


class TestRemoveAtom:
    def test_two_equal_atoms(self):
        angles, weights = ens.remove_atom([[0.0, 1.0], [2.0, TWO_PI - 1e-12]],
                                          [[0.5, 0.5], [0.25, 0.75]], 0.0)
        np.testing.assert_array_equal(angles, [[1.0], [2.0]])
        np.testing.assert_allclose(weights, 1.0, rtol=1e-15)

    def test_palm_measure_removal(self):
        g = ens.KNMeasureSampler(5, 2.0).gammas_for(ens.SeedSpec(24, 0), 4)
        angles, weights = _measures_from_gammas_batch(ens.palm_gammas(g))
        red_ang, red_w = ens.remove_atom(angles, weights, 0.0)
        assert red_ang.shape == red_w.shape == (4, 4)
        assert np.all(np.abs(np.mod(red_ang + math.pi, TWO_PI) - math.pi) > 1e-9)
        np.testing.assert_allclose(red_w.sum(axis=1), 1.0, rtol=1e-14)

    def test_missing_atom(self):
        # the tolerance is 1e-9: an atom 5e-9 away does not count
        with pytest.raises(ValueError, match="no atom"):
            ens.remove_atom([[0.5, 1.0], [0.5 + 5e-9, 2.0]],
                            [[0.5, 0.5], [0.5, 0.5]], 0.5)

    def test_single_atom_rows(self):
        with pytest.raises(ValueError, match="only atom"):
            ens.remove_atom([[0.0], [0.0]], [[1.0], [1.0]], 0.0)


class TestBiasByWindow:
    def test_deterministic_sampler_gives_equal_weights(self):
        angles = np.tile([0.0, 2.0], (50, 1))
        atom_weights = np.tile([0.3, 0.7], (50, 1))
        w = ens.bias_by_window(angles, atom_weights, 0.1)
        np.testing.assert_allclose(w, 1.0)

    def test_empty_event(self):
        angles = np.tile([2.0, 3.0], (20, 1))
        atom_weights = np.full((20, 2), 0.5)
        with pytest.raises(ValueError, match="empty biasing event"):
            ens.bias_by_window(angles, atom_weights, 0.1)

    def test_weights_concentrate_as_window_shrinks(self):
        sampler = ens.KNMeasureSampler(6, 2.0)
        _, angles, atom_weights = sampler.sample_batch(ens.SeedSpec(27, 0), 400)
        fracs = []
        for eps in (0.5, 0.1, 0.02):
            w = ens.bias_by_window(angles, atom_weights, eps)
            fracs.append(np.mean(w > 0.0))
        assert fracs[0] > fracs[1] > fracs[2]


def _metropolis_cj(n_points, beta, draws, seed, burn=600, thin=15):
    """Random-walk sampler of the density ~ prod|z_i-z_j|^b prod|1-z_i|^b."""
    rng = np.random.default_rng(seed)

    def logdens(theta):
        z = np.exp(1j * theta)
        diff = np.abs(z[:, None] - z[None, :])
        iu = np.triu_indices(n_points, 1)
        return (beta * np.sum(np.log(diff[iu]))
                + beta * np.sum(np.log(np.abs(1.0 - z))))

    theta = rng.uniform(0.0, TWO_PI, n_points)
    cur = logdens(theta)
    out = np.empty((draws, n_points))
    kept = 0
    it = 0
    while kept < draws:
        it += 1
        prop = np.mod(theta + rng.normal(0.0, 0.6, n_points), TWO_PI)
        cand = logdens(prop)
        if math.log(rng.random() + 1e-300) < cand - cur:
            theta, cur = prop, cand
        if it > burn and it % thin == 0:
            out[kept] = np.sort(theta)
            kept += 1
    return out


class TestCircularJacobiSupport:
    def test_palm_support_minus_one_matches_metropolis(self):
        # per-replica scalar statistics are iid, so two-sample KS applies
        n, beta, draws = 5, 2.0, 1500
        g = ens.palm_gammas(ens._kn_gammas(ens.SeedSpec(30, 0).rng(), n, beta, draws))
        angles, weights = _measures_from_gammas_batch(g)
        support = np.sort(ens.remove_atom(angles, weights, 0.0)[0], axis=1)

        ref = _metropolis_cj(n - 1, beta, draws, seed=31)

        def min_gap(s):
            gaps = np.diff(s, axis=1)
            wrap = s[:, :1] + TWO_PI - s[:, -1:]
            return np.concatenate([gaps, wrap], axis=1).min(axis=1)

        def nearest_to_one(s):
            return np.abs(np.mod(s + math.pi, TWO_PI) - math.pi).min(axis=1)

        for statfn in (min_gap, nearest_to_one):
            rep = cstats.ks_test(statfn(support), statfn(ref), level=1e-3)
            assert rep.passed, rep
