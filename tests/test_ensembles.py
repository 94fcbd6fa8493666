import math
import weakref

import numpy as np
import pytest
from scipy import stats as sps

from circdirac import dirac, ensembles as ens, opuc
from circdirac import stats as cstats
from circdirac.opuc import _measures_from_gammas_batch

TWO_PI = 2.0 * math.pi


def ks_two_sample(a, b):
    """Two-sample KS statistic, and its threshold at the effective size n m / (n + m)."""
    [stat] = cstats._ks_two_sample_each(a, b, [None])
    return stat, cstats.ks_threshold(a.size * b.size / (a.size + b.size))


def assert_same_row(a, i, b, j):
    """Row i of the OperatorBatch a holds the bits of row j of b."""
    for got, want in zip(*((c.w[k], c.start[:, k], c.last[:, k], c.u[k],
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
        g = ens.kn_gammas(ens.SeedSpec(2, 0).rng(), 6, 2.0, 10_000)
        rep = cstats.ks_test(np.abs(g[:, 0]) ** 2,
                             lambda x: sps.beta.cdf(x, 1.0, 5.0))
        assert rep.statistic < 0.02

    def test_rotation_invariant_phases(self):
        g = ens.kn_gammas(ens.SeedSpec(3, 0).rng(), 6, 2.0, 10_000)
        ang = np.mod(np.angle(g[:, 1]), TWO_PI)
        rep = cstats.ks_test(ang, lambda t: np.clip(t / TWO_PI, 0, 1))
        assert rep.passed

    def test_aleksandrov_rotation_leaves_law_invariant(self):
        # multiplying the alphas by a fixed unimodular eta preserves the law
        draws = 10_000
        g = ens.kn_gammas(ens.SeedSpec(4, 0).rng(), 6, 2.0, draws)
        alph = opuc.alphas_from_gammas(g)
        rot = opuc.gammas_from_alphas(np.exp(0.83j) * alph)
        ref = ens.kn_gammas(ens.SeedSpec(5, 0).rng(), 6, 2.0, draws)
        for k in range(5):
            assert ks_two_sample(np.abs(rot[:, k]), np.abs(ref[:, k]))[0] < 0.025
            a1 = np.mod(np.angle(rot[:, k]), TWO_PI)
            a2 = np.mod(np.angle(ref[:, k]), TWO_PI)
            assert ks_two_sample(a1, a2)[0] < 0.025


class TestKNMeasure:
    def test_single_atom(self):
        angles, weights = _measures_from_gammas_batch(
            ens.KNMeasureSampler(1, 2.0).gammas_for(ens.SeedSpec(6, 0), 3))
        assert angles.shape == weights.shape == (3, 1)
        np.testing.assert_allclose(weights, 1.0, rtol=1e-15)

    def test_weight_marginal_is_beta(self):
        n, beta, draws = 5, 2.0, 10_000
        sampler = ens.KNMeasureSampler(n, beta)
        _, weights = _measures_from_gammas_batch(sampler.gammas_for(ens.SeedSpec(7, 0), draws))
        # a Dirichlet(b/2,...) coordinate is Beta(b/2, b(n-1)/2)
        rep = cstats.ks_test(weights[:, 0],
                             lambda x: sps.beta.cdf(x, beta / 2,
                                                    beta * (n - 1) / 2))
        assert rep.statistic < 0.02

    def test_batch_matches_serial(self):
        sampler = ens.KNMeasureSampler(4, 2.0)
        g = sampler.gammas_for(ens.SeedSpec(8, 0), 3)
        angles, weights = _measures_from_gammas_batch(g)
        for i in range(3):
            seq = opuc.CoefficientSequence("modified", g[i])
            mu = opuc.alpha_to_measure(opuc.convert_coefficients(seq, "verblunsky"))
            np.testing.assert_allclose(angles[i], mu.angles, atol=1e-14)
            np.testing.assert_allclose(weights[i], mu.weights, atol=1e-14)

    def test_gammas_are_rows_of_the_base_stream(self):
        n, beta = 5, 1.5
        sampler = ens.KNMeasureSampler(n, beta)
        base = ens.SeedSpec(11, 3)
        g = sampler.gammas_for(base, 4)
        np.testing.assert_array_equal(g, ens.kn_gammas(base.rng(), n, beta, 4))
        # the stream id of base is read, not only its master seed
        assert not np.array_equal(g, sampler.gammas_for(ens.SeedSpec(11, 0), 4))

    def test_refuses_negative_seed_like_seedsequence(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            np.random.SeedSequence(-1, spawn_key=(0,))
        with pytest.raises(ValueError, match="expected non-negative integer"):
            ens.KNMeasureSampler(6, 2.0).gammas_for(ens.SeedSpec(-1, 0), 3)

    def test_weights_independent_of_support(self):
        # distance correlation between the weight vector and the sorted
        # support, against a permutation null
        n, draws = 5, 300
        sampler = ens.KNMeasureSampler(n, 2.0)
        angles, weights = _measures_from_gammas_batch(sampler.gammas_for(ens.SeedSpec(9, 0), draws))

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
        g = ens.biased_gammas(ens.SeedSpec(13, 0).rng(), 1, 2.0, 1)
        np.testing.assert_array_equal(g, [[1.0]])

    def test_last_is_one(self):
        g = ens.biased_gammas(ens.SeedSpec(14, 0).rng(), 4, 2.0, 5)
        np.testing.assert_array_equal(g[:, -1], 1.0)
        assert np.all(np.abs(g[:, :-1]) < 1.0)

    def test_matches_palm_route_in_law(self):
        n, beta, draws = 6, 2.0, 10_000
        direct = ens.biased_gammas(ens.SeedSpec(15, 0).rng(), n, beta, draws)
        palm = ens.palm_gammas(
            ens.kn_gammas(ens.SeedSpec(16, 0).rng(), n, beta, draws))
        for k in range(n - 1):
            for part in (np.real, np.imag):
                stat, threshold = ks_two_sample(part(palm[:, k]), part(direct[:, k]))
                assert stat < threshold, (k, part, stat)

    def test_radial_marginal_by_quadrature(self):
        # integrate the planar density over angles numerically, then compare
        # the implied radial CDF with the sampled radii
        n, beta, k = 6, 2.0, 1
        s = 0.5 * beta * (n - k - 1)
        draws = ens.biased_gammas(ens.SeedSpec(17, 0).rng(), n, beta, 5000)
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
        draws = ens.biased_gammas(ens.SeedSpec(18, 0).rng(), 2, 2.0, 4000)
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
        spec = ens.SinePathSpec(beta=2.0, cells=256, q=math.inf)
        for i in range(5):
            op = ens.sample_sine_operator(spec, ens.SeedSpec(21, i))
            eigs = dirac.eigenvalues_in(op, (-0.5, 0.5))
            assert np.min(np.abs(eigs)) < 1e-10

    def test_batch_rows_do_not_depend_on_the_batch(self):
        spec = ens.SinePathSpec(beta=2.0, cells=64)
        seeds = [ens.SeedSpec(24, i) for i in range(5)]
        batch = ens.sample_sine_paths(spec, seeds)
        assert batch.w.shape == (5, 64) and batch.u.shape == (5,)
        assert batch.w.flags.f_contiguous
        tail = ens.sample_sine_paths(spec, seeds[3:])
        for i in (3, 4):
            assert_same_row(tail, i - 3, batch, i)
        op = ens.sample_sine_operator(spec, seeds[2])
        np.testing.assert_array_equal(op.batch.dt, batch.dt)
        assert_same_row(op.batch, 0, batch, 2)

    def test_replicas_hold_one_block_at_a_time(self, monkeypatch):
        # each block of rows is dropped before the next one is drawn, and
        # row i is still stream i of the seed
        blocks = []
        draw = ens.sample_sine_paths

        def spy(spec, seeds):
            assert all(block() is None for block in blocks)
            batch = draw(spec, seeds)
            blocks.append(weakref.ref(batch))
            return batch

        monkeypatch.setattr(ens, "sample_sine_paths", spy)
        monkeypatch.setattr(ens, "_BLOCK_ROWS", 3)
        spec = ens.SinePathSpec(beta=2.0, cells=32)
        u = ens.sine_replicas(spec, 4, 8, lambda batch: batch.u)
        assert len(blocks) == 3
        whole = draw(spec, [ens.SeedSpec(4, i) for i in range(8)])
        np.testing.assert_array_equal(u.view(np.int64), whole.u.view(np.int64))

    def test_a_block_sweeps_its_window_in_chunks(self):
        # a window's endpoint sweep takes two lanes per row; below
        # _CHUNK_LANES lanes every sweep of a block runs chunked
        assert 2 * ens._BLOCK_ROWS < dirac._CHUNK_LANES

    def test_steps_are_the_drawn_increments(self):
        # the frame steps of a row are its Brownian increments, bit for bit:
        # w_k = d1_{k-1} + i exp(d2_{k-1} - h / 2), and the last cell comes
        # from the last increments alone.  Steps taken by differences of the
        # path put Re w up to 2.3e-11 relative off d1 on this row
        spec = ens.SinePathSpec(beta=2.0)
        batch = ens.sample_sine_paths(spec, [ens.SeedSpec(7, 3)])
        u_min = (4.0 / spec.beta) * math.log(spec.t_min)
        h = -u_min / spec.cells
        rng = ens.SeedSpec(7, 3).rng()
        d2 = math.sqrt(h) * rng.standard_normal(spec.cells)
        d1 = math.sqrt(h) * rng.standard_normal(spec.cells)
        drawn = np.empty(spec.cells, dtype=complex)
        drawn.real = np.concatenate(([0.0], d1[:-1]))
        drawn.imag = np.concatenate(([1.0], np.exp(d2[:-1] - 0.5 * h)))
        np.testing.assert_array_equal(batch.w[0].view(np.int64), drawn.view(np.int64))
        u_last = np.linspace(u_min, 0.0, spec.cells + 1)[-2]
        y = np.exp(-d2[-1] - 0.5 * u_last)
        np.testing.assert_array_equal(batch.last[:, 0], [-(y * d1[-1]), y])

    def test_fixed_q(self):
        spec = ens.SinePathSpec(beta=2.0, cells=64, q=1.5)
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

    def test_small_beta_path_overflow_raises_alone(self):
        # the path overflows at beta 0.02; warnings are errors here, so an
        # overflow warning would pre-empt the error.  The operator is its
        # row of the batch, whose steps are the increments; it raises only
        # where a path is asked for
        spec = ens.SinePathSpec(beta=0.02)
        op = ens.sample_sine_operator(spec, ens.SeedSpec(3, 0))
        batch = ens.sample_sine_paths(spec, [ens.SeedSpec(3, i) for i in range(2)])
        assert batch.rows == 2
        assert np.all(np.isfinite(batch.w))
        np.testing.assert_array_equal(op.batch.w[0], batch.w[0])
        with pytest.raises(ValueError, match="^path overflow"):
            op.path
        with pytest.raises(ValueError, match="^path overflow"):
            dirac.conjugate_operator(op, np.eye(2))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ens.SinePathSpec(beta=-1.0)
        with pytest.raises(ValueError):
            ens.SinePathSpec(beta=2.0, t_min=1.5)
        with pytest.raises(ValueError, match="nan"):
            ens.SinePathSpec(beta=2.0, q=math.nan)


@pytest.mark.parametrize("beta", [math.nan, math.inf])
@pytest.mark.parametrize("draw", [
    lambda beta: ens.kn_gammas(ens.SeedSpec(1).rng(), 4, beta, 2),
    lambda beta: ens.biased_gammas(ens.SeedSpec(1).rng(), 4, beta, 2),
    lambda beta: ens.KNMeasureSampler(4, beta),
    lambda beta: ens.window_biasing(4, beta, 2, [0.1], ens.SeedSpec(1), ens.SeedSpec(2)),
    lambda beta: ens.SinePathSpec(beta=beta),
], ids=["kn_gammas", "biased_gammas", "KNMeasureSampler", "window_biasing", "SinePathSpec"])
def test_non_finite_beta_is_refused(draw, beta):
    with pytest.raises(ValueError, match="finite"):
        draw(beta)


class TestRemoveAtom:
    def test_two_equal_atoms(self):
        angles, weights = ens.remove_atom([[0.0, 1.0], [2.0, TWO_PI - 1e-12]],
                                          [[0.5, 0.5], [0.25, 0.75]])
        np.testing.assert_array_equal(angles, [[1.0], [2.0]])
        np.testing.assert_allclose(weights, 1.0, rtol=1e-15)

    def test_palm_measure_removal(self):
        g = ens.KNMeasureSampler(5, 2.0).gammas_for(ens.SeedSpec(24, 0), 4)
        angles, weights = _measures_from_gammas_batch(ens.palm_gammas(g))
        red_ang, red_w = ens.remove_atom(angles, weights)
        assert red_ang.shape == red_w.shape == (4, 4)
        assert np.all(np.abs(np.mod(red_ang + math.pi, TWO_PI) - math.pi) > 1e-9)
        np.testing.assert_allclose(red_w.sum(axis=1), 1.0, rtol=1e-14)

    def test_missing_atom(self):
        # the tolerance is 1e-9: an atom 5e-9 away does not count
        with pytest.raises(ValueError, match="no atom"):
            ens.remove_atom([[0.0, 1.0], [5e-9, 2.0]], [[0.5, 0.5], [0.5, 0.5]])

    def test_single_atom_rows(self):
        with pytest.raises(ValueError, match="only atom"):
            ens.remove_atom([[0.0], [0.0]], [[1.0], [1.0]])


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

    @pytest.mark.parametrize("eps", [math.inf, math.nan, 0.0, -0.1])
    def test_epsilon_must_be_finite_and_positive(self, eps):
        angles = np.tile([0.05, 3.0], (20, 1))
        atom_weights = np.full((20, 2), 0.5)
        with pytest.raises(ValueError, match="epsilon must be finite and positive"):
            ens.bias_by_window(angles, atom_weights, eps)

    def test_weights_concentrate_as_window_shrinks(self):
        sampler = ens.KNMeasureSampler(6, 2.0)
        angles, atom_weights = _measures_from_gammas_batch(
            sampler.gammas_for(ens.SeedSpec(27, 0), 400))
        fracs = []
        for eps in (0.5, 0.1, 0.02):
            w = ens.bias_by_window(angles, atom_weights, eps)
            fracs.append(np.mean(w > 0.0))
        assert fracs[0] > fracs[1] > fracs[2]


class TestWindowBiasing:
    def test_draws_come_from_the_named_streams(self):
        n, beta, eps = 5, 1.5, (0.4, 0.1)
        base, direct = ens.SeedSpec(13, 4), ens.SeedSpec(13, 9)
        gammas, weights, draws = ens.window_biasing(n, beta, 200, eps, base, direct)
        np.testing.assert_array_equal(gammas, ens.kn_gammas(base.rng(), n, beta, 200))
        np.testing.assert_array_equal(draws, ens.biased_gammas(direct.rng(), n, beta, 10_000))
        angles, atom_weights = _measures_from_gammas_batch(gammas)
        assert weights.shape == (2, 200)
        for w, e in zip(weights, eps):
            np.testing.assert_array_equal(w, ens.bias_by_window(angles, atom_weights, e))

    def test_radii_are_shared_by_both_laws(self):
        # the biased law keeps the KN radial law: the same stream gives the
        # same radii, then the two laws draw their angles
        n, beta = 6, 2.0
        kn = ens.kn_gammas(ens.SeedSpec(14, 0).rng(), n, beta, 50)
        biased = ens.biased_gammas(ens.SeedSpec(14, 0).rng(), n, beta, 50)
        np.testing.assert_allclose(np.abs(kn[:, :-1]), np.abs(biased[:, :-1]), rtol=1e-14)
        np.testing.assert_array_equal(biased[:, -1], 1.0)


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
        g = ens.palm_gammas(ens.kn_gammas(ens.SeedSpec(30, 0).rng(), n, beta, draws))
        angles, weights = _measures_from_gammas_batch(g)
        support = np.sort(ens.remove_atom(angles, weights)[0], axis=1)

        ref = _metropolis_cj(n - 1, beta, draws, seed=31)

        def min_gap(s):
            gaps = np.diff(s, axis=1)
            wrap = s[:, :1] + TWO_PI - s[:, -1:]
            return np.concatenate([gaps, wrap], axis=1).min(axis=1)

        def nearest_to_one(s):
            return np.abs(np.mod(s + math.pi, TWO_PI) - math.pi).min(axis=1)

        for statfn in (min_gap, nearest_to_one):
            stat, threshold = ks_two_sample(statfn(support), statfn(ref))
            assert stat < threshold, (statfn, stat)
