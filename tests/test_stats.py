import ast
import math

import numpy as np
import pytest
from scipy import stats as sps

from circdirac import stats as cstats
from circdirac import verify


class TestKS:
    def test_hand_case_against_uniform(self):
        rep = cstats.ks_test(np.array([0.25, 0.5, 0.75]), lambda x: x)
        assert rep.statistic == pytest.approx(0.25)
        assert rep.sample_size == 3

    def test_sample_against_itself(self):
        x = np.random.default_rng(0).normal(size=200)
        assert cstats._ks_two_sample_each(x, x, [None, np.ones(200)]) == [0.0, 0.0]

    def test_calibration(self):
        x = np.random.default_rng(1).random(10_000)
        rep = cstats.ks_test(x, lambda t: np.clip(t, 0.0, 1.0))
        assert rep.passed
        assert rep.threshold == pytest.approx(
            sps.kstwobign.isf(1e-3) / 100.0)

    def test_detects_wrong_law(self):
        x = np.random.default_rng(2).normal(size=10_000)
        rep = cstats.ks_test(x, lambda t: sps.norm.cdf(t, loc=0.2))
        assert not rep.passed

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.random(500)
        s1 = cstats.ks_test(x, lambda t: np.clip(t, 0, 1)).statistic
        s2 = cstats.ks_test(np.exp(x),
                            lambda t: np.clip(np.log(t), 0, 1)).statistic
        assert s1 == pytest.approx(s2, abs=1e-12)

    def test_two_sample_statistic(self):
        a = np.array([0.0, 1.0, 2.0])
        b = np.array([0.5, 1.5])
        # ecdf difference: max |F_a - F_b| = 1/3 at 0, 1/6 at .5 ... sup = 1/3
        [stat] = cstats._ks_two_sample_each(a, b, [None])
        assert stat == pytest.approx(1.0 / 3.0)

    def test_weighted_matches_replication(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=300)
        w = np.ones(300)
        w[:100] = 2.0
        b = rng.normal(size=400)
        [weighted] = cstats._ks_two_sample_each(a, b, [w])
        [replicated] = cstats._ks_two_sample_each(np.concatenate([a[:100], a]), b, [None])
        assert weighted == pytest.approx(replicated, abs=1e-12)

    def test_by_coordinate(self):
        # Re and Im of every column but the last, weights on the first sample
        rng = np.random.default_rng(5)
        a = rng.normal(size=(300, 4)) + 1j * rng.normal(size=(300, 4))
        b = rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))
        w = rng.random(300)
        ks = cstats.ks_by_coordinate(a, b, [w])
        assert ks.shape == (1, 3, 2)
        for k in range(3):
            assert [ks[0, k, 0]] == cstats._ks_two_sample_each(a[:, k].real, b[:, k].real, [w])
            assert [ks[0, k, 1]] == cstats._ks_two_sample_each(a[:, k].imag, b[:, k].imag, [w])
        plain = cstats.ks_by_coordinate(a, b)
        assert plain.shape == (1, 3, 2)
        assert [plain[0, 0, 0]] == cstats._ks_two_sample_each(a[:, 0].real, b[:, 0].real, [None])
        assert cstats.ks_by_coordinate(a[:, :1], b[:, :1]).shape == (1, 0, 2)

    def test_by_coordinate_stacked_weights(self):
        # one call for a stack of weightings equals one call per weighting,
        # bit for bit; ties in the sample exercise the stable sort
        rng = np.random.default_rng(6)
        a = rng.normal(size=(400, 4)) + 1j * rng.normal(size=(400, 4))
        a[200:] = np.round(a[200:], 1)
        b = rng.normal(size=(150, 4)) + 1j * rng.normal(size=(150, 4))
        w = rng.random((3, 400))
        w[1, ::3] = 0.0
        ks = cstats.ks_by_coordinate(a, b, w)
        assert ks.shape == (3, 3, 2)
        for e in range(3):
            assert np.array_equal(ks[e], cstats.ks_by_coordinate(a, b, [w[e]])[0])
        assert cstats.ks_by_coordinate(a[:, :1], b[:, :1], w).shape == (3, 0, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cstats.ks_test(np.array([]), lambda t: t)


class TestScipyStatsOracle:
    """The closed-form quantiles and CDFs against scipy.stats and 40 digits.

    Each bound is tighter against the 40-digit truth than scipy.stats is.
    """

    @pytest.mark.parametrize("n", [1, 2, 3, 7.5, 5000, 10_000, 123_456])
    def test_ks_threshold(self, n):
        assert cstats.LEVEL == 1e-3
        assert cstats.ks_threshold(n) == (
            float(sps.kstwobign.isf(1e-3)) / math.sqrt(n))

    def test_chi2_threshold(self):
        # scipy inverts the lower tail at 1 - LEVEL and is off by up to 2.2e-15
        for dof in [*range(1, 121), 500, 1000]:
            assert cstats.chi2_threshold(dof) == pytest.approx(
                float(sps.chi2.ppf(1.0 - 1e-3, dof)), rel=2.5e-15, abs=0.0)

    def test_chi2_threshold_against_40_digits(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            level = mpmath.mpf(cstats.LEVEL)
            for dof in range(1, 121):
                x = cstats.chi2_threshold(dof)
                # the regularized upper incomplete gamma is the chi-square tail
                true = mpmath.findroot(
                    lambda t: mpmath.gammainc(dof / 2, t / 2, regularized=True) - level, x)
                assert abs(x - true) <= 2.3e-16 * true, dof

    def test_chi2_threshold_refuses_bad_dof(self):
        for dof in (0, -3, 1001):
            with pytest.raises(ValueError, match="dof"):
                cstats.chi2_threshold(dof)

    def test_chi2_hist2d_threshold(self):
        rng = np.random.default_rng(5)
        z = np.sqrt(rng.random(8000)) * np.exp(2j * math.pi * rng.random(8000))
        rep = cstats.chi2_hist2d(z, lambda w: np.ones_like(w, dtype=float))
        dof = int(rep.notes.split("=")[1])
        assert rep.threshold == cstats.chi2_threshold(dof)
        assert rep.threshold == pytest.approx(
            float(sps.chi2.ppf(1.0 - 1e-3, dof)), rel=2.5e-15, abs=0.0)

    @staticmethod
    def check_against_40_digits(x, out, cdf, points=200):
        """``out`` within 4.5e-16 relative of ``cdf(mpmath, x)`` in 40 digits at sampled x."""
        mpmath = pytest.importorskip("mpmath")
        idx = np.unique(np.linspace(0, x.size - 1, points).astype(int))
        with mpmath.workdps(40):
            for xi, oi in zip(x[idx].tolist(), out[idx].tolist()):
                true = cdf(mpmath, mpmath.mpf(xi))
                assert abs(oi - true) <= 4.5e-16 * true, (xi, oi)

    def test_criteria_cdfs(self, monkeypatch):
        # every Beta CDF that kn-marginals and gamma-weight-limit evaluate,
        # on their own grids
        beta1_cdf = verify._beta1_cdf
        calls = []

        def recorder(x, b):
            out = beta1_cdf(x, b)
            calls.append((np.array(x), b, out))
            return out

        monkeypatch.setattr(verify, "_beta1_cdf", recorder)
        verify.criterion_kn_marginals(7)
        assert len(calls) == 5 + 5 + 9
        verify.criterion_gamma_weight_limit(7)
        # gamma-weight-limit evaluates its grid in blocks, one call per block
        # and n; each n's blocks concatenate to the whole grid
        blocks = calls[5 + 5 + 9:]
        del calls[5 + 5 + 9:]
        assert {b for _, b, _ in blocks} == {99.0, 999.0, 9999.0}
        for n in (100, 1000, 10000):
            x, out = (np.concatenate([c[i] for c in blocks if c[1] == n - 1.0])
                      for i in (0, 2))
            assert np.array_equal(x, np.linspace(0.0, 80.0, 400_001) / (2.0 * n))
            calls.append((x, n - 1.0, out))
        assert len(calls) == (5 + 5 + 9) + 3
        for x, b, out in calls:
            assert np.allclose(out, sps.beta.cdf(x, 1.0, b), rtol=0.0, atol=1e-15)
        for x, b, out in calls:
            self.check_against_40_digits(x, out, lambda mp, t: 1 - (1 - t) ** b)

    def test_weight_limit_report(self, monkeypatch):
        # the limit CDF on the criterion's grid, and its statistics, against
        # scipy.stats to 1e-15 absolute
        weight_ks = verify._weight_ks
        blocks = []

        def recorder(x, limit, n):
            blocks.append((n, x, limit))
            return weight_ks(x, limit, n)

        monkeypatch.setattr(verify, "_weight_ks", recorder)
        (_, rep1), (_, rep2) = verify.criterion_gamma_weight_limit(7)
        # one call per block and n; each n's blocks concatenate to the grid
        grids = {}
        for n, x, limit in blocks:
            grids.setdefault(n, []).append((x, limit))
        assert list(grids) == [100, 1000, 10000]
        x, limit = (np.concatenate(a) for a in zip(*grids[100]))
        assert np.array_equal(x, np.linspace(0.0, 80.0, 400_001))
        for parts in grids.values():
            other_x, other_limit = (np.concatenate(a) for a in zip(*parts))
            assert np.array_equal(other_x, x) and np.array_equal(other_limit, limit)
        sps_limit = sps.gamma.cdf(x, 1.0, scale=2.0)
        assert np.allclose(limit, sps_limit, rtol=0.0, atol=1e-15)
        ks = ast.literal_eval(rep1.notes.partition("values ")[2])
        assert rep1.notes == f"analytic-CDF KS at n=1e4; values {ks}"
        for n in (100, 1000, 10000):
            sps_ks = np.max(np.abs(sps.beta.cdf(x / (2.0 * n), 1.0, n - 1.0) - sps_limit))
            assert abs(ks[n] - sps_ks) <= 1e-15
        assert rep1.statistic == ks[10000]
        assert rep2.statistic == max(ks[1000] - ks[100], ks[10000] - ks[1000])
        self.check_against_40_digits(x, limit, lambda mp, t: -mp.expm1(-t / 2))


class TestChi2:
    def test_uniform_disk_calibration(self):
        rng = np.random.default_rng(5)
        z = np.sqrt(rng.random(8000)) * np.exp(2j * math.pi * rng.random(8000))
        rep = cstats.chi2_hist2d(z, lambda w: np.ones_like(w, dtype=float))
        assert rep.passed

    def test_power_against_wrong_density(self):
        rng = np.random.default_rng(6)
        z = np.sqrt(rng.random(8000)) * np.exp(2j * math.pi * rng.random(8000))
        dens = lambda w: (1.0 - np.abs(w) ** 2) ** 3 / np.abs(1.0 - w) ** 2
        rep = cstats.chi2_hist2d(z, dens)
        assert not rep.passed

    def test_cell_probabilities_sum_to_one(self):
        dens = lambda w: (1.0 - np.abs(w) ** 2) ** 2
        _, _, prob = cstats.disk_cell_probabilities(dens)
        assert prob.shape == (cstats.BINS, cstats.BINS)
        assert prob.sum() == pytest.approx(1.0, abs=1e-9)

    def test_non_convergent_quadrature_raises(self):
        # about 1e4 oscillations along each radius: far too many for the
        # QUAD_POINTS // BINS nodes per cell and for twice as many
        dens = lambda w: 1.0 + np.cos(6e4 * np.abs(w))
        with pytest.raises(ValueError, match="quadrature"):
            cstats.disk_cell_probabilities(dens)

    def test_boundary_pole_is_refused(self):
        # the integrable pole |1 - z|^{-2} of the atom-at-1 tilted law at
        # s = 1: the per-ring rule does not resolve it, and the doubled pass
        # disagrees (3.14144 against 3.14100), so the density is refused
        # instead of integrated badly
        dens = lambda w: (1.0 - np.abs(w) ** 2) ** 1.0 / np.abs(1.0 - w) ** 2
        with pytest.raises(ValueError, match="quadrature"):
            cstats.disk_cell_probabilities(dens)

    def test_criteria_densities_match_cellwise_rule(self):
        # the two densities of the suite, each cell integrated on its own
        # by the tensor Gauss rule of QUAD_POINTS // BINS nodes per axis
        x, w = np.polynomial.legendre.leggauss(cstats.QUAD_POINTS // cstats.BINS)
        edges = np.linspace(0.0, 1.0, cstats.BINS + 1)
        for dens in (lambda z: (1.0 - np.abs(z) ** 2) ** 5 / np.abs(1.0 - z) ** 2,
                     lambda z: (1.0 - np.abs(z) ** 2) ** 2 * np.abs(1.0 - z) ** 2):
            ref = np.empty((cstats.BINS, cstats.BINS))
            for i in range(cstats.BINS):
                r = 0.5 * (edges[i + 1] - edges[i]) * (x + 1.0) + edges[i]
                for j in range(cstats.BINS):
                    p = 2.0 * math.pi * (edges[j] + 0.5 * (edges[j + 1] - edges[j]) * (x + 1.0))
                    z = r[:, None] * np.exp(1j * p[None, :])
                    ref[i, j] = w @ (dens(z) * r[:, None]) @ w
            _, _, prob = cstats.disk_cell_probabilities(dens)
            assert np.allclose(prob, ref / ref.sum(), rtol=1e-12, atol=0.0)

    def test_samples_where_the_density_vanishes_fail(self):
        # 40 of 8000 samples on the ring |z| = 0.95, where the density is
        # zero: they refute it, and the pool that holds them is not dropped
        rng = np.random.default_rng(8)
        z = 0.9 * np.sqrt(rng.random(8000)) * np.exp(2j * math.pi * rng.random(8000))
        dens = lambda w: (np.abs(w) < 0.9).astype(float)
        assert cstats.chi2_hist2d(z, dens).passed
        z[:40] = 0.95 * np.exp(2j * math.pi * rng.random(40))
        rep = cstats.chi2_hist2d(z, dens)
        assert rep.statistic == math.inf and not rep.passed
        assert rep.notes.endswith("; 40 samples where the density is zero")

    @staticmethod
    def annulus_samples(seed, n=8000):
        """n uniform samples of the annulus 0.1 <= |z| < 1: none in the inner ring of cells."""
        rng = np.random.default_rng(seed)
        return np.sqrt(0.01 + 0.99 * rng.random(n)) * np.exp(2j * math.pi * rng.random(n))

    def test_underfilled_pool_folds_into_the_smallest_cell(self):
        # the inner ring's 10 cells expect 0.08 samples in all: that pool is
        # folded into the smallest of the 90 retained cells, so dof = 89
        dens = lambda w: np.where(np.abs(w) >= 0.1, 1.0, 1e-3)
        z = self.annulus_samples(10)
        rep = cstats.chi2_hist2d(z, dens)
        assert rep.notes == "chi2 dof=89"
        assert rep.threshold == cstats.chi2_threshold(89)
        # the same statistic by hand
        _, _, prob = cstats.disk_cell_probabilities(dens)
        ring = np.minimum((np.abs(z) * cstats.BINS).astype(int), cstats.BINS - 1)
        sector = (np.mod(np.angle(z), 2.0 * math.pi) / (2.0 * math.pi)
                  * cstats.BINS).astype(int) % cstats.BINS
        obs = np.zeros((cstats.BINS, cstats.BINS))
        np.add.at(obs, (ring, sector), 1.0)
        o, e = obs[1:].ravel(), z.size * prob[1:].ravel()
        pool = z.size * prob[0].sum()
        assert 0.0 < pool < cstats.MIN_EXPECTED and obs[0].sum() == 0.0
        j = np.argmin(e)
        e[j] += pool
        assert rep.statistic == pytest.approx(np.sum((o - e) ** 2 / e), rel=1e-12)

    def test_empty_pool_expecting_nothing_is_dropped(self):
        # the density vanishes on the inner ring and no sample falls there:
        # the pool folds into a cell and adds 0 to it, and the statistic
        # is finite
        dens = lambda w: (np.abs(w) >= 0.1).astype(float)
        _, _, prob = cstats.disk_cell_probabilities(dens)
        assert np.all(prob[0] == 0.0)
        rep = cstats.chi2_hist2d(self.annulus_samples(11), dens)
        assert rep.notes == "chi2 dof=89"
        assert math.isfinite(rep.statistic) and rep.passed

    def test_fewer_than_two_adequate_cells_raise(self):
        # 10 uniform samples expect at most 0.19 in any of the 100 cells
        rng = np.random.default_rng(12)
        z = np.sqrt(rng.random(10)) * np.exp(2j * math.pi * rng.random(10))
        with pytest.raises(ValueError, match="too few cells with adequate expected count"):
            cstats.chi2_hist2d(z, lambda w: np.ones_like(w, dtype=float))

    def test_samples_outside_the_disk_raise(self):
        # 40 of 8000 uniform-disk samples moved to |z| = 50; clipped into
        # the outermost ring they would pass, 96.1 against 148.2
        rng = np.random.default_rng(5)
        z = np.sqrt(rng.random(8000)) * np.exp(2j * math.pi * rng.random(8000))
        z[:40] = 50.0 * np.exp(2j * math.pi * rng.random(40))
        with pytest.raises(ValueError, match="40 samples outside the unit disk"):
            cstats.chi2_hist2d(z, lambda w: np.ones_like(w, dtype=float))

    def test_samples_on_the_circle_count_in_the_outer_ring(self):
        rng = np.random.default_rng(5)
        z = np.sqrt(rng.random(8000)) * np.exp(2j * math.pi * rng.random(8000))
        edge = np.array([1.0, -1.0, 1j, -1j])
        uniform = lambda w: np.ones_like(w, dtype=float)
        z[:4] = edge
        on = cstats.chi2_hist2d(z, uniform)
        z[:4] = 0.99999 * edge
        assert on.statistic == cstats.chi2_hist2d(z, uniform).statistic

    def test_non_finite_samples_raise(self):
        rng = np.random.default_rng(9)
        z = np.sqrt(rng.random(8000)) * np.exp(2j * math.pi * rng.random(8000))
        z[[5, 500, 5000]] = complex(math.nan, 0.0), complex(0.0, math.nan), math.inf
        with pytest.raises(ValueError, match="finite"):
            cstats.chi2_hist2d(z, lambda w: np.ones_like(w, dtype=float))


class TestReport:
    def test_pass_iff_below_threshold(self):
        rep = cstats.TestReport(statistic=0.5, threshold=1.0, sample_size=10)
        d = rep.to_dict()
        assert d["pass"] is True
        assert set(d) == {"statistic", "threshold", "sample_size", "pass",
                          "notes"}
        for stat in (1.0, 2.0, math.inf, math.nan):
            assert not cstats.TestReport(stat, 1.0, 10).passed

    def test_passed_is_not_an_argument(self):
        with pytest.raises(TypeError, match="passed"):
            cstats.TestReport(statistic=2.0, threshold=1.0, sample_size=10, passed=True)
