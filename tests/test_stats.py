import math

import numpy as np
import pytest
from scipy import stats as sps

from circdirac import stats as cstats


class TestKS:
    def test_hand_case_against_uniform(self):
        rep = cstats.ks_test(np.array([0.25, 0.5, 0.75]), lambda x: x)
        assert rep.statistic == pytest.approx(0.25)
        assert rep.sample_size == 3

    def test_sample_against_itself(self):
        x = np.random.default_rng(0).normal(size=200)
        rep = cstats.ks_test(x, x)
        assert rep.statistic == 0.0
        assert rep.passed

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
        assert cstats.ks_statistic_two_sample(a, b) == pytest.approx(1.0 / 3.0)

    def test_weighted_matches_replication(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=300)
        w = np.ones(300)
        w[:100] = 2.0
        b = rng.normal(size=400)
        weighted = cstats.ks_statistic_two_sample(a, b, weights_a=w)
        replicated = cstats.ks_statistic_two_sample(
            np.concatenate([a[:100], a]), b)
        assert weighted == pytest.approx(replicated, abs=1e-12)

    def test_by_coordinate(self):
        # Re and Im of every column but the last, weights on the first sample
        rng = np.random.default_rng(5)
        a = rng.normal(size=(300, 4)) + 1j * rng.normal(size=(300, 4))
        b = rng.normal(size=(200, 4)) + 1j * rng.normal(size=(200, 4))
        w = rng.random(300)
        ks = cstats.ks_by_coordinate(a, b, w)
        assert ks.shape == (3, 2)
        for k in range(3):
            assert ks[k, 0] == cstats.ks_statistic_two_sample(
                a[:, k].real, b[:, k].real, weights_a=w)
            assert ks[k, 1] == cstats.ks_statistic_two_sample(
                a[:, k].imag, b[:, k].imag, weights_a=w)
        assert cstats.ks_by_coordinate(a[:, :1], b[:, :1]).shape == (0, 2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cstats.ks_test(np.array([]), lambda t: t)


class TestChi2:
    def test_uniform_disk_calibration(self):
        rng = np.random.default_rng(5)
        z = np.sqrt(rng.random(8000)) * np.exp(2j * math.pi * rng.random(8000))
        rep = cstats.chi2_hist2d(z, lambda w: np.ones_like(w, dtype=float),
                                 bins=8)
        assert rep.passed

    def test_power_against_wrong_density(self):
        rng = np.random.default_rng(6)
        z = np.sqrt(rng.random(8000)) * np.exp(2j * math.pi * rng.random(8000))
        dens = lambda w: (1.0 - np.abs(w) ** 2) ** 3 / np.abs(1.0 - w) ** 2
        rep = cstats.chi2_hist2d(z, dens, bins=8)
        assert not rep.passed

    def test_cell_probabilities_sum_to_one(self):
        dens = lambda w: (1.0 - np.abs(w) ** 2) ** 2
        _, _, prob = cstats.disk_cell_probabilities(dens, 8, 8,
                                                    quad_points=256)
        assert prob.sum() == pytest.approx(1.0, abs=1e-9)

    def test_non_convergent_quadrature_raises(self):
        dens = lambda w: 1.0 + np.cos(4000.0 * np.abs(w))
        with pytest.raises(ValueError, match="quadrature"):
            cstats.disk_cell_probabilities(dens, 4, 4, quad_points=64)

    def test_boundary_singularity_integrates(self):
        # the atom-at-1 tilted law: integrable pole at z = 1
        dens = lambda w: (1.0 - np.abs(w) ** 2) ** 1.0 / np.abs(1.0 - w) ** 2
        _, _, prob = cstats.disk_cell_probabilities(dens, 8, 8)
        assert prob.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(prob >= 0.0)


class TestReport:
    def test_pass_iff_below_threshold(self):
        rep = cstats.TestReport(statistic=0.5, threshold=1.0, sample_size=10,
                                passed=True)
        d = rep.to_dict()
        assert d["pass"] is True
        assert set(d) == {"statistic", "threshold", "sample_size", "pass",
                          "notes"}
