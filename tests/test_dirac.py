import dataclasses
import json
import math

import numpy as np
import pytest

from circdirac import dirac, opuc
from circdirac.hyperbolic import INF

TWO_PI = 2.0 * math.pi


def lattice_operator(n, theta):
    a = np.concatenate([np.zeros(n - 1), [np.exp(-1j * theta)]])
    seq = opuc.CoefficientSequence("verblunsky", a)
    gammas = opuc.convert_coefficients(seq, "modified")
    return dirac.coefficient_operator(gammas)


def random_measure(rng, n):
    ang = TWO_PI * (np.arange(n) + 0.5 + rng.uniform(-0.3, 0.3, n)) / n
    w = rng.dirichlet(np.ones(n)) + 0.2 / n
    return opuc.UnitCircleMeasure(angles=ang, weights=w / w.sum())


def random_operator(rng, cells=5):
    grid = np.linspace(0.0, 1.0, cells + 1)
    z = rng.uniform(-1.2, 1.2, cells) + 1j * rng.uniform(0.4, 2.2, cells)
    return dirac.build_operator((grid, z), u1_spec=rng.uniform(-2.0, 2.0))


def rotation_about_i(r):
    """The rotation of H about i that takes the real point r to infinity."""
    c, s = r / math.sqrt(1 + r * r), 1.0 / math.sqrt(1 + r * r)
    return np.array([[c, s], [-s, c]])


def cell_values(op):
    """The operator's cells and cell lengths: (x, y, dt)."""
    return op.path.real, op.path.imag, np.diff(op.grid)


def sweep(batch, lam, row=0, **kw):
    """dirac._sweep on the stored steps of an OperatorBatch."""
    return batch._lanes(lam, row, **kw)


def fixed_frame_sweep(x, y, dt, lam, u0, upto=None, want_deriv=False,
                      want_phase=False):
    """Oracle: the cell sweep in the fixed frame, for one operator.

    H advances through X^{-1} Rot(lam dt / 2) X, whose entries reach
    (1 + x^2 + y^2) / y, and each cell's winding of H0 - i H1 comes from
    the closed form p + Arg((a + b e^{-2ip}) conj(a + b)) of
    W = a e^{ip} + b e^{-ip}.  Returns (H0, H1, dH0, dH1, winding) with the
    winding counted from u0; lam may be complex when no winding is wanted.
    """
    lam = np.asarray(lam)
    lam = lam.astype(complex if np.iscomplexobj(lam) else float)
    H0 = np.full(lam.shape, u0[0], dtype=lam.dtype)
    H1 = np.full(lam.shape, u0[1], dtype=lam.dtype)
    dH0 = np.zeros(lam.shape, dtype=lam.dtype)
    dH1 = np.zeros(lam.shape, dtype=lam.dtype)
    wind = np.zeros(lam.shape)
    for k in range(np.size(x) if upto is None else upto):
        xk, yk = x[k], y[k]
        phi = 0.5 * lam * dt[k]
        c, s = np.cos(phi), np.sin(phi)
        if want_phase:
            p = H0 - xk * H1
            q = yk * H1
            u = (xk - 1j) / yk
            a = 0.5 * ((p - 1j * q) + u * (1j * p + q))
            b = 0.5 * ((p + 1j * q) + u * (q - 1j * p))
            wind += phi + np.angle((a + b * np.exp(-2j * phi)) * np.conj(a + b))
        g0 = (-xk * H0 + (xk * xk + yk * yk) * H1) / yk
        g1 = (-H0 + xk * H1) / yk
        if want_deriv:
            gd0 = (-xk * dH0 + (xk * xk + yk * yk) * dH1) / yk
            gd1 = (-dH0 + xk * dH1) / yk
            half = 0.5 * dt[k]
            dH0, dH1 = (c * dH0 + s * gd0 + half * (c * g0 - s * H0),
                        c * dH1 + s * gd1 + half * (c * g1 - s * H1))
        H0, H1 = c * H0 + s * g0, c * H1 + s * g1
    return H0, H1, dH0, dH1, wind


def fixed_frame_phase(op, lam):
    wind = fixed_frame_sweep(*cell_values(op), lam, op.u0, want_phase=True)[4]
    return 2.0 * (math.atan2(-op.u0[1], op.u0[0]) + wind)


def fixed_frame_count(op, window):
    alo, ahi = fixed_frame_phase(op, np.asarray(window, dtype=float))
    u = (-2.0 * math.atan2(op.u1[1], op.u1[0])) % TWO_PI
    return int(math.ceil((ahi - u) / TWO_PI - 1e-13)
               - math.ceil((alo - u) / TWO_PI - 1e-13))


class TestBuild:
    def test_lattice_path_is_constant(self):
        theta = math.pi / 3
        op = lattice_operator(4, theta)
        np.testing.assert_allclose(op.path, 1j, atol=1e-14)
        np.testing.assert_array_equal(op.u0, [1.0, 0.0])
        # u1 = [-z_n, -1] with z_n the Cayley preimage of e^{i theta}
        assert op.u1[0] == pytest.approx(1.0 / math.tan(theta / 2))
        assert op.u1[1] == -1.0

    def test_infinity_slope(self):
        g = opuc.CoefficientSequence("modified", np.array([0.0, 0.0, 1.0 + 0j]))
        op = dirac.coefficient_operator(g)
        np.testing.assert_array_equal(op.u1, [1.0, 0.0])
        eigs = dirac.eigenvalues_in(op, (-1.0, 1.0))
        assert np.min(np.abs(eigs)) < 1e-12

    def test_custom_constant_path(self):
        op = dirac.build_operator((np.array([0.0, 1.0]), np.array([1j])),
                                  u1_spec=0.0)
        np.testing.assert_array_equal(op.u1, [0.0, -1.0])

    def test_nonpositive_height_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            dirac.build_operator((np.array([0.0, 1.0]), np.array([1.0 + 0j])),
                                 u1_spec=0.0)

    def test_fields_are_read_only_copies(self):
        # the one-row batch holds steps taken from the fields; an edit of
        # the fields, or of the arrays they came from, would not reach it
        grid, z = np.linspace(0.0, 1.0, 6), np.array([1j, 1 + 1j, 2j, -1 + 1j, 1j])
        op = dirac.build_operator((grid, z), u1_spec=0.3)
        before = dirac.phase_at(op, 3.0)
        z[2] = 5.0 + 0.1j
        assert dirac.phase_at(op, 3.0) == before
        for name in ("grid", "path", "u0", "u1"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(op, name)[0] = 0.5

    def test_json_roundtrip(self):
        rng = np.random.default_rng(0)
        op = random_operator(rng)
        back = dirac.DiracOperator.from_dict(json.loads(json.dumps(op.to_dict())))
        np.testing.assert_array_equal(back.grid, op.grid)
        np.testing.assert_array_equal(back.path, op.path)
        np.testing.assert_array_equal(back.u1, op.u1)
        inf_op = dirac.build_operator((op.grid, op.path), u1_spec=INF)
        d = inf_op.to_dict()
        assert d["u1"] == "infinity"
        back = dirac.DiracOperator.from_dict(d)
        np.testing.assert_array_equal(back.u1, [1.0, 0.0])


class TestEvalH:
    def test_zero_frequency(self):
        rng = np.random.default_rng(1)
        op = random_operator(rng)
        ed = dirac.eval_H(op, 0.0)
        np.testing.assert_allclose(ed.H1, [1.0, 0.0], atol=1e-15)

    def test_lattice_closed_form(self):
        op = lattice_operator(4, 1.0)
        for lam in (0.7, 2.5, -4.0):
            ed = dirac.eval_H(op, lam)
            np.testing.assert_allclose(
                ed.H1, [math.cos(lam / 2), -math.sin(lam / 2)], atol=1e-13)
            assert ed.normsq == pytest.approx(0.5, abs=1e-13)

    def test_normsq_matches_quadrature(self):
        # composite Simpson with 128 intervals per cell as the oracle
        rng = np.random.default_rng(2)
        for _ in range(5):
            op = random_operator(rng)
            lam = rng.uniform(-5.0, 5.0)
            ed = dirac.eval_H(op, lam)
            total = 0.0
            H = np.array([1.0, 0.0])
            for k in range(op.cells):
                x, y = op.path[k].real, op.path[k].imag
                X = np.array([[1.0, -x], [0.0, y]])
                Xi = np.linalg.inv(X)
                R = X.T @ X / (2.0 * y)
                d = op.grid[k + 1] - op.grid[k]
                ts = np.linspace(0.0, d, 129)
                vals = []
                for t in ts:
                    phi = lam * t / 2.0
                    rot = np.array([[math.cos(phi), math.sin(phi)],
                                    [-math.sin(phi), math.cos(phi)]])
                    ht = Xi @ rot @ X @ H
                    vals.append(ht @ R @ ht)
                vals = np.array(vals)
                step = ts[1] - ts[0]
                total += step / 3.0 * (vals[0] + vals[-1]
                                       + 4.0 * vals[1:-1:2].sum()
                                       + 2.0 * vals[2:-1:2].sum())
                phi = lam * d / 2.0
                rot = np.array([[math.cos(phi), math.sin(phi)],
                                [-math.sin(phi), math.cos(phi)]])
                H = Xi @ rot @ X @ H
            assert ed.normsq == pytest.approx(total, abs=1e-8)

    def test_partial_sweep(self):
        rng = np.random.default_rng(3)
        op = random_operator(rng)
        ed2 = dirac.eval_H(op, 1.3, upto=2)
        trunc = dirac.build_operator((op.grid[:3], op.path[:2]), u1_spec=0.0)
        ed_full = dirac.eval_H(trunc, 1.3)
        np.testing.assert_allclose(ed2.H1, ed_full.H1, atol=1e-14)


class TestPhase:
    def test_zero(self):
        rng = np.random.default_rng(4)
        op = random_operator(rng)
        assert dirac.phase_at(op, 0.0) == 0.0

    @pytest.mark.parametrize("lam", [1.0, 7.0, -3.0])
    def test_lattice_phase_is_linear(self, lam):
        op = lattice_operator(4, 1.0)
        assert dirac.phase_at(op, lam) == pytest.approx(lam, abs=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            op = random_operator(rng)
            lams = np.sort(rng.uniform(-30.0, 30.0, 40))
            vals = dirac.phase_at(op, lams)
            assert np.all(np.diff(vals) > 0.0)

    def test_overflow_is_a_conditioning_error(self):
        # i.i.d. cells over 4096 cells: |G| reaches 6e11 at lambda = 1e3
        # and overflows to nan by 1e4
        op = random_operator(np.random.default_rng(4146), 4096)
        assert math.isfinite(dirac.phase_at(op, 1e3))
        calls = [
            lambda: dirac.phase_at(op, 1e4),
            lambda: dirac.eigenvalue_count(op, (0.0, 1e4)),
            lambda: dirac.eigenvalues_in(op, (0.0, 1e4)),
            lambda: dirac._solve_targets(op.batch, np.array([1.0]), np.array([0]),
                                         9e3, 1e4, 0.0, 2.0),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            for call in calls:
                with pytest.raises(ValueError, match="conditioning: .*overflowed"):
                    call()
            # at 7e3 |G| is 3e266: G0^2 + G1^2 overflows and the phase
            # derivative is lost, but the phase is not, so the search bisects
            window = (6990.0, 7000.0)
            assert len(dirac.eigenvalues_in(op, window)) == \
                dirac.eigenvalue_count(op, window) == 2

    def test_large_argument_winding(self):
        # each cell adds exactly lambda dt / 2, so the phase stays exact at
        # large lambda
        op = lattice_operator(2, 1.0)
        assert dirac.phase_at(op, 1e6) == pytest.approx(1e6, rel=1e-12)


class TestEigenvalues:
    def test_lattice_window(self):
        theta = math.pi / 3
        op = lattice_operator(4, theta)
        eigs = dirac.eigenvalues_in(op, (-10.0, 10.0))
        np.testing.assert_allclose(
            eigs, [theta - TWO_PI, theta, theta + TWO_PI], atol=1e-11)

    def test_count_matches(self):
        op = lattice_operator(4, 1.0)
        assert dirac.eigenvalue_count(op, (-10.0, 10.0)) == 3

    def test_half_open_window(self):
        theta = 1.0
        op = lattice_operator(3, theta)
        eigs = dirac.eigenvalues_in(op, (theta, theta + TWO_PI))
        assert eigs.size == 1  # the left endpoint is included, the right not
        assert eigs[0] == pytest.approx(theta, abs=1e-11)

    def test_discrete_spectrum_is_lifted_support(self):
        rng = np.random.default_rng(6)
        for n in (3, 5, 8):
            mu = random_measure(rng, n)
            op = dirac.measure_operator(mu)
            eigs = dirac.eigenvalues_in(op, (0.0, TWO_PI * n))
            np.testing.assert_allclose(eigs, n * mu.angles, atol=1e-10)
            shifted = dirac.eigenvalues_in(
                op, (TWO_PI * n, 2 * TWO_PI * n))
            np.testing.assert_allclose(shifted - TWO_PI * n, eigs, atol=1e-9)

    def test_window_budget(self):
        op = lattice_operator(2, 1.0)
        with pytest.raises(ValueError, match="window budget"):
            dirac.eigenvalues_in(op, (0.0, 1e8))

    def test_empty_window(self):
        op = lattice_operator(2, 1.0)
        assert dirac.eigenvalues_in(op, (1.5, 2.5)).size == 0

    def test_matches_secular_sign_changes(self):
        # independent oracle: zeta is real on the reals and vanishes exactly
        # on the spectrum, so sign changes on a fine grid must match the
        # phase-based eigenvalue list one for one
        rng = np.random.default_rng(21)
        for _ in range(3):
            op = random_operator(rng)
            eigs = dirac.eigenvalues_in(op, (-20.0, 20.0))
            grid = np.linspace(-20.0, 20.0, 40_001)
            u1 = op.normalized_u1()
            x, y, _ = cell_values(op)
            G0, G1, _, _, _ = sweep(op.batch, grid)
            H0, H1 = dirac._unframe(x[-1], y[-1], G0, G1)
            vals = H1 * u1[0] - H0 * u1[1]
            flips = np.nonzero(np.diff(np.sign(vals)) != 0)[0]
            assert flips.size == eigs.size
            np.testing.assert_allclose(grid[flips], eigs, atol=2e-3)


class TestSolver:
    @staticmethod
    def count_phase_sweeps(monkeypatch):
        # the solver's sweeps are the ones that take phase and derivative
        lanes = []
        original = dirac._sweep

        def counting(*args, **kw):
            if kw.get("want_deriv") and kw.get("want_phase"):
                lanes.append(np.size(args[3]))
            return original(*args, **kw)

        monkeypatch.setattr(dirac, "_sweep", counting)
        return lanes

    def test_iteration_cap_raises_conditioning_error(self, monkeypatch):
        op = random_operator(np.random.default_rng(31))
        monkeypatch.setattr(dirac, "MAX_SOLVER_ITERATIONS", 1)
        with pytest.raises(ValueError, match="conditioning"):
            dirac.eigenvalues_in(op, (-9.0, 9.0))

    def test_newton_cycle_is_broken_by_bisection(self):
        # a steep phase rise between two flat stretches: from either side
        # the Newton step lands inside the bracket near the other flat
        # stretch, so Newton steps alone shrink the bracket by a little per
        # sweep and hit the iteration cap
        z = [-0.2750513809899353 + 0.579876738945817j,
             -0.6412468112666696 + 1.2490037605957283j,
             -0.8364804105291319 + 1.7560992408317149j,
             -0.5868908963556989 + 1.5904256042096492j,
             0.8164806427077096 + 1.4497456628428527j]
        op = dirac.build_operator((np.linspace(0.0, 1.0, 6), np.array(z)),
                                  u1_spec=-1.3028547243692161)
        eigs = dirac.eigenvalues_in(op, (-8.0, 8.0))
        assert eigs.size == 3
        # roots solved in the last cell's frame hit the fixed-frame targets
        u = (-2.0 * math.atan2(op.u1[1], op.u1[0])) % TWO_PI
        turns = (dirac.phase_at(op, eigs) - u) / TWO_PI
        np.testing.assert_allclose(turns, np.round(turns), atol=1e-11)

    def test_batched_solve_matches_per_lane_solves(self, monkeypatch):
        # rows repeat and targets sit at different depths of each operator's
        # phase range, so lanes retire at different sweeps
        rng = np.random.default_rng(32)
        ops = [random_operator(rng, cells=7) for _ in range(4)]
        x = np.stack([op.path.real for op in ops])
        y = np.stack([op.path.imag for op in ops])
        grid, u0 = ops[0].grid, (1.0, 0.0)

        def batch(rows):
            return dirac.OperatorBatch.from_blocks(grid, len(rows),
                                                   [(x[rows], y[rows], u0, u0)])

        lo, hi = -9.0, 9.0
        b = batch(np.arange(4))
        _, _, alo, ahi, kmins, counts = b._window((lo, hi))
        assert np.all(b.u == 0.0)
        ends = np.stack([alo, ahi], axis=1)
        row, targets = [], []
        for i, (kmin, count) in enumerate(zip(kmins, counts)):
            for k in range(int(kmin), int(kmin) + count):
                row.append(i)
                targets.append(TWO_PI * k)
        row, targets = np.array(row), np.array(targets)
        lanes = self.count_phase_sweeps(monkeypatch)
        batched = dirac._solve_targets(b, targets, row, lo, hi,
                                       ends[row, 0], ends[row, 1])
        assert len(set(lanes)) > 2
        for j, (i, t) in enumerate(zip(row, targets)):
            single = dirac._solve_targets(batch([i]), np.array([t]), np.array([0]),
                                          lo, hi, ends[i, 0], ends[i, 1])
            assert abs(batched[j] - single[0]) <= 1e-12

    def test_sine_batch_retires_converged_lanes(self, monkeypatch):
        from circdirac.ensembles import SeedSpec, SinePathSpec, sample_sine_operator

        spec = SinePathSpec(beta=2.0, cells=256, q_mode="infinity")
        b = dirac.OperatorBatch.stack(
            [sample_sine_operator(spec, SeedSpec(5, i)) for i in range(40)])
        _, _, alo, ahi, _, _ = b._window((-0.5, 0.5))
        lanes = self.count_phase_sweeps(monkeypatch)
        roots = dirac._solve_targets(b, b.u, np.arange(40), -0.5, 0.5, alo, ahi)
        assert np.max(np.abs(roots)) < 1e-10
        assert len(lanes) <= 12
        assert lanes[0] == 40
        assert all(b <= a for a, b in zip(lanes, lanes[1:]))


class TestMovingFrame:
    """The moving-frame sweep against the fixed-frame oracle."""

    @staticmethod
    def assert_matches_oracle(op, lams, rel=1e-12):
        x, y, dt = cell_values(op)
        for lam in lams:
            H0, H1, dH0, dH1, _ = fixed_frame_sweep(x, y, dt, lam, op.u0,
                                                    want_deriv=True)
            ed = dirac.eval_H(op, lam)
            np.testing.assert_allclose(ed.H1, [H0, H1], rtol=0,
                                       atol=rel * np.hypot(H0, H1))
            np.testing.assert_allclose(ed.dH1, [dH0, dH1], rtol=0,
                                       atol=rel * np.hypot(dH0, dH1))
            assert ed.normsq == pytest.approx(H1 * dH0 - H0 * dH1, rel=rel)
        phases = fixed_frame_phase(op, lams)
        np.testing.assert_allclose(dirac.phase_at(op, lams), phases, rtol=0,
                                   atol=rel * max(1.0, np.max(np.abs(phases))))

    @pytest.mark.parametrize("cells", [1, 5])
    def test_matches_fixed_frame_oracle(self, cells):
        # a single cell takes no frame step; the conjugated operators start
        # from u0 != [1, 0]
        rng = np.random.default_rng(40 + cells)
        lams = np.array([-17.3, -2.1, 0.0, 0.9, 6.4, 31.0])
        for _ in range(4):
            op = random_operator(rng, cells=cells)
            Q = rng.normal(size=(2, 2))
            Q[:, 0] /= np.linalg.det(Q)
            for o in (op, dirac.transform_operator(op, "conjugate", Q=Q)):
                self.assert_matches_oracle(o, lams)
                x, y, dt = cell_values(o)
                for side in ("left", "right"):
                    sm = dirac.spectral_measure(o, (-12.0, 12.0), side)
                    assert len(sm) == fixed_frame_count(o, (-12.0, 12.0))
                    H0, H1, dH0, dH1, _ = fixed_frame_sweep(
                        x, y, dt, sm.lambdas, o.u0, want_deriv=True)
                    top = H0 * H0 + H1 * H1 if side == "right" else o.u0 @ o.u0
                    np.testing.assert_allclose(
                        sm.weights, top / (H1 * dH0 - H0 * dH1), rtol=1e-11)

    def test_partial_sweeps_match_oracle(self):
        rng = np.random.default_rng(46)
        op = random_operator(rng, cells=6)
        x, y, dt = cell_values(op)
        for upto in (1, 3, op.cells):
            H0, H1, dH0, dH1, _ = fixed_frame_sweep(x, y, dt, 2.7, op.u0, upto=upto,
                                                    want_deriv=True)
            ed = dirac.eval_H(op, 2.7, upto=upto)
            np.testing.assert_allclose(ed.H1, [H0, H1], rtol=1e-12)
            np.testing.assert_allclose(ed.dH1, [dH0, dH1], rtol=1e-12)
        for upto in (0, op.cells + 1):
            with pytest.raises(ValueError, match="upto"):
                dirac.eval_H(op, 2.7, upto=upto)

    def test_infinity_slope_target_is_zero(self):
        rng = np.random.default_rng(47)
        z = random_operator(rng).path
        op = dirac.build_operator((np.linspace(0.0, 1.0, 6), z), u1_spec=INF)
        *_, kmin, count = op.batch._window((-0.5, 0.5))
        assert op.batch.u[0] == 0.0
        assert (kmin[0], count[0]) == (0.0, 1)
        eigs = dirac.eigenvalues_in(op, (-0.5, 0.5))
        assert eigs.size == 1 and abs(eigs[0]) < 1e-12
        assert fixed_frame_count(op, (-0.5, 0.5)) == 1

    def test_counts_match_oracle_on_sine_batch(self):
        from circdirac.ensembles import (SeedSpec, SinePathSpec, sample_sine_operator,
                                         sample_sine_paths)

        spec = SinePathSpec(beta=2.0, cells=256)
        seeds = [SeedSpec(5, i) for i in range(40)]
        window = (0.0, 20.0 * math.pi)
        expected = [fixed_frame_count(sample_sine_operator(spec, s), window)
                    for s in seeds]
        np.testing.assert_array_equal(sample_sine_paths(spec, seeds).count(window),
                                      expected)

    def test_small_beta_counts_match_oracle(self):
        # at beta = 0.25 the path's Im z reaches 1e28 to 2e35; the root
        # search is checked on the most extreme path only, as it takes
        # about 30 sweeps of 4096 cells
        from circdirac.ensembles import SeedSpec, SinePathSpec, sample_sine_operator

        spec = SinePathSpec(beta=0.25)
        window = (0.0, 20.0 * math.pi)
        ops = [sample_sine_operator(spec, SeedSpec(5, i)) for i in range(3)]
        counts = [dirac.eigenvalue_count(op, window) for op in ops]
        assert counts == [10, 9, 10]
        assert counts == [fixed_frame_count(op, window) for op in ops]
        assert ops[1].path.imag.max() > 1e35
        assert len(dirac.eigenvalues_in(ops[1], window)) == counts[1]

    def test_sine_paths_are_cell_major(self):
        from circdirac.ensembles import SeedSpec, SinePathSpec, sample_sine_paths

        b = sample_sine_paths(SinePathSpec(beta=2.0, cells=64),
                              [SeedSpec(5, i) for i in range(3)])
        assert b.v.shape == b.r.shape == (3, 64)
        assert b.v.flags.f_contiguous and b.r.flags.f_contiguous

    @pytest.mark.parametrize("lanes, q_mode, window, deriv", [
        (1000, "cauchy", (0.0, 20.0 * math.pi), False),
        (500, "infinity", (-0.5, 0.5), True),
    ])
    def test_sweeps_do_not_depend_on_layout(self, lanes, q_mode, window, deriv):
        # cell-major and row-major copies of one batch's steps give the same bits
        from circdirac.ensembles import SeedSpec, SinePathSpec, sample_sine_paths

        spec = SinePathSpec(beta=2.0, cells=1024, q_mode=q_mode)
        batch = sample_sine_paths(spec, [SeedSpec(6, i) for i in range(lanes)])
        rowmajor = dataclasses.replace(batch, v=np.ascontiguousarray(batch.v),
                                       r=np.ascontiguousarray(batch.r))
        assert rowmajor.v.flags.c_contiguous and not rowmajor.v.flags.f_contiguous
        lam, row = np.linspace(*window, lanes), np.arange(lanes)
        got = sweep(batch, lam, row, want_deriv=deriv, want_phase=True)
        want = sweep(rowmajor, lam, row, want_deriv=deriv, want_phase=True)
        for a, b in zip(got, want):
            if b is not None:
                np.testing.assert_array_equal(a, b)
        for a, b in zip(batch._window(window), rowmajor._window(window)):
            np.testing.assert_array_equal(a, b)


class TestChunkedSweep:
    """Sweeps of few lanes run in chunks with a sequential carry.

    Each case is checked against the plain loop (P = 1, forced) to 1e-12
    and against the fixed-frame oracle.
    """

    @staticmethod
    def plain_sweep(monkeypatch, *args, **kwargs):
        with monkeypatch.context() as mp:
            mp.setattr(dirac, "_chunk_count", lambda lanes, m: 1)
            return sweep(*args, **kwargs)

    @staticmethod
    def assert_same_sweep(got, want, tol=1e-12):
        G0, G1, dG0, dG1, wind = want
        norm = lambda a, b: np.hypot(np.abs(a), np.abs(b))
        assert np.all(norm(got[0] - G0, got[1] - G1) <= tol * norm(G0, G1))
        if dG0 is not None:
            assert np.all(norm(got[2] - dG0, got[3] - dG1) <= tol * norm(dG0, dG1))
        if wind is not None:
            assert np.max(np.abs(2.0 * (got[4] - wind))) <= tol

    def test_chunk_counts(self):
        assert dirac._chunk_count(1, 4096) == 64
        assert dirac._chunk_count(dirac._CHUNK_LANES - 1, 4096) == 64
        assert dirac._chunk_count(dirac._CHUNK_LANES, 4096) == 1
        assert dirac._chunk_count(7, 103) == 10  # 103 cells: 10 chunks of 11
        assert dirac._chunk_count(1, 15) == 1

    @pytest.mark.parametrize("cells", [16, 103])
    def test_matches_plain_loop_and_oracle(self, monkeypatch, cells):
        # at lambda 3e3 and 3e4 the summed cell angles of the plain loop
        # carry 1e-12 to 1e-10 of rounding; both paths return an arg plus
        # whole turns
        rng = np.random.default_rng(50 + cells)
        lams = np.array([-17.3, -2.1, 0.0, 0.9, 6.4, 31.0, 3e3, 3e4])
        many = np.linspace(-20.0, 40.0, dirac._CHUNK_LANES)
        assert dirac._chunk_count(lams.size, cells) > 1
        assert dirac._chunk_count(many.size, cells) == 1
        op = random_operator(rng, cells=cells)
        Q = rng.normal(size=(2, 2))
        Q[:, 0] /= np.linalg.det(Q)
        for o in (op, dirac.transform_operator(op, "conjugate", Q=Q)):
            for flags in ((True, True), (True, False), (False, True), (False, False)):
                kw = dict(want_deriv=flags[0], want_phase=flags[1])
                self.assert_same_sweep(sweep(o.batch, lams, **kw),
                                       self.plain_sweep(monkeypatch, o.batch, lams, **kw))
            # eval_H and phase_at sweep one lane or six: chunked
            TestMovingFrame.assert_matches_oracle(o, lams)
            np.testing.assert_allclose(dirac.phase_at(o, many),
                                       fixed_frame_phase(o, many), rtol=0, atol=1e-10)
            window = (-12.0, 12.0)
            assert dirac.eigenvalue_count(o, window) == fixed_frame_count(o, window)

    def test_partial_sweeps_match_oracle(self, monkeypatch):
        # the full sweep of 100 cells runs 10 chunks of 10; upto = 55 ends
        # inside one of them and 60 on a boundary (a partial sweep chunks
        # its own upto cells: 7 chunks of 8 and of 9, the last padded)
        rng = np.random.default_rng(48)
        op = random_operator(rng, cells=100)
        x, y, dt = cell_values(op)
        assert dirac._chunk_count(1, 100) == 10
        for upto in (55, 60, 61, 100):
            H0, H1, dH0, dH1, _ = fixed_frame_sweep(x, y, dt, 2.7, op.u0, upto=upto,
                                                    want_deriv=True)
            ed = dirac.eval_H(op, 2.7, upto=upto)
            np.testing.assert_allclose(ed.H1, [H0, H1], rtol=1e-12)
            np.testing.assert_allclose(ed.dH1, [dH0, dH1], rtol=1e-12)
            lams = np.array([-3.0, 2.7, 11.0])
            kw = dict(upto=upto, want_deriv=True, want_phase=True)
            self.assert_same_sweep(sweep(op.batch, lams, **kw),
                                   self.plain_sweep(monkeypatch, op.batch, lams, **kw))

    def test_batch_rows_repeat(self, monkeypatch):
        rng = np.random.default_rng(49)
        ops = [random_operator(rng, cells=103) for _ in range(4)]
        b = dirac.OperatorBatch.stack(ops)
        row = np.array([0, 0, 2, 3, 2, 1, 3])
        lams = np.array([-4.0, 9.5, 0.3, 0.3, 22.0, -1.0, 5.0])
        kw = dict(row=row, want_deriv=True, want_phase=True)
        batch = sweep(b, lams, **kw)
        self.assert_same_sweep(batch, self.plain_sweep(monkeypatch, b, lams, **kw))
        for j, (i, lam) in enumerate(zip(row, lams)):
            self.assert_same_sweep([v[j] for v in batch],
                                   sweep(ops[i].batch, lam, want_deriv=True,
                                         want_phase=True),
                                   tol=1e-13)
            oracle = fixed_frame_phase(ops[i], np.array([lam]))
            assert dirac.phase_at(ops[i], lam) == pytest.approx(oracle[0], abs=1e-11)

    def test_complex_lambda_secular(self, monkeypatch):
        rng = np.random.default_rng(51)
        op = random_operator(rng, cells=103)
        x, y, dt = cell_values(op)
        u1 = op.normalized_u1()
        for z in (1.2 + 0.7j, -3.0 + 2.0j, 10.0 + 0.1j, 4.0 - 1.5j):
            H0, H1, *_ = fixed_frame_sweep(x, y, dt, z, op.u0)
            zeta = dirac.secular_at(op, z)
            assert abs(zeta - (H1 * u1[0] - H0 * u1[1])) <= (
                1e-12 * np.hypot(abs(H0), abs(H1)) * np.hypot(*u1))
            self.assert_same_sweep(sweep(op.batch, z),
                                   self.plain_sweep(monkeypatch, op.batch, z))

    def test_turns_tolerate_column_winding_errors(self):
        # a chunk's column windings only pick whole turns, with a margin of
        # pi / 2; one chunk of 8 random, strongly hyperbolic cells (r up to
        # e^16 per step) per lane
        rng = np.random.default_rng(52)
        lanes = 2000
        steps = list(zip(rng.normal(0.0, 3.0, (8, lanes)),
                         np.exp(rng.normal(0.0, 4.0, (8, lanes))),
                         rng.uniform(0.0, 0.5, (8, 1))))
        lam = rng.uniform(-10.0, 10.0, lanes)
        g0, g1 = rng.normal(size=(2, lanes))
        *_, wind = dirac._advance(g0, g1, None, None, np.arctan2(-g1, g0), lam, steps)
        T0, T1 = np.zeros((2, 2, lanes))
        T0[0] = T1[1] = 1.0
        W = np.zeros((2, lanes)) + [[0.0], [-0.5 * math.pi]]
        T0, T1, _, _, W = dirac._advance(T0, T1, None, None, W, lam, steps)
        G = np.array([[g0, g1], [T0[0] * g0 + T0[1] * g1, T1[0] * g0 + T1[1] * g1]])
        last = np.arctan2(-G[1, 1], G[1, 0])
        for noise in (0.0, 1.2):
            W_off = W + rng.uniform(-noise, noise, W.shape)
            turns = dirac._chunk_turns(G, W_off[:, None])
            np.testing.assert_allclose(last + TWO_PI * turns, wind, rtol=0, atol=1e-9)

    def test_small_beta_paths(self, monkeypatch):
        # Im z reaches 1e28 to 2e35 on these paths, so the chunks' transfer
        # matrices scale G by up to 1e35
        from circdirac.ensembles import (SeedSpec, SinePathSpec, sample_sine_operator,
                                         sample_sine_paths)

        spec = SinePathSpec(beta=0.25)
        seeds = [SeedSpec(5, i) for i in range(3)]
        b = sample_sine_paths(spec, seeds)
        assert max(sample_sine_operator(spec, s).path.imag.max() for s in seeds) > 1e35
        row = np.repeat(np.arange(3), 5)
        lams = np.tile(np.linspace(0.0, 20.0 * math.pi, 5), 3)
        kw = dict(row=row, want_deriv=True, want_phase=True)
        self.assert_same_sweep(sweep(b, lams, **kw),
                               self.plain_sweep(monkeypatch, b, lams, **kw))
        window = (0.0, 20.0 * math.pi)
        counts = b.count(window)
        with monkeypatch.context() as mp:
            mp.setattr(dirac, "_chunk_count", lambda lanes, m: 1)
            counts1 = b.count(window)
        np.testing.assert_array_equal(counts, [10, 9, 10])
        np.testing.assert_array_equal(counts1, counts)


class TestLift:
    @pytest.mark.parametrize("n, seed, stream", [(200, 206, 1), (400, 305, 0)])
    def test_large_kn_lift(self, n, seed, stream):
        # coefficients -> measure -> coefficients -> operator; in the fixed
        # frame these draws missed the 1e-8 gate by 4e-6 in the weights
        from circdirac.ensembles import SeedSpec, sample_kn

        seq = sample_kn(n, 2.0, SeedSpec(seed, stream))
        mu = opuc.alpha_to_measure(opuc.convert_coefficients(seq, "verblunsky"))
        sm = dirac.spectral_measure(dirac.measure_operator(mu), (0.0, TWO_PI * n), "left")
        order = np.argsort(mu.angles)
        assert len(sm) == n
        assert np.max(np.abs(sm.lambdas / n - mu.angles[order])) < 1e-8
        w = 2 * n * mu.weights[order]
        assert np.max(np.abs(sm.weights - w) / w) < 1e-8


class TestSpectralMeasure:
    def test_lattice_weights_are_two(self):
        op = lattice_operator(8, 1.0)
        for side in ("left", "right"):
            sm = dirac.spectral_measure(op, (-10.0, 10.0), side)
            np.testing.assert_allclose(sm.weights, 2.0, atol=1e-12)

    def test_left_weights_lift_the_measure(self):
        rng = np.random.default_rng(7)
        n = 6
        mu = random_measure(rng, n)
        op = dirac.measure_operator(mu)
        sm = dirac.spectral_measure(op, (0.0, TWO_PI * n), "left")
        np.testing.assert_allclose(sm.weights, 2 * n * mu.weights, rtol=1e-9)

    def test_weight_formulas_agree(self):
        rng = np.random.default_rng(8)
        h = 1e-5
        for _ in range(5):
            op = random_operator(rng)
            sm = dirac.spectral_measure(op, (-8.0, 8.0), "right")
            for lam, w in zip(sm.lambdas, sm.weights):
                da = (dirac.phase_at(op, lam + h)
                      - dirac.phase_at(op, lam - h)) / (2.0 * h)
                assert w == pytest.approx(2.0 / da, abs=1e-8)

    def test_json_roundtrip(self):
        op = lattice_operator(3, 0.5)
        sm = dirac.spectral_measure(op, (-5.0, 5.0), "right")
        back = dirac.SpectralMeasure.from_dict(json.loads(json.dumps(sm.to_dict())))
        np.testing.assert_array_equal(back.lambdas, sm.lambdas)
        np.testing.assert_array_equal(back.weights, sm.weights)
        assert back.side == "right"


class TestSecular:
    def test_normalized_at_zero(self):
        rng = np.random.default_rng(9)
        op = random_operator(rng)
        assert dirac.secular_at(op, 0.0) == pytest.approx(1.0)

    def test_lattice_zero_at_theta(self):
        theta = 0.9
        op = lattice_operator(5, theta)
        assert abs(dirac.secular_at(op, theta)) < 1e-12

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(10)
        op = random_operator(rng)
        z = 1.2 + 0.7j
        assert dirac.secular_at(op, np.conj(z)) == pytest.approx(
            np.conj(dirac.secular_at(op, z)))

    def test_vanishes_on_eigenvalues(self):
        rng = np.random.default_rng(11)
        op = random_operator(rng)
        for lam in dirac.eigenvalues_in(op, (-6.0, 6.0)):
            assert abs(dirac.secular_at(op, lam)) < 1e-9

    def test_infinity_slope_vanishes_at_zero(self):
        op = dirac.build_operator((np.array([0.0, 1.0]), np.array([1j])),
                                  u1_spec=INF)
        assert dirac.secular_at(op, 0.0) == 0.0


class TestTraceHS:
    @pytest.mark.parametrize("q", [0.0, 0.7, -2.3, 5.0])
    def test_constant_path_closed_form(self, q):
        op = dirac.build_operator((np.array([0.0, 1.0]), np.array([1j])),
                                  u1_spec=q)
        tr, hs = dirac.trace_and_hsnorm(op)
        assert tr == pytest.approx(-q / 2.0, abs=1e-12)
        assert hs == pytest.approx((1.0 + q * q) / 4.0, abs=1e-12)

    def test_grid_refinement_invariance(self):
        rng = np.random.default_rng(12)
        op = random_operator(rng, cells=3)
        tr0, hs0 = dirac.trace_and_hsnorm(op)
        # split every cell in two
        grid = np.sort(np.concatenate([op.grid,
                                       (op.grid[:-1] + op.grid[1:]) / 2.0]))
        path = np.repeat(op.path, 2)
        fine = dirac.DiracOperator(grid=grid, path=path, u0=op.u0, u1=op.u1)
        tr1, hs1 = dirac.trace_and_hsnorm(fine)
        assert tr1 == pytest.approx(tr0, abs=1e-14)
        assert hs1 == pytest.approx(hs0, abs=1e-14)

    def test_parallel_boundaries_rejected(self):
        op = dirac.build_operator((np.array([0.0, 1.0]), np.array([1j])),
                                  u1_spec=INF)
        with pytest.raises(ValueError, match="no trace"):
            dirac.trace_and_hsnorm(op)

    def test_hs_norm_against_riemann_double_integral(self):
        rng = np.random.default_rng(19)
        op = random_operator(rng, cells=4)
        tr, hs = dirac.trace_and_hsnorm(op)
        u0 = op.u0
        u1 = op.normalized_u1()
        # brute force 2 iint_{s<t} f(s) g(t) on a fine midpoint grid
        m = 2000
        ts = (np.arange(m) + 0.5) / m
        idx = np.clip(np.searchsorted(op.grid, ts, side="right") - 1, 0,
                      op.cells - 1)
        z = op.path[idx]
        x, y = z.real, z.imag

        def quad(a, b):
            return (a[0] * b[0] - x * (a[0] * b[1] + a[1] * b[0])
                    + (x * x + y * y) * a[1] * b[1]) / (2.0 * y)

        f, g, h = quad(u0, u0), quad(u1, u1), quad(u0, u1)
        tr_ref = h.sum() / m
        prefix = np.concatenate([[0.0], np.cumsum(f)[:-1]]) / m
        hs_ref = 2.0 * np.sum(g * prefix) / m
        assert tr == pytest.approx(tr_ref, abs=1e-9)
        assert hs == pytest.approx(hs_ref, abs=5e-3 * max(1.0, abs(hs)))

    def test_boundary_rescaling_invariance(self):
        # the normalization u0^t J u1 = 1 is applied internally, so scaling
        # the supplied u1 direction must not change trace or HS norm
        op = dirac.build_operator((np.array([0.0, 1.0]), np.array([1j])),
                                  u1_spec=0.7)
        scaled = dirac.DiracOperator(grid=op.grid, path=op.path, u0=op.u0,
                                     u1=3.0 * op.u1)
        np.testing.assert_allclose(dirac.trace_and_hsnorm(scaled),
                                   dirac.trace_and_hsnorm(op), atol=1e-15)
        assert dirac.secular_at(scaled, 0.0) == pytest.approx(1.0)


class TestTransforms:
    def test_identity_conjugation(self):
        rng = np.random.default_rng(13)
        op = random_operator(rng)
        out = dirac.transform_operator(op, "conjugate", Q=np.eye(2))
        np.testing.assert_allclose(out.path, op.path)
        np.testing.assert_allclose(out.u1, op.u1)

    def test_determinant_checked(self):
        rng = np.random.default_rng(14)
        op = random_operator(rng)
        with pytest.raises(ValueError, match="det"):
            dirac.transform_operator(op, "conjugate", Q=2.0 * np.eye(2))

    def test_rotation_preserves_spectral_measures(self):
        rng = np.random.default_rng(15)
        op = dirac.measure_operator(random_measure(rng, 5))
        Q = rotation_about_i(0.8)
        out = dirac.transform_operator(op, "conjugate", Q=Q)
        for side in ("left", "right"):
            a = dirac.spectral_measure(op, (-9.0, 9.0), side)
            b = dirac.spectral_measure(out, (-9.0, 9.0), side)
            np.testing.assert_allclose(a.lambdas, b.lambdas, atol=1e-8)
            np.testing.assert_allclose(a.weights, b.weights, atol=1e-8)

    def test_reversal_swaps_sides(self):
        rng = np.random.default_rng(16)
        op = dirac.measure_operator(random_measure(rng, 4))
        rev = dirac.transform_operator(op, "reverse")
        a = dirac.spectral_measure(op, (-9.0, 9.0), "left")
        b = dirac.spectral_measure(rev, (-9.0, 9.0), "right")
        np.testing.assert_allclose(a.lambdas, b.lambdas, atol=1e-8)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-8)

    def test_double_reversal_is_identity(self):
        rng = np.random.default_rng(17)
        op = random_operator(rng)
        back = dirac.transform_operator(
            dirac.transform_operator(op, "reverse"), "reverse")
        np.testing.assert_allclose(back.grid, op.grid, atol=1e-15)
        np.testing.assert_array_equal(back.path, op.path)
        np.testing.assert_array_equal(back.u0, op.u0)
        np.testing.assert_array_equal(back.u1, op.u1)

    def test_unknown_kind(self):
        rng = np.random.default_rng(18)
        with pytest.raises(ValueError, match="transform kind"):
            dirac.transform_operator(random_operator(rng), "flip")

    def test_general_conjugation_preserves_spectrum(self):
        # similarity invariance for arbitrary real det-1 Q; this also
        # exercises the phase solver away from the standard u0 = [1, 0]
        rng = np.random.default_rng(20)
        op = random_operator(rng)
        e0 = dirac.eigenvalues_in(op, (-9.0, 9.0))
        for _ in range(5):
            Q = rng.normal(size=(2, 2))
            det = np.linalg.det(Q)
            if det < 0:
                Q[:, 0] *= -1.0
                det = -det
            Q /= math.sqrt(det)
            e1 = dirac.eigenvalues_in(
                dirac.transform_operator(op, "conjugate", Q=Q), (-9.0, 9.0))
            np.testing.assert_allclose(e1, e0, atol=1e-10)


class TestBoundaryBiasing:
    def test_windowed_weight_biasing_drives_slope_to_infinity(self):
        # Monte Carlo: weight the random-slope operator by its right
        # spectral mass in (-eps, eps); as eps shrinks the biased law of the
        # in-window eigenvalue and its weight approaches the infinity-slope
        # operator's atom at 0.
        from circdirac.ensembles import SeedSpec

        rng = SeedSpec(42, 0).rng()
        ang = TWO_PI * (np.arange(4) + 0.5 + rng.uniform(-0.3, 0.3, 4)) / 4
        w = rng.dirichlet(np.ones(4)) + 0.05
        mu = opuc.UnitCircleMeasure(angles=ang, weights=w / w.sum())
        op = dirac.measure_operator(mu)
        x, y, _ = cell_values(op)

        op_inf = dirac.build_operator((op.grid, op.path), u1_spec=INF)
        sm_inf = dirac.spectral_measure(op_inf, (-0.3, 0.3), "right")
        j = np.argmin(np.abs(sm_inf.lambdas))
        assert abs(sm_inf.lambdas[j]) < 1e-11
        w_inf = sm_inf.weights[j]

        m = 40_000
        q = np.tan(math.pi * (rng.random(m) - 0.5))
        u1 = np.stack([-q, -np.ones(m)], axis=1)
        # one operator under m boundary slopes
        batch = dirac.OperatorBatch.from_blocks(
            op.grid, m, [(np.tile(x, (m, 1)), np.tile(y, (m, 1)), op.u0, u1)])
        _, _, alo, ahi, _, _ = batch._window((-9.0, 9.0))
        u, rows = batch.u, np.arange(m)
        r_neg = dirac._solve_targets(batch, u - TWO_PI, rows, -9.0, 9.0, alo, ahi)
        r_pos = dirac._solve_targets(batch, u, rows, -9.0, 9.0, alo, ahi)

        def right_weights(lams):
            G0, G1, dG0, dG1, _ = sweep(op.batch, lams, want_deriv=True)
            H0, H1 = dirac._unframe(x[-1], y[-1], G0, G1)
            return (H0 * H0 + H1 * H1) * y[-1] / (G1 * dG0 - G0 * dG1)

        w_neg, w_pos = right_weights(r_neg), right_weights(r_pos)
        lam_star = np.where(np.abs(r_neg) < np.abs(r_pos), r_neg, r_pos)
        w_star = np.where(np.abs(r_neg) < np.abs(r_pos), w_neg, w_pos)

        weight_gap = []
        slope_angle = []
        for eps in (0.6, 0.2, 0.05):
            mass = (w_neg * (np.abs(r_neg) < eps)
                    + w_pos * (np.abs(r_pos) < eps))
            bw = mass / mass.sum()
            weight_gap.append(abs(np.sum(bw * w_star) - w_inf))
            slope_angle.append(np.sum(bw * np.minimum(u, TWO_PI - u)))
            assert abs(np.sum(bw * lam_star)) < 0.25 * eps
        assert weight_gap[0] > weight_gap[1] > weight_gap[2]
        assert slope_angle[0] > slope_angle[1] > slope_angle[2]
        assert weight_gap[2] < 0.02


class TestOperatorBatch:
    """Batch rows against the same operators swept one at a time."""

    @staticmethod
    def assert_rows_match(ops, batch, window, lams):
        # bit for bit: every lane's arithmetic is its own, and below
        # _CHUNK_LANES lanes the chunking depends on the cell count alone
        counts = batch.count(window)
        eigs, row = batch.eigenvalues(window)
        weights = {side: batch.weights(window, side) for side in ("left", "right")}
        rows = np.repeat(np.arange(len(ops)), lams.size)
        phases = batch.phase(np.tile(lams, len(ops)), rows).reshape(len(ops), -1)
        for i, op in enumerate(ops):
            w_i = (window[0][i], window[1][i]) if np.ndim(window[0]) else window
            assert counts[i] == dirac.eigenvalue_count(op, w_i)
            assert np.array_equal(eigs[row == i], dirac.eigenvalues_in(op, w_i))
            for side, (lam, w, wrow) in weights.items():
                sm = dirac.spectral_measure(op, w_i, side)
                assert np.array_equal(lam[wrow == i], sm.lambdas)
                assert np.array_equal(w[wrow == i], sm.weights)
            assert np.array_equal(phases[i], dirac.phase_at(op, lams))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_measure_stack_rows_are_one_row_operators(self, n):
        rng = np.random.default_rng(70 + n)
        ops = [dirac.measure_operator(random_measure(rng, n)) for _ in range(4)]
        ops.append(dirac.transform_operator(ops[0], "conjugate",
                                            Q=rotation_about_i(0.8)))
        batch = dirac.OperatorBatch.stack(ops)
        assert batch.rows == 5 and batch.v.shape == (5, n)
        lams = np.array([-3.1, 0.0, 2.5, 17.0])
        self.assert_rows_match(ops, batch, (0.0, TWO_PI * n), lams)
        # one window per row
        lo = rng.uniform(-10.0, 0.0, len(ops))
        self.assert_rows_match(ops, batch, (lo, lo + TWO_PI * n), lams)

    @pytest.mark.parametrize("rows", [5, 10])
    def test_sine_batch_rows_are_one_row_operators(self, rows):
        from circdirac.ensembles import (SeedSpec, SinePathSpec, sample_sine_operator,
                                         sample_sine_paths)

        spec = SinePathSpec(beta=2.0, cells=128)
        seeds = [SeedSpec(71, i) for i in range(rows)]
        batch = sample_sine_paths(spec, seeds)
        ops = [sample_sine_operator(spec, s) for s in seeds]
        window = (-2.0, 10.0 * math.pi)
        assert batch.count(window).sum() < dirac._CHUNK_LANES
        assert dirac._chunk_count(1, spec.cells) > 1
        self.assert_rows_match(ops, batch, window, np.array([-1.0, 0.5, 9.0]))

    def test_stack_refuses_mismatched_grids(self):
        rng = np.random.default_rng(72)
        a, b = random_operator(rng), random_operator(rng)
        dirac.OperatorBatch.stack([a, b])
        shifted = dirac.DiracOperator(grid=a.grid * 0.5, path=a.path, u0=a.u0, u1=a.u1)
        with pytest.raises(ValueError, match="share one grid"):
            dirac.OperatorBatch.stack([a, shifted])
        with pytest.raises(ValueError, match="share one grid"):
            dirac.OperatorBatch.stack([a, random_operator(rng, cells=6)])

    def test_side_is_checked_before_solving(self, monkeypatch):
        solves = []
        original = dirac._solve_targets

        def counting(*args):
            solves.append(args[1].size)
            return original(*args)

        monkeypatch.setattr(dirac, "_solve_targets", counting)
        op = lattice_operator(3, 1.0)
        for call in (lambda: dirac.spectral_measure(op, (-5.0, 5.0), "middle"),
                     lambda: op.batch.weights((-5.0, 5.0), "middle")):
            with pytest.raises(ValueError, match="side must be"):
                call()
        assert solves == []
        dirac.spectral_measure(op, (-5.0, 5.0), "left")
        assert solves == [1]


class TestInputValidation:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field, index", [
        ("grid", 2), ("path", 1), ("path", -1), ("u0", 0), ("u1", 1)])
    def test_non_finite_field_is_refused(self, field, index, bad):
        op = random_operator(np.random.default_rng(73))
        fields = dict(grid=op.grid.copy(), path=op.path.copy(), u0=op.u0.copy(),
                      u1=op.u1.copy())
        fields[field][index] = complex(0.5, bad) if field == "path" and index < 0 else bad
        with pytest.raises(ValueError, match=f"^{field} must be finite$"):
            dirac.DiracOperator(**fields)

    @pytest.mark.parametrize("window", [(0.0, math.inf), (-math.inf, 0.0),
                                        (math.nan, 1.0)])
    def test_non_finite_window_is_refused(self, window):
        op = random_operator(np.random.default_rng(74))
        for call in (dirac.eigenvalue_count, dirac.eigenvalues_in,
                     lambda op, w: dirac.spectral_measure(op, w, "left")):
            with pytest.raises(ValueError, match="window endpoints must be finite"):
                call(op, window)
