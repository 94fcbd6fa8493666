import dataclasses
import json
import math

import numpy as np
import pytest

from circdirac import dirac, opuc

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
    return dirac.build_operator((grid, z), q=rng.uniform(-2.0, 2.0))


def rotation_about_i(r):
    """The rotation of H about i that takes the real point r to infinity."""
    c, s = r / math.sqrt(1 + r * r), 1.0 / math.sqrt(1 + r * r)
    return np.array([[c, s], [-s, c]])


def cell_values(op):
    """The operator's cells and cell lengths: (x, y, dt)."""
    return op.path.real, op.path.imag, np.diff(op.grid)


def cut(op, cells):
    """The operator on its first ``cells`` cells."""
    return dirac.DiracOperator(grid=op.grid[:cells + 1], path=op.path[:cells],
                               u0=op.u0, u1=op.u1)


def sweep(batch, lam, row=0, **kw):
    """dirac._sweep on the stored steps of an OperatorBatch, as the
    components (G0, G1, dG0, dG1) of its g = G0 - i G1 and dg, with its
    half-plane index lifted to the winding of arg g."""
    g, dg, half = batch._lanes(lam, row, **kw)
    wind = None if half is None else dirac._lift(g, half)
    dG0, dG1 = (None, None) if dg is None else (dg.real, -dg.imag)
    return g.real, -g.imag, dG0, dG1, wind


def eval_H(op, lam):
    """(H, dH, normsq) at the end of the operator, from the moving-frame sweep.

    H = X_{m-1}^{-1} G and dH its lambda-derivative, each shaped (2,) + lam's
    shape; normsq is the squared R-norm of H over the cells, H^t J dH.
    """
    g, dg, _ = op.batch._lanes(lam, 0, want_deriv=True)
    x, y = op.path[-1].real, op.path[-1].imag
    # h = H0 - i H1
    H, dH = (np.array([h.real, -h.imag]) for h in (dirac._unframe(x, y, g),
                                                   dirac._unframe(x, y, dg)))
    G0, G1, dG0, dG1 = g.real, -g.imag, dg.real, -dg.imag
    return H, dH, (G1 * dG0 - G0 * dG1) / y


def secular(op, lam, u1=None):
    """zeta(lam) = H(T, lam)^t J u1 at real lam; u1 defaults to op.normalized_u1()."""
    H = eval_H(op, lam)[0]
    u1 = op.normalized_u1() if u1 is None else u1
    return H[1] * u1[0] - H[0] * u1[1]


def fixed_frame_sweep(x, y, dt, lam, u0, want_deriv=False, want_phase=False):
    """Oracle: the cell sweep in the fixed frame, for one operator.

    H advances through X^{-1} Rot(lam dt / 2) X, whose entries reach
    (1 + x^2 + y^2) / y, and each cell's winding of H0 - i H1 comes from
    the closed form p + Arg((a + b e^{-2ip}) conj(a + b)) of
    W = a e^{ip} + b e^{-ip}.  Returns (H0, H1, dH0, dH1, winding) with the
    winding counted from u0.
    """
    lam = np.asarray(lam, dtype=float)
    H0 = np.full(lam.shape, u0[0])
    H1 = np.full(lam.shape, u0[1])
    dH0 = np.zeros(lam.shape)
    dH1 = np.zeros(lam.shape)
    wind = np.zeros(lam.shape)
    for k in range(np.size(x)):
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


def arctan2_winding(G0, G1, lam, steps):
    """Oracle: the winding of arg(G0 - i G1) summed over the cell steps.

    Each frame step adds the principal angle from G to its image, which is
    exact because r > 0 keeps the sign of G1, and each rotation adds its
    angle lam dt / 2.  ``steps`` holds (v, r, dt) per cell, the parts
    of the step w = v + i r that ``dirac._advance`` reads.
    """
    wind = np.arctan2(-G1, G0)
    for v, r, dt in steps:
        A, B = G0 - v * G1, r * G1
        wind = wind + np.arctan2(G1 * ((1.0 - r) * G0 - v * G1), A * G0 + B * G1)
        phi = 0.5 * lam * dt
        c, s = np.cos(phi), np.sin(phi)
        wind = wind + phi
        G0, G1 = c * A + s * B, c * B - s * A
    return wind


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
                                  q=0.0)
        np.testing.assert_array_equal(op.u1, [0.0, -1.0])

    def test_nonpositive_height_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            dirac.build_operator((np.array([0.0, 1.0]), np.array([1.0 + 0j])),
                                 q=0.0)

    def test_fields_are_read_only_copies(self):
        # the one-row batch holds steps taken from the fields; an edit of
        # the fields, or of the arrays they came from, would not reach it
        grid, z = np.linspace(0.0, 1.0, 6), np.array([1j, 1 + 1j, 2j, -1 + 1j, 1j])
        op = dirac.build_operator((grid, z), q=0.3)
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
        # a path-built operator is its path's, so it reloads to the same steps
        for f in dataclasses.fields(op.batch):
            np.testing.assert_array_equal(getattr(back.batch, f.name),
                                          getattr(op.batch, f.name))
        inf_op = dirac.build_operator((op.grid, op.path), q=math.inf)
        d = inf_op.to_dict()
        assert d["u1"] == "infinity"
        back = dirac.DiracOperator.from_dict(d)
        np.testing.assert_array_equal(back.u1, [1.0, 0.0])
        # a step-built operator writes its steps, and reloads to the same
        # batch bit for bit: a Killip-Nenciu draw and a Sine_2 row
        from circdirac.ensembles import (SeedSpec, SinePathSpec, sample_kn,
                                         sample_sine_operator)

        for op in (dirac.coefficient_operator(sample_kn(400, 2.0, SeedSpec(203, 1))),
                   sample_sine_operator(SinePathSpec(beta=2.0, cells=256), SeedSpec(7, 0))):
            d = json.loads(json.dumps(op.to_dict()))
            assert "path" not in d and len(d["steps"]) == op.cells
            back = dirac.DiracOperator.from_dict(d)
            for f in dataclasses.fields(op.batch):
                np.testing.assert_array_equal(getattr(back.batch, f.name),
                                              getattr(op.batch, f.name))
            for name in ("grid", "u0", "u1", "origin"):
                np.testing.assert_array_equal(getattr(back, name), getattr(op, name))


class TestSteps:
    """The frame steps w_k = v_k + i r_k, points of the upper half plane."""

    def test_kn_steps_are_cayley_images_of_the_coefficients(self):
        # w_{k+1} = i (1 + gamma_k) / (1 - gamma_k); step 0 is the identity, i
        from circdirac.ensembles import SeedSpec, sample_kn

        gammas = sample_kn(50, 2.0, SeedSpec(13, 0))
        g, w = gammas.values, dirac.coefficient_operator(gammas).batch.w[0]
        assert w[0] == 1j and np.all(w.imag > 0.0)
        np.testing.assert_allclose(w[1:], 1j * (1.0 + g[:-1]) / (1.0 - g[:-1]),
                                   rtol=1e-14, atol=0)

    def test_path_steps_are_cells_seen_from_the_frame_before(self):
        # w_k = (z_k - x_{k-1}) / y_{k-1}
        op = random_operator(np.random.default_rng(53), cells=7)
        z, w = op.path, op.batch.w[0]
        assert w[0] == 1j
        np.testing.assert_allclose(w[1:], (z[1:] - z[:-1].real) / z[:-1].imag,
                                   rtol=1e-15, atol=0)


class TestEvalH:
    def test_zero_frequency(self):
        rng = np.random.default_rng(1)
        op = random_operator(rng)
        H, _, _ = eval_H(op, 0.0)
        np.testing.assert_allclose(H, [1.0, 0.0], atol=1e-15)

    def test_lattice_closed_form(self):
        op = lattice_operator(4, 1.0)
        for lam in (0.7, 2.5, -4.0):
            H, _, normsq = eval_H(op, lam)
            np.testing.assert_allclose(
                H, [math.cos(lam / 2), -math.sin(lam / 2)], atol=1e-13)
            assert normsq == pytest.approx(0.5, abs=1e-13)

    def test_normsq_matches_quadrature(self):
        # composite Simpson with 128 intervals per cell as the oracle
        rng = np.random.default_rng(2)
        for _ in range(5):
            op = random_operator(rng)
            lam = rng.uniform(-5.0, 5.0)
            normsq = eval_H(op, lam)[2]
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
            assert normsq == pytest.approx(total, abs=1e-8)

    def test_partial_sweep(self):
        # the operator cut to its first two cells carries H as far as they go
        rng = np.random.default_rng(3)
        op = random_operator(rng)
        x, y, dt = cell_values(op)
        H0, H1, *_ = fixed_frame_sweep(x[:2], y[:2], dt[:2], 1.3, op.u0)
        np.testing.assert_allclose(eval_H(cut(op, 2), 1.3)[0], [H0, H1], atol=1e-14)


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
        for call in calls:
            with pytest.raises(ValueError, match="conditioning: .*overflowed"):
                call()
        # at 7e3 |G| is 3e266, so any product of G's components would
        # overflow; the solver's zeta step is a ratio and forms none
        window = (6990.0, 7000.0)
        roots = dirac.eigenvalues_in(op, window)
        assert len(roots) == dirac.eigenvalue_count(op, window) == 2
        np.testing.assert_allclose(roots, [6997.24873633, 6997.54125121], atol=1e-8)

    @pytest.mark.parametrize("x", [0.0, 0.5])
    def test_fixed_frame_overflow_is_a_conditioning_error(self, x):
        # with the last y at 1e-12, G is finite at 7591 (|G| 4e296) but
        # H1 = G1 / y overflows: to a nan phase at x = 0, and at x = 0.5 to
        # H = (-inf, -inf), whose arg is finite and wrong
        op = random_operator(np.random.default_rng(4146), 4096)
        path = op.path.copy()
        path[-1] = complex(x, 1e-12)
        op = dirac.DiracOperator(grid=op.grid, path=path, u0=op.u0, u1=op.u1)
        G0, G1, *_ = sweep(op.batch, 7591.0)
        assert np.hypot(G0, G1) < 1e297
        with pytest.raises(ValueError, match="conditioning: .*overflowed"):
            dirac.phase_at(op, 7591.0)

    def test_count_does_not_depend_on_lane_count(self):
        # at 5e3 |G| passes 1e154 on this operator; the sweep forms no
        # product of G's components, so a 600-lane (plain) count and 300
        # two-lane (chunked) counts agree
        op = random_operator(np.random.default_rng(4146), 4096)
        lo = np.linspace(5e3, 5e3 + 10.0, 300)
        hi = lo + 0.05
        one = [dirac.eigenvalue_count(op, (a, b)) for a, b in zip(lo, hi)]
        batch = dirac.OperatorBatch.stack([op] * lo.size)
        assert dirac._chunk_count(2 * lo.size, op.cells) == 1
        np.testing.assert_array_equal(batch.count((lo, hi)), one)
        assert sum(one) == 3

    def test_phase_does_not_depend_on_lane_count(self):
        # at 5e3 |G| passes 1e154 on this operator; the phase lifts H = X^{-1} G
        # by the sweep's half-plane count and forms no product of G's
        # components, so a _CHUNK_LANES-lane (plain) batch and as many
        # one-lane (chunked) sweeps give the same bits
        op = random_operator(np.random.default_rng(4146), 4096)
        lams = np.linspace(5e3, 5e3 + 10.0, dirac._CHUNK_LANES)
        batch = dirac.OperatorBatch.stack([op] * lams.size)
        assert dirac._chunk_count(lams.size, op.cells) == 1
        one = [dirac.phase_at(op, lam) for lam in lams]
        np.testing.assert_array_equal(batch.phase(lams, np.arange(lams.size)), one)

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
            vals = secular(op, grid)
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

    def test_search_does_not_depend_on_the_scale_of_G(self, monkeypatch):
        # G and dG scaled up by 2^600 keep every phase, and the zeta step
        # zeta / zeta' is a ratio of their components, so the search takes
        # the same steps to the same roots; had the scaled step been lost,
        # it would bisect, some 40 sweeps per root
        op = random_operator(np.random.default_rng(31))
        lanes = self.count_phase_sweeps(monkeypatch)
        expected = dirac.eigenvalues_in(op, (-9.0, 9.0))
        newton = len(lanes)
        counted = dirac._sweep

        def huge(*args, **kw):
            *G, half = counted(*args, **kw)
            # exact: each part of g and dg times 2^600
            return (*(None if g is None else g * 2.0 ** 600 for g in G), half)

        monkeypatch.setattr(dirac, "_sweep", huge)
        del lanes[:]
        np.testing.assert_allclose(dirac.eigenvalues_in(op, (-9.0, 9.0)), expected,
                                   rtol=0.0, atol=1e-12)
        assert len(lanes) == newton < 10 * expected.size

    def test_overflowed_derivative_forces_bisection(self, monkeypatch):
        # where dG overflows while G does not (on the 4096-cell operator of
        # TestPhase at lambda 7873), the solver has no Newton step; it
        # bisects to the same roots, and no warning escapes
        op = random_operator(np.random.default_rng(31))
        expected = dirac.eigenvalues_in(op, (-9.0, 9.0))
        sweep = dirac._sweep

        def lost(*args, **kw):
            g, dg, half = sweep(*args, **kw)
            if dg is not None:
                dg = np.full_like(dg, complex(np.inf, np.inf))
            return g, dg, half

        monkeypatch.setattr(dirac, "_sweep", lost)
        np.testing.assert_allclose(dirac.eigenvalues_in(op, (-9.0, 9.0)), expected,
                                   rtol=0.0, atol=2e-12)

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
                                  q=-1.3028547243692161)
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
        ops = [dirac.build_operator((op.grid, op.path), q=math.inf)
               for op in [random_operator(rng, cells=7) for _ in range(4)]]

        def batch(rows):
            return dirac.OperatorBatch.stack([ops[i] for i in rows])

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

        spec = SinePathSpec(beta=2.0, cells=256, q=math.inf)
        b = dirac.OperatorBatch.stack(
            [sample_sine_operator(spec, SeedSpec(5, i)) for i in range(40)])
        _, _, alo, ahi, _, _ = b._window((-0.5, 0.5))
        lanes = self.count_phase_sweeps(monkeypatch)
        roots = dirac._solve_targets(b, b.u, np.arange(40), -0.5, 0.5, alo, ahi)
        assert np.max(np.abs(roots)) < 1e-10
        assert len(lanes) <= 12
        assert lanes[0] == 40
        assert all(b <= a for a, b in zip(lanes, lanes[1:]))

    @staticmethod
    def staircase_solve(monkeypatch):
        """KN n = 400, seed 13, on [0, 800 pi): (operator, window, roots, lanes per sweep)."""
        from circdirac.ensembles import SeedSpec, sample_kn

        op = dirac.coefficient_operator(sample_kn(400, 2.0, SeedSpec(13, 0)))
        window = (0.0, 800.0 * math.pi)
        lanes = []
        counted = dirac.OperatorBatch._lanes

        def counting(self, lam, row, **kw):
            lanes.append(np.size(lam))
            return counted(self, lam, row, **kw)

        with monkeypatch.context() as mp:
            mp.setattr(dirac.OperatorBatch, "_lanes", counting)
            lams, _ = op.batch.eigenvalues(window)
        return op, window, lams, lanes

    def test_staircase_roots_share_row_brackets(self, monkeypatch):
        # a KN phase is a staircase: flat treads between steep rises at the
        # roots, so a lane far from its target bisects a bracket as wide as
        # the window unless other points narrow it.  Sharing each sweep's
        # points across the row's targets narrows every bracket; with its
        # own points alone and Newton steps on the phase the search took 32
        # sweeps and 6 724 lane-sweeps (endpoint sweep included), with
        # shared points 26 and 4 921, and with the zeta steps 11 and 2 537
        op, window, lams, lanes = self.staircase_solve(monkeypatch)
        b = op.batch
        assert lams.size == 400
        assert sum(lanes) < 6724
        # one row per target: each target sees its own points alone, as in
        # 400 one-target solves side by side
        lo, hi, alo, ahi, kmin, count = b._window(window)
        targets = b.u[0] + TWO_PI * (kmin[0] + np.arange(count[0]))
        alone = dirac._solve_targets(dirac.OperatorBatch.stack([op] * 400), targets,
                                     np.arange(400), lo[0], hi[0], alo[0], ahi[0])
        np.testing.assert_allclose(lams, alone, rtol=0, atol=1e-11)

    def test_staircase_roots_take_zeta_steps(self, monkeypatch):
        # zeta is entire, so a Newton step on it crosses a tread where a
        # step on the phase overshoots; with Newton steps on the phase the
        # search took 4 921 lane-sweeps.  A zeta step that landed on a
        # neighbour's root would return that root twice: every root must
        # sit at its own target's turn.  The roots agree with the
        # no-sharing solve to 1e-11 (test_staircase_roots_share_row_brackets).
        op, window, lams, lanes = self.staircase_solve(monkeypatch)
        b = op.batch
        assert sum(lanes) < 3500
        _, _, _, _, kmin, count = b._window(window)
        g, _, half = b._lanes(lams, np.zeros(lams.size, dtype=int), want_phase=True)
        turns = (2.0 * dirac._lift(g, half) - b.u[0]) / TWO_PI
        np.testing.assert_array_equal(np.round(turns), kmin[0] + np.arange(count[0]))

    def test_lanes_far_from_their_targets_bisect(self, monkeypatch):
        # a lane 2 pi or more from its target takes no Newton step: its next
        # point is the midpoint of the bracket its row's points leave it.
        # On this operator no lane retires after the first solver sweep, and
        # 101 of its 400 lanes start 2 pi or more from their targets
        op, window, _, _ = self.staircase_solve(monkeypatch)
        shared, lams = [], []
        share, counted = dirac._share_brackets, dirac.OperatorBatch._lanes

        def sharing(row, alpha, lam, t, a, b):
            shared.append((alpha - t, share(row, alpha, lam, t, a, b)))
            return shared[-1][1]

        def counting(self, lam, row, **kw):
            if kw.get("want_deriv"):
                lams.append(np.array(lam))
            return counted(self, lam, row, **kw)

        monkeypatch.setattr(dirac, "_share_brackets", sharing)
        monkeypatch.setattr(dirac.OperatorBatch, "_lanes", counting)
        op.batch.eigenvalues(window)
        f, (a, b) = shared[0]
        far = np.abs(f) >= TWO_PI
        assert lams[0].size == lams[1].size == 400 and far.sum() > 50
        np.testing.assert_array_equal(lams[1][far], (0.5 * (a + b))[far])

    def test_infinity_slope_root_at_zero_is_polished(self):
        # zeta vanishes at 0 exactly for the infinity slope; the polished
        # exit returns lambda - zeta / zeta', far below the 1e-12 bracket
        from circdirac.ensembles import SeedSpec, SinePathSpec, sample_sine_paths

        b = sample_sine_paths(SinePathSpec(beta=2.0, q=math.inf),
                              [SeedSpec(7, i) for i in range(5)])
        lams, row = b.eigenvalues((-0.5, 0.5))
        assert np.array_equal(np.unique(row), np.arange(5))
        zero = [lams[row == i][np.argmin(np.abs(lams[row == i]))] for i in range(5)]
        assert np.max(np.abs(zero)) < 1e-20


class TestMovingFrame:
    """The moving-frame sweep against the fixed-frame oracle."""

    @staticmethod
    def assert_matches_oracle(op, lams, rel=1e-12):
        x, y, dt = cell_values(op)
        for lam in lams:
            H0, H1, dH0, dH1, _ = fixed_frame_sweep(x, y, dt, lam, op.u0,
                                                    want_deriv=True)
            H, dH, normsq = eval_H(op, lam)
            np.testing.assert_allclose(H, [H0, H1], rtol=0,
                                       atol=rel * np.hypot(H0, H1))
            np.testing.assert_allclose(dH, [dH0, dH1], rtol=0,
                                       atol=rel * np.hypot(dH0, dH1))
            assert normsq == pytest.approx(H1 * dH0 - H0 * dH1, rel=rel)
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
            for o in (op, dirac.conjugate_operator(op, Q)):
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
        # the operator cut to its first 1, 3 and 6 cells
        rng = np.random.default_rng(46)
        op = random_operator(rng, cells=6)
        x, y, dt = cell_values(op)
        for cells in (1, 3, op.cells):
            H0, H1, dH0, dH1, _ = fixed_frame_sweep(x[:cells], y[:cells], dt[:cells],
                                                    2.7, op.u0, want_deriv=True)
            H, dH, _ = eval_H(cut(op, cells), 2.7)
            np.testing.assert_allclose(H, [H0, H1], rtol=1e-12)
            np.testing.assert_allclose(dH, [dH0, dH1], rtol=1e-12)

    def test_infinity_slope_target_is_zero(self):
        rng = np.random.default_rng(47)
        z = random_operator(rng).path
        op = dirac.build_operator((np.linspace(0.0, 1.0, 6), z), q=math.inf)
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
        assert b.w.shape == (3, 64)
        assert b.w.flags.f_contiguous

    @pytest.mark.parametrize("lanes, slope, window, deriv", [
        (1000, "cauchy", (0.0, 20.0 * math.pi), False),
        (500, "infinity", (-0.5, 0.5), True),
    ])
    def test_sweeps_do_not_depend_on_layout(self, lanes, slope, window, deriv):
        # cell-major and row-major copies of one batch's steps give the same bits
        from circdirac.ensembles import SeedSpec, SinePathSpec, sample_sine_paths

        q = {"cauchy": None, "infinity": math.inf}[slope]
        spec = SinePathSpec(beta=2.0, cells=1024, q=q)
        batch = sample_sine_paths(spec, [SeedSpec(6, i) for i in range(lanes)])
        rowmajor = dataclasses.replace(batch, w=np.ascontiguousarray(batch.w))
        assert rowmajor.w.flags.c_contiguous and not rowmajor.w.flags.f_contiguous
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
        for o in (op, dirac.conjugate_operator(op, Q)):
            for flags in ((True, True), (True, False), (False, True), (False, False)):
                kw = dict(want_deriv=flags[0], want_phase=flags[1])
                self.assert_same_sweep(sweep(o.batch, lams, **kw),
                                       self.plain_sweep(monkeypatch, o.batch, lams, **kw))
            # eval_H and phase_at sweep one lane or eight: chunked
            TestMovingFrame.assert_matches_oracle(o, lams)
            np.testing.assert_allclose(dirac.phase_at(o, many),
                                       fixed_frame_phase(o, many), rtol=0, atol=1e-10)
            window = (-12.0, 12.0)
            assert dirac.eigenvalue_count(o, window) == fixed_frame_count(o, window)

    def test_partial_sweeps_match_oracle(self, monkeypatch):
        # the operator cut to its first 55, 60 and 61 cells: 100 cells run
        # 10 chunks of 10, and 55 to 61 cells run 7 chunks of 8 or 9, the
        # last one padded by 1, 3 and 2 identity cells
        rng = np.random.default_rng(48)
        op = random_operator(rng, cells=100)
        x, y, dt = cell_values(op)
        assert dirac._chunk_count(1, 100) == 10
        for cells in (55, 60, 61, 100):
            assert dirac._chunk_count(1, cells) == (10 if cells == 100 else 7)
            H0, H1, dH0, dH1, _ = fixed_frame_sweep(x[:cells], y[:cells], dt[:cells],
                                                    2.7, op.u0, want_deriv=True)
            part = cut(op, cells)
            H, dH, _ = eval_H(part, 2.7)
            np.testing.assert_allclose(H, [H0, H1], rtol=1e-12)
            np.testing.assert_allclose(dH, [dH0, dH1], rtol=1e-12)
            lams = np.array([-3.0, 2.7, 11.0])
            kw = dict(want_deriv=True, want_phase=True)
            self.assert_same_sweep(sweep(part.batch, lams, **kw),
                                   self.plain_sweep(monkeypatch, part.batch, lams, **kw))

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

    def test_turns_tolerate_column_winding_errors(self):
        # a chunk's column windings only pick whole turns, with a margin of
        # pi / 2; one chunk of 8 random, strongly hyperbolic cells (r up to
        # e^16 per step) per lane, with cell angles up to 2.5 and, in a
        # wide sweep, up to 10
        rng = np.random.default_rng(52)
        lanes = 2000
        steps = list(zip(rng.normal(0.0, 3.0, (8, lanes)),
                         np.exp(rng.normal(0.0, 4.0, (8, lanes))),
                         rng.uniform(0.0, 0.5, (8, 1))))
        for scale, wide in ((10.0, False), (40.0, True)):
            lam = rng.uniform(-scale, scale, lanes)
            g0, g1 = rng.normal(size=(2, lanes))
            wind = arctan2_winding(g0, g1, lam, steps)
            # T's columns start at [1, 0] and [0, 1], in the half-plane [-pi, 0]
            T0, T1 = np.zeros((2, 2, lanes))
            T0[0] = T1[1] = 1.0
            W = arctan2_winding(T0, T1, lam, steps)
            # the same columns as g = G0 - i G1, the images of 1 and -i;
            # no table: _advance takes each cell's trig itself
            T = np.zeros((1, 2, lanes), dtype=complex)
            T[0, 0], T[0, 1] = 1.0, -1j
            untabled = [(v + 1j * r, dt, None) for v, r, dt in steps]
            T, half = dirac._advance(T, np.full((2, lanes), -1.0), lam, untabled, wide)
            W_count = dirac._lift(T[0], half)
            np.testing.assert_allclose(W_count, W, rtol=0, atol=1e-9)
            G = np.array([g0 - 1j * g1, g0 * T[0, 0] + g1 * T[0, 1]])
            last = np.angle(G[1])
            for noise in (0.0, 1.2):
                W_off = W_count + rng.uniform(-noise, noise, W.shape)
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


class TestRotationTable:
    """Sweeps that read cos and sin from a table of distinct (dt, lambda) pairs.

    Each must return the bits of the per-cell trig it replaces, forced here
    by a ``_rotations`` that gives no table: G, dG and the half-plane
    index alike.
    """

    def assert_table_keeps_bits(self, monkeypatch, batch, lam, row, **kw):
        tabled = []
        rotations = dirac._rotations

        def spy(lam, dt):
            # a table comes as a generator, none as a list of None
            rot = rotations(lam, dt)
            tabled.append(not isinstance(rot, list))
            return rot

        with monkeypatch.context() as mp:
            mp.setattr(dirac, "_rotations", spy)
            table = batch._lanes(lam, row, **kw)
        assert tabled == [True]
        with monkeypatch.context() as mp:
            mp.setattr(dirac, "_rotations", lambda lam, dt: [None] * len(dt))
            plain = batch._lanes(lam, row, **kw)
        for got, want in zip(table, plain):
            if want is None:
                assert got is None
                continue
            # bits, so that -0.0 and 0.0 differ too
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    @staticmethod
    def kn_batch(n):
        from circdirac.ensembles import SeedSpec, sample_kn

        return dirac.coefficient_operator(sample_kn(n, 2.0, SeedSpec(13, 0))).batch

    def test_kn_plain_loop(self, monkeypatch):
        b = self.kn_batch(400)
        lam = np.linspace(0.0, 800.0 * math.pi, 600)
        assert dirac._chunk_count(lam.size, 400) == 1
        self.assert_table_keeps_bits(monkeypatch, b, lam, np.zeros(600, int),
                                     want_deriv=True, want_phase=True)

    def test_kn_chunks_with_padding(self, monkeypatch):
        # 200 cells run 14 chunks of 15, the last padded by 10 cells of dt 0
        b = self.kn_batch(200)
        lam = np.linspace(0.0, 400.0 * math.pi, 200)
        assert dirac._chunk_count(lam.size, 200) == 14
        self.assert_table_keeps_bits(monkeypatch, b, lam, np.zeros(200, int),
                                     want_deriv=True, want_phase=True)

    def test_sine_window_of_two_lambdas(self, monkeypatch):
        # the endpoint sweep of a 500-row window: 1000 lanes, two lambdas,
        # on a grid whose cell lengths are all distinct
        from circdirac.ensembles import SeedSpec, SinePathSpec, sample_sine_paths

        b = sample_sine_paths(SinePathSpec(beta=2.0, cells=512, q=math.inf),
                              [SeedSpec(13, i) for i in range(500)])
        assert np.unique(b.dt).size == b.dt.size
        lam = np.repeat([-0.5, 0.5], 500)
        self.assert_table_keeps_bits(monkeypatch, b, lam, np.tile(np.arange(500), 2),
                                     want_phase=True)

    def test_wide_sweep(self, monkeypatch):
        # cell angles up to 0.5 * 3e3 / 50 = 30 > pi, in chunks; lambdas
        # repeat, so lanes gather their rotations, and zeros carry signs
        b = self.kn_batch(50)
        lam = np.concatenate([[0.0, -0.0], np.tile(np.linspace(-3e3, 3e3, 20), 2)])
        assert 0.5 * np.max(np.abs(lam)) * np.max(b.dt) > math.pi
        self.assert_table_keeps_bits(monkeypatch, b, lam, np.zeros(lam.size, int),
                                     want_deriv=True, want_phase=True)


class TestHalfPlaneCount:
    """The sweeps take whole turns from the sign changes of G1.

    Checked against the fixed-frame oracle and the per-cell arctan2
    winding, on 16 cells of length 1/16, so lam = 32 phi turns every cell
    by phi; the plain loop and the chunked path must agree.
    """

    CELLS = 16
    EDGES = (0.0, -0.0, 5e-324, -5e-324, -3.7, 2.2, -40.0)
    # cell angles up to pi keep a sweep on the sign rule alone; past pi
    # it is wide and adds each angle's whole turns
    NARROW = (math.pi - 1e-9, math.pi)
    WIDE = (math.pi + 1e-9, 2.5 * math.pi, 7.0 * math.pi)

    @pytest.mark.parametrize("wide", [False, True])
    @pytest.mark.parametrize("u0", [[1.0, 0.0], [-1.0, -0.0], [-1.0, 0.0], [0.3, -1.1]])
    def test_counts_match_oracles(self, u0, wide):
        rng = np.random.default_rng(61)
        z = rng.uniform(-1.2, 1.2, self.CELLS) + 1j * rng.uniform(0.4, 2.2, self.CELLS)
        op = dirac.DiracOperator(grid=np.linspace(0.0, 1.0, self.CELLS + 1), path=z,
                                 u0=u0, u1=[1.0, 0.0])
        phis = self.NARROW + (self.WIDE if wide else ())
        lams = np.array(self.EDGES + tuple(2.0 * self.CELLS * sgn * p
                                           for p in phis for sgn in (1.0, -1.0)))
        assert 0.5 * (2.0 * self.CELLS * math.pi) * op.batch.dt[0] == math.pi
        assert (0.5 * np.max(np.abs(lams)) * op.batch.dt[0] > math.pi) == wide
        assert dirac._chunk_count(lams.size, self.CELLS) > 1
        many = np.tile(lams, -(-dirac._CHUNK_LANES // lams.size))
        assert dirac._chunk_count(many.size, self.CELLS) == 1
        chunked = sweep(op.batch, lams, want_phase=True)[4]
        plain = sweep(op.batch, many, want_phase=True, want_deriv=True)[4][:lams.size]
        steps = list(zip(op.batch.w[0].real, op.batch.w[0].imag, op.batch.dt))
        winding = arctan2_winding(*op.batch.start[:, 0], lams, steps)
        np.testing.assert_allclose(plain, winding, rtol=0, atol=1e-12)
        # the chunked path rounds G differently, but picks the same turns
        np.testing.assert_allclose(chunked, plain, rtol=0, atol=1e-12)
        oracle = fixed_frame_phase(op, lams)
        np.testing.assert_allclose(op.batch.phase(lams), oracle, rtol=0, atol=1e-10)
        np.testing.assert_allclose(op.batch.phase(many)[:lams.size], oracle,
                                   rtol=0, atol=1e-10)

    def test_half_plane_of_principal_args(self):
        # G1 < 0 is the open (0, pi); G1 >= 0 the closed [-pi, 0], but for
        # G1 = -0 with G0 < 0, whose principal arg is pi
        G0 = np.array([1.0, -1.0, 1.0, -1.0, -1.0, 0.5, 0.5, -1.0])
        G1 = np.array([0.0, 0.0, -0.0, -0.0, -1e-300, -2.0, 2.0, 1e-300])
        # g = G0 - i G1, each zero's sign flipped with G1
        g = np.empty(G0.size, dtype=complex)
        g.real, g.imag = G0, -G1
        theta = np.arctan2(-G1, G0)
        np.testing.assert_array_equal(dirac._half_plane(theta, g),
                                      [-1, -1, -1, 1, 0, 0, -1, -1])
        # lifted four half-planes on, the arg moves by two whole turns
        np.testing.assert_array_equal(
            dirac._lift(g, dirac._half_plane(theta, g) + 4.0), theta + 2.0 * TWO_PI)


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

    @pytest.mark.parametrize("seed, stream, n", [(203, 1, 400), (243, 0, 100), (257, 0, 200)])
    def test_kn_lift_draws_meet_the_gate(self, seed, stream, n):
        # kn-sample -> measure -> spectrum --side left, through the library
        # calls behind those commands.  With the last-frame target taken
        # from the rounded slope, X_{n-1} u1 cancelled, and the weights of
        # these draws missed the 1e-8 gate by 2.1e-8, 2.0e-8 and 3.2e-6
        from circdirac.ensembles import SeedSpec, sample_kn

        seq = sample_kn(n, 2.0, SeedSpec(seed, stream))
        mu = opuc.alpha_to_measure(opuc.convert_coefficients(seq, "verblunsky"))
        mu = opuc.UnitCircleMeasure.from_dict(json.loads(json.dumps(mu.to_dict())))
        sm = dirac.spectral_measure(dirac.measure_operator(mu), (0.0, TWO_PI * n), "left")
        order = np.argsort(mu.angles)
        assert len(sm) == n
        assert np.max(np.abs(sm.lambdas / n - mu.angles[order])) <= 1e-8
        w = 2 * n * mu.weights[order]
        assert np.max(np.abs(sm.weights - w) / w) <= 1e-8


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

    def test_empty_window_sweeps_only_its_endpoints(self, monkeypatch):
        # no eigenvalue in the window: the endpoint sweep visits the cells,
        # and the solver's and the weights' sweeps of no lanes visit none
        from circdirac.ensembles import SeedSpec, SinePathSpec, sample_sine_operator

        op = sample_sine_operator(SinePathSpec(beta=2.0), SeedSpec(7, 0))
        visits, advance = [], dirac._advance

        def counting(*args):
            visits.append(args[0].shape)
            return advance(*args)

        monkeypatch.setattr(dirac, "_advance", counting)
        for side in ("left", "right"):
            del visits[:]
            sm = dirac.spectral_measure(op, (1.0, 1.001), side)
            assert len(sm) == 0 and sm.lambdas.shape == sm.weights.shape == (0,)
            assert len(visits) == 1

    def test_overflowed_weights_are_a_conditioning_error(self):
        # at 5e3 G is finite but normsq, a product of its components,
        # overflows to nan on this operator
        op = random_operator(np.random.default_rng(4146), 4096)
        for side in ("left", "right"):
            with pytest.raises(ValueError,
                               match="conditioning: the spectral weights overflowed"):
                dirac.spectral_measure(op, (5000.0, 5010.0), side)

    def test_tiny_weight_against_40_digits(self):
        # sine-beta --beta 0.25 --q inf --seed 11 --stream 3 --cells 2048:
        # the right weight of the root near 12.848471 is about 7.44e-12,
        # and 2 / alpha' changes by tens of percent over 1e-12 in lambda
        # there.  The oracle runs the operator's stored steps in 40 digits
        # and takes Newton steps on zeta from the double root.
        mpmath = pytest.importorskip("mpmath")
        from circdirac.ensembles import SeedSpec, SinePathSpec, sample_sine_operator

        spec = SinePathSpec(beta=0.25, cells=2048, q=math.inf)
        op = sample_sine_operator(spec, SeedSpec(11, 3))
        sm = dirac.spectral_measure(op, (0.0, 30.0), "right")
        j = np.argmin(np.abs(sm.lambdas - 12.848471))
        b = op.batch
        with mpmath.workdps(40):
            mpf = mpmath.mpf
            steps = [(mpf(v), mpf(r), mpf(dt) / 2)
                     for v, r, dt in zip(b.w[0].real, b.w[0].imag, b.dt)]
            su, cu = mpmath.sin(mpf(b.u[0]) / 2), mpmath.cos(mpf(b.u[0]) / 2)

            def sweep(lam):
                (G0, G1), dG0, dG1 = (mpf(g) for g in b.start[:, 0]), mpf(0), mpf(0)
                for v, r, hdt in steps:
                    G0, G1, dG0, dG1 = G0 - v * G1, r * G1, dG0 - v * dG1, r * dG1
                    c, s = mpmath.cos(lam * hdt), mpmath.sin(lam * hdt)
                    t0, t1 = dG0 + hdt * G1, dG1 - hdt * G0
                    dG0, dG1 = c * t0 + s * t1, c * t1 - s * t0
                    G0, G1 = c * G0 + s * G1, c * G1 - s * G0
                return G0, G1, dG0, dG1

            lam = mpf(sm.lambdas[j])
            for _ in range(3):
                # zeta = Im((G0 - i G1) e^{-i u / 2})
                G0, G1, dG0, dG1 = sweep(lam)
                lam -= (G0 * su + G1 * cu) / (dG0 * su + dG1 * cu)
            G0, G1, dG0, dG1 = sweep(lam)
            x, y = (mpf(c) for c in b.last[:, 0])
            H0, H1 = G0 + x * G1 / y, G1 / y
            weight = float((H0 ** 2 + H1 ** 2) * y / (G1 * dG0 - G0 * dG1))
        assert abs(sm.lambdas[j] - float(lam)) < 1e-12
        assert 7.4e-12 < weight < 7.5e-12
        assert sm.weights[j] == pytest.approx(weight, rel=5e-3)

    def test_to_dict_shape(self):
        op = lattice_operator(3, 0.5)
        sm = dirac.spectral_measure(op, (-10.0, 10.0), "right")
        d = json.loads(json.dumps(sm.to_dict()))
        assert d == {"side": "right", "window": [-10.0, 10.0],
                     "atoms": [[float(l), float(w)] for l, w in zip(sm.lambdas, sm.weights)]}
        assert len(d["atoms"]) == len(sm) == 3


class TestSecular:
    """Identities of the secular function at real lambda, on the sweep."""

    def test_normalized_at_zero(self):
        rng = np.random.default_rng(9)
        op = random_operator(rng)
        assert secular(op, 0.0) == pytest.approx(1.0)

    def test_lattice_zero_at_theta(self):
        theta = 0.9
        op = lattice_operator(5, theta)
        assert abs(secular(op, theta)) < 1e-12

    def test_vanishes_on_eigenvalues(self):
        rng = np.random.default_rng(11)
        op = random_operator(rng)
        eigs = dirac.eigenvalues_in(op, (-6.0, 6.0))
        assert eigs.size > 0
        assert np.all(np.abs(secular(op, eigs)) < 1e-9)

    def test_infinity_slope_vanishes_at_zero(self):
        # u1 = [1, 0] is parallel to u0 and admits no normalization
        op = dirac.build_operator((np.array([0.0, 1.0]), np.array([1j])),
                                  q=math.inf)
        with pytest.raises(ValueError, match="no trace"):
            op.normalized_u1()
        assert secular(op, 0.0, op.u1) == 0.0


class TestTraceHS:
    @pytest.mark.parametrize("q", [0.0, 0.7, -2.3, 5.0])
    def test_constant_path_closed_form(self, q):
        op = dirac.build_operator((np.array([0.0, 1.0]), np.array([1j])),
                                  q=q)
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
                                  q=math.inf)
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
                                  q=0.7)
        scaled = dirac.DiracOperator(grid=op.grid, path=op.path, u0=op.u0,
                                     u1=3.0 * op.u1)
        np.testing.assert_allclose(dirac.trace_and_hsnorm(scaled),
                                   dirac.trace_and_hsnorm(op), atol=1e-15)
        assert secular(scaled, 0.0) == pytest.approx(1.0)


class TestTransforms:
    def test_identity_conjugation(self):
        rng = np.random.default_rng(13)
        op = random_operator(rng)
        out = dirac.conjugate_operator(op, np.eye(2))
        np.testing.assert_allclose(out.path, op.path)
        np.testing.assert_allclose(out.u1, op.u1)

    def test_determinant_checked(self):
        rng = np.random.default_rng(14)
        op = random_operator(rng)
        with pytest.raises(ValueError, match="det"):
            dirac.conjugate_operator(op, 2.0 * np.eye(2))

    def test_rotation_preserves_spectral_measures(self):
        rng = np.random.default_rng(15)
        op = dirac.measure_operator(random_measure(rng, 5))
        Q = rotation_about_i(0.8)
        out = dirac.conjugate_operator(op, Q)
        for side in ("left", "right"):
            a = dirac.spectral_measure(op, (-9.0, 9.0), side)
            b = dirac.spectral_measure(out, (-9.0, 9.0), side)
            np.testing.assert_allclose(a.lambdas, b.lambdas, atol=1e-8)
            np.testing.assert_allclose(a.weights, b.weights, atol=1e-8)

    def test_reversal_swaps_sides(self):
        rng = np.random.default_rng(16)
        op = dirac.measure_operator(random_measure(rng, 4))
        rev = dirac.reverse_operator(op)
        a = dirac.spectral_measure(op, (-9.0, 9.0), "left")
        b = dirac.spectral_measure(rev, (-9.0, 9.0), "right")
        np.testing.assert_allclose(a.lambdas, b.lambdas, atol=1e-8)
        np.testing.assert_allclose(a.weights, b.weights, atol=1e-8)

    def test_double_reversal_is_identity(self):
        rng = np.random.default_rng(17)
        op = random_operator(rng)
        back = dirac.reverse_operator(dirac.reverse_operator(op))
        np.testing.assert_allclose(back.grid, op.grid, atol=1e-15)
        np.testing.assert_array_equal(back.path, op.path)
        np.testing.assert_array_equal(back.u0, op.u0)
        np.testing.assert_array_equal(back.u1, op.u1)

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
                dirac.conjugate_operator(op, Q), (-9.0, 9.0))
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

        op_inf = dirac.build_operator((op.grid, op.path), q=math.inf)
        sm_inf = dirac.spectral_measure(op_inf, (-0.3, 0.3), "right")
        j = np.argmin(np.abs(sm_inf.lambdas))
        assert abs(sm_inf.lambdas[j]) < 1e-11
        w_inf = sm_inf.weights[j]

        m = 40_000
        q = np.tan(math.pi * (rng.random(m) - 0.5))
        # one operator under m boundary slopes, X_{m-1} [-q, -1] in its last frame
        target = np.stack([x[-1] - q, np.full(m, -y[-1])], axis=1)
        batch = dirac.OperatorBatch.from_steps(
            op.grid, np.tile(op.batch.w, (m, 1)),
            np.tile(op.batch.last.T, (m, 1)), target, start=op.batch.start[:, 0])
        _, _, alo, ahi, _, _ = batch._window((-9.0, 9.0))
        u, rows = batch.u, np.arange(m)
        r_neg = dirac._solve_targets(batch, u - TWO_PI, rows, -9.0, 9.0, alo, ahi)
        r_pos = dirac._solve_targets(batch, u, rows, -9.0, 9.0, alo, ahi)

        def right_weights(lams):
            G0, G1, dG0, dG1, _ = sweep(op.batch, lams, want_deriv=True)
            h = dirac._unframe(x[-1], y[-1], G0 - 1j * G1)
            return (h.real * h.real + h.imag * h.imag) * y[-1] / (G1 * dG0 - G0 * dG1)

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
        lam, left, right, wrow = batch.weights(window)
        rows = np.repeat(np.arange(len(ops)), lams.size)
        phases = batch.phase(np.tile(lams, len(ops)), rows).reshape(len(ops), -1)
        for i, op in enumerate(ops):
            w_i = (window[0][i], window[1][i]) if np.ndim(window[0]) else window
            assert counts[i] == dirac.eigenvalue_count(op, w_i)
            assert np.array_equal(eigs[row == i], dirac.eigenvalues_in(op, w_i))
            for side, w in (("left", left), ("right", right)):
                sm = dirac.spectral_measure(op, w_i, side)
                assert np.array_equal(lam[wrow == i], sm.lambdas)
                assert np.array_equal(w[wrow == i], sm.weights)
            assert np.array_equal(phases[i], dirac.phase_at(op, lams))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_measure_stack_rows_are_one_row_operators(self, n):
        rng = np.random.default_rng(70 + n)
        ops = [dirac.measure_operator(random_measure(rng, n)) for _ in range(4)]
        ops.append(dirac.conjugate_operator(ops[0], rotation_about_i(0.8)))
        batch = dirac.OperatorBatch.stack(ops)
        assert batch.rows == 5 and batch.w.shape == (5, n)
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

    def test_spectral_measure_picks_the_side(self):
        # one weights call gives both sides; spectral_measure alone picks
        # one, and SpectralMeasure refuses a side that is neither
        op = lattice_operator(3, 1.0)
        lams, left, right, row = op.batch.weights((-5.0, 5.0))
        assert np.array_equal(row, np.zeros(lams.size, dtype=int))
        for side, w in (("left", left), ("right", right)):
            sm = dirac.spectral_measure(op, (-5.0, 5.0), side)
            assert sm.side == side
            assert np.array_equal(sm.lambdas, lams)
            assert np.array_equal(sm.weights, w)
        with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
            dirac.spectral_measure(op, (-5.0, 5.0), "middle")


def assert_same_row(one, batch, i):
    """The one-row batch ``one`` equals row i of ``batch`` in every field's bits."""
    bits = lambda a: np.ascontiguousarray(a).view(np.uint8)
    assert np.array_equal(one.dt, batch.dt)
    assert one.w.dtype == batch.w.dtype and np.array_equal(bits(one.w[0]), bits(batch.w[i]))
    for f in ("start", "last", "u", "u0sq"):
        a, b = getattr(one, f), getattr(batch, f)
        assert a.dtype == b.dtype and np.array_equal(bits(a[..., 0]), bits(b[..., i])), f


class TestRowEquality:
    """An operator built alone equals its row of a batch, bit for bit."""

    @pytest.mark.parametrize("law", ["kn", "palm"])
    @pytest.mark.parametrize("n", [1, 2, 50, 400])
    def test_coefficient_operator_is_its_batch_row(self, n, law):
        from circdirac.ensembles import SeedSpec, kn_gammas, palm_gammas

        g = kn_gammas(SeedSpec(17, n).rng(), n, 2.0, 6)
        g = palm_gammas(g) if law == "palm" else g
        batch = dirac.coefficient_batch(g)
        assert batch.rows == 6 and batch.w.shape == (6, n)
        for i in range(len(g)):
            op = dirac.coefficient_operator(opuc.CoefficientSequence("modified", g[i]))
            assert_same_row(op.batch, batch, i)
        if law == "palm":
            assert np.all(batch.u == 0.0)

    @pytest.mark.parametrize("last", [0.5, 1.0 + 1e-9, np.nan], ids=["inside", "outside", "nan"])
    def test_coefficient_batch_refuses_a_last_coefficient_off_the_circle(self, last):
        g = np.array([[0.2j, 1.0], [0.1, last]])
        with pytest.raises(ValueError, match="last coefficient must have unit modulus"):
            dirac.coefficient_batch(g)

    def test_measure_operator_is_its_row_of_the_batched_conversion(self):
        # measure -> alpha -> gamma -> operator, one measure or six at once
        rng = np.random.default_rng(73)
        mus = [random_measure(rng, 7) for _ in range(6)]
        alphas = opuc._measures_to_alphas_batch(np.array([mu.angles for mu in mus]),
                                                np.array([mu.weights for mu in mus]))
        batch = dirac.coefficient_batch(opuc.gammas_from_alphas(alphas))
        for i, mu in enumerate(mus):
            assert_same_row(dirac.measure_operator(mu).batch, batch, i)

    def test_path_operator_is_its_batch_row(self):
        rng = np.random.default_rng(74)
        grid = np.linspace(0.0, 1.0, 8)
        paths = rng.uniform(-1.2, 1.2, (6, 7)) + 1j * rng.uniform(0.4, 2.2, (6, 7))
        u0, u1 = rng.standard_normal((2, 6, 2))
        u0[0] = (1.0, -0.0)   # X_0 u0 keeps the sign of the zero
        batch = dirac.OperatorBatch.from_paths(grid, paths, u0, u1)
        assert np.signbit(batch.start[1, 0])
        for i in range(len(paths)):
            assert_same_row(dirac.DiracOperator(grid, paths[i], u0=u0[i], u1=u1[i]).batch,
                            batch, i)
        # one pair of directions shared by every row
        shared = dirac.OperatorBatch.from_paths(grid, paths, u0[1], u1[1])
        for i in range(len(paths)):
            assert_same_row(dirac.DiracOperator(grid, paths[i], u0=u0[1], u1=u1[1]).batch,
                            shared, i)

    @pytest.mark.parametrize("paths", [np.full(3, 1j), np.full((2, 0), 1j),
                                       np.array([[1j, 1j, -1j]])],
                             ids=["one-row-1d", "no-cells", "lower-half-plane"])
    def test_from_paths_refuses_what_is_not_rows_of_cells(self, paths):
        with pytest.raises(ValueError, match="one value per cell"):
            dirac.OperatorBatch.from_paths(np.linspace(0.0, 1.0, 4), paths,
                                           (1.0, 0.0), (0.0, -1.0))


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

    @pytest.mark.parametrize("lam", [math.inf, -math.inf, math.nan])
    def test_non_finite_lambda_is_refused(self, lam):
        # refused before any sweep, so numpy warns of nothing
        op = random_operator(np.random.default_rng(4))
        for value in (lam, np.array([0.0, lam])):
            with pytest.raises(ValueError, match="^lambda must be finite$"):
                dirac.phase_at(op, value)

    @pytest.mark.parametrize("lambdas, weights", [
        ([1.0], [math.nan]), ([1.0], [math.inf]), ([math.nan], [1.0]),
        ([1.0, math.inf], [1.0, 1.0])])
    def test_non_finite_atoms_are_refused(self, lambdas, weights):
        with pytest.raises(ValueError, match="^spectral atoms must be finite$"):
            dirac.SpectralMeasure(lambdas=lambdas, weights=weights,
                                  window=(0.0, 10.0), side="right")

    def test_operator_takes_its_path_or_its_batch(self):
        op = random_operator(np.random.default_rng(75))
        for kw in ({"path": op.path, "batch": op.batch}, {}):
            with pytest.raises(ValueError, match="its path or its one-row batch"):
                dirac.DiracOperator(op.grid, u0=op.u0, u1=op.u1, **kw)

    @pytest.mark.parametrize("field, value, message", [
        ("target_offset", math.nan, "^target_offset must lie in"),
        ("target_offset", TWO_PI, "^target_offset must lie in"),
        ("u1", [math.nan, -1.0], "^u1 must be finite$"),
        ("start", [math.inf, 0.0], "^start must be finite$"),
        ("last", [0.0, -1.0], "^last cells must have y > 0$")])
    def test_steps_form_refuses_bad_fields(self, field, value, message):
        from circdirac.ensembles import SeedSpec, sample_kn

        d = dirac.coefficient_operator(sample_kn(20, 2.0, SeedSpec(5, 0))).to_dict()
        d[field] = value
        with pytest.raises(ValueError, match=message):
            dirac.DiracOperator.from_dict(d)
