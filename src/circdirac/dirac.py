"""Piecewise-constant Dirac (canonical system) operators.

The operator is tau u = R^{-1} J u' on an interval inside [0, 1], with

    R = X^t X / (2 det X),   X = [[1, -x], [0, y]],   J = [[0, -1], [1, 0]],

driven by a piecewise-constant path z(t) = x(t) + i y(t) in the upper half
plane, and boundary directions u0 at the left endpoint and u1 at the right.
Eigenvalues are the zeros of the entire function zeta(z) = H(T, z)^t J u1,
where H solves J H' = z R H with H(t0) = u0.

Everything reduces to exact 2x2 cell algebra, carried in the moving frame
G = X_k H of the current cell.  On a cell of length dt, H advances by the
conjugated rotation X^{-1} Rot(lam dt / 2) X, so G advances by the plain
rotation

    G -> Rot(lam dt / 2) G,     Rot(p) = [[cos p, sin p], [-sin p, cos p]],

and between cells k and k+1 the frame changes by the triangular step
X_{k+1} X_k^{-1} = [[1, -v_k], [0, r_k]], v_k = (x_{k+1} - x_k) / y_k,
r_k = y_{k+1} / y_k.  No ODE stepper is involved, no matrix entry grows
like (x^2 + y^2) / y, and the lambda-derivative of G propagates alongside
by the product rule.  The phase 2 arg(G0 - i G1) is strictly increasing in
lambda; a rotation adds exactly lam dt / 2 to arg(G0 - i G1), and a frame
step, which keeps the sign of G1 because r_k > 0, adds the principal angle
of the change, so the winding is exact.  The sum of those angles only
counts whole turns: the winding returned is the principal arg of the last
G plus 2 pi times the turns, so its rounding does not grow with the number
of cells.  Counts and roots are taken in the last cell's frame, against
the phase of X_{m-1} u1; H = X_{m-1}^{-1} G is formed only where a
fixed-frame value is returned.

A sweep of few lanes would pay the interpreter once per cell for a few
lanes of arithmetic.  Below _CHUNK_LANES lanes the m cells therefore run
as about sqrt(m) contiguous chunks side by side, a blocked scan with a
sequential carry (Blelloch, CMU-CS-90-190): one pass builds every chunk's
2x2 transfer matrix and its lambda-derivative from the identity, a carry
over the chunks applies them to G and dG in order, and the lifted args of
the transfer matrices' columns fix each chunk's whole turns.  That is
about twice the arithmetic in about 2 sqrt(m) interpreter steps instead
of m.  Below _CHUNK_LANES lanes the number of chunks depends on m alone, so
there a lane's result does not depend on the size of its batch.

Eigenvalues are recovered by inverting the monotone phase at the targets
2 pi k + u, u determined by the direction of X_{m-1} u1.  The search is safeguarded
Newton on all targets at once: a Newton step from the analytic phase
derivative when it stays strictly inside the root's bracket, bisection
otherwise, down to 1e-12 in lambda.  Each root leaves the batch as soon
as it converges, so later sweeps carry only the roots still unresolved,
and a root left unresolved at the iteration cap raises a conditioning
error instead of returning an unconverged value.  So does a phase that
overflowed to inf/nan, where G outgrows double range at large lambda.

Grids normally span [0, 1]; truncated continuum paths may start at
t0 > 0, and time reversal of such an operator ends before 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .hyperbolic import INF, is_inf
from .opuc import (HyperbolicPath, UnitCircleMeasure, convert_coefficients,
                   gamma_to_path, measure_to_alpha)

__all__ = [
    "DiracOperator",
    "SpectralMeasure",
    "EigenData",
    "build_operator",
    "measure_operator",
    "eval_H",
    "phase_at",
    "eigenvalues_in",
    "eigenvalue_count",
    "spectral_measure",
    "secular_at",
    "trace_and_hsnorm",
    "transform_operator",
]

TWO_PI = 2.0 * math.pi

#: Refuse windows holding more than this many eigenvalues.
WINDOW_BUDGET = 1_000_000

#: Bracket width (and Newton correction) at which the eigenvalue search stops.
LAMBDA_TOL = 1e-12

#: Sweeps the eigenvalue search may take before it raises a conditioning error.
MAX_SOLVER_ITERATIONS = 120

#: Lanes from which a sweep runs as one chunk (see :func:`_sweep`).
_CHUNK_LANES = 256


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True, eq=False)
class DiracOperator:
    """Immutable piecewise-constant operator.

    ``grid`` has m+1 strictly increasing points in [0, 1]; ``path`` holds
    the m per-cell values z_k = x_k + i y_k with y_k > 0.  ``u0``/``u1``
    are direction classes; u1 parallel to [1, 0] encodes the infinity
    boundary slope (q = inf).
    """

    grid: np.ndarray
    path: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    origin: str = "custom"

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        path = np.asarray(self.path, dtype=complex)
        u0 = np.asarray(self.u0, dtype=float)
        u1 = np.asarray(self.u1, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two time points")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 0.0 or grid[-1] > 1.0 + 1e-12:
            raise ValueError("grid must lie inside [0, 1]")
        if path.shape != (grid.size - 1,):
            raise ValueError("path must hold one value per grid cell")
        if np.any(path.imag <= 0.0):
            raise ValueError("path imaginary parts y_k must be positive")
        for u in (u0, u1):
            if u.shape != (2,) or not np.any(u != 0.0):
                raise ValueError("boundary vectors must be nonzero real 2-vectors")
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "u1", u1)

    @property
    def cells(self) -> int:
        return self.path.size

    def boundary_pairing(self) -> float:
        """u0^t J u1; zero exactly when the boundary directions are parallel."""
        return float(self.u0[1] * self.u1[0] - self.u0[0] * self.u1[1])

    def normalized_u1(self) -> np.ndarray:
        """u1 rescaled so u0^t J u1 = 1 (the standing normalization)."""
        s = self.boundary_pairing()
        if abs(s) < 1e-14 * np.linalg.norm(self.u0) * np.linalg.norm(self.u1):
            raise ValueError("no trace for equal boundary directions")
        return self.u1 / s

    def to_dict(self) -> dict:
        u1 = self.u1
        if u1[1] == 0.0:
            u1_json = "infinity"
        else:
            u1_json = [float(u1[0]), float(u1[1])]
        return {
            "grid": [float(t) for t in self.grid],
            "path": [[float(z.real), float(z.imag)] for z in self.path],
            "u0": [float(self.u0[0]), float(self.u0[1])],
            "u1": u1_json,
            "origin": self.origin,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DiracOperator":
        u1 = d["u1"]
        u1 = np.array([1.0, 0.0]) if u1 == "infinity" else np.asarray(u1, dtype=float)
        path = np.array([complex(x, y) for x, y in d["path"]])
        return cls(grid=np.asarray(d["grid"], dtype=float), path=path,
                   u0=np.asarray(d["u0"], dtype=float), u1=u1,
                   origin=d.get("origin", "custom"))


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Atoms (lambda, weight) of one side's spectral measure in a window."""

    lambdas: np.ndarray
    weights: np.ndarray
    window: tuple
    side: str

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if lam.shape != w.shape:
            raise ValueError("mismatched atom arrays")
        if np.any(np.diff(lam) <= 0.0):
            raise ValueError("atoms must be sorted by lambda")
        if np.any(w <= 0.0):
            raise ValueError("spectral weights must be positive")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "window", (float(self.window[0]), float(self.window[1])))

    def __len__(self) -> int:
        return self.lambdas.size

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "window": [self.window[0], self.window[1]],
            "atoms": [[float(l), float(w)] for l, w in zip(self.lambdas, self.weights)],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SpectralMeasure":
        atoms = np.asarray(d["atoms"], dtype=float).reshape(-1, 2)
        return cls(lambdas=atoms[:, 0], weights=atoms[:, 1],
                   window=tuple(d["window"]), side=d["side"])


@dataclass(frozen=True)
class EigenData:
    """H(T, lambda), its lambda-derivative, and the R-weighted squared norm."""

    H1: np.ndarray
    dH1: np.ndarray
    normsq: float


# ---------------------------------------------------------------------------
# construction


def build_operator(path, u1_spec=None, origin=None) -> DiracOperator:
    """Operator from a measure path or from sampled cells.

    ``path`` is either a :class:`HyperbolicPath` (uniform grid with one cell
    per coefficient; u1 derived from the final path point z_n unless
    overridden) or a pair ``(grid, cell_values)``.  ``u1_spec`` is a finite
    real q, giving u1 = [-q, -1], or INF, giving u1 = [1, 0].
    """
    if isinstance(path, HyperbolicPath):
        n = len(path)
        grid = np.linspace(0.0, 1.0, n + 1)
        cells = path.halfplane_points[:-1]
        if u1_spec is None:
            zn = path.final_halfplane
            u1_spec = INF if is_inf(zn) else zn.real
        origin = origin or "discrete-measure"
    else:
        grid, cells = path
        grid = np.asarray(grid, dtype=float)
        cells = np.asarray(cells, dtype=complex)
        if u1_spec is None:
            raise ValueError("u1_spec is required for sampled paths")
        origin = origin or "custom"
    if is_inf(u1_spec):
        u1 = np.array([1.0, 0.0])
    else:
        u1 = np.array([-float(u1_spec), -1.0])
    return DiracOperator(grid=grid, path=cells, u0=np.array([1.0, 0.0]),
                         u1=u1, origin=origin)


def measure_operator(mu: UnitCircleMeasure) -> DiracOperator:
    """Operator of a normalized measure: measure -> alpha -> gamma -> path."""
    gammas = convert_coefficients(measure_to_alpha(mu), "modified")
    return build_operator(gamma_to_path(gammas))


# ---------------------------------------------------------------------------
# the cell sweep

def _chunk_count(lanes: int, m: int) -> int:
    """Chunks P of a sweep of ``lanes`` lanes over m cells (1: the plain loop).

    sqrt(m) chunks balance the m / P steps over a chunk's cells against the
    P steps of the carry; below 16 cells the chunks' setup costs more than
    the steps they save.
    """
    P = math.isqrt(m)
    return 1 if lanes >= _CHUNK_LANES or P < 4 else P


def _sweep(x, y, dt, lam, u0, row=None, upto=None,
           want_deriv=False, want_phase=False):
    """Advance G = X_k H (and optionally dG and the phase winding) across cells.

    ``x``/``y`` have shape (m,) or (nops, m); ``dt`` shape (m,); ``lam`` is
    scalar or (B,); ``u0`` is one 2-vector.  ``row`` maps each batch entry
    to an operator row when x is 2-d and B != nops.  G starts at X_0 u0;
    cell k rotates it by Rot(lam dt_k / 2), and the step into cell k+1
    applies [[1, -v_k], [0, r_k]] with v_k = (x_{k+1} - x_k) / y_k and
    r_k = y_{k+1} / y_k.  Returns (G0, G1, dG0, dG1, winding) in the frame
    of the last cell swept (``upto`` - 1, or m - 1); the winding is
    arg(G0 - i G1), continuous from its principal value at X_0 u0, valid
    for real lam only.  It is returned as the principal arg of the last G
    plus whole turns, so its rounding does not grow with m.

    Few lanes would pay the interpreter once per cell for little
    arithmetic, so they sweep the cells in P = :func:`_chunk_count`
    contiguous chunks side by side: one pass over the cells of a chunk
    builds every chunk's 2x2 transfer matrix T (and dT) from the identity,
    a P-step carry applies them to G (and dG) in order, and the lifted
    args of T's columns give each chunk's whole turns
    (:func:`_chunk_turns`).  From _CHUNK_LANES lanes on, the plain loop
    (P = 1) runs: there the chunks' doubled arithmetic costs nearly what
    the saved interpreter steps gain, and their (2, P, lanes) arrays grow
    with the batch.
    """
    lam = np.asarray(lam)
    dtype = complex if np.iscomplexobj(lam) else float
    m = np.shape(x)[-1] if upto is None else upto
    P = _chunk_count(lam.size, m)
    if np.ndim(x) == 2:
        if row is None:
            row = slice(None) if P == 1 else np.arange(np.shape(x)[0])
        col = lambda a, k: a[row, k]
    else:
        col = lambda a, k: a[k]
    G0 = np.broadcast_to(u0[0] - col(x, 0) * u0[1], lam.shape).astype(dtype)
    G1 = np.broadcast_to(col(y, 0) * u0[1], lam.shape).astype(dtype)
    dG0 = np.zeros(lam.shape, dtype=dtype) if want_deriv else None
    dG1 = np.zeros(lam.shape, dtype=dtype) if want_deriv else None
    if P == 1:
        wind = np.arctan2(-G1, G0) if want_phase else None
        steps = _cell_steps(x, y, col, range(m), dt[:m])
        G0, G1, dG0, dG1, wind = _advance(G0, G1, dG0, dG1, wind, lam, steps)
        if want_phase:
            turns = np.round((wind - np.arctan2(-G1, G0)) / TWO_PI)
    else:
        # chunk c holds cells c L .. c L + L - 1; the cells past m - 1
        # that pad the last chunk are identities (v = 0, r = 1, dt = 0), and
        # so is the frame step into cell 0
        L = -(-m // P)
        P = -(-m // L)
        cell = np.arange(P * L).reshape(P, L)
        k = np.minimum(cell, m - 1)
        steps = _cell_steps(x, y, col, k.T[:, :, None],
                            np.where(cell < m, dt[k], 0.0).T[:, :, None],
                            first=np.clip(cell[:, :1] - 1, 0, m - 1))
        # T's columns start at [1, 0] and [0, 1], of principal args 0, -pi / 2
        shape = (2, P, lam.size)
        T0, T1 = np.zeros((2,) + shape, dtype=dtype)
        T0[0] = T1[1] = 1.0
        dT0, dT1 = np.zeros((2,) + shape, dtype=dtype) if want_deriv else (None, None)
        W = np.zeros(shape) + [[[0.0]], [[-0.5 * math.pi]]] if want_phase else None
        T0, T1, dT0, dT1, W = _advance(T0, T1, dT0, dT1, W, lam.reshape(-1), steps)
        G = [(G0.reshape(-1), G1.reshape(-1))]
        dG = (dG0.reshape(-1), dG1.reshape(-1)) if want_deriv else None
        for c in range(P):
            (a, b), (e, f) = T0[:, c], T1[:, c]
            g0, g1 = G[-1]
            if want_deriv:
                dG = (a * dG[0] + b * dG[1] + dT0[0, c] * g0 + dT0[1, c] * g1,
                      e * dG[0] + f * dG[1] + dT1[0, c] * g0 + dT1[1, c] * g1)
            G.append((a * g0 + b * g1, e * g0 + f * g1))
        G0, G1 = (g.reshape(lam.shape) for g in G[-1])
        if want_deriv:
            dG0, dG1 = (g.reshape(lam.shape) for g in dG)
        if want_phase:
            turns = _chunk_turns(np.array(G), W).reshape(lam.shape)
    wind = np.arctan2(-G1, G0) + TWO_PI * turns if want_phase else None
    return G0, G1, dG0, dG1, wind


def _cell_steps(x, y, col, cells, dts, first=None):
    """(v, r, dt) per swept cell, the frame step into the first cell taken
    from cell ``first``, or skipped (v = r = None) when ``first`` is None."""
    xk = yk = None
    if first is not None:
        xk, yk = col(x, first), col(y, first)
    for k, d in zip(cells, dts):
        xp, yp = xk, yk
        xk, yk = col(x, k), col(y, k)
        yield (None, None, d) if xp is None else ((xk - xp) / yp, yk / yp, d)


def _advance(G0, G1, dG0, dG1, wind, lam, steps):
    """Carry G, and dG and the winding unless None, through ``steps``.

    Each step is the frame step [[1, -v], [0, r]] and then Rot(lam dt / 2).
    """
    for v, r, dt in steps:
        if v is not None:
            A, B = G0 - v * G1, r * G1
            if wind is not None:
                # r > 0 keeps the sign of G1, so the principal angle is exact
                wind += np.arctan2(G1 * ((1.0 - r) * G0 - v * G1), A * G0 + B * G1)
            G0, G1 = A, B
            if dG0 is not None:
                dG0, dG1 = dG0 - v * dG1, r * dG1
        phi = 0.5 * lam * dt
        c, s = np.cos(phi), np.sin(phi)
        if wind is not None:
            wind += phi
        if dG0 is not None:
            half = 0.5 * dt
            t0, t1 = dG0 + half * G1, dG1 - half * G0
            dG0, dG1 = c * t0 + s * t1, c * t1 - s * t0
        G0, G1 = c * G0 + s * G1, c * G1 - s * G0
    return G0, G1, dG0, dG1, wind


def _chunk_turns(G, W):
    """Whole turns of G's arg across the chunks, from the columns' lifted args.

    ``G`` (P + 1, 2, lanes) holds G at each chunk start and at the end;
    ``W`` (2, P, lanes) the lifted arg of T [1, 0] and T [0, 1] per chunk,
    started at 0 and -pi / 2.  A chunk's map on args is increasing and
    moves arg + pi to its image + pi, so its lift Phi is known at every
    quarter turn j pi / 2.  From the quarter j just below a start's
    principal arg theta (theta - j pi / 2 in [pi / 4, 3 pi / 4]), the
    lifted image Phi(theta) lies in (Phi(j pi / 2), Phi(j pi / 2) + pi):
    that fixes the whole turns between it and the next start's principal
    arg with a margin of pi / 2 for rounding in W.  Summed over the
    chunks, they are the turns from the first start to the end.
    """
    theta = np.arctan2(-G[:, 1], G[:, 0])
    j = np.round(theta[:-1] / (0.5 * math.pi)) - 1.0
    odd = np.mod(j, 2.0)
    below = np.where(odd == 1.0, W[1], W[0]) + 0.5 * math.pi * (j + odd)
    turns = np.round((below + 0.5 * math.pi - theta[1:]) / TWO_PI)
    return turns.sum(axis=0)


def _require_finite(what: str, values) -> None:
    """Raise a conditioning error unless every entry of ``values`` is finite.

    Checked once on a sweep's results: G grows with lambda on a rough path
    and overflows to inf/nan, which would otherwise reach the caller as a
    nan phase or a garbled count.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError(
            f"conditioning: {what} overflowed to inf/nan; the sweep's solution "
            "grows past double range at this lambda"
        )


def _cells(op: DiracOperator):
    return op.path.real, op.path.imag, np.diff(op.grid)


def _unframe(x, y, G0, G1):
    """H = X^{-1} G for the cell value x + i y: the fixed-frame solution."""
    H1 = G1 / y
    return G0 + x * H1, H1


# ---------------------------------------------------------------------------
# solution data, phase, eigenvalues


def eval_H(op: DiracOperator, lam: float, upto: int | None = None) -> EigenData:
    """Solve for H and its lambda-derivative up to grid index ``upto``.

    The squared R-norm of H over the traversed cells equals
    H^t J dH there, which is returned as ``normsq``.
    """
    last = (op.cells if upto is None else upto) - 1
    if not 0 <= last < op.cells:
        raise ValueError("upto must lie in 1..cells")
    x, y, dt = _cells(op)
    G0, G1, dG0, dG1, _ = _sweep(x, y, dt, float(lam), op.u0, upto=upto,
                                 want_deriv=True)
    H = _unframe(x[last], y[last], G0, G1)
    dH = _unframe(x[last], y[last], dG0, dG1)
    return EigenData(H1=np.array(H, dtype=float), dH1=np.array(dH, dtype=float),
                     normsq=float((G1 * dG0 - G0 * dG1) / y[last]))


def phase_at(op: DiracOperator, lam) -> float | np.ndarray:
    """Phase alpha(T, lambda) = 2 Im log(A - iB), continuous from lambda = 0.

    Strictly increasing in lambda; for u0 = [1, 0] the branch satisfies
    alpha(T, 0) = 0.  ``lam`` may be an array.
    """
    x, y, dt = _cells(op)
    G0, G1, _, _, wind = _sweep(x, y, dt, np.asarray(lam, dtype=float), op.u0,
                                want_phase=True)
    H0, H1 = _unframe(x[-1], y[-1], G0, G1)
    # X^{-1} keeps the sign of the second component: the principal angle
    # from G0 - i G1 to A - iB is the exact change of winding
    out = 2.0 * (wind + np.arctan2(H0 * G1 - H1 * G0, H0 * G0 + H1 * G1))
    _require_finite("the phase", out)
    return float(out) if np.ndim(lam) == 0 else out


def _phase_and_deriv(x, y, dt, lam, u0, row=None):
    """Last-frame phase 2 arg(G0 - i G1) and its lambda-derivative."""
    G0, G1, dG0, dG1, wind = _sweep(x, y, dt, lam, u0, row=row,
                                    want_deriv=True, want_phase=True)
    return 2.0 * wind, 2.0 * (G1 * dG0 - G0 * dG1) / (G0 * G0 + G1 * G1)


def _solve_targets(x, y, dt, u0, targets, lo, hi, alo, ahi, row=None):
    """Invert the monotone phase at each target; returns lambdas.

    Safeguarded Newton (``rtsafe``, Numerical Recipes 9.4): every lane
    keeps a bracket [a, b] around its root, shrunk at each evaluation by
    the sign of alpha - target.  The next point is the Newton step from
    the analytic phase derivative when that lands strictly inside the
    bracket and is at most half the step before last; otherwise it is the
    bracket midpoint.  The second condition breaks Newton cycles between
    the flat stretches either side of a steep phase rise, which land
    inside the bracket yet shrink it by a little each time.  A lane
    retires once |alpha - target| <= alpha' * LAMBDA_TOL (its Newton
    correction is below LAMBDA_TOL) or its bracket is narrower than
    LAMBDA_TOL, returning the midpoint in the latter case; later sweeps
    advance only the lanes still active.  For a 2-d ``x`` the active lanes
    reach their operator rows through ``row``.  A lane still active after
    MAX_SOLVER_ITERATIONS sweeps raises a conditioning error.
    """
    t = np.asarray(targets, dtype=float)
    a = np.broadcast_to(np.asarray(lo, dtype=float), t.shape).copy()
    b = np.broadcast_to(np.asarray(hi, dtype=float), t.shape).copy()
    span = np.maximum(ahi - alo, 1e-300)
    lam = np.clip(a + (b - a) * (t - alo) / span, a, b)
    if np.ndim(x) == 2 and row is None:
        row = np.arange(t.size)
    out = np.empty(t.shape)
    live = np.arange(t.size)
    dx = dxold = b - a  # last step and the step before it
    for _ in range(MAX_SOLVER_ITERATIONS):
        alpha, deriv = _phase_and_deriv(x, y, dt, lam, u0,
                                        row=None if row is None else row[live])
        # a derivative lost to overflow in G0^2 + G1^2 only forces bisection
        _require_finite("the phase", alpha)
        f = alpha - t[live]
        neg = f < 0.0
        a = np.where(neg, lam, a)
        b = np.where(neg, b, lam)
        at_root = np.abs(f) <= deriv * LAMBDA_TOL
        done = at_root | ((b - a) < LAMBDA_TOL)
        out[live[done]] = np.where(at_root, lam, 0.5 * (a + b))[done]
        if done.all():
            return out
        keep = ~done
        live, lam, a, b, f, deriv, dx, dxold = (
            v[keep] for v in (live, lam, a, b, f, deriv, dx, dxold))
        step = np.where(deriv > 0.0, f / np.where(deriv > 0.0, deriv, 1.0), np.inf)
        nxt = lam - step
        newton = (nxt > a) & (nxt < b) & (np.abs(step) <= 0.5 * dxold)
        dx, dxold = np.where(newton, np.abs(step), 0.5 * (b - a)), dx
        lam = np.where(newton, nxt, 0.5 * (a + b))
    raise ValueError(
        f"conditioning: eigenvalue search left {live.size} of {t.size} roots "
        f"unresolved after {MAX_SOLVER_ITERATIONS} iterations (widest bracket "
        f"{float(np.max(b - a)):.3g}); the phase is too flat or too steep "
        "for double precision"
    )


def _window_targets(x, y, dt, u0, u1, lo: float, hi: float):
    """Endpoint phases and eigenvalue targets of the window [lo, hi), per row.

    ``x``/``y`` hold one operator (m,) or a stack (rows, m), swept at both
    ends in one call; ``u1`` is one 2-vector or a stack (..., 2) that
    broadcasts against the rows.  Phases are those of :func:`_phase_and_deriv`, in
    the last cell's frame, where the eigenvalues solve alpha = 2 pi k + u
    with u in [0, 2 pi) the phase of X_{m-1} u1.  Returns
    (alo, ahi, u, kmin, kend), the targets of the window being the k in
    [kmin, kend) (as floats); the 1e-13 guard counts a target that the
    endpoint phase reaches up to rounding as reached.
    """
    if not lo < hi:
        raise ValueError("window must satisfy a < b")
    rows = np.shape(x)[:-1]
    n = rows[0] if rows else 1
    row = np.tile(np.arange(n), 2) if rows else None
    wind = _sweep(x, y, dt, np.repeat([lo, hi], n), u0, row=row, want_phase=True)[4]
    _require_finite("the endpoint phase", wind)
    alo, ahi = 2.0 * wind.reshape((2,) + rows)
    u1 = np.asarray(u1, dtype=float)
    w0 = u1[..., 0] - x[..., -1] * u1[..., 1]
    w1 = y[..., -1] * u1[..., 1]
    u = np.mod(-2.0 * np.arctan2(w1, w0), TWO_PI)
    kmin = np.ceil((alo - u) / TWO_PI - 1e-13)
    kend = np.ceil((ahi - u) / TWO_PI - 1e-13)
    return alo, ahi, u, kmin, kend


def eigenvalues_in(op: DiracOperator, window) -> np.ndarray:
    """Sorted eigenvalues in the half-open window [a, b).

    The phase increases strictly, so the spectrum in the window is exactly
    the preimage of {2 pi k + u} between the endpoint phases; each root is
    found once by safeguarded Newton to 1e-12 in lambda.
    """
    lo, hi = float(window[0]), float(window[1])
    alo, ahi, u, kmin, kend = _window_targets(*_cells(op), op.u0, op.u1, lo, hi)
    if (ahi - alo) / TWO_PI > WINDOW_BUDGET:
        raise ValueError("window budget: more than 1e6 eigenvalues requested")
    if kend <= kmin:
        return np.empty(0)
    targets = u + TWO_PI * np.arange(int(kmin), int(kend))
    lams = _solve_targets(*_cells(op), op.u0, targets, lo, hi, alo, ahi)
    return np.sort(lams)


def eigenvalue_count(op: DiracOperator, window) -> int:
    """Number of eigenvalues in [a, b), from the endpoint phases alone."""
    *_, kmin, kend = _window_targets(*_cells(op), op.u0, op.u1,
                                     float(window[0]), float(window[1]))
    return max(0, int(kend - kmin))


def spectral_measure(op: DiracOperator, window, side: str) -> SpectralMeasure:
    """Left or right spectral measure restricted to the window.

    The weight at an eigenvalue is |H(endpoint)|^2 / ||H||_R^2 with the
    norm taken from H^t J dH; on the right this equals
    (A^2 + B^2)/(A'B - AB') = 2 / d(alpha)/d(lambda).
    """
    lams = eigenvalues_in(op, window)
    if lams.size == 0:
        return SpectralMeasure(lambdas=lams, weights=lams.copy(),
                               window=window, side=side)
    x, y, dt = _cells(op)
    G0, G1, dG0, dG1, _ = _sweep(x, y, dt, lams, op.u0, want_deriv=True)
    normsq = (G1 * dG0 - G0 * dG1) / y[-1]
    if np.any(normsq <= 0.0):
        raise ValueError(
            "conditioning: eigenfunction norm lost positivity; the path's "
            "Im z is too small for double precision"
        )
    if side == "right":
        H0, H1 = _unframe(x[-1], y[-1], G0, G1)
        w = (H0 * H0 + H1 * H1) / normsq
    elif side == "left":
        w = float(np.dot(op.u0, op.u0)) / normsq
    else:
        raise ValueError("side must be 'left' or 'right'")
    return SpectralMeasure(lambdas=lams, weights=w, window=window, side=side)


def secular_at(op: DiracOperator, z) -> complex:
    """Secular function zeta(z) = H(T, z)^t J u1; entire, real on the reals.

    When u0 and u1 are not parallel, u1 carries the normalization
    u0^t J u1 = 1, so zeta(0) = 1.  For u1 parallel to [1, 0] (infinity
    slope) no normalization exists and zeta(0) = 0: zero is an eigenvalue.
    """
    s = op.boundary_pairing()
    u1 = op.u1 if abs(s) < 1e-14 else op.u1 / s
    x, y, dt = _cells(op)
    G0, G1, _, _, _ = _sweep(x, y, dt, complex(z), op.u0)
    H0, H1 = _unframe(x[-1], y[-1], G0, G1)
    return complex(H1 * u1[0] - H0 * u1[1])


def trace_and_hsnorm(op: DiracOperator):
    """Integral trace and squared Hilbert-Schmidt norm of the inverse.

    trace = int u0^t R u1 dt and HS^2 = 2 iint_{s<t} u0^t R(s) u0 u1^t R(t) u1,
    with u1 normalized to u0^t J u1 = 1.  Piecewise-constant R reduces both
    to exact prefix sums over cells.
    """
    u1 = op.normalized_u1()
    u0 = op.u0
    x, y, dt = _cells(op)

    def quad(a, b):
        # a^t R b with R = [[1, -x], [-x, x^2 + y^2]] / (2y), vectorized in cells
        return (a[0] * b[0] - x * (a[0] * b[1] + a[1] * b[0])
                + (x * x + y * y) * a[1] * b[1]) / (2.0 * y)

    f = quad(u0, u0)
    g = quad(u1, u1)
    h = quad(u0, u1)
    trace = float(np.sum(h * dt))
    fdt = f * dt
    prefix = np.concatenate([[0.0], np.cumsum(fdt)[:-1]])
    hs = float(2.0 * np.sum(g * dt * prefix) + np.sum(f * g * dt * dt))
    return trace, hs


# ---------------------------------------------------------------------------
# transforms


def transform_operator(op: DiracOperator, kind: str, Q: np.ndarray | None = None
                       ) -> DiracOperator:
    """Conjugation by a real det-1 matrix, or time reversal.

    ``conjugate``: the path moves by the fractional linear action of Q and
    both boundary vectors by Q itself; for Q = T_r (a hyperbolic rotation
    about i) both spectral measures are unchanged.  ``reverse``: the grid
    reflects through t -> 1 - t, each cell value z maps to -conj(z), and
    the boundary vectors swap with a sign; the left and right spectral
    measures trade places.
    """
    if kind == "conjugate":
        Q = np.asarray(Q, dtype=float)
        if Q.shape != (2, 2) or abs(np.linalg.det(Q) - 1.0) > 1e-12:
            raise ValueError("conjugation requires a real 2x2 matrix with det 1")
        a, b, c, d = Q[0, 0], Q[0, 1], Q[1, 0], Q[1, 1]
        z = op.path
        new_path = (a * z + b) / (c * z + d)
        return DiracOperator(grid=op.grid.copy(), path=new_path,
                             u0=Q @ op.u0, u1=Q @ op.u1, origin=op.origin)
    if kind == "reverse":
        # tau~ = rho^-1 S tau S rho: R~(t) = S R(1-t) S, eigenfunctions
        # f~(t) = S f(1-t), so the boundary directions swap through S.
        new_grid = (1.0 - op.grid)[::-1]
        new_path = -np.conj(op.path[::-1])
        S = np.array([1.0, -1.0])
        return DiracOperator(grid=new_grid, path=new_path,
                             u0=S * op.u1, u1=S * op.u0, origin=op.origin)
    raise ValueError(f"unknown transform kind {kind!r}")
