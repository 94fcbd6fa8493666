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

and between cells k-1 and k the frame changes by the triangular step
X_k X_{k-1}^{-1} = [[1, -v_k], [0, r_k]], v_k = (x_k - x_{k-1}) / y_{k-1},
r_k = y_k / y_{k-1}.  No ODE stepper is involved, no matrix entry grows
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

The one batched core is :class:`OperatorBatch`: operators on one shared
grid, validated once and stored as what the sweep reads, the frame steps
(v_k, r_k) and the cell lengths, cell-major, with per-row start X_0 u0,
last cell and target offset.  Its methods count, solve for, weigh and
phase every row at once; :class:`DiracOperator` is a one-row view, and
the module functions on it (``eigenvalues_in``, ``eigenvalue_count``,
``spectral_measure``, ``phase_at``) call the batch.

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
from dataclasses import dataclass, field

import numpy as np

from .hyperbolic import INF, is_inf
from .opuc import (CoefficientSequence, UnitCircleMeasure, convert_coefficients,
                   measure_to_alpha)

__all__ = [
    "DiracOperator",
    "OperatorBatch",
    "SpectralMeasure",
    "EigenData",
    "build_operator",
    "coefficient_operator",
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
    boundary slope (q = inf).  Validated, and swept, through ``batch``:
    the operator as a one-row :class:`OperatorBatch`.  The fields are
    read-only copies, so they cannot drift from the steps ``batch`` holds.
    """

    grid: np.ndarray
    path: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    origin: str = "custom"
    batch: "OperatorBatch" = field(init=False, repr=False)

    def __post_init__(self):
        for name, dtype in (("grid", float), ("path", complex), ("u0", float), ("u1", float)):
            value = np.array(getattr(self, name), dtype=dtype)
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "batch", OperatorBatch.stack([self]))

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
        u1 = [1.0, 0.0] if d["u1"] == "infinity" else d["u1"]
        path = [complex(x, y) for x, y in d["path"]]
        return cls(grid=d["grid"], path=path, u0=d["u0"], u1=u1,
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


def build_operator(path, u1_spec, origin="custom") -> DiracOperator:
    """Operator on the cells ``path = (grid, cell_values)``, with u0 = [1, 0].

    ``u1_spec`` is the boundary slope: a finite real q, giving
    u1 = [-q, -1], or INF, giving u1 = [1, 0].
    """
    grid, cells = path
    if is_inf(u1_spec):
        u1 = np.array([1.0, 0.0])
    else:
        u1 = np.array([-float(u1_spec), -1.0])
    return DiracOperator(grid=grid, path=cells, u0=np.array([1.0, 0.0]),
                         u1=u1, origin=origin)


def coefficient_operator(gammas: CoefficientSequence) -> DiracOperator:
    """Operator of the measure with modified coefficients ``gammas``.

    The operator lies on the path of the measure in the half plane: n + 1
    points z_0 = i, ..., z_n, the last on the boundary.  In the disk the
    path is b_0 = 0, b_{k+1} = A^{-1}_{gamma_0} o ... o A^{-1}_{gamma_k}(0),
    with A_gamma the affine isometry fixing the boundary point 1 and
    sending gamma to 0, and z_k = i (1 + b_k) / (1 - b_k) is its Cayley
    preimage.  In H each step is affine,

        z_{k+1} = z_k + y_k (v_k + i w_k),   v_k + i w_k = 2 i q_k,
        q_k = gamma_k / (1 - gamma_k),

    so y_k = prod_{j<k} (1 + w_j) and x_k = sum_{j<k} v_j y_j, a cumprod
    and a cumsum.  Cell k of the uniform grid on [0, 1] holds z_k, k < n.
    |gamma_{n-1}| = 1 gives w_{n-1} = -1, so z_n is the real slope
    x_{n-1} + v_{n-1} y_{n-1}; the Palm coefficient gamma_{n-1} = 1 (within
    1e-13) gives b_n = 1 and the slope INF.
    """
    gammas.require_kind("modified")
    g = gammas.values
    q = g[:-1] / (1.0 - g[:-1])
    y = np.cumprod(np.concatenate(([1.0], 1.0 + 2.0 * q.real)))
    x = np.concatenate(([0.0], np.cumsum(-2.0 * q.imag * y[:-1])))
    if abs(g[-1] - 1.0) < 1e-13:
        slope = INF
    else:
        slope = x[-1] - 2.0 * (g[-1] / (1.0 - g[-1])).imag * y[-1]
    return build_operator((np.linspace(0.0, 1.0, g.size + 1), x + 1j * y), slope,
                          origin="discrete-measure")


def measure_operator(mu: UnitCircleMeasure) -> DiracOperator:
    """Operator of a normalized measure: measure -> alpha -> gamma -> operator."""
    return coefficient_operator(convert_coefficients(measure_to_alpha(mu), "modified"))


def _require_finite_input(name: str, *values) -> None:
    """Refuse nan/inf in an input (an operator field, a window) before any sweep."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError(f"{name} must be finite")


def _boundary_rows(name: str, vec, rows: int) -> np.ndarray:
    """Boundary directions ``name`` as (rows, 2): one per row, or one shared."""
    vec = np.asarray(vec, dtype=float)
    _require_finite_input(name, vec)
    if vec.shape not in ((2,), (rows, 2)) or not np.all(np.any(vec != 0.0, axis=-1)):
        raise ValueError("boundary vectors must be nonzero real 2-vectors")
    return np.broadcast_to(vec, (rows, 2))


# ---------------------------------------------------------------------------
# the batched core


@dataclass(frozen=True, eq=False)
class OperatorBatch:
    """Operators on one shared grid, stored as the cell sweep reads them.

    Built from rows (x, y, u0, u1) by :meth:`from_blocks` or
    :meth:`stack`, which validate them once.  The cells themselves are
    not kept: ``v``/``r`` (rows, m) hold the frame steps into each cell,
    v_k = (x_k - x_{k-1}) / y_{k-1} and r_k = y_k / y_{k-1} with step 0
    the identity (v = 0, r = 1), allocated cell-major (Fortran order) so
    that the sweep reads one cell of every row from contiguous memory.
    ``dt`` (m,) holds the cell lengths, and per row ``start`` (2, rows)
    is X_0 u0, ``last`` (2, rows) the last cell (x_{m-1}, y_{m-1}), ``u``
    (rows,) the target offset in [0, 2 pi), the phase of X_{m-1} u1, and
    ``u0sq`` (rows,) |u0|^2, the numerator of the left weights.

    A window (a, b) is half-open; a and b are scalars or one value per
    row.  Ragged results come back flat, sorted by row and then lambda,
    with the row index of each entry.
    """

    dt: np.ndarray
    v: np.ndarray
    r: np.ndarray
    start: np.ndarray
    last: np.ndarray
    u: np.ndarray
    u0sq: np.ndarray

    @classmethod
    def from_blocks(cls, grid, rows: int, blocks) -> "OperatorBatch":
        """``rows`` operators on ``grid`` from consecutive row blocks.

        Each block is (x, y, u0, u1): the cells as two (b, m) arrays and
        the boundary directions as (b, 2) arrays or one shared 2-vector.
        The steps are taken a block at a time, so a caller that builds
        rows in blocks never holds the cells and the steps of the whole
        batch at once.
        """
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two time points")
        _require_finite_input("grid", grid)
        dt = np.diff(grid)
        if np.any(dt <= 0.0):
            raise ValueError("grid must be strictly increasing")
        if grid[0] < 0.0 or grid[-1] > 1.0 + 1e-12:
            raise ValueError("grid must lie inside [0, 1]")
        v = np.empty((rows, dt.size), order="F")
        r = np.empty((rows, dt.size), order="F")
        start, last = np.empty((2, 2, rows))
        u, u0sq = np.empty((2, rows))
        i = 0
        for x, y, u0, u1 in blocks:
            x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
            if x.ndim != 2 or x.shape[1:] != dt.shape or y.shape != x.shape:
                raise ValueError("path must hold one value per grid cell")
            _require_finite_input("path", x, y)
            if np.any(y <= 0.0):
                raise ValueError("path imaginary parts y_k must be positive")
            rs = slice(i, i + len(x))
            u0, u1 = _boundary_rows("u0", u0, len(x)), _boundary_rows("u1", u1, len(x))
            v[rs, 0], r[rs, 0] = 0.0, 1.0
            v[rs, 1:] = (x[:, 1:] - x[:, :-1]) / y[:, :-1]
            r[rs, 1:] = y[:, 1:] / y[:, :-1]
            start[:, rs] = u0[:, 0] - x[:, 0] * u0[:, 1], y[:, 0] * u0[:, 1]
            last[:, rs] = x[:, -1], y[:, -1]
            w0 = u1[:, 0] - x[:, -1] * u1[:, 1]
            u[rs] = np.mod(-2.0 * np.arctan2(y[:, -1] * u1[:, 1], w0), TWO_PI)
            # row-wise np.dot(u0, u0); matmul rounds as dot does, sums and
            # einsum can differ in the last bit
            u0sq[rs] = np.matmul(u0[:, None], u0[:, :, None])[:, 0, 0]
            i = rs.stop
        if i != rows:
            raise ValueError(f"blocks hold {i} rows, not {rows}")
        return cls(dt=dt, v=v, r=r, start=start, last=last, u=u, u0sq=u0sq)

    @classmethod
    def stack(cls, ops) -> "OperatorBatch":
        """The operators ``ops``, which must share one grid, as one batch."""
        grid = ops[0].grid
        if not all(np.array_equal(op.grid, grid) for op in ops[1:]):
            raise ValueError("stacked operators must share one grid")
        z, u0, u1 = (np.array([getattr(op, f) for op in ops]) for f in ("path", "u0", "u1"))
        return cls.from_blocks(grid, len(ops), [(z.real, z.imag, u0, u1)])

    @property
    def rows(self) -> int:
        return self.v.shape[0]

    def _lanes(self, lam, row, **kw):
        """:func:`_sweep` of each lambda on its row ``row`` of this batch."""
        return _sweep(self.v, self.r, self.dt, lam, self.start, row, **kw)

    def _window(self, window):
        """Endpoint phases and targets of the window [a, b), per row.

        Phases are those of the solver, in the last cell's frame, where the
        eigenvalues solve alpha = 2 pi k + u.  Returns (a, b, alo, ahi,
        kmin, count) per row, the targets of a row being the count values
        of k from kmin (a float); the 1e-13 guard counts a target that the
        endpoint phase reaches up to rounding as reached.
        """
        lo, hi = (np.broadcast_to(np.asarray(w, dtype=float), (self.rows,))
                  for w in window)
        _require_finite_input("window endpoints", lo, hi)
        if not np.all(lo < hi):
            raise ValueError("window must satisfy a < b")
        row = np.tile(np.arange(self.rows), 2)
        wind = self._lanes(np.concatenate([lo, hi]), row, want_phase=True)[4]
        _require_finite("the endpoint phase", wind)
        alo, ahi = 2.0 * wind.reshape(2, self.rows)
        kmin = np.ceil((alo - self.u) / TWO_PI - 1e-13)
        kend = np.ceil((ahi - self.u) / TWO_PI - 1e-13)
        return lo, hi, alo, ahi, kmin, np.maximum(kend - kmin, 0.0).astype(int)

    def count(self, window) -> np.ndarray:
        """Eigenvalues of each row in [a, b), from the endpoint phases alone."""
        return self._window(window)[-1]

    def eigenvalues(self, window):
        """(lambdas, row): every row's eigenvalues in [a, b).

        The phase increases strictly, so the spectrum in the window is
        exactly the preimage of {2 pi k + u} between the endpoint phases;
        each root is found once by safeguarded Newton to 1e-12 in lambda,
        all rows in one solve.
        """
        lo, hi, alo, ahi, kmin, counts = self._window(window)
        if np.any((ahi - alo) / TWO_PI > WINDOW_BUDGET):
            raise ValueError("window budget: more than 1e6 eigenvalues requested")
        row = np.repeat(np.arange(self.rows), counts)
        k = kmin[row] + (np.arange(row.size) - (np.cumsum(counts) - counts)[row])
        lams = _solve_targets(self, self.u[row] + TWO_PI * k, row,
                              lo[row], hi[row], alo[row], ahi[row])
        order = np.lexsort((lams, row))
        return lams[order], row[order]

    def weights(self, window, side: str):
        """(lambdas, weights, row): left or right spectral weights in [a, b).

        The weight at an eigenvalue is |H(endpoint)|^2 / ||H||_R^2 with the
        norm taken from H^t J dH; on the right this equals
        (A^2 + B^2)/(A'B - AB') = 2 / d(alpha)/d(lambda).
        """
        if side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        lams, row = self.eigenvalues(window)
        G0, G1, dG0, dG1, _ = self._lanes(lams, row, want_deriv=True)
        x, y = self.last[:, row]
        normsq = (G1 * dG0 - G0 * dG1) / y
        if np.any(normsq <= 0.0):
            raise ValueError(
                "conditioning: eigenfunction norm lost positivity; the path's "
                "Im z is too small for double precision"
            )
        if side == "left":
            return lams, self.u0sq[row] / normsq, row
        H0, H1 = _unframe(x, y, G0, G1)
        return lams, (H0 * H0 + H1 * H1) / normsq, row

    def phase(self, lam, row=0) -> np.ndarray:
        """Phase alpha(T, lambda) at each ``lam`` (see :func:`phase_at`).

        ``row`` is the operator row of every lambda, or an index array of
        lam's shape.
        """
        G0, G1, _, _, wind = self._lanes(np.asarray(lam, dtype=float), row,
                                         want_phase=True)
        H0, H1 = _unframe(*self.last[:, row], G0, G1)
        # X^{-1} keeps the sign of the second component: the principal angle
        # from G0 - i G1 to A - iB is the exact change of winding
        out = 2.0 * (wind + np.arctan2(H0 * G1 - H1 * G0, H0 * G0 + H1 * G1))
        _require_finite("the phase", out)
        return out


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


def _sweep(v, r, dt, lam, start, row, upto=None,
           want_deriv=False, want_phase=False):
    """Advance G = X_k H (and optionally dG and the phase winding) across cells.

    ``v``, ``r``, ``dt`` and ``start`` are the frame steps, cell lengths
    and X_0 u0 of an :class:`OperatorBatch`; ``lam`` is scalar or (B,),
    and ``row`` the batch row of every lane, or an index array of lam's
    shape.  G starts at X_0 u0, and cell k applies the frame step
    [[1, -v_k], [0, r_k]] (the identity for k = 0) and then
    Rot(lam dt_k / 2).  Returns (G0, G1, dG0, dG1, winding) in the frame
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
    # the lanes of a one-row batch read its steps as scalars, not gathers
    row = 0 if len(v) == 1 else row
    dtype = complex if np.iscomplexobj(lam) else float
    m = np.shape(v)[-1] if upto is None else upto
    P = _chunk_count(lam.size, m)
    G0, G1 = (np.broadcast_to(g, lam.shape).astype(dtype) for g in start[:, row])
    dG0, dG1 = np.zeros((2,) + lam.shape, dtype=dtype) if want_deriv else (None, None)
    if P == 1:
        wind = np.arctan2(-G1, G0) if want_phase else None
        steps = ((v[row, k], r[row, k], dt[k]) for k in range(m))
        G0, G1, dG0, dG1, wind = _advance(G0, G1, dG0, dG1, wind, lam, steps)
        if want_phase:
            turns = np.round((wind - np.arctan2(-G1, G0)) / TWO_PI)
    else:
        # chunk c holds cells c L .. c L + L - 1; the cells past m - 1
        # that pad the last chunk take the identity step 0 and dt = 0
        L = -(-m // P)
        P = -(-m // L)
        cell = np.arange(P * L).reshape(P, L)
        k = np.where(cell < m, cell, 0)
        dts = np.where(cell < m, dt[k], 0.0)
        steps = ((v[row, kc], r[row, kc], d)
                 for kc, d in zip(k.T[:, :, None], dts.T[:, :, None]))
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


def _advance(G0, G1, dG0, dG1, wind, lam, steps):
    """Carry G, and dG and the winding unless None, through ``steps``.

    Each step is the frame step [[1, -v], [0, r]] and then Rot(lam dt / 2).
    """
    for v, r, dt in steps:
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


def _unframe(x, y, G0, G1):
    """H = X^{-1} G for the cell value x + i y: the fixed-frame solution."""
    H1 = G1 / y
    return G0 + x * H1, H1


def _solve_targets(batch: OperatorBatch, targets, row, lo, hi, alo, ahi):
    """Invert the monotone phase of ``batch`` at each target; returns lambdas.

    Target j belongs to batch row ``row[j]``, whose window [lo, hi) has
    endpoint phases alo, ahi.  Safeguarded Newton (``rtsafe``, Numerical
    Recipes 9.4): every lane keeps a bracket [a, b] around its root, shrunk
    at each evaluation by the sign of alpha - target.  The next point is
    the Newton step from the analytic phase derivative when that lands
    strictly inside the bracket and is at most half the step before last;
    otherwise it is the bracket midpoint.  The second condition breaks
    Newton cycles between the flat stretches either side of a steep phase
    rise, which land inside the bracket yet shrink it by a little each
    time.  A lane retires once |alpha - target| <= alpha' * LAMBDA_TOL
    (its Newton correction is below LAMBDA_TOL) or its bracket is narrower
    than LAMBDA_TOL, returning the midpoint in the latter case; later
    sweeps advance only the lanes still active.  A lane still active after
    MAX_SOLVER_ITERATIONS sweeps raises a conditioning error.
    """
    t = np.asarray(targets, dtype=float)
    a, b = (np.broadcast_to(np.asarray(w, dtype=float), t.shape).copy() for w in (lo, hi))
    span = np.maximum(ahi - alo, 1e-300)
    lam = np.clip(a + (b - a) * (t - alo) / span, a, b)
    out = np.empty(t.shape)
    live = np.arange(t.size)
    dx = dxold = b - a  # last step and the step before it
    for _ in range(MAX_SOLVER_ITERATIONS):
        G0, G1, dG0, dG1, wind = batch._lanes(lam, row[live], want_deriv=True,
                                              want_phase=True)
        # a derivative lost to overflow in G0^2 + G1^2 only forces bisection
        _require_finite("the phase", wind)
        deriv = 2.0 * (G1 * dG0 - G0 * dG1) / (G0 * G0 + G1 * G1)
        f = 2.0 * wind - t[live]
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


# ---------------------------------------------------------------------------
# one operator: views of its one-row batch


def eval_H(op: DiracOperator, lam: float, upto: int | None = None) -> EigenData:
    """Solve for H and its lambda-derivative up to grid index ``upto``.

    The squared R-norm of H over the traversed cells equals
    H^t J dH there, which is returned as ``normsq``.
    """
    last = (op.cells if upto is None else upto) - 1
    if not 0 <= last < op.cells:
        raise ValueError("upto must lie in 1..cells")
    G0, G1, dG0, dG1, _ = op.batch._lanes(float(lam), 0, upto=upto, want_deriv=True)
    x, y = op.path[last].real, op.path[last].imag
    H = _unframe(x, y, G0, G1)
    dH = _unframe(x, y, dG0, dG1)
    return EigenData(H1=np.array(H, dtype=float), dH1=np.array(dH, dtype=float),
                     normsq=float((G1 * dG0 - G0 * dG1) / y))


def phase_at(op: DiracOperator, lam) -> float | np.ndarray:
    """Phase alpha(T, lambda) = 2 Im log(A - iB), continuous from lambda = 0.

    Strictly increasing in lambda; for u0 = [1, 0] the branch satisfies
    alpha(T, 0) = 0.  ``lam`` may be an array.
    """
    out = op.batch.phase(lam)
    return float(out) if np.ndim(lam) == 0 else out


def eigenvalues_in(op: DiracOperator, window) -> np.ndarray:
    """Sorted eigenvalues in the half-open window [a, b)."""
    return op.batch.eigenvalues(window)[0]


def eigenvalue_count(op: DiracOperator, window) -> int:
    """Number of eigenvalues in [a, b), from the endpoint phases alone."""
    return int(op.batch.count(window)[0])


def spectral_measure(op: DiracOperator, window, side: str) -> SpectralMeasure:
    """Left or right spectral measure restricted to the window."""
    lams, w, _ = op.batch.weights(window, side)
    return SpectralMeasure(lambdas=lams, weights=w, window=window, side=side)


def secular_at(op: DiracOperator, z) -> complex:
    """Secular function zeta(z) = H(T, z)^t J u1; entire, real on the reals.

    When u0 and u1 are not parallel, u1 carries the normalization
    u0^t J u1 = 1, so zeta(0) = 1.  For u1 parallel to [1, 0] (infinity
    slope) no normalization exists and zeta(0) = 0: zero is an eigenvalue.
    """
    s = op.boundary_pairing()
    u1 = op.u1 if abs(s) < 1e-14 else op.u1 / s
    G0, G1, _, _, _ = op.batch._lanes(complex(z), 0)
    H0, H1 = _unframe(*op.batch.last[:, 0], G0, G1)
    return complex(H1 * u1[0] - H0 * u1[1])


def trace_and_hsnorm(op: DiracOperator):
    """Integral trace and squared Hilbert-Schmidt norm of the inverse.

    trace = int u0^t R u1 dt and HS^2 = 2 iint_{s<t} u0^t R(s) u0 u1^t R(t) u1,
    with u1 normalized to u0^t J u1 = 1.  Piecewise-constant R reduces both
    to exact prefix sums over cells.
    """
    u1 = op.normalized_u1()
    u0 = op.u0
    x, y, dt = op.path.real, op.path.imag, op.batch.dt

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
