"""Piecewise-constant Dirac (canonical system) operators.

The operator is tau u = R^{-1} J u' on an interval inside [0, 1], with

    R = X^t X / (2 det X),   X = [[1, -x], [0, y]],   J = [[0, -1], [1, 0]],

driven by a piecewise-constant path z(t) = x(t) + i y(t) in the upper half
plane, and boundary directions u0 at the left endpoint and u1 at the right.
Eigenvalues are the zeros of the entire function zeta(z) = H(T, z)^t J u1,
where H solves J H' = z R H with H(t0) = u0.

Everything reduces to exact 2x2 cell algebra, carried in the moving frame
G = X_k H of the current cell as the complex number g = G0 - i G1.  On a
cell of length dt, H advances by the conjugated rotation
X^{-1} Rot(lam dt / 2) X, so G advances by the plain rotation
Rot(p) = [[cos p, sin p], [-sin p, cos p]], which is one complex product,

    g -> e^{i phi} g,     phi = lam dt / 2,

and between cells k-1 and k the frame changes by the triangular step
X_k X_{k-1}^{-1} = [[1, -v_k], [0, r_k]], which is

    g -> Re g + w_k Im g,     w_k = v_k + i r_k = (z_k - x_{k-1}) / y_{k-1},

the cell value z_k seen from the frame of cell k - 1, a point of the
upper half plane.  No ODE stepper is involved, no matrix entry grows like
(x^2 + y^2) / y, and the lambda-derivative dg propagates alongside by the
product rule, dg -> e^{i phi} (dg + i (dt / 2) g) in a rotation.  The
phase 2 arg g is strictly increasing in lambda.  A frame step keeps the
sign of Im g, because r_k > 0, and a rotation adds exactly phi to arg g.
So the arg passes a multiple of pi, where Im g = -G1 changes sign, only
in a rotation: at most once per rotation while |phi| <= pi, and then in
the direction of lam.  That is Sturm's oscillation count, the Prufer idea
behind the operator (Valko & Virag, Invent. Math. 2017; Pryce, Numerical
Solution of Sturm-Liouville Problems, 1993).  Each lane counts the sign
changes of Im g; the count fixes the half-plane that holds the last g's
arg, and so its whole turns.  The sweep returns that half-plane's index,
and every phase is lifted from it by one rule: the principal arg, moved
into that half-plane.  So its rounding does not grow with the number of
cells, and no phase forms a product of G's components, which would
overflow long before G does.  Counts and roots are taken in the last
cell's frame, against the phase of X_{m-1} u1; H = X_{m-1}^{-1} G is
formed only where a fixed-frame value is returned, and since it keeps
G1's sign, its arg lies in G's half-plane and lifts by the same rule.

The one batched core is :class:`OperatorBatch`: operators on one shared
grid, stored as what the sweep reads, the complex frame steps w_k and the
cell lengths, cell-major, with per-row start X_0 u0, last cell and target
offset.  :meth:`OperatorBatch.from_steps` builds and validates it from the
steps themselves and the right boundary direction in the last cell's
frame, X_{m-1} u1.  Each operator source has one batched constructor on
it: Killip-Nenciu coefficients (:func:`coefficient_batch`, their affine
steps), Sine_beta paths (:func:`circdirac.ensembles.sample_sine_paths`,
their Brownian increments) and cell values
(:meth:`OperatorBatch.from_paths`, steps by differences); the first two
never pass through a path, whose differences and rounded slope would
cost digits.  The one-operator forms (:func:`coefficient_operator`,
:func:`~circdirac.ensembles.sample_sine_operator`, ``DiracOperator(grid,
path, ...)``) are their one-row calls, and every operation in them is
elementwise or runs along a row, so an operator built alone equals its
row of any batch bit for bit.  The batch's methods count, solve for,
weigh and phase every row at once; :class:`DiracOperator` is a one-row
view, and the module functions on it (``eigenvalues_in``,
``eigenvalue_count``, ``spectral_measure``, ``phase_at``) call the batch.

A sweep of few lanes would pay the interpreter once per cell for a few
lanes of arithmetic.  Below _CHUNK_LANES lanes the m cells therefore run
as about sqrt(m) contiguous chunks side by side, a blocked scan with a
sequential carry (Blelloch, CMU-CS-90-190): one pass builds every chunk's
transfer map and its lambda-derivative from the identity, as the images
of 1 and -i (the columns of its 2x2 matrix), a carry over the chunks
applies them to g and dg in order, g -> Re g T(1) - Im g T(-i), and the
lifted args of the images, each from its own count of sign changes, fix
each chunk's whole turns.  That is about twice the arithmetic in about
2 sqrt(m) interpreter steps instead of m.  Below _CHUNK_LANES lanes the
number of chunks depends on m alone, and every product is an array
operation, whose rounding does not depend on the array's length, so
there a lane's result does not depend on the size of its batch.

Cell k turns g by e^{i lam dt_k / 2}, and a sweep takes cos and sin once
per distinct pair (dt_k, lam), into one complex table, wherever those
pairs number at most a quarter of the cell x lane pairs: a uniform grid,
as of a Killip-Nenciu operator, has a few distinct cell lengths, and a
window's endpoint sweep gives its lanes two lambdas.  Each cell then
reads its rotation from that table; elsewhere each cell writes cos and
sin into a complex buffer of its own.  The angle is the same product
either way, so the table changes no bit of any result.

Eigenvalues are recovered by inverting the monotone phase at the targets
2 pi k + u, u determined by the direction of X_{m-1} u1.  The search is
safeguarded Newton on all targets at once, with one Newton rule: within
2 pi of its target a root steps on the secular function, in the last
cell's frame and up to a constant factor per row
zeta = Im(g e^{-i u / 2}), which there vanishes only at the target's
root, when the step stays strictly inside the root's bracket; everywhere
else it bisects.  zeta is entire, so it stays nearly linear
across the flat stretches of a staircase phase.  zeta / zeta' is a ratio,
so it keeps its bits however large G grows, and it does not depend on the
turn k, so the rounding of 2 pi k never enters it.  A root has two exits:
within pi / 2 of its target with a zeta step below 1e-12 it returns
lambda - zeta / zeta', and on a bracket narrower than 1e-12 it returns the
midpoint.  After each sweep every point of a row, the root's own point
among them, tightens the bracket of every target of that row, since the
phase is monotone: found by one sort on the exact keys (row, phase).
Each root leaves the batch as soon as it converges, so later sweeps
carry only the roots still unresolved, and a root left unresolved at the
iteration cap raises a conditioning error instead of returning an
unconverged value.  So does a sweep whose G overflowed to inf/nan, where
G outgrows double range at large lambda, a fixed-frame H that overflowed,
and a spectral weight that overflowed, since the weights are products of
G's components.  These are computed with numpy's overflow warnings off
(``_QUIET``), so the conditioning error is all a caller sees, also where
warnings are errors.

Grids normally span [0, 1]; truncated continuum paths may start at
t0 > 0, and time reversal of such an operator ends before 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .hyperbolic import is_inf
from .opuc import (CoefficientSequence, UnitCircleMeasure, coefficient_rows,
                   convert_coefficients, measure_to_alpha)

__all__ = [
    "DiracOperator",
    "OperatorBatch",
    "SpectralMeasure",
    "boundary_direction",
    "build_operator",
    "coefficient_batch",
    "coefficient_operator",
    "conjugate_operator",
    "measure_operator",
    "phase_at",
    "eigenvalues_in",
    "eigenvalue_count",
    "spectral_measure",
    "reverse_operator",
    "trace_and_hsnorm",
]

TWO_PI = 2.0 * math.pi

#: Refuse windows holding more than this many eigenvalues.
WINDOW_BUDGET = 1_000_000

#: Bracket width (and Newton correction) at which the eigenvalue search stops.
LAMBDA_TOL = 1e-12

#: Sweeps the eigenvalue search may take before it raises a conditioning error.
MAX_SOLVER_ITERATIONS = 120

#: Lanes from which a sweep runs as one chunk (see :func:`_sweep`).
_CHUNK_LANES = 512

#: numpy error state of the sweep and of the products formed from its G.
#: Both may overflow; each result that matters is checked by
#: :func:`_require_finite`, so an overflow reaches the caller as that
#: conditioning error alone, also where warnings are errors.
_QUIET = {"over": "ignore", "invalid": "ignore"}


# ---------------------------------------------------------------------------
# value types


class DiracOperator:
    """Immutable piecewise-constant operator, a one-row view of its ``batch``.

    ``grid`` has m+1 strictly increasing points in [0, 1]; ``u0``/``u1``
    are direction classes; u1 parallel to [1, 0] encodes the infinity
    boundary slope (q = inf).  ``batch`` is the operator as a one-row
    :class:`OperatorBatch`, which every sweep reads.  An operator is what
    it is built from, ``path`` or ``batch`` (not both).  Given ``path``,
    the m per-cell values z_k = x_k + i y_k with y_k > 0, it is that path,
    and its batch is the one-row :meth:`OperatorBatch.from_paths`.
    Given ``batch``, as by :func:`coefficient_operator` and
    :func:`~circdirac.ensembles.sample_sine_operator`, it is those exact
    steps, and ``path`` is formed from them where one is asked for (the
    transforms, :func:`trace_and_hsnorm`).  The JSON writes what the
    operator was built from, so a reloaded operator keeps every bit of its
    batch.  The fields are read-only.
    """

    def __init__(self, grid, path=None, *, u0, u1, origin="custom", batch=None):
        grid, u0, u1 = (_read_only(v, float) for v in (grid, u0, u1))
        for name, vec in (("u0", u0), ("u1", u1)):
            _boundary_rows(name, vec, 1)
        if path is not None:
            path = _read_only(path, complex)
            batch = OperatorBatch.from_paths(grid, path[None], u0, u1) if batch is None else None
        if batch is None or batch.rows != 1 or not np.array_equal(batch.dt, np.diff(grid)):
            raise ValueError("an operator takes its path or its one-row batch on its grid")
        self.__dict__.update(grid=grid, u0=u0, u1=u1, origin=origin, batch=batch, _path=path)

    def __setattr__(self, name, value):
        raise AttributeError("an operator's fields are read-only")

    @property
    def cells(self) -> int:
        return self.batch.dt.size

    @cached_property
    def path(self) -> np.ndarray:
        """The m cell values z_k: the path built from, or one formed from the steps.

        Formed backward from the last cell: log y_k is log y_{m-1} minus
        the suffix sums of log r, and x_k = x_{m-1} - sum_{j>k} v_j y_{j-1},
        with numpy's overflow warnings off.  A path past double range
        raises "path overflow" here, and only here.
        """
        if self._path is not None:
            return self._path
        w, (x, y) = self.batch.w[0, 1:], self.batch.last[:, 0]
        with np.errstate(**_QUIET):
            # a 0 ahead of the reversed terms makes each sum end at the last cell
            y = np.exp(np.log(y) - np.cumsum(np.r_[0.0, np.log(w.imag)[::-1]])[::-1])
            x = x - np.cumsum(np.r_[0.0, (w.real * y[:-1])[::-1]])[::-1]
        if not (np.all(np.isfinite(x)) and np.all((y > 0.0) & (y < math.inf))):
            raise ValueError("path overflow: the cell values leave double range")
        return _read_only(x + 1j * y, complex)

    def normalized_u1(self) -> np.ndarray:
        """u1 rescaled so u0^t J u1 = 1 (the standing normalization).

        u0^t J u1 is zero exactly when the boundary directions are parallel,
        as they are for u0 = [1, 0] and the infinity slope.
        """
        s = self.u0[1] * self.u1[0] - self.u0[0] * self.u1[1]
        if abs(s) < 1e-14 * np.linalg.norm(self.u0) * np.linalg.norm(self.u1):
            raise ValueError("no trace for equal boundary directions")
        return self.u1 / s

    def to_dict(self) -> dict:
        """The path form of a path-built operator, else the steps form of its batch."""
        b, from_path = self.batch, self._path is not None
        pairs = [[z.real, z.imag] for z in (self._path if from_path else b.w[0]).tolist()]
        form = {"path": pairs} if from_path else {"steps": pairs, "last": b.last[:, 0].tolist(),
                "start": b.start[:, 0].tolist(), "target_offset": float(b.u[0])}
        return {"grid": self.grid.tolist(), **form, "u0": self.u0.tolist(),
                "u1": "infinity" if self.u1[1] == 0.0 else self.u1.tolist(), "origin": self.origin}

    @classmethod
    def from_dict(cls, d: dict) -> "DiracOperator":
        """Either form of :meth:`to_dict`; the steps form reloads the batch bit for bit."""
        kw = {"u0": d["u0"], "u1": [1.0, 0.0] if d["u1"] == "infinity" else d["u1"],
              "origin": d.get("origin", "custom")}
        if "path" in d:
            return cls(d["grid"], [complex(*z) for z in d["path"]], **kw)
        if not 0.0 <= d["target_offset"] < TWO_PI:
            raise ValueError("target_offset must lie in [0, 2 pi)")
        # the stored offset replaces the placeholder target's: an offset
        # taken back through a direction and its arctan would not keep its bits
        batch = OperatorBatch.from_steps(d["grid"], [[complex(*z) for z in d["steps"]]],
                                         [d["last"]], (1.0, 0.0), d["start"],
                                         np.dot(d["u0"], d["u0"]))
        return cls(d["grid"], batch=replace(batch, u=np.array([d["target_offset"]])), **kw)


def _read_only(value, dtype) -> np.ndarray:
    """A read-only copy of ``value`` as an array of ``dtype``."""
    value = np.array(value, dtype=dtype)
    value.flags.writeable = False
    return value


@dataclass(frozen=True, eq=False)
class SpectralMeasure:
    """Atoms (lambda, weight) of one side's spectral measure in a window."""

    lambdas: np.ndarray
    weights: np.ndarray
    window: tuple
    side: str

    def __post_init__(self):
        lam, w = (np.asarray(a, dtype=float) for a in (self.lambdas, self.weights))
        if self.side not in ("left", "right"):
            raise ValueError("side must be 'left' or 'right'")
        if lam.shape != w.shape:
            raise ValueError("mismatched atom arrays")
        _require_finite_input("spectral atoms", lam, w)
        if np.any(np.diff(lam) <= 0.0):
            raise ValueError("atoms must be sorted by lambda")
        if np.any(w <= 0.0):
            raise ValueError("spectral weights must be positive")
        # frozen: the fields are set once, here
        self.__dict__.update(lambdas=lam, weights=w,
                             window=(float(self.window[0]), float(self.window[1])))

    def __len__(self) -> int:
        return self.lambdas.size

    def to_dict(self) -> dict:
        return {
            "side": self.side,
            "window": [self.window[0], self.window[1]],
            "atoms": [[float(l), float(w)] for l, w in zip(self.lambdas, self.weights)],
        }


# ---------------------------------------------------------------------------
# construction


def boundary_direction(q) -> np.ndarray:
    """The right boundary direction u1 of the boundary slope q.

    A finite real q gives u1 = [-q, -1]; an infinite one (``math.inf``, or
    a complex number with an infinite part) gives the infinity slope
    u1 = [1, 0].
    """
    return np.array([1.0, 0.0]) if is_inf(q) else np.array([-float(q), -1.0])


def build_operator(path, q) -> DiracOperator:
    """Operator on the cells ``path = (grid, cell_values)``, with u0 = [1, 0].

    ``q`` is the boundary slope, u1 = :func:`boundary_direction` (q).
    """
    return DiracOperator(*path, u0=(1.0, 0.0), u1=boundary_direction(q))


def coefficient_batch(gammas) -> "OperatorBatch":
    """Operators of the measures with modified coefficients ``gammas``, one per row.

    ``gammas`` (rows, n).  The operator of a row lies on the path of its
    measure in the half plane: n + 1 points z_0 = i, ..., z_n, the last on
    the boundary.  In the disk the path is b_0 = 0,
    b_{k+1} = A^{-1}_{gamma_0} o ... o A^{-1}_{gamma_k}(0), with A_gamma
    the affine isometry fixing the boundary point 1 and sending gamma to
    0, and z_k = i (1 + b_k) / (1 - b_k) is its Cayley preimage.  In H each
    step is affine,

        z_{k+1} = z_k + y_k (v_k + i (r_k - 1)),   v_k + i (r_k - 1) = 2 i q_k,
        q_k = gamma_k / (1 - gamma_k),

    so the frame step into cell k + 1 is exactly w_{k+1} = v_k + i r_k, the
    Cayley image i (1 + gamma_k) / (1 - gamma_k) of the coefficient, and
    the batch is written part by part from q_k, with no path.  Cell k of
    the uniform grid on [0, 1] holds z_k, k < n.  |gamma_{n-1}| = 1 gives
    r_{n-1} = 0, so z_n is the real slope x_{n-1} + v_{n-1} y_{n-1}, and
    the right boundary direction in the last cell's frame is
    [-v_{n-1}, -1]; the Palm coefficient gamma_{n-1} = 1 (within 1e-13)
    gives b_n = 1, the infinity slope and the direction [1, 0].  The last
    cell is y_{n-1} = prod_{j<n} r_j and x_{n-1} = sum_{j<n-1} v_j y_j.
    The rows pass :func:`opuc.coefficient_rows` first; an accepted
    |gamma_k| a few ulps below 1 can still round r_k to 0 or below, which
    :meth:`OperatorBatch.from_steps` refuses.  Every operation is
    elementwise, or runs along a row, so a row's bits do not depend on the
    batch around it: :func:`coefficient_operator` is the one-row call.
    """
    g = coefficient_rows(gammas)
    palm = np.abs(g[:, -1] - 1.0) < 1e-13
    with np.errstate(divide="ignore", invalid="ignore"):   # at a Palm row's last q, not read
        q = g / (1.0 - g)
    w = np.empty(g.shape, dtype=complex, order="F")
    w[:, 0] = 1j
    w.real[:, 1:], w.imag[:, 1:] = -2.0 * q.imag[:, :-1], 1.0 + 2.0 * q.real[:, :-1]
    y = np.cumprod(w.imag, axis=1)
    x = np.cumsum(w.real[:, 1:] * y[:, :-1], axis=1)
    last = np.stack([x[:, -1] if x.size else np.zeros(len(g)), y[:, -1]], axis=1)
    # X_{n-1} u1 = [-v_{n-1}, -1], or [1, 0] on a Palm row
    target = np.stack([2.0 * q.imag[:, -1], np.full(len(g), -1.0)], axis=1)
    target[palm] = (1.0, 0.0)
    return OperatorBatch.from_steps(np.linspace(0.0, 1.0, g.shape[1] + 1), w, last, target)


def coefficient_operator(gammas: CoefficientSequence) -> DiracOperator:
    """Operator of the measure with modified coefficients ``gammas``.

    Its batch is the one-row :func:`coefficient_batch`, so it equals its
    row of any batch bit for bit.  u1 records the slope that the last cell
    and the last step fix, x_{n-1} + v_{n-1} y_{n-1}, or ``math.inf`` for
    the Palm coefficient gamma_{n-1} = 1; the operator is its steps, and
    forms its path only where one is asked for.
    """
    gammas.require_kind("modified")
    g = gammas.values
    batch = coefficient_batch(g[None])
    (x, y), last = batch.last[:, 0], g[-1]
    # the batch's target offset is 0 on a Palm row, whose target is [1, 0],
    # and in (0, 2 pi) on any other; v_{n-1} = -2 Im q_{n-1}, as it takes it
    slope = math.inf if batch.u[0] == 0.0 else x + -2.0 * (last / (1.0 - last)).imag * y
    return DiracOperator(np.linspace(0.0, 1.0, g.size + 1), u0=(1.0, 0.0),
                         u1=boundary_direction(slope), origin="discrete-measure", batch=batch)


def measure_operator(mu: UnitCircleMeasure) -> DiracOperator:
    """Operator of a normalized measure: measure -> alpha -> gamma -> operator."""
    return coefficient_operator(convert_coefficients(measure_to_alpha(mu), "modified"))


def _require_finite_input(name: str, *values) -> None:
    """Refuse nan/inf in an input (an operator field, a window) before any sweep.

    One array at a time: ``np.isfinite`` of the tuple would first copy
    them all into one stacked array.
    """
    if not all(np.all(np.isfinite(value)) for value in values):
        raise ValueError(f"{name} must be finite")


def _boundary_rows(name: str, vec, rows: int) -> np.ndarray:
    """Directions ``name`` as (rows, 2): one per row, or one shared."""
    vec = np.asarray(vec, dtype=float)
    _require_finite_input(name, vec)
    if vec.shape not in ((2,), (rows, 2)) or not np.all(np.any(vec != 0.0, axis=-1)):
        raise ValueError(f"{name} must hold nonzero real 2-vectors")
    return np.broadcast_to(vec, (rows, 2))


# ---------------------------------------------------------------------------
# the batched core


@dataclass(frozen=True, eq=False)
class OperatorBatch:
    """Operators on one shared grid, stored as the cell sweep reads them.

    Built from each row's frame steps by :meth:`from_steps`, which
    validates them once, or by :meth:`stack` from operators' own rows.
    No path is kept: ``w`` (rows, m), complex, holds the frame steps into
    each cell, w_k = v_k + i r_k for [[1, -v_k], [0, r_k]] =
    X_k X_{k-1}^{-1}.  The step is a point of the upper half plane: the
    cell value z_k seen from the frame of cell k - 1,
    (z_k - x_{k-1}) / y_{k-1}, and step 0, the identity, is i.  It is
    stored cell-major (Fortran order), so that the sweep reads one cell of
    every row from contiguous memory.  ``dt`` (m,) holds the cell
    lengths, and per row ``start`` (2, rows) is X_0 u0, ``last`` (2, rows)
    the last cell (x_{m-1}, y_{m-1}), ``u`` (rows,) the target offset in
    [0, 2 pi), the phase of X_{m-1} u1, and ``u0sq`` (rows,) |u0|^2, the
    numerator of the left weights.

    A window (a, b) is half-open; a and b are scalars or one value per
    row.  Ragged results come back flat, sorted by row and then lambda,
    with the row index of each entry.
    """

    dt: np.ndarray
    w: np.ndarray
    start: np.ndarray
    last: np.ndarray
    u: np.ndarray
    u0sq: np.ndarray

    @classmethod
    def from_steps(cls, grid, w, last, target, start=(1.0, 0.0),
                   u0sq=1.0) -> "OperatorBatch":
        """Operators on ``grid`` from their frame steps: the one validating constructor.

        ``w`` (rows, m) holds the steps v_k + i r_k, each in the upper half
        plane, step 0 the identity i; a complex w in Fortran order is kept
        as it is, not copied.  ``last``
        (rows, 2) is the last cell (x_{m-1}, y_{m-1}), and ``target`` the
        right boundary direction in the last cell's frame, X_{m-1} u1.
        ``start`` is X_0 u0 and ``u0sq`` |u0|^2.  ``target``, ``start``
        and ``u0sq`` are one per row or one shared by all rows.
        """
        grid = np.asarray(grid, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ValueError("grid must hold at least two time points")
        _require_finite_input("grid", grid)
        dt = np.diff(grid)
        if np.any(dt <= 0.0) or grid[0] < 0.0 or grid[-1] > 1.0 + 1e-12:
            raise ValueError("grid must increase strictly inside [0, 1]")
        w = np.asarray(w, dtype=complex, order="F")
        if w.ndim != 2 or w.shape[1:] != dt.shape:
            raise ValueError("steps must hold one value per grid cell")
        _require_finite_input("steps", w)
        if np.any(w.imag <= 0.0) or np.any(w[:, 0] != 1j):
            raise ValueError("steps must lie in the upper half plane, and step 0 must be i")
        last, target, start = (_boundary_rows(name, vec, len(w)) for name, vec in
                               (("last", last), ("target", target), ("start", start)))
        if np.any(last[:, 1] <= 0.0):
            raise ValueError("last cells must have y > 0")
        u0sq = np.broadcast_to(np.asarray(u0sq, dtype=float), (len(w),))
        if not np.all((u0sq > 0.0) & (u0sq < math.inf)):
            raise ValueError("u0sq must be positive and finite")
        return cls(dt=dt, w=w, start=start.T.copy(), last=last.T.copy(),
                   u=np.mod(-2.0 * np.arctan2(target[:, 1], target[:, 0]), TWO_PI),
                   u0sq=u0sq.copy())

    @classmethod
    def from_paths(cls, grid, paths, u0, u1) -> "OperatorBatch":
        """Operators on ``grid`` from their cell values, row i from ``paths[i]``.

        ``paths`` (rows, m) holds the cell values z_k = x_k + i y_k, y_k > 0,
        and ``u0`` and ``u1`` the boundary directions, one per row or one
        shared.  The steps are taken by differences,
        w_k = (z_k - x_{k-1}) / y_{k-1}, written part by part:
        v_k = (x_k - x_{k-1}) / y_{k-1} and r_k = y_k / y_{k-1}; X_0 u0 and
        X_{m-1} u1 entry by entry, which keeps the sign of a zero in u0.
        Every operation is elementwise, so row i equals the batch of
        ``DiracOperator(grid, paths[i], ...)``, its one-row call, bit for bit.
        """
        paths = np.asarray(paths, dtype=complex)
        _require_finite_input("path", paths)
        x, y = paths.real, paths.imag
        if paths.ndim != 2 or paths.shape[1] == 0 or np.any(y <= 0.0):
            raise ValueError("path must hold one value per cell, with y_k positive")
        u0, u1 = (_boundary_rows(name, vec, len(paths)) for name, vec in (("u0", u0), ("u1", u1)))
        w = np.empty(paths.shape, dtype=complex, order="F")
        w[:, 0] = 1j
        w.real[:, 1:], w.imag[:, 1:] = (x[:, 1:] - x[:, :-1]) / y[:, :-1], y[:, 1:] / y[:, :-1]
        # X_k u = [u_0 - x_k u_1, y_k u_1] in the first and the last cell
        start, target = (np.stack([u[:, 0] - x[:, k] * u[:, 1], y[:, k] * u[:, 1]], axis=1)
                         for u, k in ((u0, 0), (u1, -1)))
        # np.vecdot rounds as u0 @ u0 does
        return cls.from_steps(grid, w, np.stack([x[:, -1], y[:, -1]], axis=1), target, start,
                              np.vecdot(u0, u0))

    @classmethod
    def stack(cls, ops) -> "OperatorBatch":
        """The operators ``ops``, which must share one grid, as one batch of their rows."""
        grid = ops[0].grid
        if not all(np.array_equal(op.grid, grid) for op in ops[1:]):
            raise ValueError("stacked operators must share one grid")
        # rows lie along the last axis of every field but w, whose
        # transposes join into the cell-major layout
        rows = [op.batch for op in ops]
        w = np.concatenate([b.w.T for b in rows], axis=1).T
        return cls(rows[0].dt, w, *(np.concatenate([getattr(b, f) for b in rows], axis=-1)
                                    for f in ("start", "last", "u", "u0sq")))

    @property
    def rows(self) -> int:
        return self.w.shape[0]

    @np.errstate(**_QUIET)
    def _lanes(self, lam, row, **kw):
        """:func:`_sweep` of each lambda on its row ``row`` of this batch.

        G grows with lambda on a rough path and overflows to inf/nan; this
        is the one place a sweep's G is checked.  A finite G has a finite
        lifted arg, so every count and root built on it is finite too.
        """
        out = _sweep(self.w, self.dt, self.start, lam, row, **kw)
        _require_finite("the sweep's solution G", out[0])
        return out

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
        g, _, half = self._lanes(np.concatenate([lo, hi]), row, want_phase=True)
        alo, ahi = 2.0 * _lift(g, half).reshape(2, self.rows)
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

    @np.errstate(**_QUIET)
    def weights(self, window):
        """(lambdas, left, right, row): both sides' spectral weights in [a, b).

        The weight at an eigenvalue is |H(endpoint)|^2 / ||H||_R^2 with the
        norm taken from H^t J dH = Im(conj(g) dg) / y, g = G0 - i G1 in the
        last cell's frame; on the right this equals
        (A^2 + B^2)/(A'B - AB') = 2 / d(alpha)/d(lambda).  One root search
        serves both sides.
        """
        lams, row = self.eigenvalues(window)
        g, dg, _ = self._lanes(lams, row, want_deriv=True)
        x, y = self.last[:, row]
        # Im(conj(g) dg), part by part: an overflow leaves it nan, not of a sign
        normsq = (g.real * dg.imag - g.imag * dg.real) / y
        if np.any(normsq <= 0.0):
            raise ValueError(
                "conditioning: eigenfunction norm lost positivity; the path's "
                "Im z is too small for double precision"
            )
        h = _unframe(x, y, g)
        left, right = self.u0sq[row] / normsq, (h.real * h.real + h.imag * h.imag) / normsq
        # normsq and |H|^2 are products of G's components, which overflow
        # long before G does
        _require_finite("the spectral weights", left, right)
        return lams, left, right, row

    @np.errstate(**_QUIET)
    def phase(self, lam, row=0) -> np.ndarray:
        """Phase alpha(T, lambda) at each ``lam`` (see :func:`phase_at`).

        ``row`` is the operator row of every lambda, or an index array of
        lam's shape.  The phase is 2 arg(H0 - i H1), H = X_{m-1}^{-1} G,
        lifted into the half-plane of G's arg, which holds H's too, as
        H1 = G1 / y keeps G1's sign; it forms no product of G's
        components.  A non-finite lambda is refused before any sweep, and
        an H that overflowed raises a conditioning error.
        """
        _require_finite_input("lambda", lam)
        g, _, half = self._lanes(np.asarray(lam, dtype=float), row, want_phase=True)
        h = _unframe(*self.last[:, row], g)
        # H1 = G1 / y overflows where G does not if the last y is small
        _require_finite("H = X^{-1} G", h)
        return 2.0 * _lift(h, half)


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


def _sweep(w, dt, start, lam, row, want_deriv=False, want_phase=False):
    """Advance g = G0 - i G1 (and optionally dg and g's half-plane) across all cells.

    ``w``, ``dt`` and ``start`` are the frame steps, cell lengths and
    X_0 u0 of an :class:`OperatorBatch`; ``lam`` is real, scalar or (B,),
    and ``row`` the batch row of every lane, or an index array of lam's
    shape.  g is G = X_k H as a complex number.  It starts at X_0 u0, and
    cell k applies the frame step g -> Re g + w_k Im g (the identity for
    k = 0) and then the rotation Rot(lam dt_k / 2), g -> e^{i phi} g with
    phi = lam dt_k / 2.  The lambda-derivative dg rides in one complex
    array with g, takes the same frame step, and turns as
    dg -> e^{i phi} (dg + i (dt_k / 2) g).
    e^{i phi} comes from :func:`_rotations`: from one table of the distinct
    (cell length, lambda) pairs where they are few, as on a uniform grid
    or in a window's endpoint sweep, and cell by cell otherwise, with the
    same bits either way.  Returns (g, dg, half) in the frame of the last
    cell, m - 1, each of lam's shape; dg is None without ``want_deriv``,
    and half without ``want_phase``.  ``half`` is the index
    (:func:`_half_plane`) of the half-plane that holds arg g, continued
    from its principal value at X_0 u0, from the sign changes of Im g that
    :func:`_advance` counts; :func:`_lift` (g, half) is the winding.  A
    sweep of no lanes visits no cell.

    Few lanes would pay the interpreter once per cell for little
    arithmetic, so they sweep the cells in P = :func:`_chunk_count`
    contiguous chunks side by side: one pass over the cells of a chunk
    carries every chunk's transfer map from the identity, as its images of
    1 and -i (the columns of the 2x2 transfer matrix, and their
    derivatives), a P-step carry applies them to g (and dg) in order,
    g -> Re g T(1) - Im g T(-i), and the lifted args of the images give
    each chunk's whole turns (:func:`_chunk_turns`), which move the last
    g's principal half-plane by two per turn.  From _CHUNK_LANES lanes on,
    the plain loop (P = 1) runs: there the chunks' doubled arithmetic
    costs nearly what the saved interpreter steps gain, and their
    (2, P, lanes) arrays grow with the batch.
    """
    lam = np.asarray(lam)
    shape, lam = lam.shape, lam.reshape(-1)
    # the lanes of a one-row batch read its steps as scalars, not gathers;
    # every product stays an array operation, so a lane's bits do not
    # depend on the number of lanes beside it
    row = 0 if len(w) == 1 else np.reshape(row, -1)
    m = w.shape[-1]
    P = _chunk_count(lam.size, m)
    S = np.zeros((2 if want_deriv else 1, lam.size), dtype=complex)
    S.real[0], S.imag[0] = start[0, row], -start[1, row]
    half = _half_plane(np.angle(S[0]), S[0]) if want_phase else None
    # rounding is monotone: this is the largest cell angle 0.5 lam dt of
    # any lane, as _advance and _rotations compute it
    wide = want_phase and 0.5 * np.max(np.abs(lam), initial=0.0) * np.max(dt) > math.pi
    # a sweep of no lanes visits no cell
    if P == 1 and lam.size:
        # a gather from one contiguous column is cheaper than w[row, k]
        steps = ((wk[row], d, rot) for wk, d, rot in zip(w.T, dt, _rotations(lam, dt)))
        S, half = _advance(S, half, lam, steps, wide)
    elif lam.size:
        # chunk c holds cells c L .. c L + L - 1; the cells past m - 1
        # that pad the last chunk take the identity step 0 and dt = 0
        L = -(-m // P)
        P = -(-m // L)
        cell = np.arange(P * L).reshape(P, L)
        k = np.where(cell < m, cell, 0)
        dts = np.where(cell < m, dt[k], 0.0)
        steps = ((w[row, kc], d[:, None], rot)
                 for kc, d, rot in zip(k.T[:, :, None], dts.T, _rotations(lam, dts.T)))
        # the images of 1 and -i, G = [1, 0] and [0, 1], start in the
        # half-plane [-pi, 0] of args
        T = np.zeros((len(S), 2, P, lam.size), dtype=complex)
        T[0, 0], T[0, 1] = 1.0, -1j
        images = np.full(T.shape[1:], -1.0) if want_phase else None
        T, images = _advance(T, images, lam, steps, wide)
        # a chunk maps G = G0 [1, 0] + G1 [0, 1], so g = G0 - i G1 goes to
        # Re g T(1) - Im g T(-i), and dg by the product rule
        starts = [S[0]]
        for c in range(P):
            one, minus_i = T[:, 0, c], T[:, 1, c]
            carried = S.real * one[0] - S.imag * minus_i[0]
            if want_deriv:
                carried[1] += S[0].real * one[1] - S[0].imag * minus_i[1]
            S = carried
            starts.append(S[0])
        if want_phase:
            turns = _chunk_turns(np.array(starts), _lift(T[0], images))
            half = _half_plane(np.angle(S[0]), S[0]) + 2.0 * turns
    return (S[0].reshape(shape), S[1].reshape(shape) if want_deriv else None,
            None if half is None else half.reshape(shape))


def _advance(S, half, lam, steps, wide):
    """Carry S in place, and g's half-plane index unless None, through ``steps``.

    S stacks g and, as a second row if there is one, dg.  Each step is
    (w, dt, rot): the frame step g -> Re g + w Im g, taken part by part
    (v Im g added to Re g, Im g scaled by r), and then the rotation by
    phi = lam dt / 2, g -> e^{i phi} g and dg -> e^{i phi} (dg + i (dt / 2) g).
    ``rot`` is e^{i phi} where :func:`_rotations` read it from a table;
    where it is None, cos phi and sin phi are written here into one
    complex buffer, which gives the same bits.  ``half`` is the index of
    the half-plane that holds arg g (see :func:`_half_plane`); it changes
    only where Im g = -G1 changes sign.  A frame step keeps that sign,
    since Im w = r > 0.  A rotation by phi with |phi| <= pi changes it at
    most once, in the direction of lam, so each lane counts its sign
    changes.
    A ``wide`` sweep, where some |phi| exceeds pi, splits each phi into
    2 pi k plus an angle of sin(phi)'s sign and size below pi, adds the k
    whole turns and takes a sign change's direction from sin(phi).
    """
    # views of S, which every step updates in place
    re, im, g, dg = S.real, S.imag, S[0], S[1] if len(S) == 2 else None
    if half is not None:
        upper = g.imag > 0.0
        crossed = np.zeros(upper.shape)
        ahead = np.sign(lam)
    half_lam = 0.5 * lam
    for w, dt, rot in steps:
        # part by part: w times the real view Im g would cast it to complex
        # through numpy's buffers, which is slow on broadcast operands
        re += w.real * im
        im *= w.imag
        if rot is None or wide:
            phi = half_lam * dt
        if rot is None:
            rot = np.empty(phi.shape, dtype=complex)
            np.cos(phi, out=rot.real)
            np.sin(phi, out=rot.imag)
        if dg is not None:
            dg += (0.5j * dt) * g
        S *= rot
        if half is not None:
            was, upper = upper, g.imag > 0.0
            flip = upper != was
            if wide:
                # phi = 2 pi k + psi, |psi| < pi of the sign of sin phi, and
                # k is the nearest integer to phi / 2 pi - sign(sin phi) / 4;
                # counted along lam, that is 2 k half-planes and psi's crossing
                turn = np.sign(rot.imag)
                flip = ahead * (2.0 * np.round(phi / TWO_PI - 0.25 * turn) + turn * flip)
            crossed += flip
    if half is not None:
        half = half + ahead * crossed
    return S, half


def _rotations(lam, dt):
    """Each cell's rotation e^{i phi} from a table, or None per cell where none pays.

    ``dt`` holds the cell lengths along its first axis; the entry of
    ``dt[k]`` is e^{i phi}, phi = 0.5 lam dt[k], of shape
    dt[k].shape + lam.shape, its cos and sin written into one complex
    table.  Where the distinct (cell length, lambda) pairs number at most
    a quarter of the cell x lane pairs, they are taken once per distinct
    pair: on a uniform grid, whose cell lengths take a few values, and in
    a sweep whose lanes share a few lambdas.  The table's columns are the
    lanes themselves when their lambdas are all distinct, and are gathered
    by lane otherwise.  Else every entry is None, and :func:`_advance`
    takes each cell's trig itself.  The angle is the same product either
    way, so the sweep keeps its bits.
    """
    half_lam = 0.5 * lam
    lengths, cell = _distinct(dt)
    lams, lane = _distinct(half_lam)
    if 4 * lengths.size * lams.size > dt.size * lam.size:
        return [None] * len(dt)
    # every lambda distinct: the columns are the lanes, in order
    every = lams.size == lam.size
    phi = np.multiply.outer(lengths, half_lam if every else lams)
    table = np.empty(phi.shape, dtype=complex)
    np.cos(phi, out=table.real)
    np.sin(phi, out=table.imag)
    return (table[j] if every else table[j].take(lane, axis=-1) for j in cell)


def _distinct(a):
    """Distinct values of ``a``, told apart by their bits, and each entry's index.

    Bits, not values, so -0.0 and 0.0 keep the signs of their sines; a
    value whose equal entries mix the two zeros may take more than one
    index, which costs a column and changes no result.  A stable
    ``argsort`` of floats, which the measures already use, keeps this off
    ``np.unique``, whose first call raises a fresh process's peak RSS by
    about 0.6 MB.
    """
    flat = np.asarray(a, dtype=float).reshape(-1)
    order = np.argsort(flat, kind="stable")
    sorted_ = flat[order]
    new = np.ones(flat.size, dtype=bool)
    new[1:] = sorted_[1:].view(np.int64) != sorted_[:-1].view(np.int64)
    at = np.empty(flat.size, dtype=int)
    at[order] = np.cumsum(new) - 1
    return sorted_[new], at.reshape(np.shape(a))


def _half_plane(theta, g):
    """Index of the half-plane of args that holds theta = arg g, g = G0 - i G1.

    The lifted args split into half-planes of length pi: the open
    (2 j pi, (2 j + 1) pi), where Im g > 0, has index 2 j, and the closed
    [(2 j - 1) pi, 2 j pi], where Im g <= 0, has index 2 j - 1.  A
    principal arg theta in [-pi, pi] has index 0 on (0, pi), 1 at pi (only
    from Im g = +0) and -1 on [-pi, 0].
    """
    return np.where(g.imag > 0.0, 0.0, np.where(theta > 0.0, 1.0, -1.0))


def _lift(g, half):
    """arg g in the half-plane of index ``half``: principal + whole turns."""
    theta = np.angle(g)
    return theta + math.pi * (half - _half_plane(theta, g))


def _chunk_turns(G, W):
    """Whole turns of g's arg across the chunks, from the images' lifted args.

    ``G`` (P + 1, lanes) holds g at each chunk start and at the end;
    ``W`` (2, P, lanes) the lifted arg of the images of 1 and -i per
    chunk, started at 0 and -pi / 2.  A chunk's map on args is increasing
    and moves arg + pi to its image + pi, so its lift Phi is known at
    every quarter turn j pi / 2.  From the quarter j just below a start's
    principal arg theta (theta - j pi / 2 in [pi / 4, 3 pi / 4]), the
    lifted image Phi(theta) lies in (Phi(j pi / 2), Phi(j pi / 2) + pi):
    that fixes the whole turns between it and the next start's principal
    arg with a margin of pi / 2 for rounding in W.  Summed over the
    chunks, they are the turns from the first start to the end.
    """
    theta = np.angle(G)
    j = np.round(theta[:-1] / (0.5 * math.pi)) - 1.0
    odd = np.mod(j, 2.0)
    below = np.where(odd == 1.0, W[1], W[0]) + 0.5 * math.pi * (j + odd)
    turns = np.round((below + 0.5 * math.pi - theta[1:]) / TWO_PI)
    return turns.sum(axis=0)


def _require_finite(what: str, *values) -> None:
    """Raise a conditioning error unless every entry of ``values`` is finite.

    Overflow to inf/nan would otherwise reach the caller as a nan phase, a
    garbled count or a nan weight.
    """
    if not all(np.all(np.isfinite(value)) for value in values):
        raise ValueError(
            f"conditioning: {what} overflowed to inf/nan; the solution grows "
            "past double range at this lambda"
        )


def _unframe(x, y, g):
    """h = H0 - i H1 of H = X^{-1} G, the fixed-frame solution, in the cell x + i y.

    H1 = G1 / y and H0 = G0 + x H1, so h = Re g + (i - x) Im g / y.
    """
    return g.real + (1j - x) * (g.imag / y)


@np.errstate(**_QUIET)
def _solve_targets(batch: OperatorBatch, targets, row, lo, hi, alo, ahi):
    """Invert the monotone phase of ``batch`` at each target; returns lambdas.

    Target j belongs to batch row ``row[j]``, whose window [lo, hi) has
    endpoint phases alo, ahi.  Safeguarded Newton (``rtsafe``, Numerical
    Recipes 9.4) with one Newton rule: every lane keeps a bracket [a, b]
    around its root, and where |alpha - target| < 2 pi its next point is
    lambda - zeta / zeta' on the secular function
    zeta = Im(g e^{-i u / 2}), g = G0 - i G1 and u the row's target offset, when
    that lands strictly inside the bracket and is at most half the step
    before last.  Everywhere else the next point is the bracket midpoint.
    zeta's zeros are where alpha crosses u + 2 pi j for some j, so in that
    band it vanishes only at this target's root.  A KN phase is a
    staircase, flat between steep rises at the roots, where the entire zeta
    is close to linear and its step lands near the root.  The half-step
    condition breaks Newton cycles between the flat stretches either side
    of a steep phase rise, which land inside the bracket yet shrink it by a
    little each time.  A zeta' lost to overflow is not finite, and takes no
    step.

    A lane has two exits: polished, once |zeta / zeta'| <= LAMBDA_TOL with
    |alpha - target| < pi / 2, returning lambda - zeta / zeta'; or on its
    bracket, once that is narrower than LAMBDA_TOL, returning the
    midpoint.  Later sweeps advance only the lanes still active.  A lane
    still active after MAX_SOLVER_ITERATIONS sweeps raises a conditioning
    error.

    The brackets are the shared ones of :func:`_share_brackets`: after each
    sweep every evaluated point of a row, the lane's own point among them,
    tightens the bracket of every target of that row.  Where a zeta step
    leaves its bracket, or the lane is 2 pi or more from its target, the
    neighbours' points make that bracket, and its bisection, short from
    the first sweeps on.
    """
    t = np.asarray(targets, dtype=float)
    a, b = (np.broadcast_to(np.asarray(w, dtype=float), t.shape).copy() for w in (lo, hi))
    span = np.maximum(ahi - alo, 1e-300)
    lam = np.clip(a + (b - a) * (t - alo) / span, a, b)
    # zeta = Im(g e^{-i u / 2}) and zeta' = Im(dg e^{-i u / 2})
    turn = np.exp(-0.5j * batch.u[row])
    out = np.empty(t.shape)
    live = np.arange(t.size)
    dx = dxold = b - a  # last step and the step before it
    for _ in range(MAX_SOLVER_ITERATIONS):
        g, dg, half = batch._lanes(lam, row[live], want_deriv=True, want_phase=True)
        alpha = 2.0 * _lift(g, half)
        f = alpha - t[live]
        # a ratio, so it keeps its bits however large G grows; a dG lost to
        # overflow leaves zeta' not finite, which takes no step
        zeta_d = (dg * turn[live]).imag
        ok = np.isfinite(zeta_d) & (zeta_d != 0.0)
        zeta_step = np.where(ok, (g * turn[live]).imag / np.where(ok, zeta_d, 1.0), np.inf)
        a, b = _share_brackets(row[live], alpha, lam, t[live], a, b)
        polished = (np.abs(zeta_step) <= LAMBDA_TOL) & (np.abs(f) < 0.5 * math.pi)
        done = polished | ((b - a) < LAMBDA_TOL)
        out[live[done]] = np.where(polished, lam - zeta_step, 0.5 * (a + b))[done]
        if done.all():
            return out
        keep = ~done
        live, lam, a, b, f, zeta_step, dx, dxold = (
            v[keep] for v in (live, lam, a, b, f, zeta_step, dx, dxold))
        # within 2 pi of its target, zeta vanishes only at the target's root
        step = np.where(np.abs(f) < TWO_PI, zeta_step, np.inf)
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


def _share_brackets(row, alpha, lam, t, a, b):
    """Tighten the bracket [a, b] of each lane's target by every point of its row.

    Lane j has swept batch row ``row[j]`` at ``lam[j]``, where the phase
    is ``alpha[j]``, and seeks the root of target ``t[j]`` of that row.
    The phase increases strictly, so a point of the row whose phase is
    below t lies left of t's root, and a point at or above t lies right of
    it; the lane's own point is one of them, so this is also the lane's
    own bracket update.  One ``lexsort`` puts targets and
    points in order by the exact keys (row, phase), a target before a
    point of equal phase, and points of equal phase by lambda; the last
    point before a target and the first one after it are its nearest
    points on either side.
    """
    n = row.size
    order = np.lexsort((np.concatenate([t, lam]), np.repeat([0, 1], n),
                        np.concatenate([t, alpha]), np.concatenate([row, row])))
    merged = np.arange(2 * n)
    place = np.empty(2 * n, dtype=int)
    place[order] = merged
    point, target = order >= n, place[:n]
    before = np.maximum.accumulate(np.where(point, merged, -1))[target]
    after = np.minimum.accumulate(np.where(point, merged, 2 * n)[::-1])[::-1][target]
    # a point's lane is its entry minus n; with no point on a side, that end stays
    below, above = order[np.maximum(before, 0)] - n, order[np.minimum(after, 2 * n - 1)] - n
    a = np.where((before >= 0) & (row[below] == row), np.maximum(a, lam[below]), a)
    b = np.where((after < 2 * n) & (row[above] == row), np.minimum(b, lam[above]), b)
    return a, b


# ---------------------------------------------------------------------------
# one operator: views of its one-row batch


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
    lams, left, right, _ = op.batch.weights(window)
    return SpectralMeasure(lambdas=lams, weights=left if side == "left" else right,
                           window=window, side=side)


def trace_and_hsnorm(op: DiracOperator):
    """Integral trace and squared Hilbert-Schmidt norm of the inverse.

    trace = int u0^t R u1 dt and HS^2 = 2 iint_{s<t} u0^t R(s) u0 u1^t R(t) u1,
    with u1 normalized to u0^t J u1 = 1.  Piecewise-constant R reduces both
    to exact prefix sums over cells.
    """
    u0, u1 = op.u0, op.normalized_u1()
    x, y, dt = op.path.real, op.path.imag, op.batch.dt

    def quad(a, b):
        # a^t R b with R = [[1, -x], [-x, x^2 + y^2]] / (2y), vectorized in cells
        return (a[0] * b[0] - x * (a[0] * b[1] + a[1] * b[0])
                + (x * x + y * y) * a[1] * b[1]) / (2.0 * y)

    f, g, h = quad(u0, u0), quad(u1, u1), quad(u0, u1)
    trace = float(np.sum(h * dt))
    fdt = f * dt
    prefix = np.concatenate([[0.0], np.cumsum(fdt)[:-1]])
    hs = float(2.0 * np.sum(g * dt * prefix) + np.sum(f * g * dt * dt))
    return trace, hs


# ---------------------------------------------------------------------------
# transforms


def conjugate_operator(op: DiracOperator, Q) -> DiracOperator:
    """Conjugation by a real det-1 matrix Q.

    The path moves by the fractional linear action of Q and both boundary
    vectors by Q itself; for Q = T_r (a hyperbolic rotation about i) both
    spectral measures are unchanged.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (2, 2) or abs(np.linalg.det(Q) - 1.0) > 1e-12:
        raise ValueError("conjugation requires a real 2x2 matrix with det 1")
    (a, b), (c, d) = Q
    return DiracOperator(grid=op.grid.copy(), path=(a * op.path + b) / (c * op.path + d),
                         u0=Q @ op.u0, u1=Q @ op.u1, origin=op.origin)


def reverse_operator(op: DiracOperator) -> DiracOperator:
    """Time reversal; the left and right spectral measures trade places.

    The grid reflects through t -> 1 - t, each cell value z maps to
    -conj(z), and the boundary vectors swap with a sign: tau~ = rho^-1 S
    tau S rho, so R~(t) = S R(1-t) S and the eigenfunctions are
    f~(t) = S f(1-t).
    """
    S = np.array([1.0, -1.0])
    return DiracOperator(grid=(1.0 - op.grid)[::-1], path=-np.conj(op.path[::-1]),
                         u0=S * op.u1, u1=S * op.u0, origin=op.origin)
