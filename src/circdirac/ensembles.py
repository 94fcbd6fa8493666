"""Random objects: coefficient ensembles, Sine_beta paths, and biasing.

Sampling conventions.  All randomness flows through :class:`SeedSpec`;
identical (master_seed, stream_id) reproduce identical draws bit for bit
on one platform, and distinct stream ids give independent streams.  Two
stream contracts are in use, each with one owner here that the criteria
and the command line both call.  :func:`sine_replicas` gives Sine_beta
replica i stream i of the seed (:func:`sample_sine_paths` takes one
:class:`SeedSpec` per row), so the batch size and the order of the draws
cannot change a replica; it draws and sweeps the replicas in blocks of
rows, one block alive at a time, and hands back one value per row.
Bulk draws of coefficients (``kn_gammas`` and ``biased_gammas`` with m
rows, and :class:`KNMeasureSampler`, which is ``kn_gammas`` on the
stream of its ``base``) take the whole block from one stream, so a
replica there depends on the block size;
:func:`window_biasing` holds the window-biasing experiment's draws, on
the two streams its caller names.

The coefficient ensemble with parameters (n, beta) draws the modified
coefficients independently: gamma_k = r_k e^{i Theta_k} with
r_k^2 ~ Beta(1, (beta/2)(n-k-1)) by exact inversion r^2 = 1 - U^{1/s},
Theta_k uniform, and the last coefficient uniform on the unit circle.
The atom-at-1-biased version keeps the same radial law and tilts each
angle by the Poisson kernel at the real point r_k; that conditional angle
law is the harmonic measure seen from r_k, sampled exactly as the boundary
image of a uniform point under the disk automorphism w -> (w+r)/(1+rw).
The Palm map :func:`palm_gammas` sends the interior coefficients through
the involution iota of the disk, which keeps their moduli, and pins the
last to 1, so each measure gains an atom at angle 0.

The Sine_beta driving path lives in logarithmic time u = (4/beta) log t:
y = exp(b2(u) - u/2) and x is the Ito integral -int_u^0 e^{b2-s/2} db1,
accumulated from u = 0 with left-endpoint (Euler-Maruyama) sums.  It is a
hyperbolic Brownian motion, so its frame steps are its increments:
:func:`sample_sine_paths` sweeps the points
w_k = d1_{k-1} + i exp(d2_{k-1} - h / 2) of the upper half plane as drawn
and forms no path, and :func:`sample_sine_operator` is one row of it,
which forms its path only where one is asked for.  The path is truncated
at t_min and laid on the time grid t = e^{beta u / 4};
the boundary condition at 1 is that of the slope q,
:func:`circdirac.dirac.boundary_direction`: [-q, -1] for a real q and
[1, 0] for the infinity slope (q = inf, the Palm measure of Sine_beta).
``SinePathSpec.q`` fixes the slope, or, left None, has each row draw its
own standard Cauchy q (tan(pi(U - 1/2))), which gives Sine_beta itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .opuc import CoefficientSequence, _measures_from_gammas_batch
from .dirac import DiracOperator, OperatorBatch, boundary_direction

__all__ = [
    "SeedSpec",
    "SinePathSpec",
    "kn_gammas",
    "biased_gammas",
    "sample_kn",
    "KNMeasureSampler",
    "window_biasing",
    "palm_gammas",
    "palm_transform",
    "sample_sine_paths",
    "sine_replicas",
    "sample_sine_operator",
    "remove_atom",
    "bias_by_window",
]

TWO_PI = 2.0 * math.pi

#: :func:`sine_replicas` draws and sweeps its rows in blocks of at most this
#: many, about 8 MB of frame steps at 4096 cells.  A window's endpoint sweep
#: of a block, two lanes per row, stays below ``dirac._CHUNK_LANES``, so
#: every sweep of a block runs chunked and a row's counts and roots do not
#: depend on the block it falls in.
_BLOCK_ROWS = 127


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible stream address: a master seed plus a stream id."""

    master_seed: int
    stream_id: int = 0

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)


# ---------------------------------------------------------------------------
# Killip-Nenciu coefficients and measures


def _require_ensemble(n: int, beta: float) -> None:
    if n < 1 or not 0.0 < beta < math.inf:
        raise ValueError("need n >= 1 and finite beta > 0")


def _radii(rng: np.random.Generator, n: int, beta: float, m: int) -> np.ndarray:
    """(m, n - 1) radii of the (n, beta) ensemble, one uniform block from ``rng``.

    r_k^2 ~ Beta(1, s_k), s_k = (beta/2)(n-k-1), by inversion r = sqrt(1 - U^{1/s}).
    """
    _require_ensemble(n, beta)
    s = 0.5 * beta * (n - 1 - np.arange(n - 1))
    return np.sqrt(1.0 - rng.random((m, n - 1)) ** (1.0 / s))


def kn_gammas(rng: np.random.Generator, n: int, beta: float, m: int) -> np.ndarray:
    """(m, n) modified coefficients of the (n, beta) ensemble, all drawn from ``rng``.

    Draw order: radii, angles, last angle.
    """
    r = _radii(rng, n, beta, m)
    interior = r * np.exp(1j * (TWO_PI * rng.random((m, n - 1))))
    return np.column_stack((interior, np.exp(1j * (TWO_PI * rng.random(m)))))


def sample_kn(n: int, beta: float, seed: SeedSpec) -> CoefficientSequence:
    """One draw of the modified coefficients of the (n, beta) ensemble.

    |gamma_k|^2 ~ Beta(1, (beta/2)(n-k-1)) with uniform independent phase
    for k <= n-2; gamma_{n-1} uniform on the boundary.
    """
    g = kn_gammas(seed.rng(), n, beta, 1)[0]
    return CoefficientSequence(kind="modified", values=g)


class KNMeasureSampler:
    """Batched replicas of the (n, beta) ensemble's coefficients.

    The replicas are the rows of one :func:`kn_gammas` draw from the
    stream that ``base`` names; :func:`window_biasing` converts them to
    measures with one batched conversion.  The benchmark's tracer times
    the draws per replica through ``gammas_for``, so the class stays until
    the benchmark change of ROADMAP item 1 keys that metric on
    :func:`kn_gammas`.
    """

    def __init__(self, n: int, beta: float):
        _require_ensemble(n, beta)
        self.n = int(n)
        self.beta = float(beta)

    def gammas_for(self, base: SeedSpec, replicas: int) -> np.ndarray:
        """(replicas, n) modified coefficients: ``kn_gammas(base.rng(), n, beta, replicas)``."""
        if replicas < 1:
            raise ValueError("need at least one replica")
        return kn_gammas(base.rng(), self.n, self.beta, replicas)


# ---------------------------------------------------------------------------
# Palm transform and the directly sampled biased law


def palm_gammas(g) -> np.ndarray:
    """Palm (atom-at-1) map on modified coefficients, one sequence per row.

    gamma'_k = iota(gamma_k) for k <= n-2 and gamma'_{n-1} = 1 along the
    last axis; the moduli are untouched and each output measure has an
    atom at angle 0.  iota(gamma) = -gamma (1 - conj(gamma)) / (1 - gamma)
    keeps the modulus and sends the parameter of an affine disk isometry
    (fixing the boundary point 1, sending gamma to 0) to the parameter of
    its inverse; gamma = 1, its pole, gives nan/inf.
    """
    out = np.array(g, dtype=complex)
    g = out[..., :-1]
    out[..., :-1] = -g * (1.0 - np.conj(g)) / (1.0 - g)
    out[..., -1] = 1.0
    return out


def palm_transform(gammas: CoefficientSequence) -> CoefficientSequence:
    """:func:`palm_gammas` of one modified coefficient sequence."""
    gammas.require_kind("modified")
    return CoefficientSequence(kind="modified", values=palm_gammas(gammas.values))


def biased_gammas(rng: np.random.Generator, n: int, beta: float, m: int) -> np.ndarray:
    """(m, n) draws of the biased coefficient law from ``rng``; draw order: radii, angles.

    The law has density ~ (1-|z|^2)^s |1-z|^{-2} in coordinate k <= n-2,
    with s = (beta/2)(n-k-1); the last coefficient is pinned to 1.
    Sampling is exact: the radial marginal is unchanged by the |1-z|^{-2}
    tilt (the Poisson kernel integrates to (1-r^2)^{-1} along circles), and
    the angle given r follows the harmonic measure from the point r, drawn
    as arg((e^{i Theta} + r)/(1 + r e^{i Theta})).
    """
    r = _radii(rng, n, beta, m)
    w = np.exp(1j * rng.uniform(0.0, TWO_PI, (m, n - 1)))
    phi = np.angle((w + r) / (1.0 + r * w))
    return np.column_stack((r * np.exp(1j * phi), np.ones(m)))


# ---------------------------------------------------------------------------
# Sine_beta operator paths


@dataclass(frozen=True)
class SinePathSpec:
    """Resolution and boundary slope of a sampled Sine_beta operator.

    ``q`` is the right boundary slope: None draws a standard Cauchy slope
    per row (Sine_beta), ``math.inf`` gives the infinity slope (its Palm
    measure), and a real value fixes it.
    """

    beta: float
    t_min: float = 1e-4
    cells: int = 4096
    q: float | None = None

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError("beta must be positive and finite")
        if not 0.0 < self.t_min < 1.0:
            raise ValueError("t_min must lie in (0, 1)")
        if self.cells < 2:
            raise ValueError("need at least 2 cells")
        if self.q is not None and math.isnan(self.q):
            raise ValueError("q must not be nan")


def _sine_grid(spec: SinePathSpec):
    """(t, u, h): the time grid, the left u of each cell, and the u-step h.

    The u-grid is uniform on [(4/beta) log t_min, 0]; t = e^{beta u / 4}.
    """
    u_min = (4.0 / spec.beta) * math.log(spec.t_min)
    u = np.linspace(u_min, 0.0, spec.cells + 1)
    t = np.exp(0.25 * spec.beta * u)
    t[0], t[-1] = spec.t_min, 1.0
    return t, u[:-1], -u_min / spec.cells


def sample_sine_paths(spec: SinePathSpec, seeds) -> OperatorBatch:
    """Brownian-driven operators truncated at t_min, row i from ``seeds[i]``.

    Returns the rows as one :class:`OperatorBatch` on the shared time grid,
    with u0 = [1, 0]; row i is the batch of
    ``sample_sine_operator(spec, seeds[i])``.  The frame steps are the
    increments themselves, since the path is a hyperbolic Brownian motion:
    w_k = d1_{k-1} + i exp(d2_{k-1} - h / 2).  Each row is drawn, written
    straight into the real and imaginary parts of the cell-major complex
    steps and dropped, so no path is formed: none overflows at small beta,
    and the steps keep every bit of the draws.  The last cell comes from
    the last increments alone, y = exp(-d2_{m-1} - u_{m-1} / 2) and
    x = -y d1_{m-1}.
    """
    return _sine_rows(spec, seeds)[2]


def _sine_rows(spec: SinePathSpec, seeds):
    """(t, u1, batch): the time grid, each row's u1, and :func:`sample_sine_paths`.

    Draw order per row: b2 increments, b1 increments, then the Cauchy
    variable (when ``spec.q`` is None).
    """
    t, u, h = _sine_grid(spec)
    w = np.empty((len(seeds), spec.cells), dtype=complex, order="F")
    w[:, 0] = 1j
    # per row: its last increments (d1, d2) and its u1
    ends, u1 = np.empty((2, len(seeds), 2))
    for i, seed in enumerate(seeds):
        rng = seed.rng()
        d2, d1 = math.sqrt(h) * rng.standard_normal((2, spec.cells))
        u1[i] = boundary_direction(math.tan(math.pi * (rng.random() - 0.5))
                                   if spec.q is None else spec.q)
        w.real[i, 1:], w.imag[i, 1:], ends[i] = d1[:-1], np.exp(d2[:-1] - 0.5 * h), (d1[-1], d2[-1])
    y = np.exp(-ends[:, 1] - 0.5 * u[-1])
    x = -(y * ends[:, 0])
    # the target is X_{m-1} u1 = [u1_0 - x u1_1, y u1_1]
    target = np.stack([u1[:, 0] - x * u1[:, 1], y * u1[:, 1]], axis=1)
    return t, u1, OperatorBatch.from_steps(t, w, np.stack([x, y], axis=1), target)


def sine_replicas(spec: SinePathSpec, seed: int, replicas: int, per_row) -> np.ndarray:
    """``per_row`` of ``replicas`` Sine_beta rows, row i from stream i of ``seed``.

    The rows are drawn by :func:`sample_sine_paths` in blocks of at most
    ``_BLOCK_ROWS``; ``per_row`` maps each block's :class:`OperatorBatch`
    to one value per row, and the values come back concatenated in row
    order.  A block is dropped before the next one is drawn, so the steps
    held at once do not grow with ``replicas``.
    """
    return np.concatenate([
        per_row(sample_sine_paths(spec, [SeedSpec(seed, i) for i in
                                         range(lo, min(lo + _BLOCK_ROWS, replicas))]))
        for lo in range(0, replicas, _BLOCK_ROWS)])


def sample_sine_operator(spec: SinePathSpec, seed: SeedSpec) -> DiracOperator:
    """One Sine_beta operator: row 0 of ``sample_sine_paths(spec, [seed])``, drawn once.

    The operator is its steps; its path, anchored so b2(0) = 0, which puts
    the cell at t = 1 one Brownian step from i, is formed only where one
    is asked for, and raises "path overflow" there at small beta.
    """
    t, (u1,), batch = _sine_rows(spec, [seed])
    return DiracOperator(t, u0=(1.0, 0.0), u1=u1, origin="sine-beta", batch=batch)


# ---------------------------------------------------------------------------
# atom removal and window biasing


def _circ_dist(a, b):
    return np.abs(np.mod(np.asarray(a) - b + math.pi, TWO_PI) - math.pi)


def remove_atom(angles, weights):
    """Drop each row's atom at 1 (angle 0, within 1e-9) and renormalize.

    ``angles``/``weights`` hold one measure per row; returns the
    (angles, weights) of the reduced measures, one column fewer.
    """
    angles = np.asarray(angles)
    m, n = angles.shape
    if n < 2:
        raise ValueError("cannot remove the only atom of a measure")
    d = _circ_dist(angles, 0.0)
    j = np.argmin(d, axis=1)
    if np.max(d[np.arange(m), j]) > 1e-9:
        raise ValueError("no atom at angle 0")
    keep = np.ones_like(angles, dtype=bool)
    keep[np.arange(m), j] = False
    red_w = np.asarray(weights)[keep].reshape(m, n - 1)
    return angles[keep].reshape(m, n - 1), red_w / red_w.sum(axis=1, keepdims=True)


def bias_by_window(angles, atom_weights, epsilon: float) -> np.ndarray:
    """Importance weights of drawn replica measures for the window (-eps, eps).

    ``angles``/``atom_weights`` hold one replica measure per row, as the
    batched conversion of :meth:`KNMeasureSampler.gammas_for` returns
    them; draw once and call this for each epsilon, as
    :func:`window_biasing` does.  Weight i is
    mu_i(arc)/mean(mu(arc)); an all-zero weight vector (no replica charges
    the arc) is an error.
    Acceptance-rejection on the arc event would waste nearly all replicas
    at small epsilon, hence the self-normalized importance weighting.
    """
    if not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ValueError("epsilon must be finite and positive")
    inside = _circ_dist(angles, 0.0) < epsilon
    w = np.sum(atom_weights * inside, axis=1)
    if not np.any(w > 0.0):
        raise ValueError("empty biasing event: no replica charges the arc")
    return w / w.mean()


def window_biasing(n: int, beta: float, replicas: int, epsilons, base: SeedSpec,
                   direct: SeedSpec):
    """The draws of the window-biasing experiment: (gammas, weights, direct).

    ``gammas`` (replicas, n) are the rows of one (n, beta) draw from the
    stream ``base`` names, converted to measures once; ``weights``
    (len(epsilons), replicas) holds their :func:`bias_by_window` weights
    at each epsilon; ``direct`` holds 10 000 :func:`biased_gammas` draws
    of the atom-at-1 law from the stream ``direct`` names.
    """
    gammas = KNMeasureSampler(n, beta).gammas_for(base, replicas)
    angles, atom_weights = _measures_from_gammas_batch(gammas)
    weights = np.stack([bias_by_window(angles, atom_weights, eps) for eps in epsilons])
    return gammas, weights, biased_gammas(direct.rng(), n, beta, 10_000)
