"""Random objects: coefficient ensembles, Sine_beta paths, and biasing.

Sampling conventions.  All randomness flows through :class:`SeedSpec`;
identical (master_seed, stream_id) reproduce identical draws bit for bit
on one platform, and distinct stream ids give independent streams.  Two
stream contracts are in use.  :class:`KNMeasureSampler` and the Sine_beta
operator batches give replica i stream id i under a fixed master seed, so
the batch size and the order of the draws cannot change a replica.  The
sampler draws replica i from stream id i still, but as one block for all
replicas: NumPy's ``SeedSequence`` and O'Neill's PCG64 (XSL-RR 128/64)
are carried out in integer array arithmetic over the stream ids, bit for
bit the uniforms of one generator per stream, without building one.  Bulk
draws of coefficients (``_kn_gammas``/``_biased_gammas`` with m rows, as
in the kn-marginals, palm-coefficient-law and circular-jacobi criteria)
take the whole block from one stream, so a replica there depends on the
block size.

The coefficient ensemble with parameters (n, beta) draws the modified
coefficients independently: gamma_k = r_k e^{i Theta_k} with
r_k^2 ~ Beta(1, (beta/2)(n-k-1)) by exact inversion r^2 = 1 - U^{1/s},
Theta_k uniform, and the last coefficient uniform on the unit circle.
The atom-at-1-biased version keeps the same radial law and tilts each
angle by the Poisson kernel at the real point r_k; that conditional angle
law is the harmonic measure seen from r_k, sampled exactly as the boundary
image of a uniform point under the disk automorphism w -> (w+r)/(1+rw).

The Sine_beta driving path lives in logarithmic time u = (4/beta) log t:
y = exp(b2(u) - u/2) and x is the Ito integral -int_u^0 e^{b2-s/2} db1,
accumulated from u = 0 with left-endpoint (Euler-Maruyama) sums.  The
path is truncated at t_min and laid on the time grid t = e^{beta u / 4};
the boundary condition at 1 is [-q, -1] with q standard Cauchy
(tan(pi(U - 1/2))), a fixed q, or [1, 0] for the infinity slope.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .hyperbolic import iota_array
from .opuc import CoefficientSequence, _measures_from_gammas_batch
from .dirac import DiracOperator, OperatorBatch

__all__ = [
    "SeedSpec",
    "SinePathSpec",
    "sample_kn",
    "KNMeasureSampler",
    "palm_gammas",
    "palm_transform",
    "sample_sine_paths",
    "sample_sine_operator",
    "remove_atom",
    "bias_by_window",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SeedSpec:
    """Reproducible stream address: a master seed plus a stream id."""

    master_seed: int
    stream_id: int = 0

    def rng(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.master_seed,
                                    spawn_key=(self.stream_id,))
        return np.random.default_rng(ss)

    def stream(self, i: int) -> "SeedSpec":
        return SeedSpec(master_seed=self.master_seed, stream_id=i)


def _as_rng(seed) -> np.random.Generator:
    return seed.rng() if isinstance(seed, SeedSpec) else np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# many streams at once: NumPy's SeedSequence and PCG64 as array arithmetic

_U32, _U64 = np.uint32, np.uint64
_MASK32 = 0xFFFFFFFF
# SeedSequence hash constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = _U32(0xCA01F9DD), _U32(0x4973F715)
_POOL = 4
# PCG64's 128-bit LCG multiplier, as high and low 64-bit halves
_PCG_MULT = (_U64(2549297995355413924), _U64(4865540595714422341))


def _hashmix(value, h: int, mult: int = _MULT_A):
    """SeedSequence's hashmix on a uint32 array; returns (value, next h).

    With ``mult`` = _MULT_B it is the per-word hash of ``generate_state``.
    """
    h2 = (h * mult) & _MASK32
    value = (value ^ _U32(h)) * _U32(h2)
    return value ^ (value >> _U32(16)), h2


def _mix(x, y):
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ (r >> _U32(16))


def _mulhi64(a, b):
    """High 64 bits of the 128-bit product a * b, from 32-bit limbs."""
    lo32, s32 = _U64(_MASK32), _U64(32)
    a0, a1, b0, b1 = a & lo32, a >> s32, b & lo32, b >> s32
    p01, p10 = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> s32) + (p01 & lo32) + (p10 & lo32)
    return a1 * b1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 state step s -> s * mult + inc mod 2^128, on hi/lo halves."""
    m_hi, m_lo = _PCG_MULT
    p_lo = lo * m_lo
    n_lo = p_lo + inc_lo
    carry = (n_lo < p_lo).astype(_U64)
    return _mulhi64(lo, m_lo) + hi * m_lo + lo * m_hi + inc_hi + carry, n_lo


def _check_streams(master_seed: int, lo: int, hi: int) -> None:
    """Refuse seeds and stream ids in [lo, hi] that ``_stream_uniforms`` cannot take.

    ``SeedSequence`` refuses negative integers; an id of 2^32 or more
    would take a second spawn-key word, a layout the block draw does not
    follow.
    """
    if master_seed < 0 or lo < 0:
        raise ValueError("expected non-negative integer")
    if hi > _MASK32:
        raise ValueError("stream ids must be below 2**32")


def _stream_uniforms(master_seed: int, ids, k: int) -> np.ndarray:
    """(len(ids), k) uniforms; row i is ``SeedSpec(master_seed, ids[i]).rng().random(k)``.

    Bit for bit the draws of one generator per stream, computed for all
    streams at once: NumPy's ``SeedSequence`` entropy pool and
    ``generate_state(4, uint64)``, then O'Neill's PCG64 (XSL-RR 128/64)
    seeding, state steps and ``random()`` = (output >> 11) 2^-53, in
    uint32/uint64 array arithmetic.  The hash-constant schedule does not
    depend on the data, so all streams share it; the master seed's words
    mix into the pool identically for every stream, and only the final
    spawn-key word differs.  Refuses, before allocating, what
    ``SeedSequence`` refuses (negative seeds and ids) and ids of 2^32 or
    more, whose spawn key would take a second word.
    """
    master_seed = operator.index(master_seed)
    ids = np.asarray(ids)
    if ids.size:
        _check_streams(master_seed, ids.min(), ids.max())
    # entropy words: the master seed's 32-bit words, padded with zeros to
    # the pool size because a spawn key follows, then the stream id
    words = [(master_seed >> (32 * j)) & _MASK32
             for j in range(max(1, -(-master_seed.bit_length() // 32)))]
    words += [0] * (_POOL - len(words))
    entropy = [np.full(1, w, dtype=_U32) for w in words] + [ids.astype(_U32)]
    h = _INIT_A
    pool = []
    for e in entropy[:_POOL]:
        v, h = _hashmix(e, h)
        pool.append(v)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                v, h = _hashmix(pool[src], h)
                pool[dst] = _mix(pool[dst], v)
    for e in entropy[_POOL:]:
        for dst in range(_POOL):
            v, h = _hashmix(e, h)
            pool[dst] = _mix(pool[dst], v)
    # generate_state(4, uint64): eight words cycling the pool, paired
    # little-endian into (seed hi, seed lo, inc hi, inc lo)
    h = _INIT_B
    state = []
    for j in range(2 * _POOL):
        v, h = _hashmix(pool[j % _POOL], h, _MULT_B)
        state.append(v.astype(_U64))
    s_hi, s_lo, i_hi, i_lo = (state[2 * j] | (state[2 * j + 1] << _U64(32))
                              for j in range(4))
    # pcg64_srandom: inc = 2 initseq + 1; s = 0 -> step, add seed, step
    inc_hi = (i_hi << _U64(1)) | (i_lo >> _U64(63))
    inc_lo = (i_lo << _U64(1)) | _U64(1)
    n_lo = inc_lo + s_lo
    hi, lo = _lcg_step(inc_hi + s_hi + (n_lo < inc_lo).astype(_U64), n_lo,
                       inc_hi, inc_lo)
    out = np.empty((ids.size, k))
    for j in range(k):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        x = hi ^ lo
        rot = hi >> _U64(58)
        x = (x >> rot) | (x << ((_U64(64) - rot) & _U64(63)))
        out[:, j] = (x >> _U64(11)) * (1.0 / 9007199254740992.0)
    return out


# ---------------------------------------------------------------------------
# Killip-Nenciu coefficients and measures


def _kn_gammas(rng: np.random.Generator, n: int, beta: float, m: int) -> np.ndarray:
    """(m, n) modified coefficients; draw order: radii, angles, last angle."""
    return _kn_from_uniforms(np.concatenate(
        [rng.random((m, n - 1)), rng.random((m, n - 1)), rng.random((m, 1))], axis=1),
        beta)


def _kn_from_uniforms(u: np.ndarray, beta: float) -> np.ndarray:
    """Modified coefficients from rows of 2n - 1 uniforms on [0, 1).

    Each row holds n - 1 radius uniforms, n - 1 angle uniforms and the
    last angle's uniform; an angle is 2 pi U, bit for bit the value of
    ``rng.uniform(0, 2 pi)`` on the same draw.
    """
    n = (u.shape[1] + 1) // 2
    s = 0.5 * beta * (n - 1 - np.arange(n - 1))
    out = np.empty((len(u), n), dtype=complex)
    r = np.sqrt(1.0 - u[:, :n - 1] ** (1.0 / s))
    out[:, :-1] = r * np.exp(1j * (TWO_PI * u[:, n - 1:-1]))
    out[:, -1] = np.exp(1j * (TWO_PI * u[:, -1]))
    return out


def sample_kn(n: int, beta: float, seed) -> CoefficientSequence:
    """One draw of the modified coefficients of the (n, beta) ensemble.

    |gamma_k|^2 ~ Beta(1, (beta/2)(n-k-1)) with uniform independent phase
    for k <= n-2; gamma_{n-1} uniform on the boundary.
    """
    if n < 1 or beta <= 0.0:
        raise ValueError("need n >= 1 and beta > 0")
    g = _kn_gammas(_as_rng(seed), n, beta, 1)[0]
    return CoefficientSequence(kind="modified", values=g)


class KNMeasureSampler:
    """Batched replicas of the (n, beta) ensemble: coefficients and measures.

    Replica i is drawn from stream id i under the master seed of ``base``,
    bit for bit the draw of ``sample_kn(n, beta, base.stream(i))``;
    ``sample_batch`` converts all replicas to measures with batched linear
    algebra.
    """

    def __init__(self, n: int, beta: float):
        if n < 1 or beta <= 0.0:
            raise ValueError("need n >= 1 and beta > 0")
        self.n = int(n)
        self.beta = float(beta)

    def gammas_for(self, base: SeedSpec, replicas: int) -> np.ndarray:
        """(replicas, n) modified coefficients, row i from stream id i.

        Row i is bit for bit the draw of ``base.stream(i).rng()``; the
        2n - 1 uniforms of all rows are drawn as one block by
        :func:`_stream_uniforms` (NumPy's ``SeedSequence`` and O'Neill's
        PCG64 XSL-RR as array arithmetic), with no generator per replica.
        """
        if replicas < 1:
            raise ValueError("need at least one replica")
        _check_streams(base.master_seed, 0, replicas - 1)
        u = _stream_uniforms(base.master_seed, np.arange(replicas), 2 * self.n - 1)
        return _kn_from_uniforms(u, self.beta)

    def sample_batch(self, base: SeedSpec, replicas: int):
        """(gammas, angles, weights): one draw and one measure conversion."""
        g = self.gammas_for(base, replicas)
        angles, weights = _measures_from_gammas_batch(g)
        return g, angles, weights


# ---------------------------------------------------------------------------
# Palm transform and the directly sampled biased law


def palm_gammas(g) -> np.ndarray:
    """Palm (atom-at-1) map on modified coefficients, one sequence per row.

    gamma'_k = iota(gamma_k) for k <= n-2 and gamma'_{n-1} = 1 along the
    last axis; the moduli are untouched and each output measure has an
    atom at angle 0.
    """
    out = np.array(g, dtype=complex)
    out[..., :-1] = iota_array(out[..., :-1])
    out[..., -1] = 1.0
    return out


def palm_transform(gammas: CoefficientSequence) -> CoefficientSequence:
    """:func:`palm_gammas` of one modified coefficient sequence."""
    gammas.require_kind("modified")
    return CoefficientSequence(kind="modified", values=palm_gammas(gammas.values))


def _biased_gammas(rng: np.random.Generator, n: int, beta: float, m: int) -> np.ndarray:
    """(m, n) draws of the biased coefficient law; draw order: radii, angles.

    The law has density ~ (1-|z|^2)^s |1-z|^{-2} in coordinate k <= n-2,
    with s = (beta/2)(n-k-1); the last coefficient is pinned to 1.
    Sampling is exact: the radial marginal is unchanged by the |1-z|^{-2}
    tilt (the Poisson kernel integrates to (1-r^2)^{-1} along circles), and
    the angle given r follows the harmonic measure from the point r, drawn
    as arg((e^{i Theta} + r)/(1 + r e^{i Theta})).
    """
    out = np.empty((m, n), dtype=complex)
    s = 0.5 * beta * (n - 1 - np.arange(n - 1))
    u_r = rng.random((m, n - 1))
    r = np.sqrt(1.0 - u_r ** (1.0 / s))
    w = np.exp(1j * rng.uniform(0.0, TWO_PI, (m, n - 1)))
    phi = np.angle((w + r) / (1.0 + r * w))
    out[:, :-1] = r * np.exp(1j * phi)
    out[:, -1] = 1.0
    return out


# ---------------------------------------------------------------------------
# Sine_beta operator paths


@dataclass(frozen=True)
class SinePathSpec:
    """Resolution and boundary choices for a sampled Sine_beta operator."""

    beta: float
    t_min: float = 1e-4
    cells: int = 4096
    q_mode: str = "cauchy"
    q: float | None = None

    def __post_init__(self):
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if not 0.0 < self.t_min < 1.0:
            raise ValueError("t_min must lie in (0, 1)")
        if self.cells < 2:
            raise ValueError("need at least 2 cells")
        if self.q_mode not in ("cauchy", "fixed", "infinity"):
            raise ValueError("q_mode must be cauchy, fixed, or infinity")
        if (self.q_mode == "fixed") != (self.q is not None):
            raise ValueError("q is read only with q_mode 'fixed', and required there")


#: Rows of the block that sample_sine_paths builds, and takes the steps of, at once.
_PATH_BLOCK = 64


def _sine_grid(spec: SinePathSpec):
    """(t, u, sqrt_h): the time grid, the left u of each cell, and sqrt(du).

    The u-grid is uniform on [(4/beta) log t_min, 0]; t = e^{beta u / 4}.
    """
    K = spec.cells
    u_min = (4.0 / spec.beta) * math.log(spec.t_min)
    u = np.linspace(u_min, 0.0, K + 1)
    t = np.exp(0.25 * spec.beta * u)
    t[0], t[-1] = spec.t_min, 1.0
    return t, u[:-1], math.sqrt(-u_min / K)


def _sine_row(spec: SinePathSpec, u, sqrt_h: float, rng: np.random.Generator):
    """One path: its cells (x, y) and its u1.

    Draw order: b2 increments, b1 increments, then the Cauchy variable
    (when q_mode = "cauchy").  The path is anchored so b2(0) = 0, giving
    z = i at t = 1, and its value on a cell is taken at the left edge.
    """
    K = u.size
    d2 = sqrt_h * rng.standard_normal(K)
    d1 = sqrt_h * rng.standard_normal(K)
    # b(u_j) for j < K with b(0) = 0: minus the suffix sums of increments
    y = np.exp(-np.cumsum(d2[::-1])[::-1] - 0.5 * u)
    x = -np.cumsum((y * d1)[::-1])[::-1]
    if not (np.all(np.isfinite(y)) and np.all(np.isfinite(x))):
        raise ValueError("path overflow: resample or increase t_min")
    if spec.q_mode == "infinity":
        q = math.inf
    elif spec.q_mode == "fixed":
        q = float(spec.q)
    else:
        q = math.tan(math.pi * (rng.random() - 0.5))
    return x, y, ((1.0, 0.0) if math.isinf(q) else (-q, -1.0))


def sample_sine_paths(spec: SinePathSpec, seeds) -> OperatorBatch:
    """Brownian-driven operators truncated at t_min, row i from ``seeds[i]``.

    Returns the rows as one :class:`OperatorBatch` on the shared time grid,
    with u0 = [1, 0]; row i is the operator of
    ``sample_sine_operator(spec, seeds[i])``.  Rows are drawn
    ``_PATH_BLOCK`` at a time and the batch takes the frame steps of each
    block as it comes, so the cells of all rows are never held at once:
    the steps of 500 rows of 4096 cells take 33 MB, and the cells would
    take as much again.
    """
    t, u, sqrt_h = _sine_grid(spec)

    def blocks():
        # one block buffer, refilled: the rows go straight into it
        x, y = np.empty((2, min(len(seeds), _PATH_BLOCK), spec.cells))
        u1 = np.empty((len(x), 2))
        for i in range(0, len(seeds), _PATH_BLOCK):
            for j, seed in enumerate(seeds[i:i + _PATH_BLOCK]):
                x[j], y[j], u1[j] = _sine_row(spec, u, sqrt_h, _as_rng(seed))
            yield x[:j + 1], y[:j + 1], (1.0, 0.0), u1[:j + 1]

    return OperatorBatch.from_blocks(t, len(seeds), blocks())


def sample_sine_operator(spec: SinePathSpec, seed) -> DiracOperator:
    """One Sine_beta operator, bit for bit its row in :func:`sample_sine_paths`."""
    t, u, sqrt_h = _sine_grid(spec)
    x, y, u1 = _sine_row(spec, u, sqrt_h, _as_rng(seed))
    return DiracOperator(grid=t, path=x + 1j * y, u0=(1.0, 0.0), u1=u1, origin="sine-beta")


# ---------------------------------------------------------------------------
# atom removal and window biasing


def _circ_dist(a, b):
    return np.abs(np.mod(np.asarray(a) - b + math.pi, TWO_PI) - math.pi)


def remove_atom(angles, weights, angle: float):
    """Drop each row's atom at ``angle`` (within 1e-9) and renormalize.

    ``angles``/``weights`` hold one measure per row; returns the
    (angles, weights) of the reduced measures, one column fewer.
    """
    angles = np.asarray(angles)
    m, n = angles.shape
    if n < 2:
        raise ValueError("cannot remove the only atom of a measure")
    d = _circ_dist(angles, angle)
    j = np.argmin(d, axis=1)
    if np.max(d[np.arange(m), j]) > 1e-9:
        raise ValueError(f"no atom at angle {angle}")
    keep = np.ones_like(angles, dtype=bool)
    keep[np.arange(m), j] = False
    red_w = np.asarray(weights)[keep].reshape(m, n - 1)
    return angles[keep].reshape(m, n - 1), red_w / red_w.sum(axis=1, keepdims=True)


def bias_by_window(angles, atom_weights, epsilon: float) -> np.ndarray:
    """Importance weights of drawn replica measures for the window (-eps, eps).

    ``angles``/``atom_weights`` hold one replica measure per row, as
    returned by :meth:`KNMeasureSampler.sample_batch`; draw once and call
    this for each epsilon.  Weight i is mu_i(arc)/mean(mu(arc)); an
    all-zero weight vector (no replica charges the arc) is an error.
    Acceptance-rejection on the arc event would waste nearly all replicas
    at small epsilon, hence the self-normalized importance weighting.
    """
    if epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    inside = _circ_dist(angles, 0.0) < epsilon
    w = np.sum(atom_weights * inside, axis=1)
    if not np.any(w > 0.0):
        raise ValueError("empty biasing event: no replica charges the arc")
    return w / w.mean()
