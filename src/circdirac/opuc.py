"""Orthogonal polynomials on the unit circle and coefficient parametrizations.

A probability measure supported on n distinct points of the unit circle is
encoded by n recursion coefficients (the last of unit modulus), or
equivalently by the phase-adjusted "modified" coefficients.  This module
holds the conversions between the three descriptions,

    measure  <->  verblunsky alpha_k  <->  modified gamma_k,

together with the Aleksandrov family (all alpha multiplied by a fixed
unimodular eta).  The operators of measures, laid on their paths in the
hyperbolic plane, are built from the modified coefficients by
:func:`circdirac.dirac.coefficient_batch`, one per row.  Each conversion
runs one batched core along the last axis, and a single sequence runs
as its one row, so it equals its row of any batch bit for bit.

Conventions.  The recursion is

    Phi_{k+1} = z Phi_k - conj(alpha_k) Phi*_k,
    Phi*_{k+1} = Phi*_k - alpha_k z Phi_k,          Phi_0 = Phi*_0 = 1,

and the modified coefficients are gamma_0 = conj(alpha_0) and
gamma_k = conj(alpha_k) prod_{j<k} (1-conj(gamma_j))/(1-gamma_j).

Measure -> coefficients runs the Szego recursion on the atoms; coefficients
-> measure takes the atoms as the eigenvalues of the unitary CMV matrix
L M (Cantero, Moral & Velazquez 2003), whose characteristic polynomial is
Phi_n, and the weights from the Christoffel sum
1/weight_j = sum_k |Phi_k(atom_j)|^2 / ||Phi_k||^2.  The factors L and M
are symmetric and unitary (Killip & Nenciu 2007), so with S = M^{1/2},
built block by block in closed form, W = S L S is symmetric unitary and
similar to L M.  A real orthogonal matrix diagonalizes such a W, so its
Cayley transform is a real symmetric matrix; its lower triangle, all
the eigensolver reads, is formed in the back substitution of one
tridiagonal solve (Ammar, Gragg & Reichel 1986 reduce the unitary
eigenproblem to Hermitian ones in the same spirit), and one Newton step on
Phi_n polishes its eigenvalues: on Killip-Nenciu draws at n = 400 the
atoms agree with 40-digit roots to 1.1e-15.  The round trip is good to
4.8e-12 at n = 400.  Measures with an interior 1 - |alpha_k|^2 below
MIN_INTERIOR_DEFECT (merging atoms, vanishing weights) are refused.  The
O(n) recursions update preallocated arrays in place, with no new array
per step, and coefficients -> measure has one memory rule: rows go
through in blocks of about ``_BLOCK_ENTRIES`` matrix entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoefficientSequence",
    "UnitCircleMeasure",
    "coefficient_rows",
    "convert_coefficients",
    "measure_to_alpha",
    "alpha_to_measure",
    "aleksandrov_transform",
    "alphas_from_gammas",
    "gammas_from_alphas",
]

TWO_PI = 2.0 * math.pi

#: The last |coefficient| of a row must be 1 within this.
LAST_COEFF_TOL = 1e-10

#: Measure -> coefficients refuses an interior 1 - |alpha_k|^2 below this: its
#: rounding error is about 1e-16, so weights built from it are then good to
#: about 1e-6 only; and LAST_COEFF_TOL already counts |alpha| this close to 1.
MIN_INTERIOR_DEFECT = 1e-10

#: Atoms closer than this in circular angle are rejected, not merged.
MIN_ATOM_SEPARATION = 1e-10

#: Coefficients -> measure converts rows in blocks of about this many n x n
#: matrix entries, so its work arrays stay near 0.5 MB for any batch size.
_BLOCK_ENTRIES = 2 ** 15


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """A finite coefficient sequence, either ``verblunsky`` or ``modified``.

    Its values are one row that :func:`coefficient_rows` accepts.
    """

    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("verblunsky", "modified"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        if np.ndim(self.values) != 1:
            raise ValueError("coefficient sequence must be a 1-d array")
        object.__setattr__(self, "values", coefficient_rows(self.values)[0])

    def __len__(self) -> int:
        return self.values.size

    def require_kind(self, kind: str) -> None:
        if self.kind != kind:
            raise ValueError(f"expected {kind} coefficients, got {self.kind}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "values": [[v.real, v.imag] for v in self.values],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CoefficientSequence":
        vals = np.array([complex(re, im) for re, im in d["values"]])
        return cls(kind=d["kind"], values=vals)


@dataclass(frozen=True, eq=False)
class UnitCircleMeasure:
    """Finitely supported measure on the circle: distinct atoms with weights.

    Angles are wrapped into [0, 2pi) and sorted; atoms closer than
    ``MIN_ATOM_SEPARATION`` (circularly) are rejected.  ``normalized`` is
    derived: True when the weights sum to 1 within 1e-12.
    """

    angles: np.ndarray
    weights: np.ndarray
    normalized: bool = field(init=False)

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if ang.ndim != 1 or ang.shape != w.shape or ang.size == 0:
            raise ValueError("angles and weights must be matching nonempty 1-d arrays")
        if not (np.all(np.isfinite(ang)) and np.all(np.isfinite(w))):
            raise ValueError("angles and weights must be finite")
        ang = np.mod(ang, TWO_PI)
        ang[ang == TWO_PI] = 0.0   # np.mod rounds a tiny negative angle up to 2 pi
        if np.any(w <= 0.0):
            raise ValueError("weights must be positive")
        order = np.argsort(ang, kind="stable")
        ang, w = ang[order], w[order]
        if ang.size > 1:
            gaps = np.diff(ang)
            wrap = ang[0] + TWO_PI - ang[-1]
            if min(gaps.min(), wrap) <= MIN_ATOM_SEPARATION:
                raise ValueError("duplicate atoms: angular separation below 1e-10")
        object.__setattr__(self, "angles", ang)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "normalized", abs(w.sum() - 1.0) <= 1e-12)

    def __len__(self) -> int:
        return self.angles.size

    def to_dict(self) -> dict:
        return {"angles": list(self.angles), "weights": list(self.weights)}

    @classmethod
    def from_dict(cls, d: dict) -> "UnitCircleMeasure":
        return cls(angles=np.asarray(d["angles"], dtype=float),
                   weights=np.asarray(d["weights"], dtype=float))


# ---------------------------------------------------------------------------
# coefficient conversions


def coefficient_rows(values) -> np.ndarray:
    """Coefficient rows (rows, n) of either kind, or one row (n,), as (rows, n) complex.

    The one validity rule: finite entries, interior moduli below 1 as
    ``np.abs`` gives them (no square to overflow first), and last moduli
    1 within ``LAST_COEFF_TOL``.  Each rule's message counts its refusals.
    """
    g = np.atleast_2d(np.asarray(values, dtype=complex))
    if g.ndim != 2 or g.shape[1] == 0:
        raise ValueError("coefficient rows must be nonempty")
    for ok, rule in ((np.isfinite(g), "{} of {} rows hold a non-finite coefficient"),
                     (np.abs(g[:, :-1]) < 1.0, "conditioning: {} of {} rows hold an interior "
                      "|coefficient| not below 1 in double"),
                     (np.abs(np.abs(g[:, -1:]) - 1.0) <= LAST_COEFF_TOL,
                      "{} of {} rows hold a last coefficient without unit modulus")):
        bad = np.count_nonzero(~ok.all(axis=1))
        if bad:
            raise ValueError(rule.format(bad, len(g)))
    return g


def _prefix_phase_products(gammas: np.ndarray) -> np.ndarray:
    """P_k = prod_{j<k} (1-conj g_j)/(1-g_j), shape like input, P_0 = 1.

    Formed as exp(-2i sum_{j<k} arg(1-g_j)), unimodular at every k.
    """
    g = np.asarray(gammas, dtype=complex)
    turn = np.zeros(g.shape)
    # the last entry may sit at 1; it never enters a product
    h = 1.0 - g[..., :-1]
    turn[..., 1:] = np.cumsum(np.arctan2(h.imag, h.real), axis=-1)
    return np.exp(-2j * turn)


def alphas_from_gammas(g: np.ndarray) -> np.ndarray:
    """Verblunsky coefficients of modified ones, along the last axis."""
    return np.conj(g) * _prefix_phase_products(g)


def gammas_from_alphas(a: np.ndarray) -> np.ndarray:
    """Modified coefficients of Verblunsky ones, along the last axis.

    Rows run as one (rows, n) array, a single sequence as one row, so each
    product is an array operation and a sequence's bits do not depend on
    the batch around it (numpy rounds a product of complex scalars
    differently from its array loop).
    """
    a = np.asarray(a, dtype=complex)
    conj = np.conj(a.reshape(-1, a.shape[-1]))
    g = np.empty_like(conj)
    turn = np.zeros(len(conj))
    for k in range(conj.shape[1]):
        h = 1.0 - np.multiply(conj[:, k], np.exp(-2j * turn), out=g[:, k])
        turn += np.arctan2(h.imag, h.real)
    return g.reshape(a.shape)


def convert_coefficients(seq: CoefficientSequence, target: str) -> CoefficientSequence:
    """Convert between verblunsky and modified coefficients.

    The two kinds share moduli entrywise; the map is a sequential phase
    twist and is exactly invertible.  A unimodular interior gamma_j = 1
    would degenerate the product; it cannot occur for valid sequences.
    """
    if target not in ("verblunsky", "modified"):
        raise ValueError(f"unknown coefficient kind {target!r}")
    if seq.kind == target:
        return seq
    vals = seq.values
    if np.any(np.abs(1.0 - vals[:-1]) < 1e-14):
        raise ValueError("degenerate product: interior coefficient equals 1")
    if target == "modified":
        out = gammas_from_alphas(vals)
    else:
        out = alphas_from_gammas(vals)
    return CoefficientSequence(kind=target, values=out)


# ---------------------------------------------------------------------------
# measure -> coefficients (Szego recursion on the atoms)


def _szego_step(ak, ck, phi, phis, t0, t1) -> None:
    """(phi, phis) <- (phi - ck phis, phis - ak phi) in place, t0 and t1 as work arrays.

    With phi = z Phi_k(z), phis = Phi*_k(z) and ck = conj(alpha_k), this
    steps the recursion to Phi_{k+1}, Phi*_{k+1}.
    """
    np.multiply(ck, phis, out=t0)
    np.multiply(ak, phi, out=t1)
    phi -= t0
    phis -= t1


def _measures_to_alphas_batch(angles: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Verblunsky coefficients for a batch of measures, shape (m, n) each.

    Szego recursion on the values of Phi_k, Phi*_k at the atoms, with
    conj(alpha_k) = <z Phi_k, Phi*_k> / ||Phi*_k||^2 projected onto the
    computed Phi*_k (so Phi_{k+1} is orthogonal to 1; projecting onto 1
    itself loses digits as n grows).  The last coefficient comes from the
    exact product over atoms.
    """
    ang = np.atleast_2d(np.asarray(angles, dtype=float))
    w = np.atleast_2d(np.asarray(weights, dtype=float))
    m, n = ang.shape
    z = np.exp(1j * ang)
    alphas = np.empty((m, n), dtype=complex)
    phi, phis, wphis, t0, t1 = (np.ones((m, n), dtype=complex) for _ in range(5))
    for k in range(n - 1):
        np.multiply(z, phi, out=phi)
        np.multiply(w, np.conj(phis, out=wphis), out=wphis)
        num = np.add.reduce(np.multiply(phi, wphis, out=t0), axis=1)
        den = np.add.reduce(np.multiply(wphis, phis, out=t1), axis=1).real
        ak = np.conj(num / den)
        if (1.0 - np.abs(ak) ** 2 < MIN_INTERIOR_DEFECT).any():
            raise ValueError(f"conditioning: 1 - |alpha_{k}|^2 below "
                             f"{MIN_INTERIOR_DEFECT:g} (merging atoms or tiny weights)")
        alphas[:, k] = ak
        _szego_step(ak[:, None], np.conj(ak)[:, None], phi, phis, t0, t1)
    last = -((-1.0) ** n) * np.conj(np.prod(z, axis=1))
    alphas[:, n - 1] = last / np.abs(last)
    return alphas


def measure_to_alpha(mu: UnitCircleMeasure) -> CoefficientSequence:
    """Verblunsky coefficients of a normalized measure with n distinct atoms."""
    if not mu.normalized:
        raise ValueError("measure must be normalized (weights summing to 1)")
    a = _measures_to_alphas_batch(mu.angles[None, :], mu.weights[None, :])[0]
    return CoefficientSequence(kind="verblunsky", values=a)


# ---------------------------------------------------------------------------
# coefficients -> measure (CMV eigenvalues + Christoffel weights)


def _phi_n(alphas: np.ndarray, z: np.ndarray, derivative: bool = False):
    """Phi_n(z) for each row of ``alphas`` (m, n) at the matching row of ``z``.

    With ``derivative`` returns (Phi_n(z), z Phi_n'(z)), the second from the
    differentiated recursion.
    """
    m, n = alphas.shape
    conj = np.conj(alphas)
    shape = (m, z.shape[-1])
    phi, phis, t0, t1 = (np.ones(shape, dtype=complex) for _ in range(4))
    if derivative:   # z Phi_k'(z), z Phi*_k'(z)
        dphi, dphis = np.zeros(shape, dtype=complex), np.zeros(shape, dtype=complex)
    for k in range(n):
        ak, ck = alphas[:, k, None], conj[:, k, None]
        np.multiply(z, phi, out=phi)
        if derivative:
            np.multiply(z, dphi, out=dphi)
            dphi += phi
            _szego_step(ak, ck, dphi, dphis, t0, t1)
        _szego_step(ak, ck, phi, phis, t0, t1)
    return (phi, dphi) if derivative else phi


def _m_root_conj(alphas: np.ndarray, rho: np.ndarray):
    """conj(S) for the symmetric unitary square root S of the CMV factor M.

    M = 1 + Theta_1 + Theta_3 + ... (direct sums, Theta_k = [[conj a_k,
    rho_k], [rho_k, -a_k]], cut to conj a_{n-1} at index n-1).  Each 2 x 2
    block is Theta_k = P - i b I with b = Im a_k and P = [[Re a_k, rho_k],
    [rho_k, -Re a_k]] real symmetric, P^2 = (1 - b^2) I, and its root is

        S_k = (1+i)/2 s I + (1-i)/2 P / s,    s = sqrt(1 - b) > 0,

    symmetric, and unitary: on the eigenvectors of P its eigenvalues are
    square roots of those of Theta_k, +-sqrt(1 - b^2) - i b, unimodular.
    The 1 x 1 blocks are 1 and, at even n, conj a_{n-1}, whose root is
    conj(sqrt(a_{n-1})).  Returns (diag, side), each (m, n): the diagonal
    of conj(S), and in row j its entry in the column of j's partner in a
    block, j + 1 at odd j and j - 1 at even j; side is 0 in a 1 x 1 block.
    """
    m, n = alphas.shape
    ak = alphas[:, 1 : n - 1 : 2]
    s = np.sqrt(1.0 - ak.imag)
    p = ak.real / s
    diag = np.ones((m, n), dtype=complex)
    diag[:, 1 : n - 1 : 2] = 0.5 * ((s + p) + 1j * (p - s))
    diag[:, 2::2] = 0.5 * ((s - p) - 1j * (s + p))
    if n % 2 == 0:
        diag[:, n - 1] = np.sqrt(alphas[:, n - 1])
    side = np.zeros((m, n), dtype=complex)
    side[:, 1 : n - 1 : 2] = side[:, 2::2] = (0.5 + 0.5j) * (rho[:, 1::2] / s)
    return diag, side


def _cmv_angles(alphas: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Angles of the eigenvalues of the CMV matrices U = L M, n >= 2, unsorted.

    L = Theta_0 + Theta_2 + ... and M = 1 + Theta_1 + Theta_3 + ... are
    symmetric unitary; with S = M^{1/2} from :func:`_m_root_conj`,
    W = S L S is symmetric unitary and similar to U.  Its real and
    imaginary parts are commuting real symmetric matrices, so a real
    orthogonal matrix diagonalizes W, and the Cayley transform

        A = i (I + e^{-i psi} W)(I - e^{-i psi} W)^{-1} = -2 Im(conj(S) X)

    is real symmetric with eigenvalues -cot((theta_j - psi) / 2); the real
    part of conj(S) X = (I - e^{-i psi} W)^{-1} is I / 2.  Per row, psi is
    the point of a 4n-point grid where |Phi_n| is largest, so no atom is
    near e^{i psi}.  Here I - e^{-i psi} W = S T S with T = M^H - e^{-i psi} L
    complex symmetric tridiagonal, so X = T^{-1} conj(S).  T is factored
    with partial pivoting (the LAPACK zgttrf scheme), and one descending
    pass back-substitutes X and forms A.  ``eigvalsh``, a real symmetric
    problem on half the bytes of a Hermitian one, reads only A's lower
    triangle, whose row j needs rows j and partner[j] of X in columns
    up to j only; so row i of X is solved in its first i + 2 columns,
    the ones the rows above it read, and A's rows of an M block are
    written once both are solved.  A's strictly upper part stays 0.
    One Newton step on Phi_n(e^{i theta}) polishes the angles it gives.
    """
    m, n = alphas.shape
    grid = TWO_PI / (4 * n) * np.arange(4 * n)
    psi = grid[np.argmax(np.abs(_phi_n(alphas, np.exp(1j * grid)[None, :])), axis=1)]
    c = np.exp(-1j * psi)[:, None]
    # diagonals of M^H and L, and the off-diagonal of T (that of -c L at
    # even k, of M^H at odd k); a[:, j] = a_{j-1}, a_{-1} = -1
    a = np.pad(alphas, ((0, 0), (1, 0)), constant_values=-1.0)
    even = np.arange(n) % 2 == 0
    d = np.where(even, -np.conj(a[:, :-1]) - c * np.conj(a[:, 1:]), a[:, 1:] + c * a[:, :-1])
    off = np.where(even[:-1], -c * rho, rho)

    # T = P L' U by partial pivoting (the LAPACK zgttrf scheme), with the
    # same row operations on X, which starts as conj(S): step i swaps rows
    # i and i+1 where |T_i,i| < |T_i+1,i|, then subtracts f times row i from
    # row i+1.  band[:, j] holds row j of T at columns j-1..j+2, first
    # (off_j-1, d_j, off_j, 0), so step i's two rows at columns i..i+2 lie
    # side by side in ``flat``, and U's diagonals end in band[..., 1:];
    # rows i and i+1 of X are zero beyond column i+2.
    band = np.zeros((m, n, 4), dtype=complex)
    band[:, 1:, 0] = band[:, :-1, 2] = off
    band[:, :, 1] = d
    flat = band.reshape(m, 4 * n)
    diag, side = _m_root_conj(alphas, rho)
    j = np.arange(n)
    partner = np.clip(((j - 1) ^ 1) + 1, 0, n - 1)   # a 1 x 1 block's is j
    x = np.zeros((m, n, n), dtype=complex)
    x[:, j, partner] = side
    x[:, j, j] = diag
    for i in range(n - 1):
        pair = flat[:, 4 * i + 1 : 4 * i + 7].reshape(m, 2, 3)
        rows = x[:, i : i + 2, : i + 3]
        s = np.abs(pair[:, 0, 0]) < np.abs(pair[:, 1, 0])
        if s.all():   # numpy buffers an overlapping source before it assigns
            pair[...], rows[...] = pair[:, ::-1], rows[:, ::-1]
        elif s.any():
            pair[s], rows[s] = pair[s, ::-1], rows[s, ::-1]
        f = (pair[:, 1, 0] / pair[:, 0, 0])[:, None]
        pair[:, 1, 1:] -= f * pair[:, 0, 1:]
        rows[:, 1] -= f * rows[:, 0]
    # back substitution, row i in columns :i+2 only; once rows i and
    # partner[i] >= i are solved, they give rows i..partner[i] of the lower
    # triangle of A = -2 Im(conj(S) X)
    d, du, du2 = (band[:, :, k, None] for k in (1, 2, 3))
    cayley = np.zeros((m, n, n))
    for i in range(n - 1, -1, -1):
        r = x[:, i, : i + 2]
        if i + 1 < n:
            r -= du[:, i] * x[:, i + 1, : i + 2]
        if i + 2 < n:
            r -= du2[:, i] * x[:, i + 2, : i + 2]
        r /= d[:, i]
        p = partner[i]
        if p >= i:
            t = x[:, i : p + 1, : p + 1]   # t[:, ::-1] holds the partners' rows
            t = t[:, ::-1] * side[:, i : p + 1, None] + diag[:, i : p + 1, None] * t
            np.multiply(t.imag, -2.0, out=cayley[:, i : p + 1, : p + 1])
    cayley[:, j[1 : n - 1 : 2], j[2::2]] = 0.0   # the blocks' entries above the diagonal
    del x
    if not np.all(np.isfinite(cayley)):   # eigvalsh need not refuse nan
        raise np.linalg.LinAlgError("non-finite Cayley matrix: the solve overflowed")
    theta = psi[:, None] + 2.0 * np.arctan2(1.0, -np.linalg.eigvalsh(cayley))

    phi, dphi = _phi_n(alphas, np.exp(1j * theta), derivative=True)
    return theta - (phi / dphi).imag


def _measures_from_gammas_block(g: np.ndarray):
    """(angles, weights) of one block of rows of the batch below."""
    m, n = g.shape
    alphas = alphas_from_gammas(g)
    # rho_k^2 = 1 - |alpha_k|^2, read from |gamma_k| = |alpha_k|
    rho2 = 1.0 - np.abs(g[:, : n - 1]) ** 2
    theta = np.angle(np.conj(alphas)) if n == 1 else _cmv_angles(alphas, np.sqrt(rho2))
    angles = np.sort(np.mod(theta, TWO_PI), axis=1)
    atoms = np.exp(1j * angles)

    norm2 = np.cumprod(rho2, axis=1)              # ||Phi_k||^2 = prod_{l<k} rho_l^2
    inv_w = np.ones((m, n))
    conj = np.conj(alphas)
    phi, phis, t0, t1 = (np.ones((m, n), dtype=complex) for _ in range(4))
    for k in range(n - 1):
        np.multiply(atoms, phi, out=phi)
        _szego_step(alphas[:, k, None], conj[:, k, None], phi, phis, t0, t1)
        inv_w += np.abs(phi) ** 2 / norm2[:, k, None]
    return angles, 1.0 / inv_w


def _measures_from_gammas_batch(gammas: np.ndarray):
    """Atoms and weights for a batch of modified sequences, shape (m, n).

    Atoms are the eigenvalues of the (unitary) CMV matrices, found through
    a real symmetric Cayley transform and one Newton step (:func:`_cmv_angles`);
    n = 1 gives the atom conj(alpha_0) directly.  Weights invert the
    Christoffel sum.  Rows go through in blocks of about ``_BLOCK_ENTRIES``
    matrix entries, so memory stays bounded for any m, and each row's bits
    do not depend on the batch around it.  Returns (angles, weights), rows
    sorted by angle in [0, 2 pi], where an atom just below 0 may round to
    2 pi and then sorts last.  The rows pass :func:`coefficient_rows`
    first, before any arithmetic could warn.
    """
    g = coefficient_rows(gammas)
    m, n = g.shape
    angles, weights = np.empty((m, n)), np.empty((m, n))
    step = max(1, _BLOCK_ENTRIES // (n * n))
    for lo in range(0, m, step):
        rows = slice(lo, lo + step)
        angles[rows], weights[rows] = _measures_from_gammas_block(g[rows])
    return angles, weights


def alpha_to_measure(alphas: CoefficientSequence) -> UnitCircleMeasure:
    """Measure with the given Verblunsky coefficients.

    Atoms are the roots of Phi_n, taken as the eigenvalues of the CMV
    matrix through a real symmetric Cayley transform and polished by one
    Newton step on Phi_n; the weight at each atom inverts the Christoffel
    sum.  The weights' sum drifts from 1 by rounding that grows with n
    (up to 1.1e-14 on Killip-Nenciu draws at n = 400), so they are divided
    by it to return a normalized measure.
    """
    alphas.require_kind("verblunsky")
    g = gammas_from_alphas(alphas.values)
    ang, w = _measures_from_gammas_batch(g[None, :])
    return UnitCircleMeasure(angles=ang[0], weights=w[0] / w[0].sum())


# ---------------------------------------------------------------------------
# Aleksandrov transform


def aleksandrov_transform(seq: CoefficientSequence, eta: complex) -> CoefficientSequence:
    """Coefficients of the Aleksandrov measure: alpha_k -> eta alpha_k.

    ``eta`` must be unimodular.  The transformed measure's disk path is the
    original path rotated by eta^{-1}; it charges the point 1 exactly when
    eta equals the original final path point b_n.  Accepts either kind and
    returns the same kind.
    """
    eta = complex(eta)
    if not abs(abs(eta) - 1.0) <= 1e-10:  # refuses nan too
        raise ValueError("aleksandrov parameter must have unit modulus")
    if seq.kind == "verblunsky":
        return CoefficientSequence(kind="verblunsky", values=eta * seq.values)
    a = alphas_from_gammas(seq.values)
    g = gammas_from_alphas(eta * a)
    return CoefficientSequence(kind="modified", values=g)
