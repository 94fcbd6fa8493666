"""Orthogonal polynomials on the unit circle and coefficient parametrizations.

A probability measure supported on n distinct points of the unit circle is
encoded by n recursion coefficients (the last of unit modulus), or
equivalently by the phase-adjusted "modified" coefficients.  This module
holds the conversions between the three descriptions,

    measure  <->  verblunsky alpha_k  <->  modified gamma_k,

together with the Aleksandrov family (all alpha multiplied by a fixed
unimodular eta).  The operator of a measure, laid on its path in the
hyperbolic plane, is built from the modified coefficients by
:func:`circdirac.dirac.coefficient_operator`.

Conventions.  The recursion is

    Phi_{k+1} = z Phi_k - conj(alpha_k) Phi*_k,
    Phi*_{k+1} = Phi*_k - alpha_k z Phi_k,          Phi_0 = Phi*_0 = 1,

and the modified coefficients are gamma_0 = conj(alpha_0) and
gamma_k = conj(alpha_k) prod_{j<k} (1-conj(gamma_j))/(1-gamma_j).

Measure -> coefficients runs the Szego recursion on the atoms; coefficients
-> measure takes the atoms from the CMV matrix (Cantero, Moral & Velazquez
2003), whose characteristic polynomial is Phi_n, and the weights from the
Christoffel sum 1/weight_j = sum_k |Phi_k(atom_j)|^2 / ||Phi_k||^2.  On
Killip-Nenciu draws the round trip is good to 7e-12 at n = 400.  Measures
with an interior 1 - |alpha_k|^2 below MIN_INTERIOR_DEFECT (merging atoms,
vanishing weights) are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "CoefficientSequence",
    "UnitCircleMeasure",
    "convert_coefficients",
    "measure_to_alpha",
    "alpha_to_measure",
    "aleksandrov_transform",
]

TWO_PI = 2.0 * math.pi

#: |alpha_{n-1}| must be 1 within this tolerance; sequences failing are rejected.
LAST_COEFF_TOL = 1e-10

#: Measure -> coefficients refuses an interior 1 - |alpha_k|^2 below this: its
#: rounding error is about 1e-16, so weights built from it are then good to
#: about 1e-6 only; and LAST_COEFF_TOL already counts |alpha| this close to 1.
MIN_INTERIOR_DEFECT = 1e-10

#: Atoms closer than this in circular angle are rejected, not merged.
MIN_ATOM_SEPARATION = 1e-10


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True, eq=False)
class CoefficientSequence:
    """A finite coefficient sequence, either ``verblunsky`` or ``modified``.

    Interior entries lie strictly inside the unit disk; the last entry has
    unit modulus (within ``LAST_COEFF_TOL``).
    """

    kind: str
    values: np.ndarray

    def __post_init__(self):
        if self.kind not in ("verblunsky", "modified"):
            raise ValueError(f"unknown coefficient kind {self.kind!r}")
        vals = np.asarray(self.values, dtype=complex)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("coefficient sequence must be a nonempty 1-d array")
        mods = np.abs(vals)
        if np.any(mods[:-1] >= 1.0):
            raise ValueError("interior coefficients must lie strictly inside the disk")
        if abs(mods[-1] - 1.0) > LAST_COEFF_TOL:
            raise ValueError("last coefficient must have unit modulus")
        object.__setattr__(self, "values", vals)

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

    def atoms(self) -> np.ndarray:
        """Atom positions e^{i angle} on the unit circle."""
        return np.exp(1j * self.angles)

    def moment(self, p: int) -> complex:
        """p-th moment sum_j w_j e^{i p angle_j}."""
        return complex(np.sum(self.weights * np.exp(1j * p * self.angles)))

    def to_dict(self) -> dict:
        return {"angles": list(self.angles), "weights": list(self.weights)}

    @classmethod
    def from_dict(cls, d: dict) -> "UnitCircleMeasure":
        return cls(angles=np.asarray(d["angles"], dtype=float),
                   weights=np.asarray(d["weights"], dtype=float))


# ---------------------------------------------------------------------------
# coefficient conversions


def _prefix_phase_products(gammas: np.ndarray) -> np.ndarray:
    """P_k = prod_{j<k} (1-conj g_j)/(1-g_j), shape like input, P_0 = 1.

    Formed as exp(-2i sum_{j<k} arg(1-g_j)), unimodular at every k.
    """
    g = np.asarray(gammas, dtype=complex)
    turn = np.zeros(g.shape)
    # the last entry may sit at 1; it never enters a product
    turn[..., 1:] = np.cumsum(np.angle(1.0 - g[..., :-1]), axis=-1)
    return np.exp(-2j * turn)


def _alphas_from_gammas(g: np.ndarray) -> np.ndarray:
    return np.conj(g) * _prefix_phase_products(g)


def _gammas_from_alphas(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    g = np.empty_like(a)
    turn = np.zeros(a.shape[:-1])
    for k in range(a.shape[-1]):
        g[..., k] = np.conj(a[..., k]) * np.exp(-2j * turn)
        turn = turn + np.angle(1.0 - g[..., k])
    return g


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
        out = _gammas_from_alphas(vals)
    else:
        out = _alphas_from_gammas(vals)
    return CoefficientSequence(kind=target, values=out)


# ---------------------------------------------------------------------------
# measure -> coefficients (Szego recursion on the atoms)


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
    phi = phis = np.ones((m, n), dtype=complex)   # rebound below, never mutated
    for k in range(n - 1):
        zphi = z * phi
        wphis = w * np.conj(phis)
        ak = np.conj(np.sum(zphi * wphis, axis=1) / np.sum(wphis * phis, axis=1).real)
        if np.any(1.0 - np.abs(ak) ** 2 < MIN_INTERIOR_DEFECT):
            raise ValueError(f"conditioning: 1 - |alpha_{k}|^2 below "
                             f"{MIN_INTERIOR_DEFECT:g} (merging atoms or tiny weights)")
        alphas[:, k] = ak
        ak = ak[:, None]
        phi, phis = zphi - np.conj(ak) * phis, phis - ak * zphi
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


def _cmv_matrices(alphas: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """CMV matrices L M, shape (m, n, n); ``rho`` holds rho_0..rho_{n-2}.

    L = Theta_0 + Theta_2 + ..., M = 1 + Theta_1 + Theta_3 + ... (direct
    sums, Theta_k = [[conj a_k, rho_k], [rho_k, -a_k]], cut to conj a_{n-1}
    at index n-1), so det(z - L M) = Phi_n.  Row pair (k, k+1), k even, is
    Theta_k times rows k, k+1 of M: rho_{k-1}, -a_{k-1} in columns k-1, k
    and conj a_{k+1}, rho_{k+1} in columns k+1, k+2.  With a_{-1} = -1 and
    rho_{-1} = rho_{n-1} = 0, entries outside the matrix are all zero.
    """
    m, n = alphas.shape
    a = np.pad(alphas, ((0, 0), (1, 1)), constant_values=((0, 0), (-1, 0)))
    r = np.pad(rho, ((0, 0), (1, 2)))   # a[:, j+1] = a_j, r[:, j+1] = rho_j
    k = np.arange(0, n, 2)
    ak, rk = a[:, k + 1], r[:, k + 1]
    out = np.zeros((m, n, n), dtype=complex)
    for row, t0, t1 in ((k, np.conj(ak), rk), (k + 1, rk, -ak)):
        for col, val in ((k - 1, t0 * r[:, k]), (k, -t0 * a[:, k]),
                         (k + 1, t1 * np.conj(a[:, k + 2])), (k + 2, t1 * r[:, k + 2])):
            inside = (row < n) & (col >= 0) & (col < n)
            out[:, row[inside], col[inside]] = val[:, inside]
    return out


def _measures_from_gammas_batch(gammas: np.ndarray):
    """Atoms and weights for a batch of modified sequences, shape (m, n).

    Atoms are eigenvalues of the (unitary) CMV matrices, and weights invert
    the Christoffel sum.  Returns (angles, weights), rows sorted by angle.
    """
    g = np.atleast_2d(np.asarray(gammas, dtype=complex))
    m, n = g.shape
    alphas = _alphas_from_gammas(g)
    # rho_k^2 = 1 - |alpha_k|^2, read from |gamma_k| = |alpha_k|
    rho2 = 1.0 - np.abs(g[:, : n - 1]) ** 2
    eig = np.linalg.eigvals(_cmv_matrices(alphas, np.sqrt(rho2)))
    angles = np.sort(np.mod(np.angle(eig), TWO_PI), axis=1)
    atoms = np.exp(1j * angles)

    norm2 = np.cumprod(rho2, axis=1)              # ||Phi_k||^2 = prod_{l<k} rho_l^2
    inv_w = np.ones((m, n))
    phi = phis = np.ones((m, n), dtype=complex)   # rebound below, never mutated
    for k in range(n - 1):
        ak = alphas[:, k, None]
        zphi = atoms * phi
        phi, phis = zphi - np.conj(ak) * phis, phis - ak * zphi
        inv_w += np.abs(phi) ** 2 / norm2[:, k, None]
    return angles, 1.0 / inv_w


def alpha_to_measure(alphas: CoefficientSequence) -> UnitCircleMeasure:
    """Measure with the given Verblunsky coefficients.

    Atoms are the roots of Phi_n, taken as the eigenvalues of the CMV
    matrix; the weight at each atom inverts the Christoffel sum.  That
    sum drifts from 1 by rounding that grows with n (1e-12 at n = 400), so
    the weights are divided by their sum to return a normalized measure.
    """
    alphas.require_kind("verblunsky")
    g = _gammas_from_alphas(alphas.values)
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
    if abs(abs(eta) - 1.0) > 1e-10:
        raise ValueError("aleksandrov parameter must have unit modulus")
    if seq.kind == "verblunsky":
        return CoefficientSequence(kind="verblunsky", values=eta * seq.values)
    a = _alphas_from_gammas(seq.values)
    g = _gammas_from_alphas(eta * a)
    return CoefficientSequence(kind="modified", values=g)
