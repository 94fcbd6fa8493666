"""Statistical verification toolkit.

Small, self-contained goodness-of-fit machinery used by the acceptance
suites: one- and two-sample Kolmogorov-Smirnov tests (with optional sample
weights for self-normalized importance weighting), per-coordinate KS
distances between two samples of complex sequences, and a Pearson
chi-square test of complex samples on the unit disk against a numerically
normalized density.

All automated suites run at significance level 0.001: many tests run per
invocation and the family-wise false-failure rate has to stay small.

Quantiles and CDFs come straight from :mod:`scipy.special`: ``kolmogi``
for the Kolmogorov quantile, ``2 * gammaincinv(dof / 2, p)`` for the
chi-square quantile, and ``betainc`` and ``gammainc`` for the Beta and
Gamma CDFs of :mod:`circdirac.verify`.  These are the ufuncs that
scipy.stats' ``kstwobign.isf``, ``chi2.ppf``, ``beta.cdf`` and
``gamma.cdf`` call; their loc 0 and scale 1 change no bit, so every value
is the scipy.stats one bit for bit (``tests/test_stats.py`` checks it).
Importing :mod:`scipy.stats` for them would add about a second to every
cold start.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special

__all__ = [
    "TestReport",
    "ks_test",
    "ks_by_coordinate",
    "ks_threshold",
    "chi2_hist2d",
    "chi2_threshold",
]

TWO_PI = 2.0 * math.pi

#: Default significance level for all automated suites.
DEFAULT_LEVEL = 1e-3

#: Extra dyadic refinements of the disk cells that touch the corner z = 1.
CORNER_LEVELS = 8
#: Chi-square cells expecting fewer counts than this are pooled.
MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check; passes iff statistic < threshold."""

    statistic: float
    threshold: float
    sample_size: int
    passed: bool
    notes: str = ""

    def to_dict(self) -> dict:
        # numpy scalars sneak in from vectorized statistics; json needs builtins
        return {
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "sample_size": int(self.sample_size),
            "pass": bool(self.passed),
            "notes": self.notes,
        }


def _report(stat: float, threshold: float, n: int, notes: str) -> TestReport:
    return TestReport(statistic=float(stat), threshold=float(threshold),
                      sample_size=int(n), passed=bool(stat < threshold), notes=notes)


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def _ecdf_heights(order, weights):
    """F_hat at the sorted samples; self-normalized when weighted."""
    if weights is None:
        return np.arange(1, order.size + 1) / order.size
    w = np.asarray(weights, dtype=float)[order]
    return np.cumsum(w) / w.sum()


def _weighted_ecdf(samples, weights):
    order = np.argsort(samples, kind="stable")
    return samples[order], _ecdf_heights(order, weights)


def ks_statistic_cdf(samples, cdf, weights=None) -> float:
    """sup |F_hat - F| against an analytic CDF."""
    s, cum = _weighted_ecdf(np.asarray(samples, dtype=float), weights)
    f = np.asarray(cdf(s), dtype=float)
    lower = np.concatenate([[0.0], cum[:-1]])
    return float(np.max(np.maximum(np.abs(cum - f), np.abs(lower - f))))


def _ks_two_sample_each(a, b, weightings) -> list:
    """sup |F_a - F_b| for each weighting of ``a`` (None: unweighted).

    The sort of ``a`` and both searches on the merged grid do not depend on
    the weights, so they are done once for all weightings.
    """
    a = np.asarray(a, dtype=float)
    order = np.argsort(a, kind="stable")
    sa = a[order]
    sb, cb = _weighted_ecdf(np.asarray(b, dtype=float), None)
    grid = np.concatenate([sa, sb])
    at_a = np.searchsorted(sa, grid, side="right")
    fb = np.concatenate([[0.0], cb])[np.searchsorted(sb, grid, side="right")]
    out = []
    for w in weightings:
        fa = np.concatenate([[0.0], _ecdf_heights(order, w)])[at_a]
        out.append(float(np.max(np.abs(fa - fb))))
    return out


def ks_statistic_two_sample(a, b, weights_a=None) -> float:
    """sup |F_a - F_b| between two empirical CDFs, the first possibly weighted."""
    return _ks_two_sample_each(a, b, [weights_a])[0]


def ks_by_coordinate(a, b, weights_a=None) -> np.ndarray:
    """(n-1, 2) two-sample KS statistics of Re and Im of each column but the last.

    ``a`` and ``b`` hold complex sequences of length n, one per row;
    ``weights_a`` optionally weights the rows of ``a``.  A stack of E weight
    vectors, shape (E, rows), gives (E, n-1, 2), one slice per weighting,
    each equal to the call with that vector alone.
    """
    stacked = np.ndim(weights_a) == 2
    weightings = weights_a if stacked else [weights_a]
    out = np.empty((len(weightings), a.shape[1] - 1, 2))
    for k in range(a.shape[1] - 1):
        for j, part in enumerate((np.real, np.imag)):
            out[:, k, j] = _ks_two_sample_each(part(a[:, k]), part(b[:, k]),
                                               weightings)
    return out if stacked else out[0]


def ks_threshold(n_eff: float, level: float = DEFAULT_LEVEL) -> float:
    """Asymptotic Kolmogorov critical value at ``level`` for effective size n_eff."""
    return float(special.kolmogi(level)) / math.sqrt(n_eff)


def ks_test(samples, reference, level: float = DEFAULT_LEVEL,
            weights=None) -> TestReport:
    """KS test against an analytic CDF (callable) or a second sample.

    The threshold is the asymptotic Kolmogorov quantile at ``level``
    scaled by the (effective) sample size.  Optional ``weights`` turn the
    first sample's empirical CDF into a self-normalized weighted one.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("ks_test requires a nonempty sample")
    if callable(reference):
        stat = ks_statistic_cdf(samples, reference, weights=weights)
        n_eff = samples.size
        notes = "one-sample"
    else:
        other = np.asarray(reference, dtype=float)
        if other.size == 0:
            raise ValueError("ks_test requires a nonempty reference sample")
        stat = ks_statistic_two_sample(samples, other, weights_a=weights)
        n_eff = samples.size * other.size / (samples.size + other.size)
        notes = "two-sample"
    return _report(stat, ks_threshold(n_eff, level), samples.size, notes)


# ---------------------------------------------------------------------------
# chi-square on the disk


def _gauss_cell(density, r0, r1, p0, p1, nodes):
    """Integral of density * r over [r0,r1] x [p0,p1] by tensor Gauss-Legendre."""
    xg, wg = nodes
    r = 0.5 * (r1 - r0) * xg + 0.5 * (r1 + r0)
    p = 0.5 * (p1 - p0) * xg + 0.5 * (p1 + p0)
    rr, pp = np.meshgrid(r, p, indexing="ij")
    z = rr * np.exp(1j * pp)
    vals = np.asarray(density(z), dtype=float) * rr
    ww = np.outer(wg, wg)
    return 0.25 * (r1 - r0) * (p1 - p0) * float(np.sum(vals * ww))


def _cell_mass(density, r0, r1, p0, p1, nodes, corner_levels):
    """Cell integral with dyadic refinement toward the singular corner z = 1.

    A cell touches the corner when its closure meets r = 1 and phase 0
    (phases live in [0, 2 pi), so both the first and last phase cells
    qualify).  Such cells split dyadically ``corner_levels`` extra times
    toward the corner; the integrable boundary singularity |1 - z|^{-2}
    of the biased coefficient densities is handled this way.
    """
    touches_r = r1 >= 1.0 - 1e-12
    touches_p = p0 <= 1e-12 or p1 >= TWO_PI - 1e-12
    if not (touches_r and touches_p and corner_levels > 0):
        return _gauss_cell(density, r0, r1, p0, p1, nodes)
    rm = 0.5 * (r0 + r1)
    pm = 0.5 * (p0 + p1)
    if p0 <= 1e-12:
        quads = [(r0, rm, p0, pm), (r0, rm, pm, p1), (rm, r1, pm, p1)]
        corner = (rm, r1, p0, pm)
    else:
        quads = [(r0, rm, p0, pm), (r0, rm, pm, p1), (rm, r1, p0, pm)]
        corner = (rm, r1, pm, p1)
    total = sum(_gauss_cell(density, *qq, nodes) for qq in quads)
    return total + _cell_mass(density, *corner, nodes, corner_levels - 1)


def disk_cell_probabilities(density, bins_r: int, bins_phi: int,
                            quad_points: int = 512):
    """Masses of a polar grid of cells under an unnormalized disk density.

    The density is integrated cell by cell on a tensor polar rule with
    about ``quad_points`` nodes per axis overall; the result is normalized
    by the total.  A doubled-resolution pass must agree with the total to
    1e-6 relative, otherwise the quadrature is deemed non-convergent.
    """
    r_edges = np.linspace(0.0, 1.0, bins_r + 1)
    p_edges = np.linspace(0.0, TWO_PI, bins_phi + 1)
    per_cell = max(6, quad_points // max(bins_r, bins_phi))

    def masses(npts):
        nodes = leggauss(npts)
        out = np.empty((bins_r, bins_phi))
        for i in range(bins_r):
            for j in range(bins_phi):
                out[i, j] = _cell_mass(density, r_edges[i], r_edges[i + 1],
                                       p_edges[j], p_edges[j + 1],
                                       nodes, CORNER_LEVELS)
        return out

    cell = masses(per_cell)
    total = cell.sum()
    total2 = masses(2 * per_cell).sum()
    if not total > 0.0 or abs(total2 - total) > 1e-6 * abs(total):
        raise ValueError(
            "density quadrature failed to normalize within 1e-6 "
            f"(total {total:.12e} vs refined {total2:.12e})"
        )
    return r_edges, p_edges, cell / total


def chi2_hist2d(samples, density, bins: int = 12, level: float = DEFAULT_LEVEL,
                quad_points: int = 512) -> TestReport:
    """Pearson chi-square of complex disk samples against a density.

    Cells are a polar ``bins x bins`` grid; their probabilities come from
    2-d quadrature of the (unnormalized) density.  Cells with expected
    count below ``MIN_EXPECTED`` are pooled into one.  Passes when the
    statistic is below the chi-square quantile at 1 - level.
    """
    z = np.asarray(samples, dtype=complex)
    n = z.size
    r_edges, p_edges, prob = disk_cell_probabilities(
        density, bins, bins, quad_points=quad_points)
    ri = np.clip(np.searchsorted(r_edges, np.abs(z), side="right") - 1, 0, bins - 1)
    pi_ = np.clip(np.searchsorted(p_edges, np.mod(np.angle(z), TWO_PI),
                                  side="right") - 1, 0, bins - 1)
    counts = np.zeros((bins, bins))
    np.add.at(counts, (ri, pi_), 1.0)

    probs = prob.ravel()
    obs = counts.ravel()
    expected = n * probs
    big = expected >= MIN_EXPECTED
    if big.sum() < 2:
        raise ValueError("chi2_hist2d: too few cells with adequate expected count")
    o = np.concatenate([obs[big], [obs[~big].sum()]])
    e = np.concatenate([expected[big], [expected[~big].sum()]])
    if e[-1] <= 0.0:
        o, e = o[:-1], e[:-1]
    elif e[-1] < MIN_EXPECTED:
        # fold the under-filled pool into the smallest retained cell
        j = np.argmin(e[:-1])
        o[j] += o[-1]
        e[j] += e[-1]
        o, e = o[:-1], e[:-1]
    stat = float(np.sum((o - e) ** 2 / e))
    dof = o.size - 1
    return _report(stat, chi2_threshold(dof, level), n, f"chi2 dof={dof}")


def chi2_threshold(dof: int, level: float = DEFAULT_LEVEL) -> float:
    """Chi-square quantile at 1 - ``level`` with ``dof`` degrees of freedom."""
    return float(2 * special.gammaincinv(dof / 2, 1.0 - level))
