"""Statistical verification toolkit.

Small, self-contained goodness-of-fit machinery used by the acceptance
suites: a one-sample Kolmogorov-Smirnov test against an analytic CDF,
per-coordinate two-sample KS distances between two samples of complex
sequences (the first optionally weighted, for self-normalized importance
weighting), and a Pearson chi-square test of complex samples on the unit
disk against a numerically normalized density.  The density's polar cell
masses come from one tensor Gauss-Legendre rule per ring of cells, checked
against a rule with twice the nodes; a density that rule cannot resolve,
such as one with a pole on the circle, is refused, not integrated.

Every test runs at the one significance level LEVEL = 0.001: many tests
run per invocation and the family-wise false-failure rate has to stay
small.

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
from dataclasses import dataclass, field

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

#: Significance level of every automated test.
LEVEL = 1e-3

#: Polar cells per axis of the chi-square grid.
BINS = 10
#: Gauss-Legendre nodes per axis of the whole chi-square grid.
QUAD_POINTS = 512
#: Chi-square cells expecting fewer counts than this are pooled.
MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class TestReport:
    """Outcome of one statistical check.

    ``passed`` is derived: True when statistic < threshold, so a nan
    statistic fails.
    """

    statistic: float
    threshold: float
    sample_size: int
    notes: str = ""
    passed: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "passed", bool(self.statistic < self.threshold))

    def to_dict(self) -> dict:
        # numpy scalars sneak in from vectorized statistics; json needs builtins
        return {
            "statistic": float(self.statistic),
            "threshold": float(self.threshold),
            "sample_size": int(self.sample_size),
            "pass": self.passed,
            "notes": self.notes,
        }


# ---------------------------------------------------------------------------
# Kolmogorov-Smirnov


def _ecdf_heights(order, weights):
    """F_hat at the sorted samples; self-normalized when weighted."""
    if weights is None:
        return np.arange(1, order.size + 1) / order.size
    w = np.asarray(weights, dtype=float)[order]
    return np.cumsum(w) / w.sum()


def _ks_two_sample_each(a, b, weightings) -> list:
    """sup |F_a - F_b| for each weighting of ``a`` (None: unweighted).

    The sort of ``a`` and both searches on the merged grid do not depend on
    the weights, so they are done once for all weightings.
    """
    a = np.asarray(a, dtype=float)
    order = np.argsort(a, kind="stable")
    sa = a[order]
    sb = np.sort(np.asarray(b, dtype=float))
    grid = np.concatenate([sa, sb])
    at_a = np.searchsorted(sa, grid, side="right")
    fb = np.searchsorted(sb, grid, side="right") / sb.size
    out = []
    for w in weightings:
        fa = np.concatenate([[0.0], _ecdf_heights(order, w)])[at_a]
        out.append(float(np.max(np.abs(fa - fb))))
    return out


def ks_by_coordinate(a, b, weightings=(None,)) -> np.ndarray:
    """(E, n-1, 2) two-sample KS statistics of Re and Im of each column but the last.

    ``a`` and ``b`` hold complex sequences of length n, one per row.  Slice
    e weights the rows of ``a`` by ``weightings[e]``, one weight per row,
    or not at all where that entry is None.
    """
    out = np.empty((len(weightings), a.shape[1] - 1, 2))
    for k in range(a.shape[1] - 1):
        for j, part in enumerate((np.real, np.imag)):
            out[:, k, j] = _ks_two_sample_each(part(a[:, k]), part(b[:, k]),
                                               weightings)
    return out


def ks_threshold(n_eff: float) -> float:
    """Asymptotic Kolmogorov critical value at LEVEL for effective size n_eff."""
    return float(special.kolmogi(LEVEL)) / math.sqrt(n_eff)


def ks_test(samples, cdf) -> TestReport:
    """One-sample KS test of ``samples`` against the analytic CDF ``cdf``.

    The statistic is sup |F_hat - F| over both sides of every jump of the
    empirical CDF; the threshold is :func:`ks_threshold` of the sample size.
    """
    s = np.sort(np.asarray(samples, dtype=float))
    if s.size == 0:
        raise ValueError("ks_test requires a nonempty sample")
    cum = np.arange(1, s.size + 1) / s.size
    f = np.asarray(cdf(s), dtype=float)
    lower = np.concatenate([[0.0], cum[:-1]])
    stat = float(np.max(np.maximum(np.abs(cum - f), np.abs(lower - f))))
    return TestReport(stat, ks_threshold(s.size), s.size, "one-sample")


# ---------------------------------------------------------------------------
# chi-square on the disk


def _nodes(edges, x):
    """Gauss-Legendre nodes ``x`` mapped into each interval of ``edges``, one row each."""
    lo, hi = edges[:-1, None], edges[1:, None]
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo)


def disk_cell_probabilities(density):
    """Masses of the BINS x BINS polar cells under an unnormalized disk density.

    Each ring of cells is integrated by one tensor Gauss-Legendre rule in
    (r, phase) with QUAD_POINTS // BINS nodes per cell axis: ``density``
    is called once per ring, on its (nodes x BINS nodes) polar grid, and
    the values times r reduce into the ring's BINS cell masses.  The
    result is normalized by the total.  A pass with twice the nodes must
    agree with the total to 1e-6 relative, otherwise the quadrature is
    deemed non-convergent; that refuses densities the rule cannot
    resolve, fast oscillations and poles such as |1 - z|^{-2} alike.
    """
    r_edges = np.linspace(0.0, 1.0, BINS + 1)
    p_edges = np.linspace(0.0, TWO_PI, BINS + 1)
    per_cell = QUAD_POINTS // BINS

    def masses(npts):
        x, w = leggauss(npts)
        phase = np.exp(1j * _nodes(p_edges, x).ravel())
        out = np.empty((BINS, BINS))
        for i, r in enumerate(_nodes(r_edges, x)):
            vals = np.asarray(density(r[:, None] * phase), dtype=float) * r[:, None]
            out[i] = np.einsum("a,ajb,b->j", w, vals.reshape(npts, BINS, npts), w)
        return 0.25 * np.outer(np.diff(r_edges), np.diff(p_edges)) * out

    cell = masses(per_cell)
    total = cell.sum()
    total2 = masses(2 * per_cell).sum()
    if not total > 0.0 or abs(total2 - total) > 1e-6 * abs(total):
        raise ValueError(
            "density quadrature failed to normalize within 1e-6 "
            f"(total {total:.12e} vs refined {total2:.12e})"
        )
    return r_edges, p_edges, cell / total


def chi2_hist2d(samples, density) -> TestReport:
    """Pearson chi-square of complex disk samples against a density.

    Cells are the polar BINS x BINS grid; their probabilities come from
    :func:`disk_cell_probabilities` of the (unnormalized) density.  Cells
    with expected count below ``MIN_EXPECTED`` are pooled into one; a
    pool expecting nothing is dropped when it holds no sample, and one
    expecting fewer than ``MIN_EXPECTED`` is folded into the smallest
    retained cell.  A sample in a cell where the density integrates to
    zero refutes the density however few such samples there are: the
    statistic is then infinite.  Non-finite samples raise ValueError.
    Passes when the statistic is below the chi-square quantile at
    1 - LEVEL.
    """
    z = np.asarray(samples, dtype=complex)
    n = z.size
    if not np.all(np.isfinite(z)):
        raise ValueError("chi2_hist2d: samples must be finite")
    r_edges, p_edges, prob = disk_cell_probabilities(density)
    ri = np.clip(np.searchsorted(r_edges, np.abs(z), side="right") - 1, 0, BINS - 1)
    pi_ = np.clip(np.searchsorted(p_edges, np.mod(np.angle(z), TWO_PI),
                                  side="right") - 1, 0, BINS - 1)
    counts = np.zeros((BINS, BINS))
    np.add.at(counts, (ri, pi_), 1.0)

    probs = prob.ravel()
    obs = counts.ravel()
    expected = n * probs
    # samples where the density integrates to zero
    stray = int(obs[expected <= 0.0].sum())
    big = expected >= MIN_EXPECTED
    if big.sum() < 2:
        raise ValueError("chi2_hist2d: too few cells with adequate expected count")
    o = np.concatenate([obs[big], [obs[~big].sum()]])
    e = np.concatenate([expected[big], [expected[~big].sum()]])
    if e[-1] <= 0.0 and o[-1] == 0.0:
        o, e = o[:-1], e[:-1]
    elif e[-1] < MIN_EXPECTED:
        # fold the under-filled pool into the smallest retained cell
        j = np.argmin(e[:-1])
        o[j] += o[-1]
        e[j] += e[-1]
        o, e = o[:-1], e[:-1]
    dof = o.size - 1
    stat = math.inf if stray else float(np.sum((o - e) ** 2 / e))
    stray_note = f"; {stray} samples where the density is zero" if stray else ""
    return TestReport(stat, chi2_threshold(dof), n, f"chi2 dof={dof}{stray_note}")


def chi2_threshold(dof: int) -> float:
    """Chi-square quantile at 1 - LEVEL with ``dof`` degrees of freedom."""
    return float(2 * special.gammaincinv(dof / 2, 1.0 - LEVEL))
