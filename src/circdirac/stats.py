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

The two quantiles at LEVEL are computed here, by safeguarded Newton on
closed-form tails, so the package needs nothing beyond numpy:

* the Kolmogorov quantile solves 2 sum_{k>=1} (-1)^{k-1} e^{-2 k^2 x^2}
  = LEVEL (Marsaglia, Tsang & Wang, J. Stat. Softw. 8(18), 2003), once
  at import; it equals scipy's ``kolmogi(1e-3)`` = 1.9494746035043753
  bit for bit;
* the chi-square quantile solves Q(x) = LEVEL, with y = x / 2 and
  m = dof // 2, where Q = e^{-y} sum_{j<m} y^j / j! for even dof and
  Q = erfc(sqrt(y)) + e^{-y} sum_{j<m} y^{j+1/2} / Gamma(j + 3/2) for
  odd dof (Abramowitz & Stegun 26.4.4-26.4.5), taking the density from
  ``math.lgamma``.  For dof 1 to 120 it is within 1.1e-16 relative of
  the 40-digit quantile, and correctly rounded for 111 of them
  (scipy's ``chi2.ppf`` is within 2.2e-15).

The CDFs of :mod:`circdirac.verify` are closed forms too: Beta(1, b) as
-expm1(b log1p(-x)) and the exponential limit as -expm1(-x / 2).  On the
suite's own samples and grids they are within 2.6e-16 relative of 40
digits (scipy.stats: 6.2e-16).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial.legendre import leggauss

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


def _upper_quantile(tail, density, x: float) -> float:
    """The x where the decreasing ``tail`` equals LEVEL, by safeguarded Newton.

    ``density`` is -tail'.  Each iterate narrows the bracket [lo, hi] of
    the root; a step that would leave it bisects it instead.  Iteration
    stops after a step of at most one ulp.
    """
    lo, hi = 0.0, math.inf
    for _ in range(100):
        g = tail(x) - LEVEL
        if g > 0.0:
            lo = x
        else:
            hi = x
        nxt = x + g / density(x)
        if not lo <= nxt <= hi:  # possible only once hi is finite
            nxt = 0.5 * (lo + hi)
        done = abs(nxt - x) <= math.ulp(x)
        x = nxt
        if done:
            return x
    raise ArithmeticError(f"quantile iteration did not converge (last x {x!r})")


def _kolmogorov_tail(x: float) -> float:
    """P(K > x) = 2 sum_{k>=1} (-1)^{k-1} e^{-2 k^2 x^2}, for x not near 0."""
    return 2.0 * sum((-1) ** (k - 1) * math.exp(-2.0 * (k * x) ** 2) for k in range(1, 20))


def _kolmogorov_density(x: float) -> float:
    return 8.0 * x * sum((-1) ** (k - 1) * k * k * math.exp(-2.0 * (k * x) ** 2)
                         for k in range(1, 20))


# started at the root of the leading term 2 e^{-2 x^2}
_KOLMOGOROV_QUANTILE = _upper_quantile(_kolmogorov_tail, _kolmogorov_density,
                                       math.sqrt(-0.5 * math.log(0.5 * LEVEL)))


def ks_threshold(n_eff: float) -> float:
    """Asymptotic Kolmogorov critical value at LEVEL for effective size n_eff."""
    return _KOLMOGOROV_QUANTILE / math.sqrt(n_eff)


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
    with expected count below ``MIN_EXPECTED`` are pooled into one, and a
    pool expecting fewer than ``MIN_EXPECTED`` is folded into the smallest
    retained cell; an empty pool that expects nothing adds 0 to it.  A
    sample in a cell where the density integrates to zero refutes the
    density however few such samples there are: the statistic is then
    infinite.  Non-finite samples, and samples outside the closed unit
    disk, raise ValueError; a sample on the circle counts in the
    outermost ring.
    Passes when the statistic is below the chi-square quantile at
    1 - LEVEL.
    """
    z = np.asarray(samples, dtype=complex)
    n = z.size
    if not np.all(np.isfinite(z)):
        raise ValueError("chi2_hist2d: samples must be finite")
    r = np.abs(z)
    outside = int(np.count_nonzero(r > 1.0))
    if outside:
        raise ValueError(f"chi2_hist2d: {outside} samples outside the unit disk")
    r_edges, p_edges, prob = disk_cell_probabilities(density)
    ri = np.clip(np.searchsorted(r_edges, r, side="right") - 1, 0, BINS - 1)
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
    if e[-1] < MIN_EXPECTED:
        # fold the under-filled pool into the smallest retained cell; a
        # pool expecting nothing and holding nothing adds 0 to it
        j = np.argmin(e[:-1])
        o[j] += o[-1]
        e[j] += e[-1]
        o, e = o[:-1], e[:-1]
    dof = o.size - 1
    stat = math.inf if stray else float(np.sum((o - e) ** 2 / e))
    stray_note = f"; {stray} samples where the density is zero" if stray else ""
    return TestReport(stat, chi2_threshold(dof), n, f"chi2 dof={dof}{stray_note}")


def _chi2_tail(x: float, dof: int) -> float:
    """P(chi2_dof > x) as erfc and Poisson sums (A&S 26.4.4-26.4.5).

    Summed smallest term first; the terms grow while j < x / 2, which
    holds beyond the mean.
    """
    y = 0.5 * x
    m, odd = divmod(dof, 2)
    total = math.erfc(math.sqrt(y)) if odd else 0.0
    term = math.exp(-y) * (2.0 * math.sqrt(y / math.pi) if odd else 1.0)
    for j in range(m):
        total += term
        term *= y / (j + 1 + 0.5 * odd)
    return total


def _chi2_density(x: float, dof: int) -> float:
    h = 0.5 * dof
    return math.exp((h - 1.0) * math.log(x) - 0.5 * x - h * math.log(2.0) - math.lgamma(h))


def chi2_threshold(dof: int) -> float:
    """Chi-square quantile at 1 - LEVEL with ``dof`` degrees of freedom.

    ``dof`` is an integer from 1 to 1000; beyond that e^{-x/2} in the
    tail underflows.  Newton starts at x = dof, below the quantile and
    beyond the mode, where the tail is convex, so it climbs to the root
    without overshooting.
    """
    if not 1 <= dof <= 1000:
        raise ValueError(f"chi2_threshold: dof must be from 1 to 1000, got {dof}")
    return _upper_quantile(lambda x: _chi2_tail(x, dof),
                           lambda x: _chi2_density(x, dof), float(dof))
