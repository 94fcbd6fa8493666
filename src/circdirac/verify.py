"""Named acceptance suites: exact identities and distributional checks.

Every criterion is a function taking a master seed and returning a list of
(label, TestReport); randomness is drawn from numbered streams of the
seed, so a fixed seed reproduces every report bit for bit.  Most criteria
own one or two stream ids from 102 up.  Sine-intensity and palm-pins-zero
both sweep :func:`~circdirac.ensembles.sine_replicas`, the Brownian paths
of streams 0-499 (with a Cauchy and with the infinity boundary slope),
block by block, and keep one value per row: its count, or its root
nearest 0.  That range holds the other criteria's ids too, so those draws
are not independent of the rest.  Biasing-trend takes its draws from
:func:`~circdirac.ensembles.window_biasing` on streams 170 and 171, the
owner that the ``bias`` and ``bias-trend`` commands call too.  ``run_suite``
bundles the criteria into the suites exposed by the command line:

    core            exact identities (fast, deterministic)
    distributional  Monte Carlo / quadrature checks of the ensemble laws
    sine            continuum-operator checks
    all             everything

Exact criteria report the observed error as the statistic against the
stated tolerance; statistical criteria report the test statistic against
the 0.001-level threshold.  Monotone-trend checks report the largest
successive increase against a threshold of 0, so pass means strictly
decreasing.
"""

from __future__ import annotations

import math

import numpy as np

from . import opuc
from .dirac import (
    OperatorBatch,
    build_operator,
    conjugate_operator,
    measure_operator,
    reverse_operator,
    trace_and_hsnorm,
)
from .ensembles import (
    SeedSpec,
    SinePathSpec,
    biased_gammas,
    kn_gammas,
    palm_gammas,
    remove_atom,
    sine_replicas,
    window_biasing,
)
from .opuc import (
    CoefficientSequence,
    UnitCircleMeasure,
    _measures_from_gammas_batch,
    _measures_to_alphas_batch,
    alpha_to_measure,
    convert_coefficients,
    measure_to_alpha,
)
from .stats import TestReport, chi2_hist2d, ks_by_coordinate, ks_test, ks_threshold

TWO_PI = 2.0 * math.pi


def _gap(pairs) -> float:
    """Largest entrywise |a - b| over the array pairs (a, b)."""
    return max(float(np.max(np.abs(a - b))) for a, b in pairs)


def _lattice_measure(n: int, theta: float) -> UnitCircleMeasure:
    angles = (theta + TWO_PI * np.arange(n)) / n
    return UnitCircleMeasure(angles=angles, weights=np.full(n, 1.0 / n))


def _random_measure(rng: np.random.Generator, n: int) -> UnitCircleMeasure:
    """Generic random measure: jittered-lattice atoms, floored weights.

    Measures close to a degenerate family (merging atoms, vanishing
    weights, mass avoiding a boundary point) drive 1 - |alpha_k|^2 and
    Im z_k toward 0.  The coefficient conversion then loses digits (and
    refuses the measure once 1 - |alpha_k|^2 < 1e-10), and the operator's
    steps inherit that loss from the coefficients (its conjugates and
    reversal, built from the stored path, lose more by cancellation); the
    1e-8 tolerances of the exact-identity checks do not survive that.
    Jittering a regular lattice keeps the coefficients moderate, so the
    identities are exercised in the regime the arithmetic supports.
    """
    jitter = rng.uniform(-0.35, 0.35, n)
    ang = TWO_PI * (np.arange(n) + 0.5 + jitter) / n + rng.uniform(0.0, TWO_PI)
    floor = 0.3 / n
    w = (rng.dirichlet(np.ones(n)) + floor) / (1.0 + n * floor)
    return UnitCircleMeasure(angles=ang, weights=w)


def _spectra(ops, window) -> list:
    """(lambdas, left weights, right weights) of each operator's spectrum.

    Operators that share a grid are solved as one :class:`OperatorBatch`;
    ``window`` is (a, b), each a scalar or one value per operator.
    """
    lo, hi = (np.broadcast_to(np.asarray(w, dtype=float), (len(ops),)) for w in window)
    groups = {}
    for i, op in enumerate(ops):
        groups.setdefault(op.grid.tobytes(), []).append(i)
    out = [None] * len(ops)
    for idx in groups.values():
        batch = OperatorBatch.stack([ops[i] for i in idx])
        *spectrum, row = batch.weights((lo[idx], hi[idx]))
        for j, i in enumerate(idx):
            out[i] = tuple(a[row == j] for a in spectrum)
    return out


# ---------------------------------------------------------------------------
# 1. worked-example reproduction


def criterion_lattice_closed_form(seed: int):
    cases = [(n, theta) for n in (2, 4, 8) for theta in (math.pi / 3, 1.0)]
    ops = [measure_operator(_lattice_measure(n, theta)) for n, theta in cases]
    thetas = np.array([theta for _, theta in cases])
    window = (thetas - TWO_PI - 0.5, thetas + TWO_PI + 0.5)
    out = []
    for (n, theta), (eigs, w_left, w_right) in zip(cases, _spectra(ops, window)):
        expected = theta + TWO_PI * np.array([-1.0, 0.0, 1.0])
        eig_err = _gap([(eigs, expected)]) if eigs.size == 3 else math.inf
        out.append((f"eigenvalues n={n} theta={theta:.4f}",
                    TestReport(eig_err, 1e-10, 3, "eigenvalues 2 pi k + theta")))
        w_err = _gap([(w_left, 2.0), (w_right, 2.0)])
        out.append((f"weights n={n} theta={theta:.4f}",
                    TestReport(w_err, 1e-9, 6, "all spectral weights equal 2")))
    return out


# ---------------------------------------------------------------------------
# 2. spectral lift


def criterion_spectral_lift(seed: int):
    rng = SeedSpec(seed, 102).rng()
    ns = 2 + np.arange(100) % 7
    mus = [_random_measure(rng, n) for n in ns]
    spectra = _spectra([measure_operator(mu) for mu in mus], (0.0, TWO_PI * ns))
    worst = 0.0
    for n, mu, (lams, w, _) in zip(ns, mus, spectra):
        if lams.size != n:
            worst = math.inf
            break
        w_err = np.max(np.abs(w - 2 * n * mu.weights) / (2 * n * mu.weights))
        worst = max(worst, _gap([(lams / n, mu.angles)]), float(w_err))
    return [("left weights are 2n nu", TestReport(worst, 1e-8, 100, "relative error"))]


# ---------------------------------------------------------------------------
# 3. roundtrips


def criterion_roundtrip(seed: int):
    rng = SeedSpec(seed, 103).rng()
    worst_m = 0.0
    for trial in range(100):
        n = 2 + trial % 11
        mu = _random_measure(rng, n)
        mu2 = alpha_to_measure(measure_to_alpha(mu))
        da = np.abs(np.mod(mu2.angles - mu.angles + math.pi, TWO_PI) - math.pi)
        worst_m = max(worst_m, float(da.max()),
                      float(np.max(np.abs(mu2.weights - mu.weights))))
    n = 8
    worst_c = 0.0
    for _ in range(1000):
        a = rng.uniform(-0.7, 0.7, n) + 1j * rng.uniform(-0.7, 0.7, n)
        a[-1] = np.exp(1j * rng.uniform(0.0, TWO_PI))
        seq = CoefficientSequence("verblunsky", a)
        back = convert_coefficients(convert_coefficients(seq, "modified"),
                                    "verblunsky")
        worst_c = max(worst_c, float(np.max(np.abs(back.values - a))))
    return [
        ("measure -> coefficients -> measure", TestReport(worst_m, 1e-9, 100, "n <= 12")),
        ("alpha <-> gamma", TestReport(worst_c, 1e-12, 1000, "n = 8")),
    ]


# ---------------------------------------------------------------------------
# 4. weight-formula duality


def _random_operator(rng: np.random.Generator):
    # five cells of moderate path roughness: the finite-difference oracle's
    # truncation error grows with the third phase derivative
    grid = np.linspace(0.0, 1.0, 6)
    z = rng.uniform(-1.0, 1.0, 5) + 1j * rng.uniform(0.5, 2.0, 5)
    q = rng.uniform(-2.0, 2.0)
    return build_operator((grid, z), q)


def criterion_weight_duality(seed: int):
    rng = SeedSpec(seed, 104).rng()
    h = 1e-5
    batch = OperatorBatch.stack([_random_operator(rng) for _ in range(30)])
    lams, _, w, row = batch.weights((-8.0, 8.0))
    da = (batch.phase(lams + h, row) - batch.phase(lams - h, row)) / (2.0 * h)
    worst = float(np.max(np.abs(w - 2.0 / da), initial=0.0))
    return [("(A^2+B^2)/(A'B-AB') vs 2/alpha'",
             TestReport(worst, 1e-8, lams.size, "finite-difference phase oracle"))]


# ---------------------------------------------------------------------------
# 5. closed-form trace / HS norm


def criterion_trace_closed_form(seed: int):
    worst = 0.0
    for q in (0.0, 0.7, -2.3, 5.0):
        op = build_operator((np.array([0.0, 1.0]), np.array([1j])), q)
        tr, hs = trace_and_hsnorm(op)
        worst = max(worst, abs(tr + q / 2.0), abs(hs - (1.0 + q * q) / 4.0))
    return [("constant-path trace -q/2 and HS^2 (1+q^2)/4",
             TestReport(worst, 1e-12, 4, "single-cell integrals"))]


# ---------------------------------------------------------------------------
# 6. coefficient ensemble marginals


def _beta1_cdf(x, b: float):
    """CDF of Beta(1, b) at x in [0, 1]: 1 - (1 - x)^b, exactly 1 at x = 1."""
    with np.errstate(divide="ignore"):
        return -np.expm1(b * np.log1p(-x))


def criterion_kn_marginals(seed: int):
    out = []
    draws = 10_000
    for i, (n, beta) in enumerate(((6, 2.0), (6, 4.0), (10, 1.0))):
        g = kn_gammas(SeedSpec(seed, 120 + i).rng(), n, beta, draws)
        worst = 0.0
        threshold = None
        for k in range(n - 1):
            s = 0.5 * beta * (n - k - 1)
            rep = ks_test(np.abs(g[:, k]) ** 2, lambda x, s=s: _beta1_cdf(x, s))
            worst = max(worst, rep.statistic)
            threshold = rep.threshold
        out.append((f"|gamma_k|^2 vs Beta(1, s) n={n} beta={beta:g}",
                    TestReport(worst, threshold, draws,
                               f"max over k of one-sample KS ({n - 1} coords)")))
    return out


# ---------------------------------------------------------------------------
# 7. atom-at-1 biased coefficient law


def criterion_palm_law(seed: int):
    n, beta = 6, 2.0
    draws = 10_000
    palm = palm_gammas(kn_gammas(SeedSpec(seed, 130).rng(), n, beta, draws))
    direct = biased_gammas(SeedSpec(seed, 131).rng(), n, beta, draws)
    worst = float(ks_by_coordinate(palm, direct).max())
    # two samples of equal size: effective size draws / 2
    reports = [("palm route vs direct density route",
                TestReport(worst, ks_threshold(draws / 2), draws,
                           "max two-sample KS over coordinates, Re and Im"))]

    s = 0.5 * beta * (n - 1)
    dens = lambda z: (1.0 - np.abs(z) ** 2) ** s / np.abs(1.0 - z) ** 2
    rep = chi2_hist2d(palm[:, 0], dens)
    reports.append(("chi2 of gamma'_0 against the biased density", rep))
    return reports


# ---------------------------------------------------------------------------
# 8. gamma limit of the weight law


def _weight_ks(x, limit, n: int) -> float:
    """sup |F - limit| on the grid x, F the CDF of 2n Beta(1, n - 1)."""
    return float(np.max(np.abs(_beta1_cdf(x / (2.0 * n), n - 1.0) - limit)))


def criterion_gamma_weight_limit(seed: int):
    # at beta = 2 the weight law 2n Beta(beta/2, beta(n-1)/2) is
    # 2n Beta(1, n - 1), and its limit Gamma(beta/2, mean 2) is the
    # exponential law of mean 2, whose CDF does not depend on n
    x = np.linspace(0.0, 80.0, 400_001)
    limit = -np.expm1(-0.5 * x)
    ks = {n: _weight_ks(x, limit, n) for n in (100, 1000, 10000)}
    rep1 = TestReport(ks[10000], 0.01, 10000,
                  f"analytic-CDF KS at n=1e4; values {ks}")
    inc = max(ks[1000] - ks[100], ks[10000] - ks[1000])
    rep2 = TestReport(inc, 0.0, 3, "largest successive increase; pass iff decreasing")
    return [("2n Beta vs Gamma(beta/2, mean 2)", rep1),
            ("KS decreases over n = 1e2, 1e3, 1e4", rep2)]


# ---------------------------------------------------------------------------
# 9. spectral averaging over the Aleksandrov family


def criterion_spectral_averaging(seed: int):
    rng = SeedSpec(seed, 140).rng()
    etas = np.exp(1j * TWO_PI * np.arange(256) / 256.0)
    worst = 0.0
    for trial in range(20):
        n = 2 + trial % 5
        mu = _random_measure(rng, n)
        alphas = measure_to_alpha(mu).values
        scaled = etas[:, None] * alphas[None, :]
        g = opuc.gammas_from_alphas(scaled)
        angles, weights = _measures_from_gammas_batch(g)
        for p in (1, 2, 3):
            avg = np.mean(np.sum(weights * np.exp(1j * p * angles), axis=1))
            worst = max(worst, abs(avg))
    return [("eta-average of moments vanishes",
             TestReport(worst, 1e-3, 20, "256-point eta grid, moments 1..3"))]


# ---------------------------------------------------------------------------
# 10. circular Jacobi connection


def criterion_circular_jacobi(seed: int):
    n, beta = 5, 2.0
    draws = 10_000
    g = palm_gammas(kn_gammas(SeedSpec(seed, 150).rng(), n, beta, draws))
    angles, weights = _measures_from_gammas_batch(g)
    alphas = _measures_to_alphas_batch(*remove_atom(angles, weights))
    gamma0 = np.conj(alphas[:, 0])
    expo = 0.5 * beta * (n - 2) - 1.0
    dens = lambda z: (1.0 - np.abs(z) ** 2) ** expo * np.abs(1.0 - z) ** beta
    rep = chi2_hist2d(gamma0, dens)
    return [("gamma_0 after removing the atom at 1", rep)]


# ---------------------------------------------------------------------------
# 11/12. continuum operators


def criterion_sine_intensity(seed: int):
    replicas = 500
    counts = sine_replicas(SinePathSpec(beta=2.0), seed, replicas,
                           lambda batch: batch.count((0.0, 20.0 * math.pi)))
    mean = counts.mean()
    se = counts.std(ddof=1) / math.sqrt(replicas)
    rep = TestReport(abs(mean - 10.0), 3.0 * se, replicas,
                     f"mean count {mean:.4f} in [0, 20 pi], MC se {se:.4f}")
    return [("eigenvalue intensity 1/(2 pi)", rep)]


def _nearest_roots(batch: OperatorBatch) -> np.ndarray:
    """|lambda| of each row's eigenvalue nearest 0 in [-0.5, 0.5), inf for none.

    Under the infinity slope the phase is 0 at lambda = 0, so that root is
    the one there; some rows hold a second eigenvalue in the window.
    """
    lams, row = batch.eigenvalues((-0.5, 0.5))
    nearest = np.full(batch.rows, np.inf)
    np.minimum.at(nearest, row, np.abs(lams))
    return nearest


def criterion_palm_pins_zero(seed: int):
    replicas = 500
    nearest = sine_replicas(SinePathSpec(beta=2.0, q=math.inf), seed, replicas,
                            _nearest_roots)
    worst = float(nearest.max())
    return [("0 is an eigenvalue under the infinity boundary slope",
             TestReport(worst, 1e-10, replicas, "root of the phase at target 0"))]


# ---------------------------------------------------------------------------
# 13. window-biasing trend


def criterion_biasing_trend(seed: int):
    # the distance statistic is the max over coordinates (and Re/Im) of the
    # two-sample KS: the later coordinates carry the strongest tilt and keep
    # the epsilon residual far above the Monte Carlo noise floor
    n, beta = 6, 2.0
    replicas = 30_000
    gammas, w, direct = window_biasing(n, beta, replicas, (0.3, 0.1, 0.03),
                                       SeedSpec(seed, 170), SeedSpec(seed, 171))
    stats = ks_by_coordinate(gammas, direct, w).max(axis=(1, 2)).tolist()
    inc = max(stats[1] - stats[0], stats[2] - stats[1])
    rep = TestReport(inc, 0.0, replicas,
                     "weighted-vs-direct KS at eps 0.3/0.1/0.03: "
                     + ", ".join(f"{s:.4f}" for s in stats))
    return [("KS to the biased law decreases with epsilon", rep)]


# ---------------------------------------------------------------------------
# 14. transform invariances


def criterion_transform_invariance(seed: int):
    rng = SeedSpec(seed, 180).rng()
    rotations = []
    for r in (-1.3, 0.4, 2.0):
        c, s = r / math.sqrt(1 + r * r), 1.0 / math.sqrt(1 + r * r)
        rotations.append(np.array([[c, s], [-s, c]]))
    # per measure: the operator, its three conjugates and its reversal
    ops = []
    for trial in range(5):
        op = measure_operator(_random_measure(rng, 3 + trial % 4))
        ops += [op, *(conjugate_operator(op, Q) for Q in rotations), reverse_operator(op)]
    spectra = _spectra(ops, (-9.0, 9.0))
    conj, swap, double = [], [], []
    for i in range(0, len(ops), 5):
        (lams, left, right), (rev_lams, rev_left, rev_right) = spectra[i], spectra[i + 4]
        conj += [ab for j in (1, 2, 3) for ab in zip(spectra[i], spectra[i + j])]
        swap += [(lams, rev_lams), (left, rev_right), (right, rev_left)]
        back = reverse_operator(ops[i + 4])
        double += [(getattr(back, f), getattr(ops[i], f)) for f in ("grid", "path", "u0", "u1")]
    worst_conj, worst_swap, worst_double = _gap(conj), _gap(swap), _gap(double)
    return [
        ("rotation conjugation leaves both spectral measures fixed",
         TestReport(worst_conj, 1e-8, 15, "atomwise, three rotations")),
        ("reversal swaps left and right spectral measures",
         TestReport(worst_swap, 1e-8, 5, "atomwise")),
        ("double reversal is the identity",
         TestReport(worst_double, 1e-14, 5, "grid, path, boundary vectors")),
    ]


# ---------------------------------------------------------------------------
# suites


CRITERIA = {
    "lattice-closed-form": criterion_lattice_closed_form,
    "spectral-lift": criterion_spectral_lift,
    "roundtrip": criterion_roundtrip,
    "weight-duality": criterion_weight_duality,
    "trace-hs-closed-form": criterion_trace_closed_form,
    "kn-marginals": criterion_kn_marginals,
    "palm-coefficient-law": criterion_palm_law,
    "gamma-weight-limit": criterion_gamma_weight_limit,
    "spectral-averaging": criterion_spectral_averaging,
    "circular-jacobi": criterion_circular_jacobi,
    "sine-intensity": criterion_sine_intensity,
    "palm-pins-zero": criterion_palm_pins_zero,
    "biasing-trend": criterion_biasing_trend,
    "transform-invariance": criterion_transform_invariance,
}

SUITES = {
    "core": [
        "lattice-closed-form", "spectral-lift", "roundtrip", "weight-duality",
        "trace-hs-closed-form", "transform-invariance",
    ],
    "distributional": [
        "kn-marginals", "palm-coefficient-law", "gamma-weight-limit",
        "spectral-averaging", "circular-jacobi", "biasing-trend",
    ],
    "sine": ["sine-intensity", "palm-pins-zero"],
}
SUITES["all"] = SUITES["core"] + SUITES["distributional"] + SUITES["sine"]


def _run_one(args):
    name, seed = args
    checks = CRITERIA[name](seed)
    return name, [
        {"check": label, **report.to_dict()} for label, report in checks
    ]


def run_suite(suite: str, seed: int, jobs: int = 1) -> dict:
    """Run a named suite; the returned dict serializes deterministically.

    ``jobs`` > 1 runs the criteria in a pool of at most one worker per
    criterion (the pool forks all its workers at the first submit).
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    names = SUITES[suite]
    work = [(name, seed) for name in names]
    jobs = min(jobs, len(names))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_one, work))
    else:
        results = [_run_one(w) for w in work]
    criteria = []
    for name, reports in results:
        criteria.append({
            "name": name,
            "pass": all(r["pass"] for r in reports),
            "reports": reports,
        })
    return {
        "suite": suite,
        "seed": seed,
        "criteria": criteria,
        "all_pass": all(c["pass"] for c in criteria),
    }
