"""Measures on the unit circle, their Dirac operators, and beta ensembles.

Subpackage map:

- :mod:`circdirac.hyperbolic` -- 2x2 isometry matrices, Cayley transform,
  Poisson kernel, hyperbolic distance.
- :mod:`circdirac.opuc` -- orthogonal polynomials on the unit circle,
  coefficient sequences, paths, Aleksandrov transforms.
- :mod:`circdirac.dirac` -- piecewise-constant canonical-system operators,
  eigenvalues, spectral measures, secular function.
- :mod:`circdirac.ensembles` -- Killip-Nenciu sampling, Palm transform,
  Sine_beta operator paths, window biasing.
- :mod:`circdirac.stats` -- goodness-of-fit tests.
- :mod:`circdirac.verify` -- the named acceptance suites behind
  ``circdirac verify``.
"""

__version__ = "0.1.0"
