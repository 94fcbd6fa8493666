"""Measures on the unit circle, their Dirac operators, and beta ensembles.

Subpackage map:

- :mod:`circdirac.hyperbolic` -- the boundary point at infinity and the
  involution iota of the Palm transform.
- :mod:`circdirac.opuc` -- orthogonal polynomials on the unit circle,
  coefficient sequences and conversions, Aleksandrov transforms.
- :mod:`circdirac.dirac` -- piecewise-constant canonical-system operators,
  built from modified coefficients along the measure's hyperbolic path;
  phase, eigenvalues, spectral measures.
- :mod:`circdirac.ensembles` -- Killip-Nenciu sampling, Palm transform,
  Sine_beta operator paths, window biasing.
- :mod:`circdirac.stats` -- goodness-of-fit tests.
- :mod:`circdirac.verify` -- the named acceptance suites behind
  ``circdirac verify``.
"""

__version__ = "0.1.0"
