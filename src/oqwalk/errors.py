"""Exception types for numerical failures.

A caller's bad value (a wrong shape, a non-finite entry, a missing key) is a
``ValueError`` or ``KeyError``, as in the rest of the library. The classes
here mark a computation that could not be carried out, and each is told apart
by the caller that catches it:

* ``NotTracePreservingError``: a model whose Kraus operators miss
  sum_i L_i* L_i = 1; ``cli.main`` exits 2 on it.
* ``NoConvergenceError`` and ``SingularMatrixError``: an unusable Perron pair
  and a singular (bordered) solve; ``asymptotics._log_lambda_derivatives``
  falls back on each.
* ``NumericalDegeneracyError``: every other numerical failure, such as an
  absorption solve or a simulated step that does not verify. ``DiagonalState``
  turns the one from ``linalg.support_eigenpairs`` into a ``ValueError``
  naming its site.

``cli.main`` exits 3 on any ``OQWalkError`` that reaches it.
"""


class OQWalkError(Exception):
    """Base class for all package errors."""


class NotTracePreservingError(OQWalkError):
    def __init__(self, deviation: float):
        super().__init__(f"Kraus normalization off by {deviation:.3e}")
        self.deviation = deviation


class NoConvergenceError(OQWalkError):
    pass


class SingularMatrixError(OQWalkError):
    pass


class NumericalDegeneracyError(OQWalkError):
    pass
