"""Exception types shared across the package."""


class DiamondEntropyError(Exception):
    """Base class for all package-specific failures."""


class ConvergenceError(DiamondEntropyError):
    """A numerical procedure did not reach its requested tolerance.

    Raised by:
    - the checked panel sums of the bulk term, the slope constant and the
      box-tail gate when their 16-node and 32-node results disagree or are NaN;
    - the kernel when the Bessel values come out non-finite (mass > 0) or
      1/(2 pi eps) overflows (mass 0), and the bulk term when it is not finite;
    - the eigensolve when LAPACK reports a failure;
    - the spectral-range check when a spectrum leaves [0, 1] beyond tolerance
      or holds a NaN, and the eta-trace when it holds a NaN or infinity;
    - the grid-doubling entropy ladder when no grid up to the cap yields an
      admissible spectrum;
    - sweeps with fewer converged points than the fit's minimum, kept as points.
    """

    def __init__(self, message: str, points: tuple = ()):
        super().__init__(message)
        self.points = points

