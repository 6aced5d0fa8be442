"""Exception types shared across the package.  None guards integrality: an
`exactalg.MPoly` coefficient is an int by construction."""


class FlagMirrorError(Exception):
    """Base class for all package-specific errors."""


class InvalidRange(FlagMirrorError):
    """A block/term index lies outside its legal open interval."""


class Not321Avoiding(FlagMirrorError):
    """Permutation contains a decreasing subsequence of length 3."""


class NotInGroup(FlagMirrorError):
    """One-line word is not a permutation of the expected ground set."""


class NotMinimalRep(FlagMirrorError):
    """Permutation is not a minimal-length coset representative."""


class DimensionMismatch(FlagMirrorError):
    """Row/column index sets do not select a square submatrix."""


class PivotFailure(FlagMirrorError):
    """A leading principal minor vanishes; LU with unipotent U impossible."""


class ConvergenceFailure(FlagMirrorError):
    """Eigenvalue iteration did not converge, or the matrix is not finite."""


class SizeCap(FlagMirrorError):
    """Requested ring size exceeds the supported cap."""


class TransitionFailure(FlagMirrorError):
    """X_r sigma_{u t_rs} did not hold sigma_u with coefficient 1 plus classes
    below u, as the quantum transition requires (implementation bug)."""


class OffChart(FlagMirrorError):
    """A numeric matrix is not of the chart's form: v = wPw0 z^{-1} is not
    unipotent upper-triangular."""


class BadSubsetSize(FlagMirrorError):
    """Pluecker column set has a size that is not one of the flag steps."""


class NearPole(FlagMirrorError):
    """A superpotential denominator is too close to zero at the given point."""


class IdentityViolation(FlagMirrorError):
    """A quantum Schubert identity that must hold exactly came out nonzero."""


class FormulaViolation(FlagMirrorError):
    """The determinantal Schubert formula failed for some permutation."""
