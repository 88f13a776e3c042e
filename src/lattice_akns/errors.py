"""Exception types raised by the lattice library.

Every failure mode that callers may want to catch has its own class; all of
them derive from :class:`LatticeError`.  Site- or step-indexed failures carry
the offending index as an attribute.
"""


class LatticeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(LatticeError):
    """Matrix or polynomial operands have incompatible dimensions."""


class SingularMatrix(LatticeError):
    """A dense solve encountered a pivot below the singularity threshold."""


class VariantUnavailable(LatticeError):
    """The requested rank-one pair variant does not exist for these dims."""


class FlowUnsupported(LatticeError):
    """The requested time flow is not available for this operation."""


class BlowUp(LatticeError):
    """Time integration produced non-finite values.

    ``members`` holds the indices of the non-finite members of a batched
    integration, ``None`` for a single state.
    """

    def __init__(
        self, step: int, message: str | None = None, members: tuple[int, ...] | None = None
    ):
        self.step = step
        self.members = members
        where = "" if members is None else f" in members {list(members)}"
        super().__init__(message or f"non-finite state at step {step}{where}")


class ToleranceFailure(LatticeError):
    """A computation missed a declared tolerance; ``fields`` join its failure report."""

    def __init__(self, message: str, **fields):
        super().__init__(message)
        self.fields = fields


class InconsistentDressing(LatticeError):
    """Supplied dressing data violates the Darboux constraint relations."""


class SpectralPole(LatticeError):
    """Evaluation at z = 0, where the multiplicative Lax matrix has a pole."""


class SingularDressing(LatticeError):
    """A dressing recursion step became singular."""

    def __init__(self, site: int, message: str | None = None):
        self.site = site
        super().__init__(message or f"singular dressing step at site {site}")


class DegenerateMode(LatticeError):
    """A linear mode is degenerate (zero base or coincident exponents)."""


class SingularSoliton(LatticeError):
    """A closed-form soliton denominator vanishes at some site."""

    def __init__(self, site: int, message: str | None = None):
        self.site = site
        super().__init__(message or f"soliton denominator vanishes at site {site}")


class DegenerateBianchi(LatticeError):
    """Two-soliton superposition requires distinct soliton parameters."""


class NotNormalized(LatticeError):
    """Trace-coefficient extraction needs the normalized (width-1) case."""


class UnvalidatedOrder(LatticeError):
    """Charge recursion requested beyond the validated order."""


class SingularGlm(LatticeError):
    """The windowed factorization operator is numerically singular."""


class ModeOverflow(LatticeError):
    """Mode data overflows (or underflows) on the requested index window."""


class LogBranch(LatticeError):
    """Logarithm branch tracking failed (zero crossing or branch jump)."""

    def __init__(self, site: int, message: str | None = None):
        self.site = site
        super().__init__(message or f"logarithm branch failure at site {site}")


class SingularTime(LatticeError):
    """Continuum grid touches the singular time t = 0."""


class PeriodicityViolation(LatticeError):
    """Periodic lattice requested with non-periodic closed-form data."""
