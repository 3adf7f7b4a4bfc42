"""Exception hierarchy shared by all janglab modules."""


class JanglabError(Exception):
    """Base class for all janglab errors."""


class InvalidArgument(JanglabError, ValueError):
    """Bad argument (wrong sign, too few nodes, reversed bounds, ...)."""


class GridTooShort(InvalidArgument):
    """The grid is too short or too coarse for the chosen r0."""


class GenerationFailure(JanglabError):
    """Dataset generator exhausted its rejection/rescale budget."""


class NumericalDegeneracy(JanglabError):
    """Metric coefficients or derived quantities left the representable range."""


class DecViolation(JanglabError):
    """Strict dominant-energy margin is nonpositive somewhere on the grid."""


class ConfigFailure(JanglabError):
    """Constructed capillary configuration failed its own invariant audit."""


class DomainError(JanglabError, ValueError):
    """Evaluation requested outside the domain of definition."""


class NoAdmissibleR0(JanglabError):
    """No candidate inner radius makes the barrier inequalities pass."""


class NewtonDivergence(JanglabError):
    """Damped Newton failed to converge."""


class SingularJacobian(JanglabError):
    """Linear solve inside Newton broke down."""


class ContinuationFailure(JanglabError):
    """Parameter continuation reached its minimum step without converging."""


class ExhaustionNonconvergence(JanglabError):
    """Cauchy criterion failed across the whole domain schedule."""


class AuditInapplicable(JanglabError):
    """Hypotheses of the requested audit fail for the given parameters."""


class FitFailure(JanglabError):
    """Asymptotic fit residual too large; decay hypotheses violated numerically."""


class InsufficientData(JanglabError):
    """Too few usable nodes for a fit."""


class IOFailure(JanglabError, OSError):
    """Report files could not be written."""
