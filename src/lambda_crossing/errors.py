"""Exception hierarchy for lambda_crossing."""


class LambdaCrossingError(Exception):
    """Base class for all package errors."""


class BracketError(LambdaCrossingError):
    """An extremum search hit the edge of its bracket (parameters outside
    the isolated-crossing regime)."""


class SingularEliminationError(LambdaCrossingError):
    """Adiabatic elimination is singular (delta1 = 0)."""


class PoleError(LambdaCrossingError):
    """Level-shift evaluation too close to the intermediate-level pole."""


class ConvergenceError(LambdaCrossingError):
    """Fixed-point iteration did not converge."""


class GridError(LambdaCrossingError):
    """A scan grid is too coarse or does not span the required range."""


class ExtractionError(LambdaCrossingError):
    """Peak extraction from a probe spectrum failed."""


class EnvelopeError(LambdaCrossingError):
    """The transfer envelope's window [0, 4 pi / |omega_eff|] cannot be
    searched: the effective coupling is zero, the window is not finite and
    positive in double precision, or it holds more fast crests than double
    precision counts."""


class ScenarioError(LambdaCrossingError):
    """Experiment scenario is missing required data (e.g. decay rate)."""
