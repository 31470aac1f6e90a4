"""Exception types shared across the package."""


class OpeCiError(Exception):
    """Base class for library-specific failures."""


class ZeroBehaviorProbability(OpeCiError):
    """A behavior policy assigned probability zero to an observed action.

    This signals a common-support violation; probabilities are compared
    against zero exactly, with no epsilon floor.
    """


class DegenerateWeights(OpeCiError):
    """All importance weights vanished, leaving nothing to normalize."""


class InsufficientSamples(OpeCiError):
    """An interval routine received fewer samples than it needs."""


class NoTrainingPairs(OpeCiError):
    """Weight estimation was asked to run with an empty training-pair set."""


class EmptyBand(OpeCiError):
    """No candidate score satisfied the band condition; the miscoverage
    level is too small for the data or the weights are pathological."""


class UnboundedBand(OpeCiError):
    """The default grid's top candidate was accepted with an infinite upper
    quantile, so the band's upper end is the grid's edge, not the data's."""


class SingularDesign(OpeCiError):
    """A regression design matrix was too degenerate to fit."""


class DatasetTooSmall(OpeCiError):
    """The trajectory dataset is too small for the requested procedure."""
