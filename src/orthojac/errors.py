"""Exception types shared across the package."""


class OrthojacError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(OrthojacError, ValueError):
    """Operands have incompatible or invalid shapes."""


class ConvergenceError(OrthojacError, RuntimeError):
    """An iterative solver failed to converge.

    Attributes
    ----------
    message : str
        What did not converge, without the index and residual.
    residual : float
        The convergence measure at the final iteration.
    index : int or None
        The position in the stack of the matrix that did not converge, for
        a solver run over a stack.
    """

    def __init__(self, message: str, residual: float, index: int | None = None):
        where = "" if index is None else f" at matrix {index}"
        super().__init__(f"{message}{where} (residual {residual:.3e})")
        self.message = message
        self.residual = residual
        self.index = index


class InvalidBreakpointsError(OrthojacError, ValueError):
    """Breakpoints are not strictly increasing or otherwise malformed."""


class DegenerateSlopesError(OrthojacError, ValueError):
    """A slope set collapses to fewer distinct values than required."""


class InvalidAssignmentError(OrthojacError, ValueError):
    """A per-piece slope assignment is inconsistent with the slope set."""


class SlopeMismatchError(OrthojacError, ValueError):
    """An activation slope violates what the layer family admits.

    Attributes
    ----------
    offending_slope : float
    """

    def __init__(self, message: str, offending_slope: float):
        super().__init__(f"{message} (offending slope {offending_slope!r})")
        self.offending_slope = offending_slope


class OrthogonalityError(OrthojacError, ValueError):
    """A weight matrix fails its orthogonality tolerance.

    Attributes
    ----------
    defect : float
        Frobenius distance from the identity Gram matrix.
    """

    def __init__(self, message: str, defect: float):
        super().__init__(f"{message} (defect {defect:.3e})")
        self.defect = defect


class InvalidGateError(OrthojacError, ValueError):
    """A gating vector is zero or has the wrong shape."""


class MissingRegionError(OrthojacError, KeyError):
    """An input fell in a partition cell with no declared coefficients.

    Attributes
    ----------
    sign_vector : tuple[int, ...]
    """

    def __init__(self, sign_vector):
        super().__init__(f"no coefficients declared for partition cell {sign_vector}")
        self.sign_vector = tuple(sign_vector)


class MixedCaseError(OrthojacError, ValueError):
    """Regions with an identity-like skip term require shared weights."""


class NearKinkError(OrthojacError, ValueError):
    """The Jacobian was requested too close to a non-differentiability locus.

    Attributes
    ----------
    distance : float
        Smallest distance to a kink over all relevant coordinates.
    """

    def __init__(self, distance: float, margin: float):
        super().__init__(
            f"input is {distance:.3e} from a kink, below margin {margin:.3e}"
        )
        self.distance = distance


class NoValidProbeError(OrthojacError, RuntimeError):
    """All sampled probe points fell inside the kink margin."""


class DataFormatError(OrthojacError, ValueError):
    """A data file violates its binary or structural format."""


class InvalidFractionError(OrthojacError, ValueError):
    """A split fraction would leave one side of the split empty."""


class TrainingDivergedError(OrthojacError, RuntimeError):
    """Loss became non-finite during training.

    Attributes
    ----------
    epoch : int
    batch : int
    """

    def __init__(self, epoch: int, batch: int):
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch


class ConfigError(OrthojacError, ValueError):
    """A CLI configuration file is malformed or contains unknown keys."""
