"""Exception types shared across the package."""


class MagheatError(Exception):
    """Base class of all package-specific failures."""


class PresetError(MagheatError, ValueError):
    """Invalid field preset tag or preset parameters."""


class ResolutionCapError(MagheatError, ValueError):
    """Requested self-similar time exceeds what the grid can resolve."""


class SolverConvergenceError(MagheatError, RuntimeError):
    """Eigensolver or linear solver failed to converge."""


class SymmetryError(MagheatError, RuntimeError):
    """Operator departs from a symmetry of its field by more than rounding."""


class BoundaryContaminationError(MagheatError, RuntimeError):
    """Evolved solution reached the truncated domain boundary."""


class ConfigError(MagheatError, ValueError):
    """Experiment configuration failed validation."""
