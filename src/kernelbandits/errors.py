"""Exception hierarchy shared across the package.

Three top-level families map onto the CLI exit codes: bad inputs (2),
violated algorithm preconditions (3) and numerical failures (4).
"""


class InputError(ValueError):
    """Malformed or inconsistent inputs (dimension mismatches, bad ranges)."""


class UnsupportedFeatureMapError(InputError):
    """Requested an explicit feature map for a kernel that has none."""


class InvalidCombinationError(InputError):
    """Adversary action type incompatible with the kernel."""


class RankDeficiencyError(InputError):
    """Feature set does not span the ambient space."""

    def __init__(self, rank: int, dim: int):
        self.rank = rank
        self.dim = dim
        super().__init__(
            f"features span only {rank} of {dim} dimensions; "
            f"reduce the feature dimension to {rank} before calling"
        )


class DegenerateStartError(InputError):
    """The sampler's chord through the current point is degenerate: its end
    points are not finite or it is no longer than 1e-14."""


class PreconditionError(RuntimeError):
    """A theorem precondition the algorithm relies on does not hold."""


class HorizonTooShortError(PreconditionError):
    """Parameter schedule produced a mixing coefficient above 1."""


class IllConditionedCovarianceError(PreconditionError):
    """Covariance minimum eigenvalue fell below the exploration floor."""

    def __init__(self, min_eig: float, floor: float):
        self.min_eig = min_eig
        self.floor = floor
        super().__init__(
            f"covariance min eigenvalue {min_eig:.3e} below floor {floor:.3e}; "
            "was the exploration mixture applied?"
        )


class NumericalError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


class ToleranceNotMetError(NumericalError):
    """Solver hit its iteration cap before the requested gap."""

    def __init__(self, achieved_gap: float, tol: float, iterations: int):
        self.achieved_gap = achieved_gap
        self.tol = tol
        self.iterations = iterations
        super().__init__(
            f"gap {achieved_gap:.3e} after {iterations} iterations (wanted {tol:.3e})"
        )


class DegenerateSpectrumWarning(UserWarning):
    """Fewer usable eigenvalues than requested; dimension was reduced."""
