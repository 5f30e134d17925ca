"""Error and warning taxonomy shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration or precondition violation (CLI exit code 2)."""


class AdjacentRepeat(ConfigError):
    """Two consecutive bumps mapped to the same component."""


class NotSurjective(ConfigError):
    """Some component index in 1..k never appears in sigma."""


class SolveError(RuntimeError):
    """Numerical failure in a solver stage (CLI exit code 3)."""


class StepFailure(SolveError):
    """ODE integrator could not reach the end of the radial interval."""


class BracketingFailure(SolveError):
    """Amplitude bisection failed to bracket the requested nodal count."""


class NewtonDivergence(SolveError):
    """Damped Newton iteration stalled above its residual tolerance."""


class ZeroField(SolveError):
    """Operation needs a nonzero field (projection of the zero field)."""


class EmptyAnnulus(SolveError):
    """Annulus contains too few interior nodes to host a bump."""


class MaximizerFailure(SolveError):
    """Scaling maximization failed."""


class UnboundedEnergy(MaximizerFailure):
    """Scaled energy grows without bound along some positive direction."""


class NonConvergence(MaximizerFailure):
    """Scaling maximization did not reach its gradient tolerance."""


class SaddleScaling(MaximizerFailure):
    """Stationary scaling whose Hessian is not negative definite, so the
    scaling energy has no maximum there; carries the eigenvalues."""

    def __init__(self, eigenvalues):
        self.eigenvalues = tuple(float(x) for x in eigenvalues)
        vals = ", ".join(f"{x:.3g}" for x in self.eigenvalues)
        super().__init__(f"scaling saddle, Hessian eigenvalues {vals}")


class DegeneratePulse(MaximizerFailure):
    """A pulse has numerically zero norm; scaling is ill-posed."""


class StageFailure(UserWarning):
    """A schedule stage failed and is absent from the records; the message
    names the cause.  Each stage starts from its own walked state, so the
    other stages are unaffected."""


class NegativityPersistent(UserWarning):
    """A component stayed negative on part of the grid after damping."""
