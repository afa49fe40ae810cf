"""Exception types shared across the package."""


class GaugeSimError(Exception):
    """Base class for all gaugesim errors."""


class ValidationError(GaugeSimError):
    """A probability table failed structural validation."""


class MissingTarget(ValidationError):
    """The table lacks an entry for some (outcomes | settings) target."""


class NegativeProbability(ValidationError):
    """A table entry is below zero."""


class NormalizationViolation(ValidationError):
    """Targets for one setting vector do not sum to one."""

    def __init__(self, settings, total):
        super().__init__(f"targets for settings {settings} sum to {total}, expected 1")
        self.settings = settings
        self.total = total


class WrongArity(GaugeSimError):
    """Operation requires a different number of regions."""


class RangeError(GaugeSimError):
    """A parameter lies outside its admissible range."""


class ConstraintViolation(GaugeSimError):
    """A named parameter constraint does not hold."""

    def __init__(self, name, detail=""):
        super().__init__(f"constraint violated: {name}" + (f" ({detail})" if detail else ""))
        self.name = name


class NegativeEntry(GaugeSimError):
    """A derived table or gauge entry came out negative."""

    def __init__(self, where, value):
        super().__init__(f"negative entry at {where}: {value}")
        self.where = where
        self.value = value


class InconsistentMarginal(GaugeSimError):
    """A marginal depends on the settings of dropped regions."""

    def __init__(self, region, deviation):
        super().__init__(
            f"marginal varies with the setting of dropped region {region} "
            f"by {deviation}"
        )
        self.region = region
        self.deviation = deviation


class ZeroProbabilityBranch(GaugeSimError):
    """Conditioning on an outcome of probability zero."""


class Infeasible(GaugeSimError):
    """No non-negative gauge weights satisfy the linear system.

    Signals that a one-step collapse is impossible from the listed
    configurations.
    """

    def __init__(self, gammas):
        gammas = tuple(gammas)
        super().__init__(f"no non-negative gauge solution for configuration(s) {gammas}")
        self.gammas = gammas


class SupportTooSmall(GaugeSimError):
    """The supplied working set cannot carry any solution.

    Unlike Infeasible this does not rule out solutions on a larger support.
    """

    def __init__(self, gammas, support_size):
        gammas = tuple(gammas)
        super().__init__(
            f"no solution for configuration(s) {gammas} on the {support_size}-state working set"
        )
        self.gammas = gammas
        self.support_size = support_size


class InfeasibleBranch(GaugeSimError):
    """A collapse plan reached a subsystem with no one-step gauge solution."""

    def __init__(self, step, description):
        super().__init__(f"step {step}: {description}")
        self.step = step
