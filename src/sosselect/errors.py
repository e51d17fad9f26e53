"""Domain exceptions shared across the package.

Everything raised on bad numerical state derives from :class:`SosSelectError`
so the CLI can map domain failures to a single exit code (1) while argparse
keeps exit code 2 for usage errors.
"""

from __future__ import annotations


class SosSelectError(Exception):
    """Base class for all domain errors raised by this package."""


class ZeroNormColumn(SosSelectError):
    """A design column has (centered) norm below tolerance; cannot be scaled."""

    def __init__(self, column: int, norm: float):
        self.column = column
        self.norm = norm
        super().__init__(f"column {column} has norm {norm:.3e} after preprocessing")

    def __reduce__(self):  # a worker process's error is rebuilt from these
        return type(self), (self.column, self.norm)


class RankDeficient(SosSelectError):
    """Requested model's columns are numerically linearly dependent."""

    def __init__(self, model):
        self.model = model
        super().__init__(f"columns {tuple(model)} are numerically rank deficient")

    def __reduce__(self):
        return type(self), (self.model,)


class DegenerateResidual(SosSelectError):
    """Residual sum of squares is ~0, so t-statistics are undefined."""


class NotConverged(SosSelectError):
    """An iterative solve stopped at max_iter without meeting its certificate."""


class KappaDegenerate(SosSelectError):
    """Restricted-eigenvalue estimate is numerically zero; ratios undefined."""


class TooManyPredictors(SosSelectError):
    """Model size reaches or exceeds the effective sample size."""


class ScreenTooLarge(SosSelectError):
    """Screened set is too large to least-squares refit (|S1| >= n_effective)."""


class EnumerationTooLarge(SosSelectError):
    """Requested exhaustive enumeration exceeds the safety budget."""

    @classmethod
    def check(cls, count: int, budget: int, what: str) -> None:
        """The one enumeration guard: raise when ``count`` items exceed ``budget``."""
        if count > budget:
            raise cls(f"{count} {what} exceed budget {budget}")


class DegenerateSelection(SosSelectError):
    """No replicate produced a usable post-selection pivot statistic."""


class DomainError(SosSelectError):
    """Input lies outside the mathematical domain of a formula."""
