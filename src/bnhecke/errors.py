"""Exception hierarchy for the whole package.

Every error raised by the library is a subclass of :class:`HeckeError`,
so callers (notably the CLI) can map any computational failure to a
single exit path while still matching on the precise condition.
"""

__all__ = [
    "HeckeError",
    "NotASubpartition",
    "WeightExceedsLevel",
    "DegreeMismatch",
    "LevelMismatch",
    "IndexOutOfRange",
    "NotCentral",
    "NotBiInvariant",
    "LengthBound",
    "InsufficientDegree",
    "ValidationFailure",
    "UsageError",
]


class HeckeError(Exception):
    """Base class for all library errors."""


class NotASubpartition(HeckeError):
    """A multiset difference was requested with a part in excess."""


class WeightExceedsLevel(HeckeError):
    """A partition's weight |mu| + len(mu) exceeds the working level n."""


class DegreeMismatch(HeckeError):
    """A permutation moves points beyond the declared ambient degree."""


class LevelMismatch(HeckeError):
    """Two algebra elements live at different levels."""


class IndexOutOfRange(HeckeError):
    """A generator index lies outside its valid range."""


class NotCentral(HeckeError):
    """An element is not constant on conjugacy classes."""


class NotBiInvariant(HeckeError):
    """An element is not constant on hyperoctahedral double cosets."""


class LengthBound(HeckeError):
    """A partition has more parts than the operation admits."""


class InsufficientDegree(HeckeError):
    """Monomials in the H_i up to degree n - 1 do not span the K lattice."""


class ValidationFailure(HeckeError):
    """A computed result failed a consistency check.

    Raised when a fitted polynomial misses a held-out data point, and
    when a count disagrees with its closed form (double coset sizes).
    """


class UsageError(HeckeError):
    """Invalid command-line usage."""
