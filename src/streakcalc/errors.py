"""Exception types shared across the package."""


class StreakError(Exception):
    """Base class for all streakcalc errors."""


class DomainError(StreakError, ValueError):
    """An argument lies outside an operation's documented domain."""


class CapacityError(StreakError):
    """A requested table or enumeration exceeds a configured size cap."""
