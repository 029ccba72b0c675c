"""Exception hierarchy shared across the package."""


class BundleArithError(Exception):
    """Base class for all library-specific errors."""


class DomainError(BundleArithError, ValueError):
    """An input violates an operation's precondition."""


def require_int(value: object, name: str, least: int | None = None) -> None:
    """Raise DomainError unless ``value`` is an int, not a bool, and >= ``least``."""
    if type(value) is not int or (least is not None and value < least):
        want = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
        raise DomainError(f"{name} must be {want.get(least, f'an integer >= {least}')}, got {value!r}")


class ConsistencyError(BundleArithError, RuntimeError):
    """A computed result contradicts a structural expectation.

    The library raises it nowhere: every bad input is a
    :class:`DomainError`, and checks that guard theorems live in the
    tests as proofs.  It stays a public name, and names the CLI's exit 3,
    which only a failing ``report`` returns.
    """


class FormulaNotApplicableError(DomainError):
    """The closed-form alpha formula does not cover the given class."""


class HorrocksUndefinedError(DomainError):
    """The Horrocks sum is not defined for the given pair of classes."""
