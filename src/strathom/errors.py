"""Shared exception types, and the integer test every validator uses.

ValidationError: structural data fails an invariant (bad lattice, bad
complex, bad perversity).  DomainError: an operation is undefined on the
given value (non-palindromic input to rule C, unsolvable fit, ...).
Both are ValueErrors so callers can catch the family at once; the CLI
maps them to exit code 1 and anything else to exit code 2.
"""


class ValidationError(ValueError):
    pass


class DomainError(ValueError):
    pass


def is_int(value) -> bool:
    """Whether value is an integer; JSON's true and false are not."""
    return isinstance(value, int) and not isinstance(value, bool)
