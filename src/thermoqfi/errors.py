"""Exception types shared across the library, and the size check that raises one."""

import sys


class DomainError(ValueError):
    """An argument lies outside the physically meaningful domain."""


class ModelIntegrityError(RuntimeError):
    """A structural guarantee of the thermalization model failed to hold."""


class NoStationaryStateError(ModelIntegrityError):
    """No numerically null eigenvalue was found; the generator is malformed."""


class EstimatorUndefinedError(RuntimeError):
    """The requested estimation setup does not admit a well-defined estimator."""


def _addressable(count: int, name: str) -> int:
    """count, refused as a memory shortage where no array of 8-byte cells can hold it.

    numpy rejects an array of more than sys.maxsize bytes with a ValueError
    (past its index range, an IndexError) before it asks for any memory, so
    such a count raises the MemoryError that a smaller, merely unaffordable
    one gets from the allocator.
    """
    cells = sys.maxsize // 8
    if count > cells:
        raise MemoryError(f"{name} = {count} exceeds the {cells} cells an array can hold")
    return count
