"""Internal argument-validation helpers shared across :mod:`repro` modules.

These helpers normalise user input (sequences to tuples, numpy scalars to
Python ints) and raise the library's exception types with actionable
messages.  They are deliberately small and import nothing from :mod:`repro`
but its exception types, so every module can use them without import
cycles.
"""

from __future__ import annotations

import numbers
from collections.abc import Sequence
from typing import Any

import numpy as np

from .exceptions import InvalidGridError, ReproError

__all__ = [
    "as_int",
    "as_int_tuple",
    "as_real",
    "check_edges",
    "check_positive_dims",
    "check_rank",
]


def as_int(value: Any, *, name: str = "value") -> int:
    """Coerce *value* to a Python ``int``, rejecting non-integral input.

    Accepts Python ints, numpy integer scalars, and floats with integral
    value.  Booleans are rejected: passing ``True`` where a size is expected
    is almost always a bug.
    """
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got bool {value!r}")
    try:
        as_i = int(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be an integer, got {value!r}") from exc
    if as_i != value:
        raise TypeError(f"{name} must be integral, got {value!r}")
    return as_i


def as_real(value: Any, *, name: str = "value") -> float:
    """Coerce *value* to a Python ``float``, rejecting non-real input.

    Accepts Python ints and floats and numpy integer and floating
    scalars.  Booleans are rejected, as :func:`as_int` rejects them, and
    so are strings and anything else that is not a real number.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    return float(value)


def as_int_tuple(values: Sequence[Any], *, name: str = "values") -> tuple[int, ...]:
    """Coerce a sequence to a tuple of Python ints."""
    if isinstance(values, (str, bytes)):
        raise TypeError(f"{name} must be a sequence of integers, got {values!r}")
    try:
        items = list(values)
    except TypeError as exc:
        raise TypeError(f"{name} must be a sequence of integers, got {values!r}") from exc
    return tuple(as_int(v, name=f"{name}[{i}]") for i, v in enumerate(items))


def check_edges(
    edges: Any, num_vertices: int, *, error: type[ReproError] = ReproError
) -> np.ndarray:
    """A contiguous ``(m, 2)`` int64 array of *edges*, endpoints in range.

    Raises *error* naming the bad shape or the endpoint range found.
    """
    array = np.ascontiguousarray(edges, dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise error(f"edges must have shape (m, 2), got {array.shape}")
    if array.size and (array.min() < 0 or array.max() >= num_vertices):
        raise error(
            f"edge endpoints must be in [0, {num_vertices}), got range "
            f"[{array.min()}, {array.max()}]"
        )
    return array


def check_positive_dims(dims: tuple[int, ...], *, name: str = "dims") -> None:
    """Require a non-empty tuple of strictly positive dimension sizes."""
    if len(dims) == 0:
        raise InvalidGridError(f"{name} must be non-empty")
    for i, d in enumerate(dims):
        if d <= 0:
            raise InvalidGridError(f"{name}[{i}] must be positive, got {d}")


def check_rank(rank: int, size: int, *, name: str = "rank") -> None:
    """Require ``0 <= rank < size``."""
    if not 0 <= rank < size:
        raise InvalidGridError(f"{name} must be in [0, {size}), got {rank}")
