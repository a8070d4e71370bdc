"""Readers of outside input, each kind checked in one place.

JSON files, arrays of numbers, integers and real numbers come from game,
distribution and checkpoint files, CLI flags and library callers. Each
reader raises the error class its caller names (InvalidGameError for
games, PreconditionError elsewhere), with a message that names what the
value is. JSON's true and false load as Python bools, which Python and
numpy take as 1 and 0, so no reader takes a bool for a number.

A payoff vector or a joint distribution is a point on the simplex, a rule
`simplex_vector` holds; its callers clip or rescale after it.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import PreconditionError

NORMALIZATION_TOL = 1e-9
RENORMALIZE_TOL = 1e-6


def read_json(path, what: str, error=PreconditionError):
    """The value of the UTF-8 JSON file `path`. A file that cannot be
    opened, is not UTF-8 or JSON, or nests too deeply to parse raises
    `error`, naming `what` and the path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise error(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from None
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: not UTF-8, too many digits
        raise error(f"cannot read {what} {path}: {exc}") from None


def _fits(got: int, want) -> bool:
    """Whether an axis of length `got` fits `want`, a length or None (any).
    Mapped over the axes, it costs half a generator's any()."""
    return want is None or got == want


def number_array(value, shape: tuple, what: str, error=PreconditionError) -> np.ndarray:
    """`value` as a float64 array of `shape`, every entry a finite number
    and none a bool; a None in `shape` takes any length on its axis.
    Conversion comes first, so nesting deeper than numpy's dimension limit,
    ragged rows and integers beyond 64 bits are refused without recursion;
    only then are the entries scanned for bools, which convert silently
    when mixed with numbers. An ndarray is judged by its dtype and shape
    alone. A non-finite entry is named by its index."""
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged rows or too many dimensions
        arr = np.asarray(None)
    kind = arr.dtype.kind
    if kind == "b":
        raise error(f"{what} must hold numbers, not booleans")
    if kind not in "iuf":  # None, strings, integers beyond 64 bits
        raise error(f"{what} is not an array of numbers")
    if arr.shape != shape and (
        arr.ndim != len(shape) or not all(map(_fits, arr.shape, shape))
    ):
        expected = str(tuple("any" if n is None else n for n in shape)).replace("'", "")
        raise error(f"{what} has shape {arr.shape}, expected {expected}")
    if not isinstance(value, np.ndarray):
        for _ in shape[1:]:
            value = [x for row in value for x in row]
        if any(isinstance(x, (bool, np.bool_)) for x in value):
            raise error(f"{what} must hold numbers, not booleans")
    arr = arr.astype(np.float64, copy=False)
    finite = np.isfinite(arr)
    if np.count_nonzero(finite) != arr.size:  # cheaper than .all() on small arrays
        at = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise error(f"{what} holds a non-finite value at entry {at[0] if len(at) == 1 else at}")
    return arr


def simplex_vector(value, size: int, what: str, error=PreconditionError) -> np.ndarray:
    """`value` as a point on the simplex of `size` entries: `number_array`'s
    rules, then every entry at least -NORMALIZATION_TOL and a sum within
    RENORMALIZE_TOL of 1. Returned as read, neither clipped nor rescaled."""
    v = number_array(value, (size,), what, error)
    negative = np.flatnonzero(v < -NORMALIZATION_TOL)
    if negative.size:
        i = int(negative[0])
        raise error(f"{what} is not a point on the simplex: entry {i} is {float(v[i])!r}")
    total = float(v.sum())
    if abs(total - 1.0) > RENORMALIZE_TOL:
        raise error(f"{what} is not a point on the simplex: it sums to {total!r}")
    return v


def integer(value, minimum: int, what: str, error=PreconditionError) -> int:
    """`value` as an int: an integer, numpy's too, that is not a bool and
    is at least `minimum`."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise error(f"{what} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{what} must be >= {minimum}, got {value!r}")
    return int(value)


def real(value, what: str, error=PreconditionError, non_negative: bool = False):
    """`value`, a real number that is not a bool, as a Python float; with
    `non_negative`, also at least 0, so NaN is refused."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(
        value, (int, float, np.integer, np.floating)
    ):
        raise error(f"{what} must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond float range
        raise error(f"{what} is beyond float range") from None
    if non_negative and not value >= 0.0:  # False on NaN as well
        raise error(f"{what} must be >= 0, got {value}")
    return value
