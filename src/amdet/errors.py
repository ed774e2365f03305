"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
NumericalError -> 3. Library code raises them directly. A rule on a single
input is written once, here, and its DataError names the owner and field:
`check_numbers` checks a number's kind and, given one, a lower bound that
also requires the number finite; `check_labels` checks that labels are a 1-D
integer array of class indices. Rules that relate two fields (lo < hi, a head
count that divides a width, Nyquist) stay with the class that holds both, and
so do size caps computed from several fields; `check_cap` words their error.
`build` is the one route from a JSON mapping to a config object.
"""

import inspect
import math

import numpy as np


class AmdetError(Exception):
    """Base class for all package errors."""


class UsageError(AmdetError):
    """Bad command-line arguments or malformed configuration."""


class DataError(AmdetError):
    """Invalid, inconsistent, or corrupted input data / file formats."""


class NumericalError(AmdetError):
    """Non-finite values where finite numbers are required (NaN loss, inf gradient)."""


def check_numbers(owner: str, kind: type, bound: str = "", /,
                  **values) -> None:
    """Raise DataError unless every value is an instance of kind
    (numbers.Integral or numbers.Real; a bool never counts as a number) and,
    if a bound (">= 0", ">= 1", ">= 2" or "> 0") is given, finite and
    within it."""
    op, _, limit = bound.partition(" ")
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, kind):
            raise DataError(f"{owner}: {name} must be "
                            f"{kind.__name__.lower()}, got {value!r}")
        # chained comparisons rather than math.isfinite, which raises
        # OverflowError on an int beyond the float range; NaN fails both
        if bound and not (-math.inf < value < math.inf and (
                value > int(limit) if op == ">" else value >= int(limit))):
            raise DataError(f"{owner}: {name} must be finite and {bound}, "
                            f"got {value!r}")


def check_cap(owner: str, config, size, limit: int, what: str,
              *fields: str) -> None:
    """Raise DataError if size, which config computed from the named fields,
    is over limit; the message names owner and each field's value."""
    if size > limit:
        named = ", ".join(f"{k}={getattr(config, k)}" for k in fields)
        raise DataError(f"{owner}: {what} {size} is over the cap of {limit} "
                        f"({named})")


def check_labels(owner: str, labels, n: int, classes: int) -> np.ndarray:
    """labels as an int64 array, once they are a 1-D integer array of n
    class indices in [0, classes); otherwise a DataError naming owner."""
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iu" or labels.shape != (n,):
        raise DataError(f"{owner}: labels must be a 1-D integer array of "
                        f"length {n}, got {labels.dtype} of shape "
                        f"{labels.shape}")
    if n and not (labels.min() >= 0 and labels.max() < classes):
        raise DataError(f"{owner}: labels must be non-negative and lie in "
                        f"[0, {classes}), got values from {labels.min()} to "
                        f"{labels.max()}")
    return labels.astype(np.int64, copy=False)


def build(owner: str, fn, mapping, *args):
    """fn(*args, **mapping), once mapping is a dict whose keys fn's signature
    accepts after args: a non-mapping, an unknown key or a missing key is a
    DataError naming owner and the key."""
    if not isinstance(mapping, dict):
        raise DataError(f"{owner} must be a mapping, got {mapping!r}")
    try:
        inspect.signature(fn).bind(*args, **mapping)
    except TypeError as e:          # unknown or missing keys
        raise DataError(f"{owner}: {e}") from e
    return fn(*args, **mapping)
