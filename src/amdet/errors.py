"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: UsageError -> 1, DataError -> 2,
NumericalError -> 3. Library code raises them directly. `check_numbers` is
the field-type check the config classes share, and `build` the one route
from a JSON mapping to a config object.
"""

import inspect


class AmdetError(Exception):
    """Base class for all package errors."""


class UsageError(AmdetError):
    """Bad command-line arguments or malformed configuration."""


class DataError(AmdetError):
    """Invalid, inconsistent, or corrupted input data / file formats."""


class NumericalError(AmdetError):
    """Non-finite values where finite numbers are required (NaN loss, inf gradient)."""


def check_numbers(owner: str, kind: type, **values) -> None:
    """Raise DataError unless every value is an instance of kind
    (numbers.Integral or numbers.Real); a bool never counts as a number."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, kind):
            raise DataError(f"{owner}: {name} must be "
                            f"{kind.__name__.lower()}, got {value!r}")


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
