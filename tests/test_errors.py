"""The shared field and label checks in errors.py."""

import math
import numbers

import numpy as np
import pytest

from amdet.errors import DataError, check_labels, check_numbers


@pytest.mark.parametrize("kind, bound, value, accepted", [
    (numbers.Integral, "", True, False),          # a bool is not a number
    (numbers.Real, "", False, False),
    (numbers.Real, "", "1", False),
    (numbers.Integral, "", 1.0, False),
    (numbers.Real, "", math.nan, True),           # no bound, no range
    (numbers.Real, "", -math.inf, True),
    (numbers.Real, ">= 0", math.nan, False),
    (numbers.Real, ">= 0", math.inf, False),
    (numbers.Real, "> 0", -math.inf, False),
    (numbers.Integral, ">= 1", 10 ** 400, True),  # beyond float, still finite
    (numbers.Real, ">= 1", 10 ** 400, True),
    (numbers.Integral, ">= 0", 0, True),
    (numbers.Real, "> 0", 0, False),
    (numbers.Real, "> 0", 5e-324, True),
    (numbers.Integral, ">= 1", 0, False),
    (numbers.Integral, ">= 2", 1, False),
    (numbers.Integral, ">= 2", np.int64(2), True),
    (numbers.Real, ">= 0", np.float32(-0.5), False),
])
def test_check_numbers(kind, bound, value, accepted):
    if accepted:
        check_numbers("owner", kind, bound, field=value)
        return
    with pytest.raises(DataError, match=r"^owner: field must be"):
        check_numbers("owner", kind, bound, field=value)


def test_check_numbers_names_the_failing_field():
    with pytest.raises(DataError, match=r"^spec: b must be finite and >= 1, "
                                        r"got 0$"):
        check_numbers("spec", numbers.Integral, ">= 1", a=3, b=0, c=-1)


@pytest.mark.parametrize("labels", [
    np.array([0.0, 1.0, 2.0]),                # float, even when whole
    np.array([True, False, True]),
    np.array([[0], [1], [2]]),                # 2-D
    np.array([0, 1]),                         # wrong length
    np.array([0, -1, 2]),
    np.array([0, 1, 3]),                      # == classes
])
def test_check_labels_refuses(labels):
    with pytest.raises(DataError, match=r"^owner: labels must"):
        check_labels("owner", labels, 3, 3)


@pytest.mark.parametrize("labels", [[2, 0, 1], np.array([2, 0, 1], np.uint8),
                                    np.array([2, 0, 1], np.int32)])
def test_check_labels_returns_int64_with_the_same_values(labels):
    out = check_labels("owner", labels, 3, 3)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, [2, 0, 1])


def test_check_labels_takes_no_copy_of_int64():
    labels = np.array([1, 0], np.int64)
    assert check_labels("owner", labels, 2, 2) is labels
