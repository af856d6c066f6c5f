"""The input checks in errors: each rule an outside value must meet."""

import numpy as np
import pytest

from secrecy_regions import ValidationError
from secrecy_regions.errors import check_choice, checked_array, is_integer


@pytest.mark.parametrize("value", [0, -3, 10**400, np.int64(5), np.uint8(7), np.int8(-1)])
def test_is_integer_takes_int_and_numpy_integers(value):
    assert is_integer(value)


@pytest.mark.parametrize("value", [True, False, np.bool_(1), 1.0, np.float64(2.0), "1", None])
def test_is_integer_refuses_bool_float_and_text(value):
    assert not is_integer(value)


def test_checked_array_names_the_free_axes_in_its_message():
    assert checked_array([[1, 2, 3, 4, 5, 6]], "B", ("N", 6)).dtype == np.float64
    with pytest.raises(ValidationError, match=r"^B must be a \(N, 6\) array of finite numbers$"):
        checked_array([[1.0] * 5], "B", ("N", 6))
    with pytest.raises(ValidationError, match=r"^p must be a \(3,\) array of finite numbers$"):
        checked_array([1.0, np.nan, 1.0], "p", (3,))


@pytest.mark.parametrize(
    "values", [[True, False], ["1", "2"], [None, 1.0], [[1.0], [1.0, 2.0]], [10**400, 1]]
)
def test_checked_array_takes_only_ints_and_floats(values):
    with pytest.raises(ValidationError, match=r"\(k,\) array of finite numbers"):
        checked_array(values, "x", ("k",))


def test_checked_array_takes_nan_only_when_asked():
    assert np.isnan(checked_array([np.nan, 1.0], "r", ("k",), nan=True)[0])
    with pytest.raises(ValidationError, match="array of finite numbers or NaN"):
        checked_array([np.inf, 1.0], "r", ("k",), nan=True)


@pytest.mark.parametrize("value", ["c", "", None, ["a"], np.array(["a"]), np.array("a"), 1])
def test_check_choice_takes_only_a_str_among_the_choices(value):
    check_choice("a", ("a", "b"), "kind")
    check_choice(np.str_("b"), ("a", "b"), "kind")
    with pytest.raises(ValidationError, match="kind must be one of a, b, got"):
        check_choice(value, ("a", "b"), "kind")
