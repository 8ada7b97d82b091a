"""``repro.utils.validation`` — the argument guards shared across the
public API (engine, service, dataset builders).  Each helper
must reject exactly the invalid domain, accept the boundary, and
return the validated value so call sites can validate inline."""

from __future__ import annotations

import math

import pytest

from repro.utils.validation import (
    UnknownUserError,
    check_alpha,
    check_positive,
    check_probability,
    check_user,
)


class TestCheckAlpha:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 0, 1])
    def test_accepts_unit_interval_and_returns_float(self, alpha):
        out = check_alpha(alpha)
        assert out == alpha
        assert isinstance(out, float)

    @pytest.mark.parametrize("alpha", [-0.001, 1.001, -1, 2, math.inf, -math.inf])
    def test_rejects_outside_unit_interval(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\]"):
            check_alpha(alpha)

    def test_rejects_nan(self):
        # NaN fails every comparison, so the containment check must too
        with pytest.raises(ValueError):
            check_alpha(math.nan)


class TestCheckPositive:
    @pytest.mark.parametrize("value", [1e-12, 1, 2.5, math.inf])
    def test_accepts_positive_and_returns_value(self, value):
        assert check_positive("t", value) == value

    @pytest.mark.parametrize("value", [0, 0.0, -1, -math.inf])
    def test_rejects_zero_and_negative(self, value):
        with pytest.raises(ValueError, match="t must be positive"):
            check_positive("t", value)

    def test_error_names_the_parameter(self):
        with pytest.raises(ValueError, match="num_landmarks"):
            check_positive("num_landmarks", -3)


class TestCheckProbability:
    @pytest.mark.parametrize("value", [0.0, 0.25, 1.0])
    def test_accepts_unit_interval(self, value):
        assert check_probability("coverage", value) == value

    @pytest.mark.parametrize("value", [-0.1, 1.1, math.nan])
    def test_rejects_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match="coverage"):
            check_probability("coverage", value)


class TestCheckUser:
    @pytest.mark.parametrize("user", [0, 5, 99])
    def test_accepts_in_range(self, user):
        assert check_user(user, 100) == user

    @pytest.mark.parametrize("user", [-1, 100, 1000])
    def test_rejects_out_of_range(self, user):
        with pytest.raises(UnknownUserError, match=r"out of range \[0, 100\)"):
            check_user(user, 100)

    def test_empty_population_rejects_everything(self):
        with pytest.raises(ValueError):
            check_user(0, 0)
