"""Tests for repro.utils (rng, validation, tabulate)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.rng import as_rng, spawn_rng
from repro.utils.tabulate import format_table
from repro.utils.validation import (
    check_in_range,
    check_non_negative,
    check_positive,
    check_probability,
    check_type,
    is_finite_number,
)


class TestRng:
    def test_as_rng_none_returns_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_as_rng_int_is_deterministic(self):
        a = as_rng(42).random(5)
        b = as_rng(42).random(5)
        assert np.allclose(a, b)

    def test_as_rng_different_seeds_differ(self):
        assert not np.allclose(as_rng(1).random(5), as_rng(2).random(5))

    def test_as_rng_passthrough(self):
        gen = np.random.default_rng(7)
        assert as_rng(gen) is gen

    def test_spawn_rng_children_independent_and_deterministic(self):
        parent1 = as_rng(123)
        parent2 = as_rng(123)
        kids1 = spawn_rng(parent1, 3)
        kids2 = spawn_rng(parent2, 3)
        for a, b in zip(kids1, kids2):
            assert np.allclose(a.random(4), b.random(4))
        # different children produce different streams
        assert not np.allclose(kids1[0].random(4), kids1[1].random(4))

    def test_spawn_rng_requires_positive_count(self):
        with pytest.raises(ValueError):
            spawn_rng(as_rng(0), 0)


class TestValidation:
    def test_is_finite_number(self):
        assert is_finite_number(3.5)
        assert is_finite_number(0)
        assert not is_finite_number(float("inf"))
        assert not is_finite_number(float("nan"))
        assert not is_finite_number("x")
        assert not is_finite_number(True)

    def test_check_non_negative_accepts_zero(self):
        assert check_non_negative("x", 0) == 0.0

    def test_check_non_negative_rejects_negative(self):
        with pytest.raises(ValueError, match="x"):
            check_non_negative("x", -1)

    def test_check_positive(self):
        assert check_positive("x", 2) == 2.0
        with pytest.raises(ValueError):
            check_positive("x", 0)

    def test_check_probability_bounds(self):
        assert check_probability("p", 0.0) == 0.0
        assert check_probability("p", 1.0) == 1.0
        with pytest.raises(ValueError):
            check_probability("p", 1.5)
        with pytest.raises(ValueError):
            check_probability("p", -0.1)

    def test_check_in_range(self):
        assert check_in_range("x", 5, 0, 10) == 5.0
        with pytest.raises(ValueError):
            check_in_range("x", 11, 0, 10)

    def test_check_type(self):
        assert check_type("x", 3, int) == 3
        with pytest.raises(TypeError):
            check_type("x", "3", int)


class TestTabulate:
    def test_basic_table_alignment(self):
        out = format_table([["a", 1], ["bb", 22]], headers=["col", "n"])
        lines = out.splitlines()
        assert lines[0].startswith("col")
        assert "-" in lines[1]
        assert len(lines) == 4

    def test_float_formatting(self):
        out = format_table([[1.23456]], floatfmt=".1f")
        assert "1.2" in out and "1.23" not in out

    def test_title_and_empty(self):
        assert format_table([], title="T") == "T"
        out = format_table([[1]], title="Title")
        assert out.splitlines()[0] == "Title"

    def test_ragged_rows_are_padded(self):
        out = format_table([[1, 2, 3], [4]], headers=["a", "b", "c"])
        assert "4" in out
