"""The field diff of scripts/compare_outputs.py on synthetic outputs."""

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

_spec = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parent.parent / "scripts" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_equal_arrays_are_bitwise():
    a = np.linspace(-1.0, 1.0, 7)
    assert compare_outputs.diff(a, a.copy()) == ("bitwise", 0.0)
    assert compare_outputs.diff(np.arange(3), np.arange(3)) == ("bitwise", 0.0)
    assert compare_outputs.diff(np.asarray("load"), np.asarray("load")) == ("bitwise", 0.0)


def test_a_last_bit_move_is_reported_and_fails_at_zero_tolerance():
    a = np.array([1.0, 2.0, 3.0])
    b = a.copy()
    b[1] = np.nextafter(b[1], 3.0)
    verdict, rel = compare_outputs.diff(a, b)
    assert verdict.startswith("max abs 4.44e-16, max rel 2.22e-16")
    assert rel == pytest.approx(2.0 ** -52)
    _, failed = compare_outputs.compare({"x": a}, {"x": b}, tol=0.0)
    assert failed
    lines, failed = compare_outputs.compare({"x": a}, {"x": b}, tol=1e-15)
    assert not failed and "1 within" in lines[-1]


def test_nan_matches_nan_but_not_a_number():
    a = np.array([np.nan, 1.0])
    assert compare_outputs.diff(a, a.copy())[0] == "bitwise"
    assert compare_outputs.diff(a, np.array([-np.nan, 1.0]))[1] == 0.0  # another NaN payload
    verdict, rel = compare_outputs.diff(a, np.array([0.5, 1.0]))
    assert rel == np.inf and "inf" in verdict
    assert compare_outputs.diff(np.array([np.inf]), np.array([-np.inf]))[1] == np.inf


def test_a_shape_or_type_change_always_fails():
    verdict, rel = compare_outputs.diff(np.zeros(3), np.zeros(4))
    assert verdict == "shape (3,) -> (4,)" and rel == np.inf
    assert compare_outputs.diff(np.zeros(3), np.zeros(3, dtype=np.int64))[1] == np.inf
    assert compare_outputs.diff(np.asarray("load"), np.asarray("solar"))[1] == np.inf
    _, failed = compare_outputs.compare({"x": np.zeros(3)}, {"x": np.zeros(4)}, tol=1.0)
    assert failed


def test_fields_of_one_side_are_listed_and_do_not_fail():
    lines, failed = compare_outputs.compare({"a": np.ones(2), "old": np.ones(1)}, {"a": np.ones(2), "new": np.ones(1)}, 0.0)
    assert not failed
    assert lines[:3] == ["a: bitwise", "old: only in base", "new: only in head"]
    assert lines[-1] == "1 shared fields: 1 bitwise, 0 within --tol 0, 0 above; 1 only in base, 1 only in head"


@dataclass
class _Episode:
    charge: np.ndarray
    dispatch_seconds: list
    forecast_log: dict
    fine_tune_steps: list
    models: object


class _Net:
    def __init__(self):
        self.hidden_dim = 2
        self.params = {"Wo": np.ones((1, 2))}


def test_flatten_walks_results_and_leaves_out_the_wall_clock():
    ep = _Episode(np.zeros((2, 3)), [0.1], {"load:0": {"actual": np.ones(3)}}, [], {"solar": _Net(), "price": None})
    fields = compare_outputs.flatten(ep, "ep")
    assert sorted(fields) == [
        "ep.charge", "ep.fine_tune_steps", "ep.forecast_log.load:0.actual",
        "ep.models.price", "ep.models.solar.hidden_dim", "ep.models.solar.params.Wo",
    ]
    assert fields["ep.models.price"] == np.asarray("None")
    assert fields["ep.fine_tune_steps"].shape == (0,)
