"""The field diff of scripts/compare_outputs.py on synthetic outputs."""

import importlib.util
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from vppdispatch.dispatch.lp import BASIC

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
    assert verdict == "max abs 4.44e-16, max rel 2.22e-16, norm rel 1.48e-16"
    assert rel == pytest.approx(2.0 ** -51 / 3)  # the gap over the field's largest magnitude
    _, failed = compare_outputs.compare({"x": a}, {"x": b}, tol=0.0)
    assert failed
    lines, failed = compare_outputs.compare({"x": a}, {"x": b}, tol=1e-15)
    assert not failed and "1 within" in lines[-1]


def test_a_rounding_residue_against_an_exact_zero_passes_norm_wise():
    """0 against 1.8e-15 kW is an elementwise relative difference of 1, but
    rounding next to the field's largest entry."""
    base = np.array([0.0, 5.0, -3.0])
    head = np.array([1.8e-15, 5.0, -3.0])
    verdict, rel = compare_outputs.diff(base, head)
    assert verdict == "max abs 1.8e-15, max rel 1, norm rel 3.6e-16"
    assert rel == pytest.approx(1.8e-15 / 5.0)
    assert not compare_outputs.compare({"x": base}, {"x": head}, tol=1e-9)[1]
    assert compare_outputs.compare({"x": base}, {"x": head}, tol=0.0)[1]
    assert compare_outputs.diff(np.zeros(2), np.array([0.0, -0.0])) == ("max abs 0, max rel 0, norm rel 0", 0.0)


def test_a_real_change_in_a_small_entry_still_fails():
    base = np.array([1.0, 1e-3])
    head = np.array([1.0, 2e-3])
    verdict, rel = compare_outputs.diff(base, head)
    assert verdict == "max abs 0.001, max rel 0.5, norm rel 0.001"
    assert compare_outputs.compare({"x": base}, {"x": head}, tol=1e-9)[1]
    # a field that is all zero on one side has nothing larger to scale by
    assert compare_outputs.diff(np.zeros(2), np.array([0.0, 1.8e-15]))[1] == 1.0
    # what norm-wise judging accepts: a change far below the field's largest entry
    assert compare_outputs.diff(np.array([1e6, 1e-9]), np.array([1e6, 2e-9]))[1] == pytest.approx(1e-15)


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


def _write_report(out, value="0.25", plot=b"<svg>a</svg>"):
    (out / "trajectories").mkdir(parents=True)
    (out / "plots").mkdir()
    (out / "summary.csv").write_text(f"controller,seed,average\nsofo,7,{value}\nrbc,7,nan\n")
    (out / "trajectories" / "sofo_seed7.csv").write_text("t,entity,value\n0,b0,1.5\n")
    (out / "plots" / "summary.svg").write_bytes(plot)
    (out / "timings.txt").write_text(f"sofo seconds_per_24h_dispatch={value}\n")
    (out / "run_config.json").write_text(f'{{"out_dir": "{out}"}}')


def test_report_cells_and_plots_are_fields(tmp_path):
    _write_report(tmp_path)
    fields = compare_outputs.report_fields(tmp_path)
    assert sorted(fields) == [
        "drift/plots/summary.svg",
        "drift/summary.csv/row0.average", "drift/summary.csv/row0.controller", "drift/summary.csv/row0.seed",
        "drift/summary.csv/row1.average", "drift/summary.csv/row1.controller", "drift/summary.csv/row1.seed",
        "drift/trajectories/sofo_seed7.csv/row0.entity", "drift/trajectories/sofo_seed7.csv/row0.t",
        "drift/trajectories/sofo_seed7.csv/row0.value",
    ]  # timings.txt and run_config.json are left out
    assert fields["drift/summary.csv/row0.average"] == 0.25
    assert fields["drift/summary.csv/row0.controller"] == np.asarray("sofo")
    assert fields["drift/plots/summary.svg"].tobytes() == b"<svg>a</svg>"


def test_report_diff_names_the_cell_that_moved(tmp_path):
    _write_report(tmp_path / "base")
    _write_report(tmp_path / "same")
    _write_report(tmp_path / "moved", value=str(np.nextafter(0.25, 1.0)), plot=b"<svg>b</svg>")
    base = compare_outputs.report_fields(tmp_path / "base")
    lines, failed = compare_outputs.compare(base, compare_outputs.report_fields(tmp_path / "same"), tol=0.0)
    assert not failed and lines[-1].startswith("10 shared fields: 10 bitwise")  # NaN cells included
    lines, failed = compare_outputs.compare(base, compare_outputs.report_fields(tmp_path / "moved"), tol=1e-15)
    assert failed
    assert "drift/summary.csv/row0.average: max abs 5.55e-17, max rel 2.22e-16, norm rel 2.22e-16" in lines
    assert "drift/plots/summary.svg: differs  ABOVE TOL" in lines
    assert lines[-1].startswith("10 shared fields: 8 bitwise, 1 within --tol 1e-15, 1 above")


def test_the_cold_solves_run_phase_one():
    fields = compare_outputs.cold_solve_fields()
    for program in ("deterministic", "stochastic"):
        phases = fields[f"cold/{program}/phase_iterations"]
        assert phases.shape == (3,) and phases[0] > 0
        assert np.isfinite(fields[f"cold/{program}/objective"])
        cols, rows = fields[f"cold/{program}/basis.cols"], fields[f"cold/{program}/basis.rows"]
        assert np.count_nonzero(cols == BASIC) + np.count_nonzero(rows == BASIC) == rows.size
