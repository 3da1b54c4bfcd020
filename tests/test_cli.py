import json
from dataclasses import replace
from pathlib import Path

import pytest

from vppdispatch.benchmark import _dump_config, load_run_config
from vppdispatch.cli import main
from vppdispatch.presets import drift_benchmark_config, sweep_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def dataset(tmp_path):
    out = tmp_path / "ds"
    code = main([
        "generate", "--out", str(out), "--days", "8", "--buildings", "1",
        "--noise-load", "0.05", "--noise-solar", "0.1", "--seed", "3",
    ])
    assert code == 0
    return out


def test_generate_then_validate(dataset):
    assert main(["validate", "--data", str(dataset)]) == 0


def test_validate_reports_schema_error(tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "building_x.csv").write_text("timestamp,hour,load_kw,solar_kw\n0,0,1.0,0.0\n2,2,1.0,0.0\n")
    (bad / "district.csv").write_text("timestamp,price,carbon_intensity\n0,0.1,0.4\n")
    assert main(["validate", "--data", str(bad)]) == 1
    assert "error" in capsys.readouterr().out


def test_dispatch_oracle_plan(dataset, tmp_path, capsys):
    plan = tmp_path / "plan.csv"
    mps = tmp_path / "prog.mps"
    code = main([
        "dispatch", "--data", str(dataset), "--oracle", "--start", "24",
        "--horizon", "24", "--out", str(plan), "--mps", str(mps),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "status=optimal" in out
    assert plan.exists() and mps.exists()
    header = plan.read_text().splitlines()[0]
    assert header == "t,entity,quantity,value"


def test_dispatch_stochastic_with_trained_models(dataset, tmp_path):
    plan = tmp_path / "plan.csv"
    code = main([
        "dispatch", "--data", str(dataset), "--start", "144", "--horizon", "12",
        "--scenarios", "5", "--model", "linear", "--out", str(plan),
    ])
    assert code == 0
    assert plan.exists()


def test_forecast_reports_wmape(dataset, capsys, tmp_path):
    save = tmp_path / "models"
    code = main([
        "forecast", "--data", str(dataset), "--train-days", "5", "--val-days", "1",
        "--model", "linear", "--save", str(save),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "val_wmape" in out
    assert (save / "price.fcst").exists()
    assert (save / "load_0.fcst").exists()


def test_benchmark_and_report(dataset, tmp_path, capsys):
    cfg = {
        "out_dir": str(tmp_path / "bench"),
        "dataset_path": str(dataset),
        "synthetic": None,
        "train_days": 5,
        "val_days": 1,
        "controllers": ["nostorage", "rbc", "sofo"],
        "components": False,
        "seeds": [0],
        "controller": {
            "n_scenarios": 5,
            "forecaster": "linear",
            "scheme": {"kind": "selfadapt"},
            "train": {"epochs": 5, "seed": 0},
            "finetune": {"epochs": 3, "seed": 0},
        },
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["benchmark", "--config", str(cfg_path)])
    assert code == 0
    bench = tmp_path / "bench"
    assert (bench / "summary.csv").exists()
    assert (bench / "plots" / "summary.svg").exists()
    assert (bench / "trajectories" / "sofo_seed0.csv").exists()
    assert (bench / "timings.txt").exists()
    summary = (bench / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("controller,seed,average")
    assert len(summary) == 4  # header + three controllers
    # re-render plots from the CSVs alone
    assert main(["report", "--out", str(bench)]) == 0


def test_benchmark_seed_override(dataset, tmp_path):
    cfg = {
        "out_dir": str(tmp_path / "bench2"),
        "dataset_path": str(dataset),
        "synthetic": None,
        "train_days": 5,
        "val_days": 1,
        "controllers": ["nostorage", "rbc"],
        "components": False,
        "seeds": [0],
        "controller": {"n_scenarios": 2, "forecaster": "linear"},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["benchmark", "--config", str(cfg_path), "--seed", "1,2"]) == 0
    summary = (tmp_path / "bench2" / "summary.csv").read_text().splitlines()
    assert len(summary) == 5  # header + 2 controllers x 2 seeds


@pytest.mark.parametrize(
    "extra, named",
    [
        ({"workers": 1}, "'workers'"),
        ({"controller": {"n_scenarios": 2, "lag": 3}}, "'lag'"),
        ({"controller": {"scheme": {"kind": "noft", "freeze": ["cell"]}}}, "'freeze'"),
    ],
)
def test_benchmark_rejects_unknown_config_keys(dataset, tmp_path, capsys, extra, named):
    cfg = {
        "out_dir": str(tmp_path / "bench3"),
        "dataset_path": str(dataset),
        "synthetic": None,
        "controllers": ["nostorage"],
        "components": False,
        **extra,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["benchmark", "--config", str(cfg_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("config error:") and named in out
    assert not (tmp_path / "bench3").exists()


@pytest.mark.parametrize(
    "train, named",
    [
        ({"batch_size": 0}, "batch_size"),
        ({"epochs": -5}, "epochs"),
        ({"learning_rate": 0.0}, "learning_rate"),
    ],
)
def test_benchmark_rejects_out_of_range_train_configs(dataset, tmp_path, capsys, train, named):
    cfg = {
        "out_dir": str(tmp_path / "bench4"),
        "dataset_path": str(dataset),
        "synthetic": None,
        "controllers": ["nostorage"],
        "components": False,
        "controller": {"finetune": train},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    with pytest.raises(ValueError, match=named):
        load_run_config(str(cfg_path))
    assert main(["benchmark", "--config", str(cfg_path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("config error:") and named in out
    assert not (tmp_path / "bench4").exists()


@pytest.mark.parametrize(
    "extra, argv, named",
    [
        ({"controller": {"n_scenarios": 0}}, [], "n_scenarios"),
        ({"scenario_counts": [25, 0]}, [], "scenario_counts"),
        ({}, ["--scenarios", "0"], "n_scenarios"),
    ],
    ids=["n_scenarios", "scenario_counts", "--scenarios"],
)
def test_benchmark_rejects_scenario_counts_below_one(dataset, tmp_path, capsys, extra, argv, named):
    """A scenario count below 1, from the config or from ``--scenarios``,
    is a config error before any pretraining, not a benchmark failure."""
    cfg = {
        "out_dir": str(tmp_path / "bench5"),
        "dataset_path": str(dataset),
        "synthetic": None,
        "controllers": ["nostorage", "sofo"],
        "components": False,
        **extra,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    if extra:
        with pytest.raises(ValueError, match=named):
            load_run_config(str(cfg_path))
    assert main(["benchmark", "--config", str(cfg_path), *argv]) == 1
    out = capsys.readouterr().out
    assert out.startswith("config error:") and named in out
    assert not (tmp_path / "bench5").exists()


@pytest.mark.parametrize(
    "make",
    [
        lambda out: replace(load_run_config(str(CONFIGS / "example_benchmark.json")), out_dir=out),
        drift_benchmark_config,
        sweep_config,
    ],
    ids=["example", "drift", "sweep"],
)
def test_run_config_json_reloads_equal(tmp_path, make):
    config = make(str(tmp_path / "bench"))
    path = tmp_path / "run_config.json"
    _dump_config(config, path)
    assert load_run_config(str(path)) == config
