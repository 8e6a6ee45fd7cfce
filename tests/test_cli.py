import json

import numpy as np
import pytest

from projlab import (Chart, PointSample, cantor_dust, cantor_on_axis,
                     export_sample, from_basis, generate)
from projlab.cli import run_cli


def write_config(path, **overrides):
    base = dict(ifs=json.loads(cantor_dust().to_json()), n=2, k=1,
                num_directions=8, depth=6, scale_lo=2, scale_hi=8,
                threshold_s=0.9, seed=42, mode="sweep")
    base.update(overrides)
    path.write_text(json.dumps(base))
    return path


def test_bound_prints_value(capsys):
    assert run_cli(["bound", "--n", "3", "--k", "2", "--s", "1"]) == 0
    assert capsys.readouterr().out.strip() == "1.0"
    assert run_cli(["bound", "--n", "2", "--k", "1", "--s", "0.5"]) == 0
    assert capsys.readouterr().out.strip() == "0.5"


def test_bound_rejects_bad_arguments(capsys):
    assert run_cli(["bound", "--n", "2", "--k", "2", "--s", "1"]) == 3
    assert "numeric failure" in capsys.readouterr().err


def test_sweep_writes_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    csv = (out / "results.csv").read_text()
    assert csv.startswith("index,free_0,est_dim,stderr,exceptional\n")
    assert len(csv.strip().split("\n")) == 9
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 42
    assert "mean_dim" in summary and "kaufman_bound" in summary


def test_sweep_seed_override_changes_results(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(out2),
                    "--seed", "43"]) == 0
    assert (out1 / "results.csv").read_text() != (out2 / "results.csv").read_text()
    assert json.loads((out2 / "summary.json").read_text())["config"]["seed"] == 43


def test_scan_writes_outputs(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       ifs=json.loads(cantor_on_axis().to_json()),
                       num_directions=16, depth=8, scale_hi=10,
                       threshold_s=0.5, mode="scan")
    out = tmp_path / "out"
    assert run_cli(["scan", "--config", str(cfg), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["flagged_param_dimension"] == 0.0
    assert "caveat" in summary


def test_mode_subcommand_mismatch_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json")  # mode=sweep
    assert run_cli(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "mode" in err


def test_missing_config_file(tmp_path, capsys):
    assert run_cli(["sweep", "--config", str(tmp_path / "nope.json"),
                    "--out", str(tmp_path)]) == 2
    assert "not found" in capsys.readouterr().err


def test_invalid_json_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


def test_config_error_names_offending_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", threshold_s=5.0)
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "field threshold_s" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    (dict(depth=-1), "field depth"),
    (dict(scale_lo=9, scale_hi=4), "field scale_hi"),
])
def test_config_error_before_sampling(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path / "cfg.json", **{"depth": 10, **overrides})
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def test_scan_coarse_grid_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", ifs=json.loads(cantor_on_axis().to_json()),
                       num_directions=4, threshold_s=0.5, mode="scan")
    assert run_cli(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "field num_directions" in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


def test_chart_subcommand(tmp_path, capsys):
    v = from_basis(np.array([[1.0], [1.0]]) / np.sqrt(2.0))
    sub = tmp_path / "v.json"
    sub.write_text(v.to_json())
    assert run_cli(["chart", "--subspace", str(sub)]) == 0
    chart = Chart.from_json(capsys.readouterr().out)
    assert chart.I == (0,)
    assert np.allclose(chart.free, [[1.0]])


def test_chart_missing_file(tmp_path, capsys):
    assert run_cli(["chart", "--subspace", str(tmp_path / "nope.json")]) == 2
    assert "not found" in capsys.readouterr().err


def test_dims_subcommand(tmp_path, capsys):
    sample = generate(cantor_dust(), 8)
    path = tmp_path / "dust.bin"
    export_sample(sample, path)
    assert run_cli(["dims", "--sample", str(path),
                    "--scale-lo", "2", "--scale-hi", "8"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert 1.1 <= report["value"] <= 1.4
    assert report["scales"] == list(range(2, 9))
    assert len(report["counts"]) == 7


def test_dims_missing_sidecar(tmp_path, capsys):
    path = tmp_path / "lonely.bin"
    path.write_bytes(b"\x00" * 16)
    assert run_cli(["dims", "--sample", str(path)]) == 2
    assert "sidecar" in capsys.readouterr().err


def test_dims_key_overflow_is_numeric_failure(tmp_path, capsys):
    path = tmp_path / "cloud.bin"
    rng = np.random.default_rng(0)
    export_sample(PointSample(points=rng.random((100, 5)), depth=1), path)
    assert run_cli(["dims", "--sample", str(path), "--scale-hi", "14"]) == 3
    err = capsys.readouterr().err
    assert "k=5" in err and "scale_hi=14" in err


@pytest.mark.parametrize("field", ["count", "n", "depth"])
def test_dims_incomplete_sidecar_is_config_error(tmp_path, capsys, field):
    path = tmp_path / "dust.bin"
    export_sample(generate(cantor_dust(), 3), path)
    sidecar = json.loads(path.with_suffix(".json").read_text())
    del sidecar[field]
    path.with_suffix(".json").write_text(json.dumps(sidecar))
    assert run_cli(["dims", "--sample", str(path)]) == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("{count: 64", "not valid JSON"),
    ('{"count": "x", "n": 2, "depth": 3}', "field 'count' is not an integer"),
    ('{"count": 64, "n": null, "depth": 3}', "field 'n' is not an integer"),
    ("[64, 2, 3]", "no field 'count'"),
])
def test_dims_malformed_sidecar_is_config_error(tmp_path, capsys, text, message):
    path = tmp_path / "dust.bin"
    export_sample(generate(cantor_dust(), 3), path)
    path.with_suffix(".json").write_text(text)
    assert run_cli(["dims", "--sample", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_dims_size_mismatch_is_config_error(tmp_path, capsys):
    path = tmp_path / "dust.bin"
    export_sample(generate(cantor_dust(), 3), path)
    path.write_bytes(path.read_bytes()[:-8])
    assert run_cli(["dims", "--sample", str(path)]) == 2
    err = capsys.readouterr().err
    assert "1016 bytes" in err and "1024" in err
