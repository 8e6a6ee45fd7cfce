import json

import numpy as np
import pytest

from projlab import (Chart, IFSSpec, InputDomainError, PointSample, cantor_dust,
                     cantor_on_axis, export_sample, from_basis, generate)
from projlab import lab
from projlab.cli import run_cli
from projlab.lab import THREADS_ENV


def config_document(**overrides):
    base = dict(ifs=json.loads(cantor_dust().to_json()), n=2, k=1,
                num_directions=8, depth=6, scale_lo=2, scale_hi=8,
                threshold_s=0.9, seed=42, mode="sweep")
    base.update(overrides)
    return base


def write_config(path, **overrides):
    path.write_text(json.dumps(config_document(**overrides)))
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


def test_non_object_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path),
                    "--seed", "3"]) == 2
    assert "field ifs: missing from config" in capsys.readouterr().err


def test_config_error_names_offending_field(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", threshold_s=5.0)
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert "field threshold_s" in capsys.readouterr().err


@pytest.mark.parametrize("overrides, field", [
    (dict(depth=-1), "field depth"),
    (dict(scale_lo=9, scale_hi=4), "field scale_hi"),
    (dict(depth=12), "field depth: 4^12 sample points exceed"),
    (dict(n="two"), "field n: invalid literal for int()"),
    (dict(depth=None), "field depth: int() argument must be"),
    (dict(threshold_s="high"), "field threshold_s: could not convert string to float"),
    (dict(seed=[1]), "field seed: int() argument must be"),
])
def test_config_error_before_sampling(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path / "cfg.json", **{"depth": 10, **overrides})
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def nonfinite_dust(value):
    ifs = json.loads(cantor_dust().to_json())
    ifs["maps"][1]["translation"] = [value, 0.0]
    return ifs


@pytest.mark.parametrize("overrides, threads, field", [
    (dict(scale_hi=62), "1", "field scale_hi: box keys need scale_hi <= 61"),
    (dict(scale_hi=70), "1", "field scale_hi: box keys need scale_hi <= 61"),
    ({}, "abc", f"field {THREADS_ENV}: not an integer"),
    (dict(ifs=nonfinite_dust(float("nan"))), "1",
     "config field ifs: translation must be finite"),
    (dict(ifs=nonfinite_dust(float("inf"))), "1",
     "config field ifs: translation must be finite"),
], ids=["scale_hi-62", "scale_hi-70", "threads", "translation-nan", "translation-inf"])
def test_config_error_before_generate(tmp_path, capsys, monkeypatch, overrides,
                                      threads, field):
    calls = []
    monkeypatch.setattr(lab, "generate", lambda *args: calls.append(args))
    monkeypatch.setenv(THREADS_ENV, threads)
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err
    assert calls == []


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


def test_chart_invalid_json_is_config_error(tmp_path, capsys):
    sub = tmp_path / "v.json"
    sub.write_text('{"n": 2, "k": ')
    assert run_cli(["chart", "--subspace", str(sub)]) == 2
    assert "subspace file is not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("document, message", [
    ([2, 1, [1.0, 0.0, 0.0, 0.0]], "field n: missing from subspace JSON"),
    ({"n": "two", "k": 1, "proj": [1.0, 0.0, 0.0, 0.0]}, "invalid literal for int()"),
    ({"n": 2, "k": None, "proj": [1.0, 0.0, 0.0, 0.0]}, "int() argument must be"),
    ({"n": -1, "k": 1, "proj": [1.0]}, "need n >= 1 and n * n entries"),
], ids=["list", "n-string", "k-null", "n-negative"])
def test_chart_malformed_subspace_is_numeric_failure(tmp_path, capsys, document, message):
    sub = tmp_path / "v.json"
    sub.write_text(json.dumps(document))
    assert run_cli(["chart", "--subspace", str(sub)]) == 3
    assert message in capsys.readouterr().err


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
    assert f"field {field}: missing from sample" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("{count: 64", "not valid JSON"),
    ('{"count": "x", "n": 2, "depth": 3}', "field count: invalid literal for int()"),
    ('{"count": 64, "n": null, "depth": 3}', "field n: int() argument must be"),
    ("[64, 2, 3]", "field count: missing from sample"),
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


def cli_error(capsys, argv, code):
    assert run_cli(argv) == code
    return capsys.readouterr().err


def read_config(tmp_path, capsys, document):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(document))
    return cli_error(capsys, ["sweep", "--config", str(path), "--out", str(tmp_path)], 2)


def read_sidecar(tmp_path, capsys, document):
    path = tmp_path / "dust.bin"
    export_sample(generate(cantor_dust(), 3), path)
    path.with_suffix(".json").write_text(json.dumps(document))
    return cli_error(capsys, ["dims", "--sample", str(path)], 2)


def read_subspace(tmp_path, capsys, document):
    path = tmp_path / "v.json"
    path.write_text(json.dumps(document))
    return cli_error(capsys, ["chart", "--subspace", str(path)], 3)


def read_with(reader):
    def read(tmp_path, capsys, document):
        with pytest.raises(InputDomainError) as exc:
            reader(json.dumps(document))
        return str(exc.value)
    return read


# Per document kind: its reader, a valid document, the name the reader's
# messages give the document, and a field with a value its cast cannot read.
READERS = {
    "config": (read_config, config_document(), "config", "num_directions", "many"),
    "sidecar": (read_sidecar, {"count": 64, "n": 2, "depth": 3}, "sidecar",
                "depth", "deep"),
    "subspace": (read_subspace, {"n": 2, "k": 1, "proj": [1.0, 0.0, 0.0, 0.0]},
                 "subspace JSON", "k", "one"),
    "chart": (read_with(Chart.from_json), {"n": 2, "k": 1, "I": [0], "free": [1.0]},
              "chart JSON", "I", ["a"]),
    "ifs": (read_with(IFSSpec.from_json), json.loads(cantor_dust().to_json()),
            "IFS JSON", "maps", 5),
}


@pytest.mark.parametrize("case", ["non-object", "missing", "uncastable"])
@pytest.mark.parametrize("kind", list(READERS))
def test_reader_error_names_document_and_field(tmp_path, capsys, kind, case):
    read, document, name, field, bad = READERS[kind]
    if case == "non-object":
        message = f"field {next(iter(document))}: missing from "
        document = list(document.values())
    elif case == "missing":
        message = f"field {field}: missing from "
        document = {key: value for key, value in document.items() if key != field}
    else:
        message = f"{name} field {field}: "
        document = {**document, field: bad}
    err = read(tmp_path, capsys, document)
    assert message in err and name in err
