import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from projlab import (Chart, IFSSpec, InputDomainError, PointSample, cantor_dust,
                     cantor_on_axis, export_sample, from_basis, generate)
from projlab import fractal, lab
from projlab.cli import run_cli


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
    # Flags outside their domain are a config error naming the flags; they
    # once exited 3 as a numeric failure.
    assert run_cli(["bound", "--n", "2", "--k", "2", "--s", "1"]) == 2
    assert "config error: --n, --k, --s: " in capsys.readouterr().err
    assert run_cli(["bound", "--n", "3", "--k", "2", "--s", "2.5"]) == 2
    assert "need a real 0 < s <= k, got s=2.5" in capsys.readouterr().err


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
    (dict(k=2), "field k: need 0 < k < n, got k=2, n=2"),
    (dict(threshold_s=1.5), "field threshold_s: need a real 0 < s <= k, got s=1.5"),
    (dict(scale_hi=63), "field scale_hi: box keys for k=1 at scale_hi=63"),
])
def test_config_error_before_sampling(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path / "cfg.json", **{"depth": 10, **overrides})
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def dust_with_map(**change):
    ifs = json.loads(cantor_dust().to_json())
    ifs["maps"][1].update(change)
    return ifs


@pytest.mark.parametrize("overrides, field", [
    (dict(num_directions=8.9), "field num_directions: not an integer: 8.9"),
    (dict(depth=6.7), "field depth: not an integer: 6.7"),
    (dict(seed=4.2), "field seed: not an integer: 4.2"),
    (dict(depth="5"), "field depth: invalid literal for int(): JSON string '5'"),
    (dict(depth=True), "field depth: int() argument must be a number, not JSON true"),
    (dict(seed=False), "field seed: int() argument must be a number, not JSON false"),
    (dict(threshold_s="0.9"),
     "field threshold_s: could not convert string to float: JSON string '0.9'"),
    (dict(threshold_s=True), "field threshold_s: float() argument must be a number, not JSON true"),
    (dict(ifs=dust_with_map(ratio="0.5")),
     "field ifs: IFS JSON map 1 field ratio: could not convert string to float"),
    (dict(ifs=dust_with_map(translation=[True, 0.0])),
     "field ifs: IFS JSON map 1 field translation: float() argument must be a number"),
])
def test_fractional_integer_field_is_config_error(tmp_path, capsys, overrides, field):
    # int() would truncate the fractional floats and run 8 directions at
    # depth 6 with seed 4; int() and float() would read the strings and
    # booleans as numbers, a boolean depth as depth 1.
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    assert field in capsys.readouterr().err


def test_integral_float_field_reads_as_int(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", num_directions=8.0, seed=42.0)
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    cfg = write_config(tmp_path / "cfg.json")
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    for name in ("results.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def nonfinite_dust(value):
    ifs = json.loads(cantor_dust().to_json())
    ifs["maps"][1]["translation"] = [value, 0.0]
    return ifs


@pytest.mark.parametrize("overrides, extra, field", [
    (dict(scale_hi=63), [], "field scale_hi: box keys for k=1 at scale_hi=63 need 1 x 64 bits"),
    (dict(scale_hi=70), [], "field scale_hi: box keys for k=1 at scale_hi=70 need 1 x 71 bits"),
    (dict(scale_lo=-5, scale_hi=4), [],
     "field scale_lo, field scale_hi: scale_lo must be >= 0, got -5 (scale_hi=4)"),
    (dict(seed=-1), [], "field seed: need >= 0, got -1"),
    ({}, ["--seed", "-4"], "field seed: need >= 0, got -4"),
    (dict(ifs=nonfinite_dust(float("nan"))), [],
     "config field ifs: translation must be finite"),
    (dict(ifs=nonfinite_dust(float("inf"))), [],
     "config field ifs: translation must be finite"),
    # Finite, but its attractor's coordinates once overflowed float64 in
    # generate and in the projection, with numpy warnings, and exited 3.
    (dict(ifs={"n": 2, "maps": [{"ratio": 0.5, "translation": [0.0, 0.0]},
                                {"ratio": 0.5, "translation": [1e308, 1e308]}]}), [],
     "config field ifs: translations up to 1.41e+308 in norm give an attractor wider"),
    # Any JSON value was once taken as the label and echoed into summary.json.
    (dict(ifs={**json.loads(cantor_dust().to_json()), "label": ["dust"]}), [],
     "config field ifs: label must be a string or null, got ['dust']"),
], ids=["scale_hi-63", "scale_hi-70", "scale_lo-negative", "seed-negative",
        "seed-override-negative", "translation-nan", "translation-inf", "translation-huge",
        "label-list"])
def test_config_error_before_generate(tmp_path, capsys, monkeypatch, overrides,
                                      extra, field):
    calls = []
    monkeypatch.setattr(fractal, "generate", lambda *args: calls.append(args))
    cfg = write_config(tmp_path / "cfg.json", **overrides)
    assert run_cli(["sweep", "--config", str(cfg), "--out", str(tmp_path)]
                   + extra) == 2
    assert field in capsys.readouterr().err
    assert calls == []


def test_scan_negative_scale_lo_is_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path / "cfg.json", ifs=json.loads(cantor_on_axis().to_json()),
                       num_directions=16, threshold_s=0.5, mode="scan", scale_lo=-1)
    assert run_cli(["scan", "--config", str(cfg), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "field scale_lo, field scale_hi: scale_lo must be >= 0, got -1" in err


def test_parser_is_reused_after_an_argparse_error(tmp_path, capsys):
    sweep = write_config(tmp_path / "sweep.json")
    scan = write_config(tmp_path / "scan.json", ifs=json.loads(cantor_on_axis().to_json()),
                        num_directions=16, threshold_s=0.5, mode="scan")

    def outputs(label):
        """What bound prints and what sweep (with and without --seed) and
        scan write."""
        assert run_cli(["bound", "--n", "3", "--k", "2", "--s", "1"]) == 0
        found = [capsys.readouterr().out]
        for name, command, extra in [("sweep", "sweep", []),
                                     ("seeded", "sweep", ["--seed", "5"]),
                                     ("scan", "scan", [])]:
            out = tmp_path / label / name
            config = scan if command == "scan" else sweep
            assert run_cli([command, "--config", str(config), "--out", str(out)]
                           + extra) == 0
            found += [(out / f).read_bytes() for f in ("results.csv", "summary.json")]
        return found

    first = outputs("first")
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep"])  # --config is required
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err
    assert outputs("again") == first
    assert first[1] != first[3]  # --seed reached the second sweep only


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


def test_chart_subcommand_bytes(tmp_path, capsys):
    # A subspace given by its projection is charted from the eigenbasis that
    # Subspace takes of it; these bytes were printed before Subspace kept a
    # basis, when to_chart took the same eigenbasis itself.
    proj = [0.21091703731452421, -0.10799390567001951, -0.36035026076693905,
            -0.15784817575227728, -0.10799390567001951, 0.6704200584795812,
            -0.15325662838660056, 0.4310530429790774, -0.36035026076693905,
            -0.15325662838660056, 0.8011208649553769, 0.07737131321941045,
            -0.15784817575227728, 0.4310530429790774, 0.07737131321941045,
            0.31754203925051755]
    sub = tmp_path / "v.json"
    sub.write_text(json.dumps({"n": 4, "k": 2, "proj": proj}))
    assert run_cli(["chart", "--subspace", str(sub)]) == 0
    assert capsys.readouterr().out == (
        '{"n": 4, "k": 2, "I": [1, 2], "free": [-0.2759779281479225, '
        '-0.5026029468929596, 0.6954503907667692, 0.22962040232058578]}\n')


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


@pytest.mark.parametrize("window, message", [
    (["--scale-lo", "-1"], "--scale-lo, --scale-hi: scale_lo must be >= 0, got -1 (scale_hi=8)"),
    (["--scale-lo", "5", "--scale-hi", "4"],
     "--scale-lo, --scale-hi: need at least 3 scales, got scale_lo=5, scale_hi=4"),
    (["--scale-lo", "2", "--scale-hi", "3"],
     "--scale-lo, --scale-hi: need at least 3 scales, got scale_lo=2, scale_hi=3"),
], ids=["scale-lo-negative", "scale-hi-below-scale-lo", "two-scales"])
def test_dims_window_is_config_error(tmp_path, capsys, window, message):
    # A negative --scale-lo once exited 0 with 0.739 on this sample, and
    # --scale-lo 5 --scale-hi 4 exited 3 as a numeric failure.
    path = tmp_path / "dust.bin"
    export_sample(generate(cantor_dust(), 8), path)
    assert run_cli(["dims", "--sample", str(path), *window]) == 2
    assert message in capsys.readouterr().err
    # Checked before the sample is read: a missing sample reports the flag.
    assert run_cli(["dims", "--sample", str(tmp_path / "none.bin"), *window]) == 2
    assert message in capsys.readouterr().err
    assert run_cli(["dims", "--sample", str(path), "--scale-lo", "0", "--scale-hi", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["scales"] == [0, 1, 2]


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
    # 8 x (-64) x (-2) bytes: the file's true size.
    ('{"count": -64, "n": -2, "depth": 0}', "field count: need >= 1, got -64"),
    ('{"count": 0, "n": 2, "depth": 3}', "field count: need >= 1, got 0"),
    ('{"count": 64, "n": 0, "depth": 3}', "field n: need >= 1, got 0"),
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


SRC = Path(__file__).resolve().parents[1] / "src"


def scan_rows_flag_row_8_alone(out, cwd):
    lines = (cwd / "scan-out" / "results.csv").read_text().splitlines()
    flagged = [line for line in lines if line.endswith(",true")]
    return len(lines) == 17 and len(flagged) == 1 and flagged[0].startswith("8,")


def chart_of_diagonal(out, cwd):
    chart = Chart.from_json(out)
    return chart.I == (0,) and abs(chart.free - 1.0).max() <= 1e-12


TINY_SWEEP = config_document(num_directions=3, depth=4, scale_lo=2, scale_hi=5,
                             threshold_s=0.5, seed=1)
# Per case: the documents to write, the arguments, the exit code, a substring
# of stderr, and a check of stdout and the working directory.
PROCESS_CASES = {
    "bound": ({}, ["bound", "--n", "2", "--k", "1", "--s", "0.5"], 0, "",
              lambda out, cwd: out == "0.5\n"),
    "dims-bad-window": ({}, ["dims", "--sample", "x.bin", "--scale-lo", "-1",
                             "--scale-hi", "8"], 2, "--scale-lo", None),
    "bound-bad-k": ({}, ["bound", "--n", "2", "--k", "3", "--s", "0.5"], 2, "--n, --k, --s",
                    None),
    "tiny-sweep": ({"ok.json": TINY_SWEEP},
                   ["sweep", "--config", "ok.json", "--out", "sweep-out"], 0, "",
                   lambda out, cwd: (cwd / "sweep-out" / "results.csv").stat().st_size > 0),
    # An IFS label that is not a string or null is a config error naming the
    # field.
    "bad-label": ({"bad.json": {**TINY_SWEEP,
                                "ifs": {**TINY_SWEEP["ifs"], "label": ["dust"]}}},
                  ["sweep", "--config", "bad.json", "--out", "bad-out"], 2, "field ifs", None),
    # Criterion 9: a 16-cell scan of the Cantor set on the x-axis charts its
    # grid bases and flags the vertical direction, row 8, alone.
    "scan-16-cells": ({"scan.json": config_document(
        ifs=json.loads(cantor_on_axis().to_json()), num_directions=16, depth=8,
        scale_hi=10, threshold_s=0.5, seed=7, mode="scan")},
        ["scan", "--config", "scan.json", "--out", "scan-out"], 0, "",
        scan_rows_flag_row_8_alone),
    "chart-diagonal": ({"v.json": json.loads(
        from_basis(np.array([[1.0], [1.0]]) / np.sqrt(2.0)).to_json())},
        ["chart", "--subspace", "v.json"], 0, "", chart_of_diagonal),
}


@pytest.mark.parametrize("case", list(PROCESS_CASES))
def test_cli_process_exit_code(tmp_path, case):
    # The entry point as a process: main() and its sys.exit, which the
    # in-process run_cli tests do not reach.
    documents, argv, code, err, check = PROCESS_CASES[case]
    for name, document in documents.items():
        (tmp_path / name).write_text(json.dumps(document))
    done = subprocess.run([sys.executable, "-m", "projlab.cli", *argv], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == code, done.stderr
    assert err in done.stderr
    assert check is None or check(done.stdout, tmp_path)
