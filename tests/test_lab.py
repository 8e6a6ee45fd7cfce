import hashlib
import importlib.util
import json
import math
import numbers
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from projlab import lab
from projlab import (ConfigError, ExperimentConfig, IFSSpec, InputDomainError,
                     cantor_dust, cantor_on_axis, exceptional_scan,
                     kaufman_bound, marstrand_sweep, result_csv)


def test_kaufman_bound_examples():
    assert kaufman_bound(2, 1, 0.5) == pytest.approx(0.5)
    assert kaufman_bound(2, 1, 1.0) == pytest.approx(1.0)
    assert kaufman_bound(3, 1, 1.0) == pytest.approx(2.0)
    assert kaufman_bound(3, 2, 1.0) == pytest.approx(1.0)
    assert kaufman_bound(4, 2, 1.5) == pytest.approx(3.5)


def test_kaufman_bound_never_exceeds_full_dimension():
    # k(n-k) + s - k <= k(n-k) whenever s <= k.
    for n in range(2, 7):
        for k in range(1, n):
            for s in (0.25 * k, 0.5 * k, float(k)):
                assert kaufman_bound(n, k, s) <= k * (n - k) + 1e-12


def test_kaufman_bound_rejects_bad_arguments():
    with pytest.raises(InputDomainError):
        kaufman_bound(2, 2, 0.5)
    with pytest.raises(InputDomainError):
        kaufman_bound(3, 1, 1.5)
    with pytest.raises(InputDomainError):
        kaufman_bound(3, 1, 0.0)
    # No 1.5-plane exists; this once returned 1.75.
    with pytest.raises(InputDomainError, match="k must be an integer, got 1.5"):
        kaufman_bound(3, 1.5, 1.0)
    with pytest.raises(InputDomainError, match="n must be an integer, got 3.0"):
        kaufman_bound(3.0, 1, 1.0)
    # A string s once ended in a raw TypeError from the comparison.
    for s in ("0.5", None, [0.5], math.nan):
        with pytest.raises(InputDomainError, match=r"need a real 0 < s <= k, got s="):
            kaufman_bound(2, 1, s)


def sweep_config(**overrides):
    base = dict(ifs=cantor_dust(), n=2, k=1, num_directions=8, depth=6,
                scale_lo=2, scale_hi=8, threshold_s=0.9, seed=42, mode="sweep")
    base.update(overrides)
    return ExperimentConfig(**base)


def line_3d():
    return IFSSpec(n=3, maps=((0.5, np.zeros(3)), (0.5, np.array([0.5, 0.0, 0.0]))))


def test_config_validation_names_fields():
    with pytest.raises(ConfigError, match="field k"):
        sweep_config(k=2)
    with pytest.raises(ConfigError, match="field threshold_s"):
        sweep_config(threshold_s=2.0)
    with pytest.raises(ConfigError, match="field num_directions"):
        sweep_config(num_directions=0)
    with pytest.raises(ConfigError, match="field ifs"):
        sweep_config(ifs=cantor_on_axis(), n=3, k=1)
    # Once a raw AttributeError.
    with pytest.raises(ConfigError, match="field ifs: need an IFSSpec, got None"):
        sweep_config(ifs=None)
    with pytest.raises(ConfigError, match="field mode"):
        sweep_config(mode="walk")
    with pytest.raises(ConfigError, match="field mode: unknown mode 'grid'"):
        sweep_config(mode="grid")
    with pytest.raises(ConfigError, match="field depth"):
        sweep_config(depth=-1)
    with pytest.raises(ConfigError, match="field scale_hi.*scale_lo=9, scale_hi=4"):
        sweep_config(scale_lo=9, scale_hi=4)
    with pytest.raises(ConfigError, match="field scale_hi"):
        sweep_config(scale_lo=2, scale_hi=3)
    # Scales 2^-j with j < 0 hold the whole sample in one box: a dust sweep
    # at scales -5..4 read about 0.46, against about 0.95 at scales 2..8.
    with pytest.raises(ConfigError,
                       match="field scale_lo, field scale_hi: scale_lo must be >= 0, got -5"):
        sweep_config(scale_lo=-5, scale_hi=4)
    sweep_config(scale_lo=0, scale_hi=8)
    with pytest.raises(ConfigError, match="field num_directions: need <= 2\\^32"):
        sweep_config(num_directions=(1 << 32) + 1)
    # A scan's cell count once overflowed a float root: a raw OverflowError.
    with pytest.raises(ConfigError, match="field num_directions: need <= 2\\^32"):
        sweep_config(ifs=line_3d(), n=3, k=1, mode="scan", num_directions=10**400)
    with pytest.raises(ConfigError, match="field num_directions.*4 cells"):
        sweep_config(mode="scan", num_directions=4)
    with pytest.raises(ConfigError, match="7 cells per chart axis"):
        sweep_config(ifs=line_3d(), n=3, k=1, mode="scan", num_directions=49)
    sweep_config(ifs=line_3d(), n=3, k=1, mode="scan", num_directions=64)


INT_FIELDS = ("n", "k", "num_directions", "depth", "scale_lo", "scale_hi", "seed")


@pytest.mark.parametrize("bad", [2.0, 4.5, "2", None],
                         ids=["float-2.0", "float-4.5", "str", "None"])
@pytest.mark.parametrize("name", INT_FIELDS)
def test_config_types_each_integer_field(name, bad):
    # A config built in Python once took k=1.5, n=2.0, num_directions=8.5 or
    # seed=4.5 and died in a raw TypeError or AttributeError inside the sweep.
    with pytest.raises(ConfigError, match=f"^field {name}: {name} must be an integer, got "):
        sweep_config(**{name: bad})


def test_config_stores_typed_integers():
    cfg = sweep_config(n=np.int64(2), k=np.int32(1), depth=np.uint8(6), seed=np.int64(42))
    assert all(type(getattr(cfg, name)) is int for name in INT_FIELDS)
    assert cfg.echo() == sweep_config().echo()


def refused(f) -> bool:
    """Whether some rule of a config refuses the fields ``f``: the rules,
    written out once more as the test's oracle."""
    if any(type(f[name]) is not int for name in INT_FIELDS):
        return True
    ifs, n, k, s, lo, hi = (f[name] for name in ("ifs", "n", "k", "threshold_s",
                                                 "scale_lo", "scale_hi"))
    return bool(
        not 0 < k < n or not isinstance(s, numbers.Real) or not 0 < s <= k
        or f["seed"] < 0 or f["num_directions"] < 1 or not isinstance(ifs, IFSSpec)
        or f["depth"] < 1 or f["depth"] * math.log(len(ifs.maps)) > math.log(10**7)
        or lo < 0 or hi < lo + 2 or k * (hi + 1) > 63
        or ifs.n != n or f["mode"] not in ("sweep", "scan")
        or f["num_directions"] > 2**32
        or (f["mode"] == "scan" and lab._scan_cells_per_axis(n, k, f["num_directions"]) < 8))


def fields_or(ints, *others):
    return ints | st.sampled_from([2.0, 1.5, "2", None, *others])


FIELD_VALUES = dict(
    ifs=st.sampled_from([cantor_dust(), cantor_on_axis(), line_3d(), None, "dust"]),
    n=fields_or(st.integers(-1, 5)), k=fields_or(st.integers(-1, 4)),
    num_directions=fields_or(st.integers(-1, 80), 2**32 + 1, 10**400),
    depth=fields_or(st.integers(-1, 13), 10**12),
    scale_lo=fields_or(st.integers(-2, 10)), scale_hi=fields_or(st.integers(-1, 70), 62, 63),
    threshold_s=st.floats(-1.0, 4.0) | st.sampled_from([math.nan, 1, "0.5", None]),
    seed=fields_or(st.integers(-3, 2**70)),
    mode=st.sampled_from(["sweep", "scan", "grid", None]))
VALID_FIELDS = dict(ifs=cantor_dust(), n=2, k=1, num_directions=8, depth=6, scale_lo=2,
                    scale_hi=8, threshold_s=0.9, seed=42, mode="sweep")
# A valid config with up to four fields redrawn, so that both outcomes are common.
CONFIG_FIELDS = st.lists(st.sampled_from(sorted(FIELD_VALUES)), max_size=4, unique=True).flatmap(
    lambda names: st.fixed_dictionaries({**{name: st.just(value)
                                            for name, value in VALID_FIELDS.items()},
                                         **{name: FIELD_VALUES[name] for name in names}}))


@settings(max_examples=400, deadline=None)
@given(f=CONFIG_FIELDS)
@example(f={**VALID_FIELDS, "scale_hi": 62})
@example(f={**VALID_FIELDS, "ifs": None})
@example(f={**VALID_FIELDS, "ifs": line_3d(), "n": 3, "mode": "scan", "num_directions": 10**400})
def test_config_raises_config_error_exactly_when_a_rule_refuses(f):
    # Any other exception fails the test.
    try:
        cfg = ExperimentConfig(**f)
    except ConfigError:
        assert refused(f)
    else:
        assert not refused(f)
        assert all(type(getattr(cfg, name)) is int for name in INT_FIELDS)


def test_scale_hi_up_to_the_key_width():
    # The config once capped scale_hi at 61, a rule that no library code had.
    # Lines take k * (scale_hi + 1) <= 63, so scale_hi 62, and a depth-8
    # Cantor set reads its 256 points at every scale of 57..62, as at 15..20.
    axis = dict(ifs=cantor_on_axis(), depth=8, num_directions=4, threshold_s=0.5)
    fine, coarse = (marstrand_sweep(sweep_config(**axis, scale_lo=hi - 5, scale_hi=hi))
                    for hi in (62, 20))
    for a, b in zip(fine.rows, coarse.rows):
        assert a.estimate.counts == b.estimate.counts == (256,) * 6
    with pytest.raises(ConfigError, match="field scale_hi: box keys for k=1 at scale_hi=63"):
        sweep_config(scale_hi=63)
    with pytest.raises(ConfigError, match="field scale_hi: box keys for k=2 at scale_hi=31"):
        sweep_config(ifs=line_3d(), n=3, k=2, threshold_s=0.5, scale_hi=31)
    sweep_config(ifs=line_3d(), n=3, k=2, threshold_s=0.5, scale_hi=30)


def test_readme_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(example, "README.md", "exec"), {})
    mean_dim, exceptional_fraction = map(float, capsys.readouterr().out.split())
    assert 0.9 <= mean_dim <= 1.05 and 0.0 <= exceptional_fraction <= 1.0


def test_config_rejects_sample_over_exhaustive_budget():
    # 4^12 dust points exceed the budget.  Such a config used to fall back
    # to a chaos orbit of only `depth` points.
    with pytest.raises(ConfigError, match="field depth: 4\\^12 sample points"):
        sweep_config(depth=12)
    with pytest.raises(ConfigError, match="field depth"):
        sweep_config(ifs=cantor_on_axis(), mode="scan", num_directions=16,
                     threshold_s=0.5, depth=24)
    with pytest.raises(ConfigError, match="field depth"):
        sweep_config(depth=10**9)
    with pytest.raises(ConfigError, match="field depth: 4\\^1000000000000 sample points"):
        sweep_config(depth=10**12)
    # 2^23 points fit the budget.
    sweep_config(ifs=cantor_on_axis(), depth=23)


def test_config_from_dict_round_trip():
    cfg = sweep_config()
    again = ExperimentConfig.from_dict(json.loads(json.dumps(cfg.echo())))
    assert again.echo() == cfg.echo()


def test_config_from_dict_builds_every_byte_check_config(monkeypatch):
    # tools/same_outputs.py byte-checks these configs in two trees; a config
    # that a rule now refuses would make both trees exit non-zero.
    path = Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    monkeypatch.setattr("sys.path", list(sys.path))
    cases = tool.configs()
    assert len(cases) >= 2 * len(tool.extra_configs(7))
    for name, obj in cases.items():
        cfg = ExperimentConfig.from_dict(json.loads(json.dumps(obj)))
        assert cfg.mode == obj["mode"] and cfg.seed in tool.SEEDS, name


def test_config_from_dict_missing_field():
    obj = sweep_config().echo()
    del obj["depth"]
    with pytest.raises(ConfigError, match="field depth"):
        ExperimentConfig.from_dict(obj)


def test_config_from_dict_reads_each_field_or_names_it():
    obj = sweep_config().echo()
    # 1e400 reads as inf, which int() cannot take; str() reads None as
    # "None", which the mode check then rejects.
    for key, value in [("n", 1e400), ("scale_lo", "2.5"), ("mode", None)]:
        with pytest.raises(ConfigError, match=f"field {key}"):
            ExperimentConfig.from_dict({**obj, key: value})
    bad_map = {**obj["ifs"], "maps": [{"ratio": 0.5, "translation": ["x", 0.0]}] * 2}
    with pytest.raises(ConfigError, match="config field ifs: IFS JSON map 0 field "
                                          "translation: could not convert string"):
        ExperimentConfig.from_dict({**obj, "ifs": bad_map})


def test_sweep_shape_and_flags():
    result = marstrand_sweep(sweep_config())
    assert len(result.rows) == 8
    for i, row in enumerate(result.rows):
        assert row.index == i
        assert row.chart.n == 2 and row.chart.k == 1
        assert row.exceptional == (row.estimate.value < 0.9)
    assert result.summary["kaufman_bound"] == pytest.approx(0.9)
    assert result.summary["config"]["seed"] == 42


def test_sweep_deterministic_under_seed():
    a = marstrand_sweep(sweep_config())
    b = marstrand_sweep(sweep_config())
    assert result_csv(a) == result_csv(b)
    c = marstrand_sweep(sweep_config(seed=43))
    assert result_csv(c) != result_csv(a)


def numpy_draws(seed, count, shape):
    """The per-direction streams that a sweep draws, one numpy Generator each."""
    return np.stack([np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1, i)))
                     .standard_normal(shape) for i in range(count)])


# One to seven 32-bit seed words: below, at and above each word boundary.
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128, 2**200 + 12345]


@pytest.mark.parametrize("count", [1, 3, 150])
@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_direction_draws_are_numpys_streams(seed, count):
    states = lab._spawned_states(seed, count)
    assert states.dtype == np.uint64 and states.shape == (count, 4)
    for i in (0, count // 2, count - 1):
        expected = np.random.SeedSequence(seed, spawn_key=(1, i)).generate_state(4, np.uint64)
        assert states[i].tolist() == expected.tolist()
    shape = (8, 4)
    draws = lab._direction_draws(seed, count, shape)
    assert draws.tobytes() == numpy_draws(seed, count, shape).tobytes()


# The bytes of the first three G(8, 4) draws: a numpy whose SeedSequence or
# PCG64 streams differ would change every sweep's results.csv.
@pytest.mark.parametrize("seed, digest", [
    (0, "c1b8e44351c92aca53715d45c287f421cf90f934f6212aca1eb96d9ad4051727"),
    (7, "bc29097af14d6d99e3887ca3f0e310f1fb67d9bddb03365ddcf90ec86cde532a"),
    (2**200 + 12345, "595b9add4ea7e36cf5ad6becf81c78052feb5ea48e1a47d30253d0352d05bdb0"),
])
def test_direction_draws_digest(seed, digest):
    draws = lab._direction_draws(seed, 3, (8, 4))
    assert hashlib.sha256(draws.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("count", [1, 3, 150])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**200), more=st.integers(0, 64))
def test_direction_draws_extend_by_prefix(count, seed, more):
    longer = lab._direction_draws(seed, count + more, (3, 2))
    assert longer[:count].tobytes() == lab._direction_draws(seed, count, (3, 2)).tobytes()
    planes = dict(ifs=line_3d(), n=3, k=2, threshold_s=0.5, depth=5, seed=seed)
    rows = result_csv(marstrand_sweep(sweep_config(**planes, num_directions=count)))
    extended = result_csv(marstrand_sweep(sweep_config(**planes, num_directions=count + more)))
    assert extended.splitlines()[:count + 1] == rows.splitlines()


def test_sweep_full_square_estimates_one():
    # Projections of a full square onto any line have dimension 1.
    from projlab.fractal import IFSSpec, Similarity
    square = IFSSpec(n=2, maps=tuple(
        Similarity(0.5, np.array([float(a), float(b)]) / 2.0)
        for a in (0, 1) for b in (0, 1)))
    result = marstrand_sweep(sweep_config(ifs=square, depth=8,
                                          num_directions=5))
    for row in result.rows:
        assert 0.9 <= row.estimate.value <= 1.05
    assert result.summary["exceptional_fraction"] == 0.0


def test_scan_flags_axis_aligned_cantor():
    # C x {0}: the projection onto the vertical axis is a single point, so
    # exactly the vertical grid direction should be flagged.
    cfg = ExperimentConfig(ifs=cantor_on_axis(), n=2, k=1, num_directions=16,
                           depth=8, scale_lo=2, scale_hi=10, threshold_s=0.5,
                           seed=7, mode="scan")
    result = exceptional_scan(cfg)
    assert len(result.rows) == 16
    flagged = [r for r in result.rows if r.exceptional]
    assert len(flagged) == 1
    assert flagged[0].params == (0.5,)  # theta = pi/2
    assert result.summary["flagged_param_dimension"] == 0.0
    assert "parameter coordinates" in result.summary["caveat"]


def test_scan_rejects_coarse_grid():
    with pytest.raises(ConfigError, match="grid too coarse"):
        ExperimentConfig(ifs=cantor_on_axis(), n=2, k=1, num_directions=4,
                         depth=6, scale_lo=2, scale_hi=8, threshold_s=0.5,
                         seed=7, mode="scan")


def count_charts(monkeypatch):
    """Record the size of every basis stack given to chart selection."""
    stacks = []
    real = lab.chart_bases
    monkeypatch.setattr(lab, "chart_bases",
                        lambda a: stacks.append(len(a)) or real(a))
    return stacks


def test_sweep_computes_one_chart_per_direction(monkeypatch):
    stacks = count_charts(monkeypatch)
    result = marstrand_sweep(sweep_config(ifs=line_3d(), n=3, k=2, threshold_s=0.5))
    assert stacks == [len(result.rows)] == [8]


def test_scan_computes_one_chart_per_direction(monkeypatch):
    stacks = count_charts(monkeypatch)
    result = exceptional_scan(sweep_config(ifs=cantor_on_axis(), mode="scan",
                                           num_directions=16, threshold_s=0.5))
    assert stacks == [len(result.rows)] == [16]


def test_g84_sweep_charts_without_column_selection(monkeypatch):
    # A sweep charts the QR factors of its draws: no projection matrix, so
    # no eigvalsh or SVD of its column blocks.
    calls = []
    for name in ("eigvalsh", "svd"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, _name=name, _real=real, **kw:
                            calls.append(_name) or _real(*a, **kw))
    g84 = IFSSpec(n=8, maps=tuple((0.4, np.random.default_rng(i).uniform(0.0, 0.6, 8))
                                  for i in range(3)))
    result = marstrand_sweep(sweep_config(ifs=g84, n=8, k=4, depth=4, threshold_s=0.5,
                                          num_directions=20))
    assert len(result.rows) == 20
    assert calls == []


def test_mode_mismatch_rejected():
    with pytest.raises(ConfigError, match="field mode"):
        exceptional_scan(sweep_config())
    cfg = ExperimentConfig(ifs=cantor_on_axis(), n=2, k=1, num_directions=16,
                           depth=6, scale_lo=2, scale_hi=8, threshold_s=0.5,
                           seed=7, mode="scan")
    with pytest.raises(ConfigError, match="field mode"):
        marstrand_sweep(cfg)


def test_deeper_samples_do_not_move_estimates_much():
    shallow = marstrand_sweep(sweep_config(depth=6, num_directions=4))
    deep = marstrand_sweep(sweep_config(depth=8, num_directions=4))
    for a, b in zip(shallow.rows, deep.rows):
        assert abs(a.estimate.value - b.estimate.value) <= 0.1


def test_result_csv_schema():
    result = marstrand_sweep(sweep_config(num_directions=3))
    lines = result_csv(result).strip().split("\n")
    assert lines[0] == "index,free_0,est_dim,stderr,exceptional"
    assert len(lines) == 4
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert cells[0] == str(i)
        float(cells[1]), float(cells[2]), float(cells[3])
        assert cells[4] in ("true", "false")
