import csv
import io
import json
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import udwrm
from udwrm import cli
from udwrm.cli import main
from udwrm.response import MAX_RESOLUTION


def write_config(tmp_path, payload):
    p = tmp_path / "config.json"
    p.write_text(json.dumps(payload))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_no_subcommand_exits_2(capsys):
    code, _, err = run(capsys, )
    assert code == 2
    assert "usage" in err


def test_empty_config_exits_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {})
    code, _, err = run(capsys, "bounds", "--config", cfg)
    assert code == 2
    assert "usage" in err


def test_missing_config_exits_2(capsys):
    code, _, _ = run(capsys, "bounds")
    assert code == 2


def test_bad_json_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    code, _, err = run(capsys, "bounds", "--config", str(p))
    assert code == 2
    assert "bad config" in err


@pytest.mark.parametrize("text", ["", " \n\t\n"], ids=["empty", "whitespace"])
def test_empty_config_file_exits_2(tmp_path, capsys, text):
    p = tmp_path / "config.json"
    p.write_text(text)
    code, out, err = run(capsys, "bounds", "--config", str(p))
    assert code == 2
    assert "udwrm: config file is empty" in err
    assert out == ""


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_out_exits_2_naming_the_path(tmp_path, capsys, where):
    target = tmp_path / "missing" / "table.csv" if where == "missing-directory" else tmp_path
    code, out, err = run(capsys, "combinatorics", "--out", str(target))
    assert code == 2
    assert out == ""
    (line,) = [line for line in err.splitlines() if line.startswith("udwrm:")]
    assert line.startswith("udwrm: cannot write output: ") and str(target) in line
    assert "Traceback" not in err


def test_library_error_exits_1_naming_its_type(tmp_path, capsys):
    # at T_off = 0.01 T_on the correlator across adjacent windows needs more
    # Chebyshev nodes than MAX_RESOLUTION: a library error, not a config error
    cfg = write_config(tmp_path, {"schedule": {"t_off_factor": 0.01}, "strings": {"length": 2}})
    code, out, err = run(capsys, "string-probs", "--config", cfg)
    assert code == 1
    assert re.match(
        rf"udwrm: QuadratureError: .* needs more than {MAX_RESOLUTION} Chebyshev nodes: ", err
    )
    assert "usage" not in err
    assert out == ""


def test_bounds_csv_shape_and_horizon(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bounds": {"q": 0.1, "gamma": 0.01}})
    code, out, _ = run(capsys, "bounds", "--config", cfg)
    assert code == 0
    lines = out.strip().splitlines()
    assert re.fullmatch(
        rf"# config_sha256=[0-9a-f]{{64}} seed=0 version={re.escape(udwrm.__version__)}",
        lines[0],
    ), lines[0]
    assert lines[1] == "n,lower,upper,q"
    exceed = [
        int(row.split(",")[0])
        for row in lines[2:]
        if float(row.split(",")[2]) > 1.0
    ]
    assert exceed and min(exceed) == 56


def test_bounds_deterministic(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bounds": {"q": 0.1, "gamma": 0.01}})
    _, out1, _ = run(capsys, "bounds", "--config", cfg)
    _, out2, _ = run(capsys, "bounds", "--config", cfg)
    assert out1 == out2


def test_bounds_json_format(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bounds": {"q": 0.1, "gamma": 0.01, "n_max": 5}})
    code, out, _ = run(capsys, "bounds", "--config", cfg, "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["columns"] == ["n", "lower", "upper", "q"]
    assert len(doc["rows"]) == 5


def test_combinatorics_tables(capsys):
    code, out, _ = run(capsys, "combinatorics")
    assert code == 0
    rows = {r.split(",")[0]: r.split(",") for r in out.strip().splitlines()[2:]}
    assert [rows[str(k)][1] for k in range(2, 9)] == ["1", "1", "2", "2", "4", "4", "7"]
    assert [rows[str(k)][2] for k in range(2, 9)] == [
        "2", "8", "60", "544", "6040", "79008", "1190672",
    ]
    assert rows["partition_4"][2] == "48"
    assert rows["partition_2+2"][2] == "12"


def test_transition_emits_four_rows(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"detector": {"omega": 0.2, "lambda": 0.01}, "worldline": {"alpha": 0.1}},
    )
    code, out, _ = run(capsys, "transition", "--config", cfg)
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 4
    closed = float(rows[0].split(",")[3])
    quad = float(rows[1].split(",")[3])
    assert closed == pytest.approx(5.4530039131486545e-06, rel=1e-12)
    assert quad == pytest.approx(closed, rel=1e-4)


def test_bayes_trace(tmp_path, capsys):
    cfg = write_config(
        tmp_path, {"bayes": {"bits": [0, 1, 0, 0], "epsilon": 0.0, "chunk": 2}}
    )
    code, out, _ = run(capsys, "bayes", "--config", cfg)
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 3  # prior + two chunks
    final = rows[-1].split(",")
    assert float(final[3]) == pytest.approx(1.0, abs=1e-12)


def test_csv_rows_match_csv_writer(tmp_path):
    header = ["float", "numpy", "int", "bool"]
    long_run = cli._BLOCK_ROWS * 2 + 3
    rows = [
        [0.1, np.float64(1.0 / 3.0), 7, True],
        [-0.0, np.float64("nan"), float("inf"), np.float64("-inf")],
        [1e-310, np.float64(2.5e300), -(10**20), False],
        [],
        # numeric runs, one longer than a block, whose type signature
        # switches mid-table, and numeric rows broken by other rows
        *([n, n / 7.0, float(n) ** 0.5] for n in range(long_run)),
        *([n / 3.0, n] for n in range(5)),
        *([np.int64(n), np.float64(-n / 9.0), n] for n in range(cli._BLOCK_ROWS + 1)),
        [1, 2.0, True],
        [np.int64(-3), np.int64(4)],
        [5],
        [2.5],
        [],
        [1, 2],
        [np.float32(0.1), 1.0],
        [1.0, 2.0, None],
    ]
    path = tmp_path / "table.csv"
    # the rows arrive as a generator, as the bayes table's do
    args = SimpleNamespace(out=str(path), format="csv", seed=0)
    cli._emit(header, (row for row in rows), args, {})
    meta, _, table = path.read_bytes().partition(b"\n")
    assert meta.startswith(b"# config_sha256=")
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in [header, *rows]:
        writer.writerow([format(v, ".16e") if isinstance(v, float) else str(v) for v in row])
    assert table == buf.getvalue().encode()
    assert b"\r\n1,2.0000000000000000e+00,True\r\n" in table


def readme_config():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    (config,) = re.findall(r"```json\n(.*?)```", open(readme).read(), re.S)
    return json.loads(config)


# the README example and the two configs the CI runs every subcommand on
DIALECT_CONFIGS = {
    "readme": readme_config(),
    "cli-config": {
        "detector": {"omega": 0.2, "lambda": 0.01},
        "worldline": {"kind": "accelerated", "alpha": 0.1},
        "schedule": {"sigma": 1.0, "repetitions": 12},
        "strings": {"length": 10},
        "bounds": {"q": 0.1, "gamma": 0.01},
        "oracle": {"env_dim": 8, "length": 8},
        "bayes": {"bits": [0, 1, 0, 0, 0, 1], "epsilon": 0.0, "chunk": 2},
    },
    "short-gap": {
        "worldline": {"kind": "accelerated", "alpha": 0.5},
        "schedule": {"sigma": 2.25, "repetitions": 4, "t_off_factor": 0.5},
        "strings": {"length": 4},
    },
}


@pytest.mark.parametrize(
    "name, command",
    [
        (name, command)
        for name, config in DIALECT_CONFIGS.items()
        for command in cli._COMMANDS
        # bayes needs a record of bits
        if command != "bayes" or "bayes" in config
    ],
)
def test_every_table_is_csv_writers_dialect_unquoted(tmp_path, capsys, name, command):
    """Each CSV is what csv.writer writes for its own parsed rows, and no
    field holds a character that csv.writer would quote."""
    cfg = write_config(tmp_path, DIALECT_CONFIGS[name])
    code, out, err = run(capsys, command, "--config", cfg)
    assert (code, err) == (0, "")
    meta, _, table = out.partition("\n")
    assert meta.startswith("# config_sha256=")
    rows = list(csv.reader(io.StringIO(table, newline="")))
    assert len(rows) >= 2
    again = io.StringIO(newline="")
    csv.writer(again).writerows(rows)
    assert again.getvalue() == table
    assert not [field for row in rows for field in row if re.search('[,"\r\n]', field)]


def test_parser_is_reused_across_calls(tmp_path, capsys):
    """One process: an argparse error, a config error, then every
    subcommand on the README config; each exit status, stderr and output
    file matches a fresh ``python -m udwrm.cli`` run of the same argv."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    (config,) = re.findall(r"```json\n(.*?)```", open(readme).read(), re.S)
    good = tmp_path / "readme.json"
    good.write_text(config)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bounds": {"q": 2}}))
    calls = [
        ("argparse-error", ["bounds", "--config", str(good), "--format", "xml"]),
        ("config-error", ["bounds", "--config", str(bad)]),
    ]
    calls += [
        (command, [command, "--config", str(good)])
        for command in ("transition", "string-probs", "bounds", "bayes", "oracle", "combinatorics")
    ]
    src = os.path.dirname(os.path.dirname(udwrm.__file__))
    cli.build_parser.cache_clear()  # the first call below builds it
    for name, argv in calls:
        argv = [*argv, "--out", str(tmp_path / f"{name}.in-process")]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        err = capsys.readouterr().err
        fresh = [*argv[:-1], str(tmp_path / f"{name}.fresh")]
        proc = subprocess.run(
            [sys.executable, "-m", "udwrm.cli", *fresh],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert (code, err) == (proc.returncode, proc.stderr), name
        assert code == (2 if name.endswith("error") else 0), name
        if code == 0:
            produced = (tmp_path / f"{name}.in-process").read_bytes()
            assert produced == (tmp_path / f"{name}.fresh").read_bytes(), name
    assert cli.build_parser.cache_info().misses == 1


def test_oracle_checks_pass(tmp_path, capsys):
    cfg = write_config(tmp_path, {"oracle": {"env_dim": 5, "length": 5, "epsilon": 1e-3}})
    code, out, _ = run(capsys, "oracle", "--config", cfg, "--seed", "3")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 3
    assert all(r.endswith("True") for r in rows)


def test_string_probs_csv(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        {"strings": {"length": 2}, "quadrature": {"qmc_points": 1 << 12}},
    )
    code, out, _ = run(capsys, "string-probs", "--config", cfg)
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 4
    total = sum(float(r.split(",")[3]) for r in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize(
    "worldline, t_off_factor, loose",
    [
        ({"kind": "accelerated", "alpha": 0.1}, 1.0, False),
        ({"kind": "inertial"}, 0.5, False),
        ({"kind": "accelerated", "alpha": 0.1}, 0.1, False),
        ({"kind": "inertial"}, 1.5, True),
    ],
    ids=["accelerated-1", "inertial-0.5", "accelerated-0.1", "inertial-1.5"],
)
def test_string_probs_without_loose_bounds_writes_nan(
    tmp_path, capsys, worldline, t_off_factor, loose
):
    # with T_off <= T_on the adjacent-window ratio gamma is >= 1 and no loose
    # bound exists; the table is still written, with nan ratio bounds
    cfg = write_config(
        tmp_path,
        {
            "worldline": worldline,
            "schedule": {"t_off_factor": t_off_factor},
            "strings": {"length": 3},
        },
    )
    code, out, err = run(capsys, "string-probs", "--config", cfg)
    assert code == 0, err
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert len(rows) == 8
    assert sum(float(r["p_rm"]) for r in rows) == pytest.approx(1.0, abs=1e-9)
    for r in rows:
        lower, upper = float(r["ratio_lower"]), float(r["ratio_upper"])
        if loose:
            assert 0.0 < lower <= 1.0 <= upper
        else:
            assert r["ratio_lower"] == r["ratio_upper"] == "nan"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "config",
    [
        {"worldline": {"kind": "accelerated", "alpha": 1.0}},
        {"worldline": {"kind": "accelerated", "alpha": 2.0}},
        {"worldline": {"kind": "accelerated", "alpha": 5.0}},
        {
            "worldline": {"kind": "accelerated", "alpha": 0.5},
            "schedule": {"sigma": 2.25, "repetitions": 4, "t_off_factor": 3.0},
        },
    ],
    ids=["alpha-1", "alpha-2", "alpha-5", "sigma-2.25"],
)
def test_string_probs_exits_0_silently(tmp_path, capsys, config):
    # the correlator underflows to 0 far out at alpha >= 1, and at small
    # gamma the horizon lies past any scan cap; neither is an error
    cfg = write_config(tmp_path, {**config, "strings": {"length": 4}})
    code, out, err = run(capsys, "string-probs", "--config", cfg)
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert len(rows) == 16
    for r in rows:
        assert 0.0 < float(r["ratio_lower"]) <= 1.0 <= float(r["ratio_upper"])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [9.0, 20.0])
def test_string_probs_at_zero_gamma_writes_unit_ratio_bounds(tmp_path, capsys, alpha):
    # sinh(alpha T_off / 2)^2 overflows, so gamma_1 = 0: the loose bound is
    # exactly [q, q] and every ratio interval is [1, 1]
    config = {"worldline": {"kind": "accelerated", "alpha": alpha}, "strings": {"length": 4}}
    code, out, err = run(capsys, "string-probs", "--config", write_config(tmp_path, config))
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert len(rows) == 16
    assert all(float(r["ratio_lower"]) == float(r["ratio_upper"]) == 1.0 for r in rows)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("alpha", [90.0, 120.0])
def test_gamma_is_0_where_the_reference_correlator_underflows(tmp_path, capsys, alpha):
    # alpha T_on = 720 and 960: |K(T_on)| is subnormal or 0, as is every
    # |K(T g - T_on)|; their quotient, taken in logs, is exactly 0
    kern = udwrm.WightmanKernel(udwrm.accelerated(alpha))
    sched = udwrm.default_schedule()
    assert abs(kern.limit(sched.t_on)) < np.finfo(float).tiny
    assert udwrm.GammaProfile.from_kernel(kern, sched).gamma == 0.0
    config = {"worldline": {"kind": "accelerated", "alpha": alpha}, "strings": {"length": 4}}
    code, out, err = run(capsys, "string-probs", "--config", write_config(tmp_path, config))
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert len(rows) == 16
    assert all(float(r["ratio_lower"]) == float(r["ratio_upper"]) == 1.0 for r in rows)


@pytest.mark.filterwarnings("error")
def test_gamma_above_1_where_both_correlators_underflow_gives_no_bound(tmp_path, capsys):
    # alpha = 200, T_off = T_on / 2: both correlators underflow to 0, and
    # gamma_1 = e^800 overflows to inf, silently, so no loose bound exists
    kern = udwrm.WightmanKernel(udwrm.accelerated(200.0))
    with pytest.raises(ValueError, match="finite"):
        udwrm.GammaProfile.from_kernel(kern, udwrm.default_schedule(t_off_factor=0.5))
    config = {
        "worldline": {"kind": "accelerated", "alpha": 200.0},
        "schedule": {"t_off_factor": 0.5},
        "strings": {"length": 4},
    }
    code, out, err = run(capsys, "string-probs", "--config", write_config(tmp_path, config))
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert len(rows) == 16
    assert all(r["ratio_lower"] == r["ratio_upper"] == "nan" for r in rows)


@pytest.mark.parametrize("length", [2, 4, 5, 8])
def test_string_probs_ratio_bounds_stop_at_the_horizon(tmp_path, capsys, length):
    # inertial, T_off = 2 T_on: the validity horizon is 5 windows, so only
    # strings shorter than 5 get ratio bounds, from the bound at their length
    from udwrm import BitString, GammaProfile, ResponseModel, loose_bounds, n_limit
    from udwrm.strings import ratio_bounds

    settings = {"schedule": {"t_off_factor": 2.0}, "strings": {"length": length}}
    code, out, err = run(capsys, "string-probs", "--config", write_config(tmp_path, settings))
    assert (code, err) == (0, "")
    rows = list(csv.DictReader(out.splitlines()[1:]))
    assert len(rows) == 2**length
    model = ResponseModel(
        udwrm.WightmanKernel(udwrm.inertial()),
        udwrm.default_schedule(t_off_factor=2.0),
        udwrm.DetectorParams(omega=0.2, lam=0.01),
    )
    q = model.q
    gamma = GammaProfile.from_kernel(model.kernel, model.schedule).gamma
    assert n_limit(q, gamma) == 5
    if length >= 5:
        assert all(r["ratio_lower"] == r["ratio_upper"] == "nan" for r in rows)
        return
    ub = loose_bounds(length, q, gamma)
    for v, r in enumerate(rows):
        lo, hi = ratio_bounds(BitString.from_int(v, length), ub, q)
        assert (r["ratio_lower"], r["ratio_upper"]) == (cli._fmt(lo), cli._fmt(hi))


def test_jobs_flag_is_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bounds": {"q": 0.1, "gamma": 0.01}})
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--config", cfg, "--jobs", "2"])
    assert exc.value.code == 2


def test_string_probs_rows_ignore_seed_and_quadrature(tmp_path, capsys):
    plain = write_config(tmp_path, {"strings": {"length": 3}})
    tuned = tmp_path / "tuned.json"
    tuned.write_text(
        json.dumps({"strings": {"length": 3}, "quadrature": {"qmc_points": 1 << 12}})
    )
    _, first, _ = run(capsys, "string-probs", "--config", plain)
    _, again, _ = run(capsys, "string-probs", "--config", plain)
    _, other, _ = run(capsys, "string-probs", "--config", str(tuned), "--seed", "5")
    assert first == again
    assert first.splitlines()[1:] == other.splitlines()[1:]


@pytest.mark.parametrize(
    "command, section, key, bad_values",
    [
        ("oracle", "oracle", "env_dim", [0, 65, 2.5, True, "8"]),
        ("oracle", "oracle", "length", [0, 21, 4.0, None]),
        ("oracle", "oracle", "epsilon", [0.0, -1e-3, float("inf"), "1e-3", 3e-3, 1e-2]),
        ("bounds", "bounds", "q", [0.0, 1.0, -0.1, None]),
        ("bounds", "bounds", "gamma", [0.0, 1.0, 2.0, "0.01"]),
        ("bounds", "bounds", "n_max", [0, -3, 5.5, False]),
    ],
    ids=["env_dim", "length", "epsilon", "q", "gamma", "n_max"],
)
def test_bad_config_value_exits_2_naming_the_key(
    tmp_path, capsys, monkeypatch, command, section, key, bad_values
):
    import udwrm.oracle

    def no_work(*_):
        raise AssertionError("work started before the config was validated")

    monkeypatch.setattr(udwrm.oracle, "expm_hermitian", no_work)
    monkeypatch.setattr("udwrm.cli.n_limit", no_work)
    for value in bad_values:
        cfg = write_config(tmp_path, {section: {key: value}})
        code, out, err = run(capsys, command, "--config", cfg)
        assert code == 2, value
        assert f"{section}.{key}" in err
        assert out == ""


class TableReached(Exception):
    pass


@pytest.mark.parametrize(
    "schedule, length, key",
    [
        ({}, "5", "strings.length"),
        ({}, 0, "strings.length"),
        ({}, True, "strings.length"),
        ({}, 2.0, "strings.length"),
        ({}, None, "strings.length"),
        ({}, 9, "strings.length"),
        ({"repetitions": 10}, 11, "strings.length"),
        ({"repetitions": 4}, 5, "strings.length"),
        ({"repetitions": "8"}, 4, "schedule.repetitions"),
        ({}, 7, None),
        ({"repetitions": 10}, 10, None),
    ],
)
def test_string_probs_length_is_checked_before_any_model(
    tmp_path, capsys, monkeypatch, schedule, length, key
):
    def no_work(*_, **__):
        raise AssertionError("work started before the config was validated")

    def reached(*_):
        raise TableReached

    monkeypatch.setattr("udwrm.cli.rm_string_table", reached)
    if key is not None:
        monkeypatch.setattr("udwrm.cli.ResponseModel", no_work)
    cfg = write_config(tmp_path, {"schedule": schedule, "strings": {"length": length}})
    if key is None:
        with pytest.raises(TableReached):
            main(["string-probs", "--config", cfg])
        return
    code, out, err = run(capsys, "string-probs", "--config", cfg)
    assert code == 2
    assert f"bad config: {key} must be" in err, err
    assert out == ""


BAYES_BLOCK = {"bits": [0, 1, 0], "chunk": 1, "epsilon": 1e-3}


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("bits", [{"bits": v} for v in ([], [0, 2], [True, False], [0.0, 1.0], "010", None)]),
        ("chunk", [{"chunk": v} for v in (0, -1, 1.5, True, "2")]),
        ("epsilon", [{"epsilon": v} for v in (-1e-3, float("inf"), float("nan"), "0.1", None)]),
        (
            "step_corrections",
            [
                {"step_corrections": []},
                {"chunk": 2, "step_corrections": [1e-3]},
                {"chunk": 5, "step_corrections": [1e-3, 1e-3]},
                {"step_corrections": [float("nan")]},
                {"step_corrections": [True]},
                {"step_corrections": 1e-3},
            ],
        ),
    ],
    ids=["bits", "chunk", "epsilon", "step_corrections"],
)
def test_bad_bayes_config_exits_2_naming_the_key(tmp_path, capsys, monkeypatch, key, overrides):
    def no_work(*_):
        raise AssertionError("work started before the config was validated")

    monkeypatch.setattr("udwrm.cli.posterior_trace", no_work)
    for override in overrides:
        cfg = write_config(tmp_path, {"bayes": {**BAYES_BLOCK, **override}})
        code, out, err = run(capsys, "bayes", "--config", cfg)
        assert code == 2, override
        assert f"bad config: bayes.{key} must be" in err, err
        assert out == ""


def per_bit_check(v):
    """The bits check as it was written per bit: an int, not a bool, in [0, 1]."""
    return isinstance(v, list) and len(v) > 0 and all(
        isinstance(b, int) and not isinstance(b, bool) and 0 <= b <= 1 for b in v
    )


@pytest.mark.parametrize(
    "bits",
    [[0, 1, 1], [1], [0, True], [0, 2], [0, -1], [0, 1.0], [0, []], [], [True], [2], [-1], [1.0]],
)
def test_bits_check_matches_the_per_bit_check(bits):
    from udwrm.cli import ConfigError, _settings

    config = {"bayes": {"bits": bits}}
    if per_bit_check(bits):
        assert _settings(config)["bayes"]["bits"] is bits
    else:
        message = f"bayes.bits must be a non-empty list of 0/1 integers, got {bits!r}"
        with pytest.raises(ConfigError) as info:
            _settings(config)
        assert str(info.value) == message


# the model blocks as the benchmark workloads and the CI config send them
MODEL_BLOCKS = {
    "detector": {"omega": 0.2, "lambda": 0.01},
    "worldline": {"kind": "accelerated", "alpha": 0.1},
    "schedule": {"sigma": 1.0, "repetitions": 8, "t_off_factor": 10.0},
}


class WorkReached(Exception):
    pass


def forbid_model_work(monkeypatch):
    def no_work(*_, **__):
        raise WorkReached

    monkeypatch.setattr("udwrm.cli.ResponseModel", no_work)
    monkeypatch.setattr("udwrm.cli.q_direct", no_work)


BAD_MODEL_VALUES = [
    ("worldline", "kind", "acelerated"),
    ("worldline", "kind", None),
    ("worldline", "alpha", 0),
    ("worldline", "alpha", float("inf")),
    ("worldline", "alpha", "0.1"),
    ("detector", "omega", "0.2"),
    ("detector", "omega", 0.0),
    ("detector", "lambda", -1e-2),
    ("detector", "lambda", float("nan")),
    ("schedule", "sigma", "1"),
    ("schedule", "sigma", 0),
    ("schedule", "t_off_factor", -1.0),
    ("schedule", "t_off_factor", True),
    ("schedule", "repetitions", 2.0),
    # misspelled keys
    ("detector", "omgea", 0.2),
    ("worldline", "acceleration", 1.0),
    ("schedule", "sigam", 1.0),
]


@pytest.mark.parametrize(
    "section, key, value",
    BAD_MODEL_VALUES,
    ids=[f"{s}.{k}={v!r}" for s, k, v in BAD_MODEL_VALUES],
)
@pytest.mark.parametrize("command", ["transition", "string-probs"])
def test_bad_model_config_exits_2_naming_the_key(
    tmp_path, capsys, monkeypatch, command, section, key, value
):
    forbid_model_work(monkeypatch)
    config = {**MODEL_BLOCKS, section: {**MODEL_BLOCKS[section], key: value}}
    code, out, err = run(capsys, command, "--config", write_config(tmp_path, config))
    assert code == 2
    assert f"bad config: {section}.{key} " in err, err
    assert out == ""


def test_accelerated_worldline_needs_alpha_for_string_probs(tmp_path, capsys, monkeypatch):
    forbid_model_work(monkeypatch)
    cfg = write_config(tmp_path, {"worldline": {"kind": "accelerated"}})
    code, out, err = run(capsys, "string-probs", "--config", cfg)
    assert code == 2
    assert "bad config: worldline.alpha must be" in err, err
    assert out == ""
    # transition keeps its default acceleration
    with pytest.raises(WorkReached):
        main(["transition", "--config", cfg])


@pytest.mark.parametrize("command", ["transition", "string-probs"])
@pytest.mark.parametrize(
    "config",
    [
        MODEL_BLOCKS,
        {**MODEL_BLOCKS, "worldline": {"kind": "inertial"}, "quadrature": {"gl_order": 32}},
        {"strings": {"length": 2}},
    ],
    ids=["full", "inertial", "defaults"],
)
def test_good_model_config_reaches_the_model(tmp_path, monkeypatch, command, config):
    forbid_model_work(monkeypatch)
    with pytest.raises(WorkReached):
        main([command, "--config", write_config(tmp_path, config)])


def test_transition_builds_the_configured_schedule(tmp_path, capsys, monkeypatch):
    from udwrm.response import ProbabilityResult

    schedules = []

    def capture(kern, sched, d):
        schedules.append(sched)
        return ProbabilityResult(1e-6, abs_error=0.0, method="quadrature")

    monkeypatch.setattr("udwrm.cli.q_direct", capture)
    schedule = {"sigma": 0.5, "repetitions": 3, "t_off_factor": 4.0}
    code, _, err = run(
        capsys, "transition", "--config", write_config(tmp_path, {"schedule": schedule})
    )
    assert code == 0, err
    assert len(schedules) == 2
    assert schedules == [udwrm.RepetitionSchedule(0.5, 3, 4.0)] * 2


# the CI config, plus the quadrature block the benchmark sends
FULL_CONFIG = {
    "detector": {"omega": 0.2, "lambda": 0.01},
    "worldline": {"kind": "accelerated", "alpha": 0.1},
    "schedule": {"sigma": 1.0, "repetitions": 8, "t_off_factor": 10.0},
    "strings": {"length": 8},
    "bounds": {"q": 0.1, "gamma": 0.01, "n_max": 5},
    "oracle": {"env_dim": 8, "length": 8, "epsilon": 1e-3},
    "bayes": {"bits": [0, 1, 0, 0, 0, 1], "epsilon": 0.0, "chunk": 2, "step_corrections": [0, 0]},
    "quadrature": {"qmc_points": 1 << 20, "gl_order": 32},
}


def test_every_known_key_passes_the_key_check():
    from udwrm.cli import _settings

    settings = _settings(FULL_CONFIG)
    for section, block in FULL_CONFIG.items():
        assert settings[section] == block


def test_every_default_passes_its_own_check():
    from udwrm.cli import _CONFIG, _settings

    defaults = _settings({})
    for section, keys in _CONFIG.items():
        assert defaults[section].keys() == keys.keys()
        for key, (default, ok, _) in keys.items():
            assert defaults[section][key] == default
            assert default is None or ok(default), f"{section}.{key}"


def test_null_leaves_a_key_without_a_default_unset():
    from udwrm.cli import _settings

    config = {"worldline": {"alpha": None}, "bounds": {"n_max": None}}
    settings = _settings(config)
    assert settings["worldline"]["alpha"] is None
    assert settings["bounds"]["n_max"] is None


def test_readme_config_table_matches_the_config_table():
    from udwrm.cli import _CONFIG

    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    rows = re.findall(r"^\| `(\w+)` \| (`.+?`) \| (.+?) \|", open(readme).read(), re.M)
    documented = {}
    for section, keys, default in rows:
        for key in re.findall(r"`(\w+)`", keys):
            documented[section, key] = default
    assert documented.keys() == {(s, k) for s, keys in _CONFIG.items() for k in keys}
    for (section, key), cell in documented.items():
        default = _CONFIG[section][key][0]
        if default is None:
            assert cell.startswith("none"), (section, key, cell)
        elif isinstance(default, str):
            assert cell == f"`{default}`", (section, key, cell)
        else:
            assert float(cell) == default, (section, key, cell)


@pytest.mark.parametrize("command", ["transition", "string-probs", "bounds", "bayes", "oracle"])
def test_readme_example_config_runs(tmp_path, capsys, command):
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    (config,) = re.findall(r"```json\n(.*?)```", open(readme).read(), re.S)
    cfg = write_config(tmp_path, json.loads(config))
    code, _, err = run(capsys, command, "--config", cfg)
    assert code == 0, err


# a bad value in a block that the subcommand does not read
UNREAD_BAD_VALUES = [
    ("transition", {"bounds": {"q": 2}}, "bounds.q"),
    ("string-probs", {"oracle": {"env_dim": 0}}, "oracle.env_dim"),
    ("bounds", {"oracle": {"env_dim": 0}}, "oracle.env_dim"),
    ("bayes", {"bayes": BAYES_BLOCK, "strings": {"length": 0}}, "strings.length"),
    ("oracle", {"detector": {"omega": -0.2}}, "detector.omega"),
    ("combinatorics", {"bayes": {"chunk": 0}}, "bayes.chunk"),
]


@pytest.mark.parametrize(
    "command, config, named", UNREAD_BAD_VALUES, ids=[c for c, _, _ in UNREAD_BAD_VALUES]
)
def test_bad_value_in_an_unread_block_exits_2(
    tmp_path, capsys, monkeypatch, command, config, named
):
    def no_work(*_, **__):
        raise AssertionError("work started before the config was validated")

    for name in (
        "q_closed_inertial",
        "q_direct",
        "ResponseModel",
        "loose_bound_scan",
        "posterior_trace",
        "random_model",
        "restricted_partitions",
    ):
        monkeypatch.setattr(f"udwrm.cli.{name}", no_work)
    code, out, err = run(capsys, command, "--config", write_config(tmp_path, config))
    assert code == 2
    assert f"bad config: {named} must be" in err, err
    assert out == ""


BAD_CONFIGS = [
    ({"oracle": {"env_dmi": 4, "length": 3}}, "oracle.env_dmi"),
    ({"detectr": {"omega": 0.2}}, "detectr"),
    ([1, 2], "the config must be an object"),
    ({"strings": "x"}, "strings must be an object"),
    ({**FULL_CONFIG, "bounds": {"q": 0.1, "gama": 0.01}}, "bounds.gama"),
    ({**FULL_CONFIG, "quadrature": 3}, "quadrature must be an object"),
]


@pytest.mark.parametrize(
    "config, named", BAD_CONFIGS, ids=[named for _, named in BAD_CONFIGS]
)
@pytest.mark.parametrize(
    "command", ["transition", "string-probs", "bounds", "bayes", "oracle", "combinatorics"]
)
def test_bad_config_shape_exits_2_before_dispatch(
    tmp_path, capsys, monkeypatch, command, config, named
):
    from udwrm import cli

    def no_work(*_):
        raise AssertionError("a subcommand ran on a bad config")

    monkeypatch.setitem(cli._COMMANDS, command, no_work)
    code, out, err = run(capsys, command, "--config", write_config(tmp_path, config))
    assert code == 2
    assert f"bad config: {named}" in err, err
    assert out == ""


def test_bayes_step_corrections_cover_the_longest_chunk(tmp_path, capsys):
    # a chunk longer than the record needs only one correction per outcome
    cfg = write_config(
        tmp_path, {"bayes": {**BAYES_BLOCK, "chunk": 5, "step_corrections": [1e-3, 0.0, -1e-3]}}
    )
    code, out, _ = run(capsys, "bayes", "--config", cfg)
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert [r.split(",")[0] for r in rows] == ["0", "3"]


# Runs every subcommand in an interpreter whose import system refuses scipy,
# then reports the exit codes and any scipy module that got loaded.
NO_SCIPY_SCRIPT = """
import json, os, sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from udwrm.cli import main

out, cfg = sys.argv[1], sys.argv[2]
codes = {}
for command in ("transition", "oracle", "bounds", "bayes", "string-probs"):
    codes[command] = main([command, "--config", cfg, "--out", os.path.join(out, command)])
codes["combinatorics"] = main(["combinatorics", "--out", os.path.join(out, "comb")])
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "loaded": loaded}))
"""


def test_every_subcommand_runs_without_scipy(tmp_path):
    cfg = write_config(
        tmp_path,
        {
            "detector": {"omega": 0.2, "lambda": 0.01},
            "worldline": {"kind": "accelerated", "alpha": 0.1},
            "schedule": {"sigma": 1.0, "repetitions": 8},
            "strings": {"length": 3},
            "bounds": {"q": 0.1, "gamma": 0.01},
            "oracle": {"env_dim": 4, "length": 5},
            "bayes": {"bits": [0, 1, 0, 0], "epsilon": 0.0, "chunk": 2},
        },
    )
    src = os.path.dirname(os.path.dirname(udwrm.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path), cfg],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == dict.fromkeys(
        ["transition", "oracle", "bounds", "bayes", "string-probs", "combinatorics"], 0
    ), proc.stderr
    assert report["loaded"] == []
