import json

import pytest

from udwrm.cli import main


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


def test_bounds_csv_shape_and_horizon(tmp_path, capsys):
    cfg = write_config(tmp_path, {"bounds": {"q": 0.1, "gamma": 0.01}})
    code, out, _ = run(capsys, "bounds", "--config", cfg)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# config_sha256=")
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
