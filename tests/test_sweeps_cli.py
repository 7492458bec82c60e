import json
import os
import subprocess
import sys

import numpy as np
import pytest

from neckflow.cli import main
from neckflow.sweeps import (
    ConfigError,
    RateReport,
    RateRow,
    RunConfig,
    emit,
    parse_report,
    run,
)

SMALL = RunConfig(profile="sym-quadratic", alphas=(1,), m_max=1,
                  eps=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4))


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="insufficient eps span"):
        RunConfig(eps=(1e-2, 1e-3)).validate()
    with pytest.raises(ConfigError, match="exceeds derivative cap"):
        RunConfig(m_max=7).validate()
    with pytest.raises(ConfigError, match="strictly decreasing"):
        RunConfig(eps=(1e-3, 1e-2, 1e-3, 1e-4, 1e-5)).validate()
    with pytest.raises(ConfigError, match="unknown profile"):
        RunConfig(profile="does-not-exist").validate()
    with pytest.raises(ConfigError):
        RunConfig(alphas=(4,)).validate()
    RunConfig(eps=(1e-2,)).validate(sweep=False)  # single-eps tools are fine


def test_run_small_config_all_pass():
    rep = run(SMALL)
    assert len(rep.rows) >= 12
    assert rep.all_passed
    kinds = {r.check for r in rep.rows}
    assert {"structural/divergence", "structural/trace", "structural/degrees",
            "decay/residual", "rate/blowup"} <= kinds
    keys = [r.key() for r in rep.rows]
    assert keys == sorted(keys)  # families merged deterministically by sorted key


def test_run_reference_config():
    # single translation mode, symmetric quadratic walls, m_max = 2, the
    # default five-value eps sweep: a dozen-plus checks, all passing
    rep = run(RunConfig(profile="sym-quadratic", alphas=(1,), m_max=2,
                        eps=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4)))
    assert len(rep.rows) >= 12
    assert rep.all_passed


def test_report_determinism_and_roundtrip():
    rep1 = run(SMALL)
    rep2 = run(SMALL)
    assert emit(rep1, "csv") == emit(rep2, "csv")
    j1, j2 = json.loads(emit(rep1, "json")), json.loads(emit(rep2, "json"))
    j1.pop("created_at"), j2.pop("created_at")
    assert j1 == j2
    back = parse_report(emit(rep1, "json"))
    assert back.rows == rep1.rows
    assert back.config_digest == rep1.config_digest


def test_emit_csv_shapes(tmp_path):
    empty = RateReport("deadbeef")
    text = emit(empty, "csv")
    assert text.splitlines() == [
        "check,anchor,profile,alpha,m,s,window,predicted,measured,tolerance,pass"]
    rows = [RateRow("a/b", "x", "p", 1, 0, None, "w", 1.0, 1.0001, 0.1, True)
            for _ in range(3)]
    rep = RateReport("deadbeef", rows=rows)
    assert len(emit(rep, "csv").splitlines()) == 4
    path = tmp_path / "out.csv"
    emit(rep, "csv", str(path))
    assert path.read_text() == emit(rep, "csv")
    with pytest.raises(ConfigError):
        emit(rep, "xml")


def test_reports_do_not_drift_within_one_process(src_env):
    # the second run finds profile-free nodes (x1 and its powers) already
    # interned; the report must not depend on how old the process is
    code = (
        "from neckflow.sweeps import RunConfig, emit, run\n"
        "cfg = RunConfig(profile='sym-quadratic', alphas=(3,), m_max=1)\n"
        "a, b = emit(run(cfg), 'csv'), emit(run(cfg), 'csv')\n"
        "print(sum(x != y for x, y in zip(a.splitlines(), b.splitlines())))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=300, env=src_env, check=True)
    assert out.stdout.strip() == "0"


def test_fd_rows_family():
    rep = run(RunConfig(profile="sym-quadratic", alphas=(1,), m_max=1,
                        eps=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4), structural=False,
                        decay=False, blowup=False, fd_checks=True))
    assert [r.check for r in rep.rows] == ["fd/manufactured-order"]
    assert rep.all_passed


def test_cli_sweep_rates_and_report_emit(tmp_path, capsys):
    out = tmp_path / "reports"
    code = main(["sweep", "rates", "--profile", "sym-quadratic", "--alpha", "1",
                 "--m", "1", "--out", str(out)])
    assert code == 0
    files = sorted(os.listdir(out))
    assert any(f.endswith(".csv") for f in files)
    jsons = [f for f in files if f.endswith(".json")]
    assert jsons
    code = main(["report", "emit", "--input", str(out / jsons[0]),
                 "--to", "csv", "--output", str(tmp_path / "again.csv")])
    assert code == 0
    assert (tmp_path / "again.csv").read_text() == (
        out / jsons[0].replace(".json", ".csv")).read_text()


def test_cli_exit_codes(tmp_path):
    assert main(["sweep", "rates", "--eps", "1e-2,1e-3", "--out",
                 str(tmp_path)]) == 2
    assert main(["sweep", "rates", "--m", "7", "--out", str(tmp_path)]) == 2
    assert main(["corrector", "build", "--profile", "sym-quadratic",
                 "--eps", "5e-2", "--alpha", "1", "--m", "1",
                 "--out", str(tmp_path)]) == 0


def test_cli_corrector_verify(tmp_path):
    code = main(["corrector", "verify", "--profile", "asym-quadratic",
                 "--alpha", "2", "--m", "1", "--eps", "1e-2",
                 "--out", str(tmp_path)])
    assert code == 0


def test_cli_corrector_verify_error_row(monkeypatch, tmp_path):
    import neckflow.cli as cli_mod
    broken = RateReport("x", rows=[RateRow("error/structural_rows", "ValueError",
                                           "p", None, None, None, "boom", None,
                                           None, None, False)])
    monkeypatch.setattr(cli_mod.sweeps, "run", lambda _cfg: broken)
    code = main(["corrector", "verify", "--profile", "sym-quadratic", "--alpha", "1",
                 "--m", "1", "--eps", "1e-2", "--out", str(tmp_path)])
    assert code == 1
    assert list(tmp_path.glob("rates-*.csv"))


def test_cli_stokes_solve(tmp_path, capsys):
    code = main(["stokes", "solve", "--profile", "sym-quadratic",
                 "--eps", "1e-2", "--level", "2", "--n1", "65", "--n2", "32",
                 "--csv", "cloud.csv", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "cloud.csv").exists()
    out = capsys.readouterr().out
    assert f"unknowns={66 * 34 + 67 * 33 + 65 * 32} lu_fill=" in out


@pytest.mark.parametrize("bad", [["--n1", "0"], ["--n1", "2"], ["--n1", "-5"],
                                 ["--n2", "16"], ["--level", "0"], ["--level", "9"]])
def test_cli_stokes_solve_bad_grid_or_level(tmp_path, capsys, bad):
    code = main(["stokes", "solve", "--profile", "sym-quadratic", "--eps", "1e-2",
                 "--n1", "33", "--n2", "32", "--out", str(tmp_path)] + bad)
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: stokes solve: ")


def test_custom_profile_file_sweep(tmp_path):
    doc = {"name": "custom-mix", "R": 0.5, "mu": 1.0, "eps": 1.0,
           "h1": {"poly": [0, 0, 0.75]}, "h2": {"poly": [0, 0, 0.5, 0, 0.5]}}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    rep = run(RunConfig(profile=str(path), alphas=(3,), m_max=1,
                        eps=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4)))
    assert rep.rows and rep.all_passed


def test_config_json_load(tmp_path):
    doc = {"profile": "sym-quadratic", "alphas": [1], "m_max": 1,
           "eps": [1e-2, 3e-3, 1e-3, 3e-4, 1e-4]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    code = main(["sweep", "rates", "--config", str(path), "--out",
                 str(tmp_path / "rep")])
    assert code == 0
    with pytest.raises(ConfigError):
        RunConfig.from_json({"bogus_field": 1})


@pytest.mark.parametrize("argv, text", [
    (["sweep", "rates", "--config", "{path}", "--out", "{out}"], "{not json"),
    (["sweep", "rates", "--config", "{path}", "--out", "{out}"], "[1, 2]"),
    (["sweep", "rates", "--config", "{path}", "--out", "{out}"], None),
    (["corrector", "build", "--profile", "{path}", "--out", "{out}"],
     '{"h2": {"poly": [0, 0, 1]}}'),
    (["corrector", "build", "--profile", "{path}", "--out", "{out}"], "[1, 2]"),
    (["report", "emit", "--input", "{path}"], "[1, 2]"),
    (["report", "emit", "--input", "{path}"], None),
    (["sweep", "rates", "--config", "{path}", "--out", "{out}"], '{"eps": ["a", "b"]}'),
    (["sweep", "rates", "--config", "{path}", "--out", "{out}"], '{"m_max": "2"}'),
    (["sweep", "rates", "--config", "{path}", "--out", "{out}"], '{"grid": [1]}'),
    (["sweep", "rates", "--config", "{path}", "--out", "{out}"],
     '{"quad_tol": 1e-6, "alphas": [1], "m_max": 1}'),
    (["sweep", "rates", "--config", "{path}", "--out", "{out}"],
     '{"formats": [], "alphas": [1], "m_max": 1}'),
], ids=["config-not-json", "config-list", "config-dir", "profile-no-h1",
        "profile-list", "report-list", "report-dir", "config-eps-strings",
        "config-m-max-string", "config-grid", "config-quad-tol", "config-no-formats"])
def test_malformed_json_inputs_are_config_errors(tmp_path, capsys, argv, text):
    # each of these ended in a traceback (JSONDecodeError, TypeError,
    # IsADirectoryError, ValueError) instead of exit code 2, or in a run that
    # ignored grid and quad_tol, which no check reads, or wrote no report for
    # an empty formats list; a None text makes the input path a directory
    path = tmp_path / "input.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    subs = {"{path}": str(path), "{out}": str(tmp_path / "out")}
    assert main([subs.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
