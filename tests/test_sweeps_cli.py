import dataclasses
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from neckflow.cli import main
from neckflow.fd import NeckGrid
from neckflow.geometry import named_profile
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
    # the span is for the rate fits: a config without them takes one eps
    RunConfig(eps=(1e-2,), decay=False, blowup=False).validate()
    with pytest.raises(ConfigError, match="insufficient eps span"):
        RunConfig(eps=(1e-2,), decay=False, blowup=False, envelopes=True).validate()


def test_a_config_without_rate_fits_runs_at_one_eps(tmp_path):
    # the CLI demanded the rate fits' eps span of every sweep, so this
    # config, which sweeps.run takes, exited 2
    doc = {"profile": "sym-quadratic", "alphas": [1], "m_max": 1, "eps": [0.01],
           "decay": False, "blowup": False}
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    assert len(run(RunConfig.from_json(doc)).rows) == 6
    assert main(["sweep", "rates", "--config", str(path), "--format", "csv",
                 "--out", str(tmp_path / "rep")]) == 0
    (csv_path,) = (tmp_path / "rep").glob("rates-*.csv")
    assert csv_path.read_text().count("\n") == 7  # header and 6 passing rows


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


def test_a_repeated_alpha_flag_is_a_config_error(tmp_path, capsys):
    # --alpha 1,1 was merged into (1,) and ran, where "alphas": [1, 1] in a
    # config is refused; the flag's list is still sorted, so --alpha 3,1
    # names the config that --alpha 1,3 names
    argv = ["corrector", "verify", "--profile", "sym-quadratic", "--m", "0", "--eps", "1e-2",
            "--format", "json"]
    assert main(argv + ["--alpha", "1,1", "--out", str(tmp_path / "a")]) == 2
    assert capsys.readouterr().err.startswith("config error: alphas must name each alpha once")
    assert not (tmp_path / "a").exists()
    for alphas, out in (("3,1", "b"), ("1,3", "c")):
        assert main(argv + ["--alpha", alphas, "--out", str(tmp_path / out)]) == 0
    assert os.listdir(tmp_path / "b") == os.listdir(tmp_path / "c")


def test_corrector_runs_load_no_scipy(tmp_path, src_env):
    # only the FD solver needs scipy: corrector verify and a sweep without
    # --fd load numpy alone, which saves them scipy's import time and memory
    code = (
        "import sys\n"
        "from neckflow import cli\n"
        "out = sys.argv[1]\n"
        "for argv in (['corrector', 'verify', '--profile', 'sym-quadratic', '--alpha', '1',\n"
        "              '--m', '1', '--eps', '1e-2', '--out', out],\n"
        "             ['sweep', 'rates', '--profile', 'sym-quadratic', '--alpha', '1',\n"
        "              '--m', '1', '--out', out]):\n"
        "    assert cli.main(argv) == 0, argv\n"
        "print('scipy.sparse' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], capture_output=True,
                         text=True, timeout=300, env=src_env, check=True)
    assert out.stdout.splitlines()[-1] == "False"


def test_corrector_verify_runs_the_structural_checks_whatever_its_config(tmp_path):
    # --config and the flags give one config, and so one report name
    doc = {"profile": "sym-quadratic", "alphas": [1], "m_max": 0, "eps": [1e-2],
           "decay": True, "envelopes": True, "fd_checks": True}
    path = tmp_path / "v.json"
    path.write_text(json.dumps(doc))
    assert main(["corrector", "verify", "--config", str(path),
                 "--out", str(tmp_path / "a")]) == 0
    assert main(["corrector", "verify", "--profile", "sym-quadratic", "--alpha", "1",
                 "--m", "0", "--eps", "1e-2", "--out", str(tmp_path / "b")]) == 0
    names = [sorted(os.listdir(tmp_path / d)) for d in "ab"]
    assert names[0] == names[1] and len(names[0]) == 2
    rows = json.loads((tmp_path / "a" / names[0][1]).read_text())["rows"]
    assert {r["check"] for r in rows} == {"structural/divergence", "structural/trace",
                                         "structural/degrees"}


def test_cli_corrector_build_fails_on_a_sup_that_is_not_finite(tmp_path, src_env):
    # walls of 1e200 x1^2 overflow the residual to nan, which was printed
    # with exit code 0; a subprocess, as pytest turns the overflow warnings
    # into errors
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"h1": {"poly": [0, 0, 1e200]},
                                "h2": {"poly": [0, 0, 0.5]}}))
    out = subprocess.run([sys.executable, "-W", "ignore", "-m", "neckflow.cli",
                          "corrector", "build", "--profile", str(path), "--alpha", "1",
                          "--m", "0", "--eps", "1e-2", "--out", str(tmp_path)],
                         capture_output=True, text=True, timeout=120, env=src_env)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "l1=nan" in out.stdout
    assert "FAIL alpha=1 level=1: residual sup is not finite" in out.stdout


@pytest.mark.parametrize("argv, fail_line", [
    (["corrector", "verify", "--profile", "asym-quartic", "--m", "1"],
     "FAIL structural/trace a=3 eps=1e-300,l=2: measured=nan tol=1e-10"),
    (["sweep", "rates", "--eps", "1e-2,3e-3,1e-3,3e-4,1e-300"], "FAIL decay/residual"),
    (["corrector", "build", "--profile", "asym-quadratic", "--m", "1"],
     "FAIL alpha=2 level=2: residual sup is not finite"),
], ids=["corrector-verify", "sweep-rates", "corrector-build"])
def test_samples_that_overflow_reach_the_user_only_through_their_rows(tmp_path, capsys,
                                                                      argv, fail_line):
    # at eps=1e-300 the powers of 1/delta overflow: the commands printed
    # numpy's overflow and invalid-value warnings next to their FAIL lines
    if "--eps" not in argv:
        argv = argv + ["--eps", "1e-300"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv + ["--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert code == 1 and err == ""
    assert fail_line in out


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
    # SuperLU's own count: reading lu.L and lu.U copied both factors to count them
    grid = NeckGrid(named_profile("sym-quadratic", eps=1e-2), r=0.75, n1=65, n2=32)
    assert f" lu_fill={grid.solver()[0].nnz} " in out
    assert re.search(r" residual=\S+ correction=\S+ backward=\S+ div=", out)


@pytest.mark.parametrize("argv", [
    ["corrector", "build", "--m", "1", "--alpha", "1"],
    ["stokes", "solve", "--n1", "64", "--n2", "32", "--level", "2"],
], ids=["corrector-build", "stokes-solve"])
def test_integrals_that_do_not_converge_end_in_one_error_line(tmp_path, capsys, argv):
    # a valid profile on a chart so wide that the gap's integrals cannot meet
    # QUAD_TOL: both commands ended in a QuadratureError traceback
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"h1": {"poly": [0, 0, 1.0]}, "h2": {"poly": [0, 0, 0.5]},
                                "R": 1e6}))
    code = main(argv + ["--profile", str(path), "--eps", "1e-8", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: QuadratureError: quadrature did not converge")
    assert err.count("\n") == 1 and len(err) <= 240


def test_stokes_solve_at_a_vanishing_gap_ends_in_one_error_line(tmp_path, src_env):
    # at eps=1e-100 the forcing samples overflow (ValueError from solve_w), at
    # 1e-200 the matrix entries too (ValueError from the assembly, where the
    # factor used to be called exactly singular); both ended in a traceback,
    # and both printed numpy's overflow warnings first.  One interpreter runs
    # both, outside this suite's warnings-as-errors, where they stay warnings.
    script = (
        "import sys\n"
        "from neckflow.cli import main\n"
        "for eps in ('1e-100', '1e-200'):\n"
        "    code = main(['stokes', 'solve', '--profile', 'sym-quadratic', '--level', '1',\n"
        "                 '--n1', '33', '--n2', '32', '--eps', eps, '--out', sys.argv[1]])\n"
        "    print(f'exit {code}', file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)], env=src_env,
                          capture_output=True, text=True, timeout=300)
    assert "Traceback" not in proc.stderr
    parts = re.split(r"^exit (\d+)\n", proc.stderr, flags=re.M)
    assert parts[1::2] == ["1", "1"] and parts[-1] == "", proc.stderr
    for case in parts[0::2][:2]:
        errors = re.findall(r"^error: .*$", case, flags=re.M)
        assert len(errors) == 1 and len(errors[0]) <= 240, case
        assert errors[0].startswith("error: ValueError: "), case
        assert case == errors[0] + "\n", case  # no warning before it


@pytest.mark.parametrize("flag", [["--m", "1"], ["--alpha", "1"], ["--format", "csv"]])
def test_cli_stokes_solve_rejects_flags_it_does_not_read(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["stokes", "solve", "--profile", "sym-quadratic", "--eps", "1e-2",
              "--n1", "33", "--n2", "32", "--out", str(tmp_path)] + flag)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_corrector_build_rejects_format(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["corrector", "build", "--eps", "5e-2", "--format", "xml",
              "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format xml" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [["--n1", "0"], ["--n1", "2"], ["--n1", "-5"],
                                 ["--n2", "16"], ["--level", "0"], ["--level", "9"],
                                 ["--n1", "4"]])
def test_cli_stokes_solve_bad_grid_or_level(tmp_path, capsys, monkeypatch, bad):
    # each is found before the grid is factored: an --n1 whose |x1| <= R
    # window has no cell beyond the side margin (2 and 4 here) was found
    # only by sup_grad, after the whole grid had been assembled and factored
    def splu(*_a, **_k):
        raise RuntimeError("factored before the config was checked")

    monkeypatch.setattr("scipy.sparse.linalg.splu", splu)
    code = main(["stokes", "solve", "--profile", "sym-quadratic", "--eps", "1e-2",
                 "--n1", "33", "--n2", "32", "--out", str(tmp_path)] + bad)
    assert code == 2
    assert capsys.readouterr().err.startswith("config error: stokes solve: ")


def test_the_config_digest_names_the_checks_not_the_report_path(tmp_path):
    # the digest hashed out_dir and formats: one sweep written to two
    # directories got two config_digest values and two report names
    stems = []
    for out, fmt in ((tmp_path / "a", "csv"), (tmp_path / "b", "json,csv")):
        assert main(["corrector", "verify", "--profile", "sym-quadratic", "--alpha", "1",
                     "--m", "0", "--eps", "1e-2", "--format", fmt, "--out", str(out)]) == 0
        stems.append({os.path.splitext(name)[0] for name in os.listdir(out)})
    assert len(stems[0]) == 1 and stems[0] == stems[1]
    moved = dataclasses.replace(SMALL, out_dir=str(tmp_path), formats=("json",))
    assert moved.digest() == SMALL.digest()
    assert dataclasses.replace(SMALL, m_max=2).digest() != SMALL.digest()


def test_custom_profile_file_sweep(tmp_path):
    doc = {"name": "custom-mix", "R": 0.5, "mu": 1.0, "eps": 1.0,
           "h1": {"poly": [0, 0, 0.75]}, "h2": {"poly": [0, 0, 0.5, 0, 0.5]}}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    rep = run(RunConfig(profile=str(path), alphas=(3,), m_max=1,
                        eps=(1e-2, 3e-3, 1e-3, 3e-4, 1e-4)))
    assert rep.rows and rep.all_passed


def test_a_rate_sweep_validates_each_profile_once(tmp_path, monkeypatch):
    # the cache's per-eps profiles, residual_order and theorem_rate_table
    # each built and validated a NeckProfile per read: 32 validations in this
    # sweep, where one per RunConfig.validate call plus one per wall shape
    # (sym-quadratic, and asym-quadratic for the envelopes) will do
    from neckflow.geometry import NeckProfile
    calls = {"profile": 0, "config": 0}

    def counted(cls, name, key):
        real = getattr(cls, name)

        def wrapper(self, *args, **kwargs):
            calls[key] += 1
            return real(self, *args, **kwargs)
        monkeypatch.setattr(cls, name, wrapper)

    counted(NeckProfile, "_validate", "profile")
    counted(RunConfig, "validate", "config")
    assert main(["sweep", "rates", "--profile", "sym-quadratic", "--alpha", "1,2,3",
                 "--m", "1", "--eps", "1e-2,3e-3,1e-3,3e-4,1e-4", "--envelopes",
                 "--out", str(tmp_path)]) == 0
    assert calls["profile"] <= calls["config"] + 2  # 4 = 2 + 2 here


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


_VERIFY_M1 = ["corrector", "verify", "--profile", "{path}", "--alpha", "1", "--m", "1",
              "--eps", "1e-2", "--out", "{out}"]


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
    (_VERIFY_M1, '{"h1": {"poly": [0, 0, 1.0]}, "h2": {"poly": [0, 0, 0.5]}, "M": 2}'),
    (_VERIFY_M1, '{"h1": {"poly": [0, 0, 1.0]}, "h2": {"poly": [0, 0, 0.5]}, "kapa": 5}'),
    (_VERIFY_M1, '{"eps": 0.01, "h1": {"poly": [0, 0, 1.0], "pol": [0, 0, 9.0]}, '
                 '"h2": {"poly": [0, 0, 0.5]}}'),
    (["corrector", "verify", "--config", "{path}", "--out", "{out}"],
     '{"alphas": [1, 1], "m_max": 0, "eps": [0.01]}'),
], ids=["config-not-json", "config-list", "config-dir", "profile-no-h1",
        "profile-list", "report-list", "report-dir", "config-eps-strings",
        "config-m-max-string", "config-grid", "config-quad-tol", "config-no-formats",
        "profile-m", "profile-misspelt-kappa", "profile-misspelt-wall-poly",
        "config-repeated-alpha"])
def test_malformed_json_inputs_are_config_errors(tmp_path, capsys, argv, text):
    # each of these ended in a traceback (JSONDecodeError, TypeError,
    # IsADirectoryError, ValueError) instead of exit code 2, or in a run that
    # ignored grid and quad_tol, kapa or a wall's pol (fields no check read,
    # now unknown ones), or wrote no report for an empty formats list, or
    # ("M", a wall-derivative cap now deleted) in a CapabilityError row and
    # exit 1, or (a repeated alpha) in a report with every row twice; a None
    # text makes the input path a directory
    path = tmp_path / "input.json"
    if text is None:
        path.mkdir()
    else:
        path.write_text(text)
    subs = {"{path}": str(path), "{out}": str(tmp_path / "out")}
    assert main([subs.get(a, a) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


def _no_run(*_args, **_kwargs):
    raise AssertionError("the sweep or solve ran before its output directory was checked")


@pytest.mark.parametrize("argv", [
    ["sweep", "rates", "--profile", "sym-quadratic", "--alpha", "1", "--m", "1",
     "--out", "{file}"],
    ["corrector", "verify", "--profile", "sym-quadratic", "--alpha", "1", "--m", "1",
     "--eps", "1e-2", "--out", "{file}/sub"],
    ["corrector", "build", "--profile", "sym-quadratic", "--alpha", "1", "--m", "0",
     "--eps", "5e-2", "--dump", "--out", "{file}"],
    ["report", "emit", "--input", "{report}", "--output", "{dir}"],
    ["stokes", "solve", "--profile", "asym-quadratic", "--eps", "0.05", "--level", "1",
     "--n1", "33", "--n2", "32", "--csv", "x.csv", "--out", "{file}"],
], ids=["sweep-out-is-a-file", "verify-out-below-a-file", "build-dump-out-is-a-file",
        "emit-output-is-a-directory", "solve-csv-out-is-a-file"])
def test_unusable_output_paths_are_config_errors(tmp_path, capsys, monkeypatch, argv):
    # each ended in a traceback (FileExistsError, NotADirectoryError,
    # FileExistsError, IsADirectoryError); the sweeps did so only after the
    # whole sweep had run, and stokes solve after the solve
    import neckflow.cli as cli_mod
    monkeypatch.setattr(cli_mod.sweeps, "run", _no_run)
    monkeypatch.setattr(cli_mod.fd, "solve_fields", _no_run)
    file = tmp_path / "taken"
    file.write_text("")
    report = tmp_path / "report.json"
    report.write_text(emit(RateReport("x"), "json"))
    for key, path in (("{file}", file), ("{report}", report), ("{dir}", tmp_path)):
        argv = [a.replace(key, str(path)) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("config error: ")
