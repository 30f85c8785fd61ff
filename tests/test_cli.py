"""Batch front end: flag parsing, output formats, and exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import threading

import pytest

import binoisy.cli
import binoisy.numerics
from binoisy.cli import _build_parser, _dispatch, _parse_snr, _point_seed, _validate_points, main
from binoisy.numerics import _MAX_ORDER


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = main([*argv, "-o", str(out)])
    return code, out


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_snr_grid_parser():
    assert _parse_snr("0:30:2") == [float(v) for v in range(0, 31, 2)]
    assert _parse_snr("0:30:7") == [0.0, 7.0, 14.0, 21.0, 28.0]
    assert _parse_snr("5") == [5.0]
    assert _parse_snr("1,2.5,4") == [1.0, 2.5, 4.0]
    # a grid whose span is an exact multiple of the step includes the stop
    assert _parse_snr("0:1:0.1")[-1] == 1.0
    # the largest range accepted
    assert len(_parse_snr("1:100000:1")) == 100000


def test_bad_grids_exit_with_usage_error():
    # a range must be finite and expand to at most 100000 values before
    # anything is built from it
    for bad in ("5:0:5", "0:10:0", "0:10:-1", "abc", "0:inf:1", "-inf:0:1", "0:1e12:1", "0:10:1e-300"):
        with pytest.raises(SystemExit) as err:
            main(["rate-sweep", "--snr", bad])
        assert err.value.code == 2


def test_rate_sweep_example_row_count(tmp_path):
    code, out = run(tmp_path, "rate-sweep", "--mode", "matched",
                    "--constellation", "qpsk", "--snr", "0:30:2", "--evm", "-10")
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 16
    header = out.read_text().splitlines()[0]
    assert header == ("mode,constellation,snr_db,evm_db,rate_bits_per_stream,"
                      "s_tilde_star,eta,xi,eps,eps_tilde,eta_prime,eps_prime,"
                      "converged,iterations")
    assert all(r["converged"] == "true" for r in rows)
    assert rows[0]["mode"] == "matched"
    # matched rows leave the mismatched-only diagnostics empty
    assert rows[0]["s_tilde_star"] == ""
    assert rows[0]["xi"] == ""


@pytest.mark.parametrize("args", [
    ("rate-sweep", "--mode", "both", "--constellation", "gaussian",
     "--snr", "0:10:5", "--evm", "-10"),
    ("rate-sweep", "--mode", "both", "--constellation", "gaussian,qpsk",
     "--snr", "0:10:10", "--evm", "-10"),
    # per-point child seeds
    ("validate", "--decoder", "both", "--constellation", "gaussian", "--M", "2", "--N", "2",
     "--snr", "0,10", "--evm", "-20,-10", "--n-channels", "50"),
    # one row per point
    ("evm-plan", "--decoder", "both", "--constellation", "gaussian", "--snr", "0,10,20",
     "--evm-lo", "-40", "--tol-db", "0.1"),
], ids=["gaussian-sweep", "sweep", "validate", "evm-plan"])
def test_reruns_are_byte_identical(tmp_path, args):
    code_a, a = run(tmp_path, *args, name="a.csv")
    code_b, b = run(tmp_path, *args, name="b.csv")
    assert code_a == code_b == 0
    assert a.read_bytes() == b.read_bytes()


def test_dispatch_runs_points_in_grid_order_on_the_calling_thread():
    calls = []

    def worker(point):
        calls.append((point, threading.get_ident()))
        return {"point": point}, point != 2

    rows, ok = _dispatch([0, 1, 2, 3], worker)
    assert calls == [(p, threading.get_ident()) for p in range(4)]
    assert rows == [{"point": p} for p in range(4)]
    assert not ok


def test_timing_column_is_opt_in(tmp_path):
    base = ("rate-sweep", "--mode", "matched", "--constellation", "gaussian",
            "--snr", "5", "--evm", "-10")
    _, plain = run(tmp_path, *base, name="p.csv")
    _, timed = run(tmp_path, *base, "--timing", name="t.csv")
    assert "wall_ms" not in plain.read_text()
    assert plain.read_text().splitlines()[0] + ",wall_ms" == timed.read_text().splitlines()[0]


def test_json_output_structure(tmp_path):
    code, out = run(tmp_path, "rate-sweep", "--mode", "matched",
                    "--constellation", "gaussian", "--snr", "5",
                    "--format", "json", name="out.json")
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "rate-sweep"
    assert doc["columns"][0] == "mode"
    row = doc["rows"][0]
    assert row["converged"] is True
    assert isinstance(row["rate_bits_per_stream"], float)
    # default ideal hardware: non-finite EVM serialized as a string
    assert row["evm_db"] == "-inf"
    # values starting with '-' that are not plain numbers still parse as values
    _, explicit = run(tmp_path, "rate-sweep", "--mode", "matched",
                      "--constellation", "gaussian", "--snr", "5", "--evm", "-inf",
                      "--format", "json", name="explicit.json")
    assert explicit.read_text() == out.read_text()
    code, out = run(tmp_path, "rate-sweep", "--mode", "matched",
                    "--constellation", "gaussian", "--snr", "-5,0", "--evm", "-20,-10",
                    "--format", "json", name="negative.json")
    assert code == 0
    rows = json.loads(out.read_text())["rows"]
    assert sorted((r["snr_db"], r["evm_db"]) for r in rows) == [
        (-5.0, -20.0), (-5.0, -10.0), (0.0, -20.0), (0.0, -10.0)]


def test_nats_flag_renames_and_rescales(tmp_path):
    _, bits = run(tmp_path, "rate-sweep", "--mode", "matched",
                  "--constellation", "gaussian", "--snr", "5", "--evm", "-10",
                  name="bits.csv")
    _, nats = run(tmp_path, "rate-sweep", "--mode", "matched",
                  "--constellation", "gaussian", "--snr", "5", "--evm", "-10",
                  "--nats", name="nats.csv")
    rb = float(read_rows(bits)[0]["rate_bits_per_stream"])
    rn = float(read_rows(nats)[0]["rate_nats_per_stream"])
    assert rb == pytest.approx(rn / math.log(2.0), rel=1e-9)


def test_highsnr_mode_emits_one_row_per_limit(tmp_path):
    code, out = run(tmp_path, "rate-sweep", "--mode", "highsnr",
                    "--constellation", "gaussian", "--evm", "-20",
                    "--snr", "0:30:5")
    assert code == 0
    rows = read_rows(out)
    assert [r["mode"] for r in rows] == ["highsnr-matched", "highsnr-mismatched"]
    assert all(r["snr_db"] == "inf" for r in rows)
    matched = float(rows[0]["rate_bits_per_stream"])
    assert matched == pytest.approx(math.log2(101.0), rel=1e-9)  # %.10g output
    assert float(rows[1]["rate_bits_per_stream"]) < matched


def test_highsnr_mode_rejects_bad_combinations(tmp_path):
    code, _ = run(tmp_path, "rate-sweep", "--mode", "highsnr",
                  "--constellation", "qpsk", "--evm", "-20")
    assert code == 2
    code, _ = run(tmp_path, "rate-sweep", "--mode", "highsnr",
                  "--constellation", "gaussian")
    assert code == 2


def test_config_file_round_trip(tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text("mode = matched\nconstellation = qpsk\n"
                    "snr = 0:10:5\nevm = -10\n# trailing comment\n")
    code, out = run(tmp_path, "rate-sweep", "--config", str(conf))
    assert code == 0
    assert len(read_rows(out)) == 3
    # explicit flags win over file values
    code, out2 = run(tmp_path, "rate-sweep", "--config", str(conf),
                     "--snr", "20", name="o2.csv")
    assert code == 0
    rows = read_rows(out2)
    assert len(rows) == 1 and rows[0]["snr_db"] == "20"


def test_config_file_rejects_unknown_keys(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("frobnicate = yes\n")
    code, _ = run(tmp_path, "rate-sweep", "--config", str(conf))
    assert code == 2


def test_config_file_sets_the_link_shape(tmp_path, capsys):
    # --M and --N store to upper-case dests; config keys match either case
    flags = ("rate-sweep", "--mode", "matched", "--snr", "0,10", "--evm=-10")
    assert main(list(flags)) == 0
    default = capsys.readouterr().out
    conf = tmp_path / "shape.conf"
    for text, M, N in (("M = 2\nN = 2\n", "2", "2"), ("m = 2\nn = 4\n", "2", "4")):
        assert main([*flags, "--M", M, "--N", N]) == 0
        expected = capsys.readouterr().out
        conf.write_text(text)
        assert main([*flags, "--config", str(conf)]) == 0
        assert capsys.readouterr().out == expected
    assert expected != default  # alpha = 1/2, not the default 1


def test_nonconvergence_exit_code_and_allow_partial(tmp_path, monkeypatch):
    monkeypatch.setattr(binoisy.numerics, "_MAX_EVAL", 2)
    args = ("rate-sweep", "--mode", "matched", "--constellation", "qpsk",
            "--snr", "10", "--evm", "-10")
    code, _ = run(tmp_path, *args)
    assert code == 1
    code, out = run(tmp_path, *args, "--allow-partial", name="p.csv")
    assert code == 0
    assert read_rows(out)[0]["converged"] == "false"


@pytest.mark.parametrize("argv,bits", [
    (("--mode", "matched", "--constellation", "qam64", "--snr", "200"), 6.0),
    (("--mode", "both", "--constellation", "qam16", "--snr", "250"), 4.0),
])
def test_rate_above_the_input_entropy_is_not_converged(tmp_path, argv, bits):
    # the rows keep their rates (7.44, 5.44 and a GMI of 4.29 bits) but are
    # failures, so the run exits 1 unless partial output is allowed
    args = ("rate-sweep", *argv, "--evm", "-30")
    code, out = run(tmp_path, *args)
    assert code == 1
    rows = read_rows(out)
    assert rows and all(r["converged"] == "false" for r in rows)
    assert all(float(r["rate_bits_per_stream"]) > bits for r in rows)
    code, _ = run(tmp_path, *args, "--allow-partial", name="p.csv")
    assert code == 0


def test_cli_import_does_not_load_the_test_oracle():
    # the oracle sits on the path, as under pytest, and still stays unloaded
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(os.path.dirname(here), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, here]))
    probe = "import sys, binoisy, binoisy.cli; sys.exit('postulate_oracle' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", probe], env=env).returncode == 0


def test_one_solver_budget_governs_the_planner(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(binoisy.numerics, "_MAX_EVAL", 2)
    code, out = run(tmp_path, "evm-plan", "--constellation", "qpsk", "--snr", "10")
    assert code == 1
    (row,) = read_rows(out)
    assert row["converged"] == "false" and row["max_evm_db"] == ""
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_solver_budget_cannot_be_set(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["rate-sweep", "--max-iter", "5"])
    assert err.value.code == 2
    conf = tmp_path / "budget.conf"
    conf.write_text("max-iter = 5\n")
    code, out = run(tmp_path, "rate-sweep", "--config", str(conf))
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ("--order", "0"), ("--order", str(_MAX_ORDER + 1)), ("--evm", "nan"),
    ("--order", "-1"), ("--evm", "inf"),
])
def test_bad_flag_values_are_usage_errors(tmp_path, extra):
    code, out = run(tmp_path, "rate-sweep", "--mode", "matched", "--constellation", "qpsk",
                    "--snr", "10", "--evm", "-10", *extra)
    assert code == 2
    assert not out.exists()


def test_order_bound_applies_to_every_subcommand(tmp_path):
    for argv in (("validate", "--constellation", "gaussian", "--snr", "10", "--n-channels", "20"),
                 ("evm-plan", "--constellation", "gaussian", "--snr", "10")):
        code, _ = run(tmp_path, *argv, "--order", "0")
        assert code == 2
    # the largest supported order is accepted
    code, _ = run(tmp_path, "rate-sweep", "--mode", "matched", "--constellation", "gaussian",
                  "--snr", "10", "--evm", "-10", "--order", str(_MAX_ORDER))
    assert code == 0


@pytest.mark.parametrize("extra", [
    ("--tol-db", "nan"), ("--tol-db", "inf"), ("--tol-db", "0"),
    ("--evm-lo", "-inf"), ("--evm-lo", "nan"), ("--evm-hi", "nan"),
])
def test_evm_plan_rejects_non_finite_bracket_and_tolerance(tmp_path, extra):
    code, out = run(tmp_path, "evm-plan", "--constellation", "gaussian", "--snr", "10", *extra)
    assert code == 2
    assert not out.exists()


# one failing grid point per subcommand: (argv, patched name, failing point's
# key columns as written)
FAILURES = {
    "rate-sweep": (("--mode", "matched", "--constellation", "gaussian", "--snr", "5,10",
                    "--evm", "-10"),
                   "matched_mi",
                   {"mode": "matched", "constellation": "gaussian", "snr_db": "10", "evm_db": "-10"}),
    "validate": (("--constellation", "gaussian", "--M", "2", "--N", "2", "--snr", "5,10",
                  "--evm", "-10", "--n-channels", "20"),
                 "matched_mi",
                 {"decoder": "matched", "constellation": "gaussian", "snr_db": "10", "evm_db": "-10",
                  "n_noise": "100", "seed": str(_point_seed(0, 1))}),
    "evm-plan": (("--constellation", "gaussian", "--snr", "5,10", "--evm-lo", "-30",
                  "--tol-db", "0.5"),
                 "max_evm_for_loss",
                 {"decoder": "matched", "constellation": "gaussian", "snr_db": "10",
                  "loss_budget": "0.05", "rule_of_thumb_db": "-20"}),
}


@pytest.mark.parametrize("command", list(FAILURES))
def test_failing_point_keeps_key_columns(tmp_path, capsys, monkeypatch, command):
    argv, name, keys = FAILURES[command]
    real = getattr(binoisy.cli, name)

    def flaky(*a, **kw):
        snr = a[1] if name == "max_evm_for_loss" else a[0].snr_db
        if snr == 10.0:
            raise RuntimeError("injected failure")
        return real(*a, **kw)

    monkeypatch.setattr(binoisy.cli, name, flaky)
    code, out = run(tmp_path, command, *argv)
    assert code == 1
    good, bad = read_rows(out)
    assert good["converged"] == "true"
    assert bad["converged"] == "false"
    for column, value in bad.items():
        if column in keys:
            assert value == keys[column]
        elif column != "converged":
            assert value == "", column
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"binoisy: {command} ")
    assert "snr_db=10 " in err[0] and err[0].endswith(": injected failure")
    code, out = run(tmp_path, command, *argv, "--allow-partial", name="partial.csv")
    assert code == 0
    assert read_rows(out)[1]["converged"] == "false"


def test_evm_plan_reports_an_unconverged_rate_solve(tmp_path, capsys, monkeypatch):
    import dataclasses

    import binoisy.evm_planner

    real = binoisy.evm_planner.matched_mi

    def stalls_at_one_evm(cfg, *a, **kw):
        res = real(cfg, *a, **kw)
        if cfg.snr_db == 10.0 and cfg.evm_db == -30.0:
            return dataclasses.replace(res, converged=False)
        return res

    monkeypatch.setattr(binoisy.evm_planner, "matched_mi", stalls_at_one_evm)
    code, out = run(tmp_path, "evm-plan", "--constellation", "gaussian", "--snr", "5,10",
                    "--evm-lo", "-30", "--tol-db", "0.5")
    assert code == 1
    good, bad = read_rows(out)
    assert good["converged"] == "true" and good["max_evm_db"] != ""
    assert bad["converged"] == "false" and bad["max_evm_db"] == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("binoisy: evm-plan ") and "snr_db=10 " in err[0]
    assert err[0].endswith("did not converge at snr 10 dB, evm -30 dB")


def test_validate_columns_and_determinism(tmp_path):
    args = ("validate", "--M", "2", "--N", "2", "--constellation", "gaussian",
            "--evm", "-10", "--snr", "10", "--seed", "7", "--n-channels", "200")
    code, out = run(tmp_path, *args)
    assert code == 0
    row = read_rows(out)[0]
    assert row["decoder"] == "matched"
    assert float(row["abs_diff_bits"]) < 0.3
    assert float(row["mc_stderr_bits"]) > 0.0
    assert int(row["n_channels"]) == 200
    _, again = run(tmp_path, *args, name="again.csv")
    assert out.read_bytes() == again.read_bytes()


def test_validate_rejects_discrete_mismatched(tmp_path):
    code, _ = run(tmp_path, "validate", "--constellation", "qpsk",
                  "--decoder", "mismatched", "--snr", "10")
    assert code == 2


def _no_solve(monkeypatch):
    def called(*a, **kw):
        raise AssertionError("a point was solved")

    for name in ("matched_mi", "gmi", "make_constellation"):
        monkeypatch.setattr(binoisy.cli, name, called)


def test_validate_rejects_a_lattice_above_the_limit_before_solving(tmp_path, monkeypatch):
    _no_solve(monkeypatch)
    # qam16 at the default M=4 enumerates 16^4 = 65536 lattice points
    code, out = run(tmp_path, "validate", "--constellation", "qam16", "--snr", "10",
                    "--n-channels", "2")
    assert code == 2
    assert not out.exists()
    # qam64 at M=2 is exactly at the limit
    args = _build_parser(suppress_defaults=False).parse_args(
        ["validate", "--constellation", "qam64", "--M", "2", "--N", "2", "--snr", "10"])
    assert len(_validate_points(args)) == 1


@pytest.mark.parametrize("argv", [
    ("validate", "--constellation", "gaussian", "--snr", "10", "--seed", "-1"),
    ("validate", "--constellation", "gaussian", "--snr", "10", "--config", "{conf}"),
    ("rate-sweep", "--constellation", "gaussian", "--snr", "4000"),
    ("rate-sweep", "--mode", "both", "--constellation", "gaussian,qpsk", "--snr=-4000", "--evm=-10"),
], ids=["negative-seed", "negative-seed-from-config", "snr-overflow", "snr-underflow"])
def test_library_rules_are_usage_errors_before_solving(tmp_path, monkeypatch, argv):
    _no_solve(monkeypatch)
    conf = tmp_path / "seed.conf"
    conf.write_text("seed = -1\n")
    code, out = run(tmp_path, *(a.format(conf=conf) for a in argv))
    assert code == 2
    assert not out.exists()


def test_unwritable_output_is_a_usage_error_before_solving(tmp_path, capsys, monkeypatch):
    _no_solve(monkeypatch)
    out = tmp_path / "missing" / "out.csv"
    code = main(["rate-sweep", "--constellation", "qpsk", "--snr", "10", "-o", str(out)])
    assert code == 2
    assert not out.parent.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("binoisy: error: cannot write ")


def test_evm_plan_output(tmp_path):
    code, out = run(tmp_path, "evm-plan", "--loss", "0.05",
                    "--constellation", "gaussian", "--snr", "0:10:10",
                    "--evm-lo", "-40")
    assert code == 0
    rows = read_rows(out)
    assert [r["snr_db"] for r in rows] == ["0", "10"]
    for row in rows:
        assert float(row["max_evm_db"]) >= float(row["rule_of_thumb_db"])
    assert float(rows[0]["rule_of_thumb_db"]) == -13.0


def test_stdout_default_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code = main(["rate-sweep", "--mode", "matched", "--constellation",
                 "gaussian", "--snr", "5", "--evm", "-10"])
    assert code == 0
    captured = capsys.readouterr().out
    assert captured.startswith("mode,constellation")
    assert len(captured.splitlines()) == 2
