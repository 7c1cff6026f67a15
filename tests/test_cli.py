import json
import subprocess
import sys

import pytest

from ottospin.cli import main

BASE_CYCLE = ["cycle"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cycle_defaults_emit_json(capsys):
    code, out, _ = run_cli(BASE_CYCLE, capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["eta_otto"] == pytest.approx(0.444444, abs=1e-6)
    assert payload["regime"] == "EngineSuperOtto"
    assert payload["efficiency"] > payload["eta_otto"]
    assert set(payload) == {
        "nu_cold_hz", "nu_hot_hz", "tau_s", "steps", "p_cold_plus", "p_hot_plus",
        "xi", "work_h_hz", "q_hot_h_hz", "q_cold_h_hz", "efficiency", "eta_otto",
        "work_adiabatic_h_hz", "inner_friction_h_hz", "regime",
    }
    assert payload["work_h_hz"] < 0.0


def test_cycle_rejects_boundary_population(capsys):
    code, _, err = run_cli(["cycle", "--p-hot", "0.5"], capsys)
    assert code == 2
    assert "p-hot" in err


@pytest.mark.parametrize("flag, value", [("--nu-cold", "inf"), ("--nu-hot", "inf"),
                                         ("--tau", "inf"), ("--tau", "nan")])
def test_cycle_rejects_non_finite_inputs(flag, value, capsys):
    code, _, err = run_cli(["cycle", flag, value], capsys)
    assert code == 2
    assert flag[2:] in err


def test_cycle_rejects_csv_format(capsys):
    code, _, err = run_cli(["cycle", "--format", "csv"], capsys)
    assert code == 2
    assert "format" in err


def test_missing_sweep_kind_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])
    assert exc.value.code == 2


def test_unknown_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cycle", "--frequency", "42"])
    assert exc.value.code == 2


def test_low_steps_rejected_at_parse_time(capsys):
    code, _, err = run_cli(["cycle", "--steps", "50"], capsys)
    assert code == 2
    assert "steps" in err


def test_xi_tau_sweep_row_count(tmp_path, capsys):
    out_path = tmp_path / "xi.csv"
    code, _, err = run_cli(["sweep", "xi-tau", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "tau_s,steps,xi"
    assert len(lines) == 1 + 13
    assert "13 rows" in err


def test_region_sweep_columns(tmp_path, capsys):
    out_path = tmp_path / "region.csv"
    code, _, _ = run_cli(
        ["sweep", "region", "--out", str(out_path),
         "--p-hot-range", "0.6:0.9:4", "--xi-range", "0:0.5:3"],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "p_hot_plus,xi,regime,eta"
    assert len(lines) == 1 + 12


def test_eta_phot_schema(tmp_path, capsys):
    out_path = tmp_path / "eta.csv"
    code, _, _ = run_cli(
        ["sweep", "eta-phot", "--out", str(out_path),
         "--tau-list", "100e-6,200e-6", "--p-hot-range", "0.55:0.95:5"],
        capsys,
    )
    assert code == 0
    header = out_path.read_text().splitlines()[0].split(",")
    assert header == ["p_hot_plus", "xi_tau_0", "xi_tau_1", "eta_tau_0", "eta_tau_1",
                      "eta_otto", "regime_tau_0", "regime_tau_1"]


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        ["sweep", "xi-tau", "--tau-list", "100e-6,200e-6", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["tau_s", "steps", "xi"]
    assert len(payload["rows"]) == 2


def test_config_file_precedence(tmp_path, capsys):
    config = tmp_path / "engine.cfg"
    config.write_text("p-hot = 0.7\nnu_hot = 5000  # overrides the default\n")
    code, out, _ = run_cli(["cycle", "--config", str(config), "--p-hot", "0.9"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["p_hot_plus"] == 0.9  # flag beats config file
    assert payload["nu_hot_hz"] == 5000.0  # config file beats default


def test_config_file_unknown_key(tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text("volume = 11\n")
    code, _, err = run_cli(["cycle", "--config", str(config)], capsys)
    assert code == 2
    assert "volume" in err


def test_byte_identical_reruns(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    args = ["sweep", "eta-phot", "--tau-list", "150e-6", "--p-hot-range", "0.6:0.9:4"]
    assert run_cli(args + ["--out", str(first)], capsys)[0] == 0
    assert run_cli(args + ["--out", str(second)], capsys)[0] == 0
    assert first.read_bytes() == second.read_bytes()


def test_unwritable_output_path(capsys):
    code, _, err = run_cli(["sweep", "xi-tau", "--tau-list", "100e-6",
                            "--out", "/nonexistent-dir/x.csv"], capsys)
    assert code == 2
    assert "/nonexistent-dir/x.csv" in err


def test_verify_detects_broken_accuracy(capsys):
    code, out, _ = run_cli(["verify", "--steps", "10"], capsys)
    assert code == 1
    assert "FAIL" in out
    assert "drift" in out


def test_module_entry_point_runs():
    result = subprocess.run([sys.executable, "-m", "ottospin", "--version"],
                            capture_output=True, text=True)
    assert result.returncode == 0
    assert "ottospin" in result.stdout
