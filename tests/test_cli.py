import contextlib
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kgstab
import oracles
from kgstab import (ModelParams, build_profile, cli, sigma_closed, soliton,
                    spectral_report, spectrum, stability, tau_star)
from kgstab.cli import SCHEMAS, build_parser, main, render_json

_TAU11_M = math.sqrt(0.55)  # tau = 1.1: window splits into three intervals
_EVOLVE = ["evolve", "--a", "1", "--b", "1", "--m", "1", "--omega", "0.9",
           "--perturb", "none", "--out", os.devnull]
_SPECTRUM = ["spectrum", "--a", "1", "--b", "1", "--m", "1", "--omega", "0.9"]
# each input is rejected before any large grid is allocated
_BAD_INPUTS = [
    (_EVOLVE + ["--t-final", "1", "--dt", "0"], "cfl-error"),
    (_EVOLVE + ["--t-final", "1", "--dt", "-0.01"], "cfl-error"),
    (_EVOLVE + ["--t-final", "inf"], "domain-error"),
    (_EVOLVE + ["--t-final", "nan"], "domain-error"),
    (_EVOLVE + ["--t-final", "0"], "domain-error"),
    (_EVOLVE + ["--t-final", "1", "--sample", "0"], "domain-error"),
    (_SPECTRUM + ["--h", "0.2", "--L", "1", "--k", "50"], "domain-error"),
    (_SPECTRUM + ["--L", "nan"], "grid-error"),
    (_SPECTRUM + ["--L", "inf"], "grid-error"),
    # the step budget: 1e302 steps, and 1,000,001 at the default dt
    (_EVOLVE + ["--t-final", "1e300"], "domain-error"),
    (_EVOLVE + ["--t-final", "10000.01"], "domain-error"),
    # the node budget: about 2.8e7 nodes on x >= 0 at omega = m(1 - 1e-8)
    (["profile", "--a", "1", "--b", "1", "--m", "1", "--omega", "0.99999999"],
     "grid-error"),
    (_SPECTRUM[:-1] + ["0.99999999", "--h", "0.01"], "grid-error"),
    (_EVOLVE[:-5] + ["0.99999999", "--perturb", "none", "--t-final", "1",
                     "--dx", "0.01", "--out", os.devnull], "grid-error"),
    # a negative number in exponent form is a value, not an option
    (["sigma", "--a", "1", "--b", "1", "--m", "1", "--omega", "-1e-05"],
     "domain-error"),
    # a derived quantity leaving the float range: m^2 overflows (and 4 b^2
    # underflows), a^2 underflows, sigma's scale overflows to nan, tau
    # overflows, sigma overflows
    (["sweep", "--a", "8.394974948008668e+132",
      "--b", "1.808559337741882e-163", "--m", "1.4535076851165435e+267",
      "--n", "5", "--json"], "domain-error"),
    (["classify", "--a", "2.25938280964016e-282",
      "--b", "1.8514696446890474e-285", "--m", "7.038557714902578e+24",
      "--json", "--no-check"], "domain-error"),
    (["sweep", "--a", "1.5252458374853487e+102",
      "--b", "1.0497999790144707e-118", "--m", "3.534790557054179e+52",
      "--n", "5", "--json"], "domain-error"),
    (["classify", "--a", "9.990175780180579e+153",
      "--b", "7.438417518852891e+180", "--m", "2.7626921786345204e+64",
      "--json", "--no-check"], "domain-error"),
    (["sweep", "--a", "1.000162645918005e+50",
      "--b", "6.0350896144204805e-105", "--m", "6.261289151007875e+102",
      "--n", "5", "--json"], "domain-error"),
]


def _check_schema(obj, schema, path="payload"):
    """Minimal validator for the restricted schema dialect used here."""
    kinds = schema.get("type")
    if isinstance(kinds, str):
        kinds = [kinds]
    matchers = {
        "number": lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool),
        "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
        "string": lambda v: isinstance(v, str),
        "boolean": lambda v: isinstance(v, bool),
        "array": lambda v: isinstance(v, list),
        "object": lambda v: isinstance(v, dict),
        "null": lambda v: v is None,
    }
    assert any(matchers[k](obj) for k in kinds), \
        f"{path}: {obj!r} is not of type {kinds}"
    if isinstance(obj, dict):
        for key in schema.get("required", ()):
            assert key in obj, f"{path}: missing required key {key!r}"
        for key, sub in schema.get("properties", {}).items():
            if key in obj:
                _check_schema(obj[key], sub, f"{path}.{key}")
    if isinstance(obj, list) and "items" in schema:
        for i, item in enumerate(obj):
            _check_schema(item, schema["items"], f"{path}[{i}]")


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv, command):
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    envelope = json.loads(out)
    assert set(envelope) == {"schema_version", "command", "params", "payload",
                             "provenance"}
    assert envelope["schema_version"] == "1.0.0"
    assert envelope["command"] == command
    _check_schema(envelope["payload"], SCHEMAS[command])
    return envelope


def test_tau_star_json(capsys):
    envelope = _run_json(capsys, ["tau-star", "--json"], "tau-star")
    assert envelope["params"] is None
    assert envelope["payload"]["tau_star"] == tau_star().tau_star


def test_tau_star_plain(capsys):
    code, out, _ = _run(capsys, ["tau-star"])
    assert code == 0
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert 1.13 < float(values["tau_star"]) < 1.14
    assert 0.5 < float(values["alpha_d"]) < 0.95


def test_classify_json(capsys):
    argv = ["classify", "--a", "1", "--b", "1", "--m", "2", "--json"]
    envelope = _run_json(capsys, argv, "classify")
    payload = envelope["payload"]
    assert payload["tau"] == 8.0
    assert [iv["verdict"] for iv in payload["intervals"]] == ["stable"]


def test_classify_just_above_tau_one(capsys):
    # tau = 1 + 2^-52: a root one float below m drops the sliver it bounds
    # instead of refusing; the oracle then meets the known rule conflict
    # below the critical coupling (ROADMAP item 4), a refusal of its own
    argv = ["classify", "--a", "1", "--b", "0.5000000000000001", "--m", "1",
            "--json"]
    payload = _run_json(capsys, [*argv, "--no-check"], "classify")["payload"]
    assert [(iv["lo"], iv["hi"]) for iv in payload["intervals"]] \
        == [(payload["omega_window"]["omega_star"], 1.0)]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (4, "")
    assert err.startswith("kgstab: oracle-disagreement:")


def test_classify_output_deterministic(capsys):
    argv = ["classify", "--a", "1", "--b", "1", "--m", str(_TAU11_M),
            "--no-check", "--json"]
    _, out1, _ = _run(capsys, argv)
    _, out2, _ = _run(capsys, argv)
    first, second = json.loads(out1), json.loads(out2)
    # everything except the wall-time stamp must be bit-identical
    first["provenance"].pop("wall_time_s")
    second["provenance"].pop("wall_time_s")
    assert first == second


def test_classify_csv(capsys):
    argv = ["classify", "--a", "1", "--b", "1", "--m", str(_TAU11_M),
            "--no-check", "--csv"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lo,hi,verdict"
    verdicts = [line.split(",")[2] for line in lines[1:]]
    assert verdicts == ["stable", "unstable", "stable"]


def test_classify_text_lists_the_roots(capsys):
    argv = ["classify", "--a", "1", "--b", "1", "--m", "0.7416", "--no-check"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    report = stability.classify(ModelParams(1.0, 1.0, 0.7416))
    roots = [line for line in out.splitlines() if line.startswith("root:")]
    assert len(roots) == 2
    for line, omega, alpha in zip(roots, report.roots_omega,
                                  report.roots_alpha):
        assert line == (f"root: omega = {cli._format_float(omega)} "
                        f"(alpha = {cli._format_float(alpha)})")


def test_classify_json_and_csv_conflict(capsys):
    code, _, err = _run(capsys, ["classify", "--a", "1", "--b", "1",
                                 "--m", "2", "--json", "--csv"])
    assert code == 2
    assert err.startswith("kgstab: usage-error:")


def test_profile_json_round_trips_floats(capsys):
    argv = ["profile", "--a", "1", "--b", "1", "--m", "1",
            "--omega", "0.9", "--h", "0.05", "--json"]
    envelope = _run_json(capsys, argv, "profile")
    payload = envelope["payload"]
    prof = build_profile(ModelParams(1.0, 1.0, 1.0), 0.9, 0.05)
    assert payload["r"] == [float(v) for v in prof.values]
    assert payload["x"] == [float(v) for v in prof.x]
    assert payload["max_ode_residual"] == prof.max_ode_residual


def test_profile_csv_to_file(capsys, tmp_path):
    out_path = tmp_path / "profile.csv"
    argv = ["profile", "--a", "1", "--b", "1", "--m", "1", "--omega", "0.9",
            "--h", "0.05", "--out", str(out_path)]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert out == ""
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "x,R"
    x0, r0 = lines[1].split(",")
    assert float(x0) == 0.0
    assert float(r0) == pytest.approx(0.10629960629940943, rel=1e-15)


def test_parser_is_built_once_and_keeps_no_parsed_state(capsys, tmp_path,
                                                        monkeypatch):
    built = []

    def counted():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        profile = ["profile", "--a", "1", "--b", "1", "--m", "1",
                   "--omega", "0.9", "--h", "0.05"]
        out_path = tmp_path / "profile.csv"
        code, out, err = _run(capsys, profile + ["--out", str(out_path)])
        assert (code, out, err) == (0, "", "")
        written = out_path.read_text()
        # neither --out nor --json of an earlier call reaches a later one
        code, out, err = _run(capsys, profile)
        assert (code, out, err) == (0, written, "")
        json_out = _run(capsys, profile + ["--json"])[1]
        assert json_out.startswith("{")
        assert _run(capsys, profile) == (0, written, "")
        # a usage error leaves the parser as it was
        code, out, err = _run(capsys, ["profile", "--a", "1"])
        assert (code, out) == (2, "")
        assert err.startswith("kgstab: usage-error: ")
        assert _run(capsys, profile) == (0, written, "")
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_sigma_check_json(capsys):
    argv = ["sigma", "--a", "1", "--b", "1", "--m", "1", "--omega", "0.9",
            "--check", "--json"]
    envelope = _run_json(capsys, argv, "sigma")
    payload = envelope["payload"]
    assert payload["sigma_closed"] == sigma_closed(ModelParams(1, 1, 1), 0.9)
    assert payload["relative_gap"] < 1e-6
    assert "sigma_quadrature" in payload


def test_sigma_plain(capsys):
    code, out, _ = _run(capsys, ["sigma", "--a", "1", "--b", "1", "--m", "1",
                                 "--omega", "0.9"])
    assert code == 0
    assert out.startswith("sigma_closed = 0.065423789245030")


def test_spectrum_json_and_vectors(capsys, tmp_path):
    vec_path = tmp_path / "vectors.csv"
    argv = ["spectrum", "--a", "1", "--b", "1", "--m", "1", "--omega", "0.9",
            "--k", "3", "--json", "--vectors", str(vec_path)]
    envelope = _run_json(capsys, argv, "spectrum")
    payload = envelope["payload"]
    assert payload["negative_count_lplus"] == 1
    assert payload["negative_count_lminus"] == 0
    assert payload["lplus_kernel_match"] > 1.0 - 1e-8
    lines = vec_path.read_text().strip().splitlines()
    assert lines[0] == "x,lplus_0,lplus_1,lplus_2,lminus_0,lminus_1,lminus_2"
    assert len(lines) == len(payload["lplus_eigenvalues"]) * 0 \
        + 1 + (2 * round(payload["grid"]["half_length"] / 0.02) - 1)


def test_spectrum_rejects_small_k(capsys):
    code, _, err = _run(capsys, ["spectrum", "--a", "1", "--b", "1",
                                 "--m", "1", "--omega", "0.9", "--k", "1"])
    assert code == 3
    assert err.startswith("kgstab: domain-error:")


def test_evolve_envelope_and_csv(capsys, tmp_path):
    out_path = tmp_path / "diag.csv"
    argv = ["evolve", "--a", "1", "--b", "1", "--m", "1", "--omega", "0.9",
            "--perturb", "scale:0.01", "--t-final", "2.0",
            "--out", str(out_path)]
    code, out, err = _run(capsys, argv)
    assert code == 0, err
    envelope = json.loads(out)
    _check_schema(envelope["payload"], SCHEMAS["evolve"])
    assert envelope["payload"]["truncated"] is False
    assert envelope["provenance"]["grid"]["perturbation"] == "scale:0.01"
    lines = out_path.read_text().strip().splitlines()
    assert lines[0].startswith("time,energy,charge")
    assert len(lines) > 2


def test_sweep_csv_ordered(capsys):
    argv = ["sweep", "--a", "1", "--b", "1", "--m", "2", "--n", "7"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "omega,alpha,sigma,d2_sign"
    assert len(lines) == 8
    omegas = [float(line.split(",")[0]) for line in lines[1:]]
    assert omegas == sorted(omegas)
    assert all(line.split(",")[3] == "1" for line in lines[1:])
    # a second identical run must produce the identical bytes
    code, again, _ = _run(capsys, argv)
    assert code == 0
    assert again == out


def test_sweep_json(capsys):
    argv = ["sweep", "--a", "1", "--b", "1", "--m", "2", "--n", "3", "--json"]
    envelope = _run_json(capsys, argv, "sweep")
    assert len(envelope["payload"]["rows"]) == 3


def test_sweep_json_peak_memory(capsys):
    argv = ["sweep", "--a", "1", "--b", "1", "--m", "2", "--n", "20000",
            "--json"]
    main(argv)  # imports and caches filled outside the traced call
    capsys.readouterr()
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "")
    assert peak < 4 * len(out)


def test_sweep_writers_peak_at_twice_their_text():
    # the table is built, and each writer run once, before tracing: the
    # traced peak is the writer's alone
    n = 20000
    rows = np.rec.fromarrays(
        stability.sweep_columns(ModelParams(1.0, 1.0, 2.0), n),
        names=["omega", "alpha", "sigma", "d2_sign"])
    writers = [lambda: render_json({"n": n, "rows": rows}),
               lambda: cli._csv(rows.dtype.names, rows)]
    for write in writers:
        write()
        tracemalloc.start()
        try:
            text = write()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.2 * len(text)


def test_classify_csv_keeps_an_overflowed_tau(capsys):
    # tau = 2 m^2 b / a^2 overflows to inf, which still exceeds every k2:
    # the verdicts stand, though the JSON and text reports refuse tau
    model = ["--a", "9.990175780180579e+153", "--b", "7.438417518852891e+180",
             "--m", "2.7626921786345204e+64"]
    code, out, err = _run(capsys, ["classify", *model, "--csv", "--no-check"])
    assert (code, err) == (0, "")
    assert out == ("lo,hi,verdict\n"
                   "2.750523856406309e+64,2.7626921786345204e+64,stable\n")
    code, out, err = _run(capsys, ["classify", *model, "--no-check"])
    assert (code, out) == (3, "")
    assert err.startswith("kgstab: domain-error: tau = ")


def test_classify_refuses_an_overflowed_m_squared(capsys):
    # m^2 overflows, and with it the window edge sqrt(m^2 - a^2/(2b))
    code, out, err = _run(capsys, ["classify", "--a", "1", "--b", "1",
                                   "--m", "1e200"])
    assert (code, out) == (3, "")
    assert err == ("kgstab: domain-error: m^2 overflows at m=1e+200: the "
                   "window edge sqrt(m^2 - a^2/(2b)) has no float value\n")


_MODEL = ["--a", "1", "--b", "1", "--m", "1"]


@pytest.mark.parametrize("argv", [
    ["tau-star", "--json"],
    ["classify", *_MODEL, "--no-check", "--json"],
    ["profile", *_MODEL, "--omega", "0.9", "--h", "0.1", "--json"],
    ["sigma", *_MODEL, "--omega", "0.9", "--json"],
    ["spectrum", *_MODEL, "--omega", "0.9", "--h", "0.2", "--L", "5",
     "--json"],
    ["evolve", *_MODEL, "--omega", "0.9", "--perturb", "none",
     "--t-final", "0.1", "--dx", "0.1", "--dt", "0.05", "--out", os.devnull],
    ["sweep", *_MODEL, "--n", "2", "--json"],
], ids=lambda argv: argv[0])
def test_envelope_names_its_subcommand(capsys, argv):
    envelope = _run_json(capsys, argv, argv[0])
    assert envelope["params"] == (None if argv[0] == "tau-star"
                                  else {"a": 1.0, "b": 1.0, "m": 1.0})


@pytest.mark.parametrize("command", [
    [], ["tau-star"], ["classify"], ["profile"], ["sigma"], ["spectrum"],
    ["evolve"], ["sweep"]])
def test_help_exits_zero_with_usage_on_stdout(capsys, command):
    code, out, err = _run(capsys, [*command, "--help"])
    assert code == 0
    assert out.startswith(" ".join(["usage: kgstab", *command]))
    assert err == ""


def test_usage_error_on_missing_argument(capsys):
    code, _, err = _run(capsys, ["classify", "--a", "1", "--b", "1"])
    assert code == 2
    assert err.startswith("kgstab: usage-error:")
    assert len(err.strip().splitlines()) == 1


def test_usage_error_on_bad_perturbation(capsys):
    code, _, err = _run(capsys, ["evolve", "--a", "1", "--b", "1", "--m", "1",
                                 "--omega", "0.9", "--perturb", "wiggle:1",
                                 "--t-final", "1.0", "--out", "/tmp/x.csv"])
    assert code == 2
    assert err.startswith("kgstab: usage-error:")


def test_domain_error_exit_code(capsys):
    code, _, err = _run(capsys, ["sigma", "--a", "1", "--b", "1", "--m", "1",
                                 "--omega", "1.5"])
    assert code == 3
    assert err.startswith("kgstab: domain-error:")
    assert len(err.strip().splitlines()) == 1


def test_grid_error_exit_code(capsys):
    code, _, err = _run(capsys, ["profile", "--a", "1", "--b", "1",
                                 "--m", "1", "--omega", "0.9",
                                 "--tail", "2.0"])
    assert code == 3
    assert err.startswith("kgstab: grid-error:")


def test_cfl_error_exit_code(capsys, tmp_path):
    argv = ["evolve", "--a", "1", "--b", "1", "--m", "1", "--omega", "0.9",
            "--perturb", "none", "--t-final", "1.0", "--dx", "0.02",
            "--dt", "0.02", "--out", str(tmp_path / "d.csv")]
    code, _, err = _run(capsys, argv)
    assert code == 3
    assert err.startswith("kgstab: cfl-error:")


def test_oracle_disagreement_exit_code(capsys):
    # tau < 1: the closed-form sign disagrees with the finite-difference
    # oracle, and the default cross-check refuses to classify
    argv = ["classify", "--a", "1", "--b", "1", "--m", "0.7"]
    code, _, err = _run(capsys, argv)
    assert code == 4
    assert err.startswith("kgstab: oracle-disagreement:")
    assert len(err.strip().splitlines()) == 1


def test_no_check_skips_oracle(capsys):
    argv = ["classify", "--a", "1", "--b", "1", "--m", "0.7", "--no-check"]
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert err == ""
    assert "unstable" in out


def test_blow_up_exit_code(capsys, tmp_path):
    out_path = tmp_path / "blow.csv"
    argv = ["evolve", "--a", "1", "--b", "1", "--m", "1", "--omega", "0.9",
            "--perturb", "bump:-200", "--t-final", "1.0",
            "--out", str(out_path)]
    code, out, err = _run(capsys, argv)
    assert code == 5
    assert err.startswith("kgstab: blow-up:")
    envelope = json.loads(out)
    assert envelope["payload"]["truncated"] is True
    assert out_path.exists()


@pytest.mark.parametrize("argv, path_flag", [
    (["sweep", "--a", "1", "--b", "1", "--m", "2", "--n", "5"], "--out"),
    (["profile", "--a", "1", "--b", "1", "--m", "1", "--omega", "0.9",
      "--h", "0.05"], "--out"),
    (_SPECTRUM + ["--h", "0.1", "--k", "2"], "--vectors"),
    (_EVOLVE[:-2] + ["--t-final", "0.1", "--dx", "0.1", "--dt", "0.05"],
     "--out"),
])
def test_unwritable_output_path_exit_code(capsys, tmp_path, argv, path_flag):
    missing = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, argv + [path_flag, str(missing)])
    assert (code, out) == (2, "")
    assert err.startswith("kgstab: io-error: ")
    assert str(missing) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv, computes", [
    (["sweep", "--a", "1", "--b", "1", "--m", "0.7416", "--n", "1000000"],
     (stability, "sweep_columns")),
    (_EVOLVE[:-2] + ["--t-final", "100"], (cli.evolve_mod, "run")),
])
@pytest.mark.parametrize("bad", ["missing dir", "directory", "file parent"])
def test_unwritable_output_refused_before_computing(capsys, tmp_path,
                                                    monkeypatch, argv,
                                                    computes, bad):
    # the path is refused with open's own message before any work starts
    calls = []
    monkeypatch.setattr(*computes, lambda *args, **kwargs: calls.append(1))
    (tmp_path / "file").touch()
    path = {"missing dir": tmp_path / "missing" / "x.csv",
            "directory": tmp_path,
            "file parent": tmp_path / "file" / "x.csv"}[bad]
    code, out, err = _run(capsys, argv + ["--out", str(path)])
    assert (code, out, calls) == (2, "", [])
    try:
        open(path, "w").close()
    except OSError as exc:
        assert err == f"kgstab: io-error: {exc}\n"
    else:
        pytest.fail(f"{path} is writable")
    assert sorted(tmp_path.iterdir()) == [tmp_path / "file"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_device_exit_code(capsys):
    # /dev/full passes the early check, and the write itself fails
    code, out, err = _run(capsys, ["sweep", "--a", "1", "--b", "1", "--m",
                                   "2", "--n", "5", "--out", "/dev/full"])
    assert (code, out) == (2, "")
    assert err == "kgstab: io-error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("exists", [True, False])
def test_access_refusal_exit_code(capsys, tmp_path, monkeypatch, exists):
    # os.access refuses the file, or the directory of a new one: exit 2 with
    # open's message for EACCES, before the sweep is computed
    calls = []
    monkeypatch.setattr(stability, "sweep_columns",
                        lambda *args, **kwargs: calls.append(1))
    monkeypatch.setattr(cli.os, "access", lambda *args, **kwargs: False)
    path = tmp_path / "x.csv"
    if exists:
        path.touch()
    code, out, err = _run(capsys, ["sweep", "--a", "1", "--b", "1", "--m",
                                   "2", "--n", "5", "--out", str(path)])
    assert (code, out, calls) == (2, "", [])
    assert err == ("kgstab: io-error: [Errno 13] Permission denied: "
                   f"{str(path)!r}\n")
    assert path.exists() is exists


@pytest.mark.parametrize("exists", [True, False])
def test_read_only_filesystem_exit_code(capsys, tmp_path, monkeypatch,
                                        exists):
    # os.access refuses a path on a read-only filesystem: exit 2 with open's
    # message for EROFS, before the sweep is computed
    calls, asked = [], []
    monkeypatch.setattr(stability, "sweep_columns",
                        lambda *args, **kwargs: calls.append(1))
    monkeypatch.setattr(cli.os, "access", lambda *args, **kwargs: False)

    def statvfs(path):
        asked.append(path)
        return os.statvfs_result((4096,) * 8 + (os.ST_RDONLY, 255))

    monkeypatch.setattr(cli.os, "statvfs", statvfs)
    path = tmp_path / "x.csv"
    if exists:
        path.touch()
    code, out, err = _run(capsys, ["sweep", "--a", "1", "--b", "1", "--m",
                                   "2", "--n", "5", "--out", str(path)])
    assert (code, out, calls) == (2, "", [])
    assert err == ("kgstab: io-error: [Errno 30] Read-only file system: "
                   f"{str(path)!r}\n")
    assert asked == [str(path) if exists else str(tmp_path)]
    assert path.exists() is exists


def test_render_json_rejects_unknown_types():
    with pytest.raises(TypeError):
        render_json(object())
    with pytest.raises(ValueError):
        render_json(float("nan"))
    with pytest.raises(TypeError):
        render_json({"a": [1.0, np.zeros(2)]})
    with pytest.raises(ValueError):
        render_json([{"a": (1.0, float("-inf"))}])
    with pytest.raises(TypeError):
        render_json({"rows": np.rec.fromarrays([np.zeros(2)], names="s",
                                               formats="U4")})
    with pytest.raises(ValueError):
        render_json({"rows": np.rec.fromarrays([[1.0, math.nan]],
                                               names="x")})


_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.floats(allow_nan=False, allow_infinity=False)
                 | st.text())
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=4)),
    max_leaves=30)


@settings(max_examples=200)
@given(obj=_JSON_VALUES)
def test_render_json_equals_the_recursive_renderer(obj):
    assert render_json(obj) == oracles.recursive_render_json(obj)


@settings(max_examples=40)
@given(values=st.lists(st.tuples(
           st.floats(allow_nan=False, allow_infinity=False),
           st.integers(-2**63, 2**63 - 1)), max_size=20),
       depth=st.integers(0, 3))
def test_records_render_as_their_rows(values, depth):
    # a structured array renders as the list of its records' objects, in
    # JSON at any depth and in CSV
    floats, ints = zip(*values) if values else ((), ())
    records = np.rec.fromarrays([np.array(floats, dtype=float),
                                 np.array(ints, dtype=np.int64)],
                                names="x,%d")
    rows = [dict(zip(records.dtype.names, row)) for row in records.tolist()]
    nested_records, nested_rows = records, rows
    for _ in range(depth):
        nested_records = {"k": [nested_records]}
        nested_rows = {"k": [nested_rows]}
    assert render_json(nested_records) \
        == oracles.recursive_render_json(nested_rows)
    header = records.dtype.names
    assert cli._csv(header, records) == cli._csv(header, records.tolist())


@pytest.mark.parametrize("n", [0, 1, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS,
                               cli._CHUNK_ROWS + 1, 2 * cli._CHUNK_ROWS + 1])
def test_records_render_across_chunk_boundaries(n):
    rng = np.random.default_rng(n)
    records = np.rec.fromarrays(
        [rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
         rng.integers(-2**63, 2**63 - 1, n, dtype=np.int64)], names="x,k")
    rows = [dict(zip(records.dtype.names, row)) for row in records.tolist()]
    assert render_json(records) == oracles.recursive_render_json(rows)
    nested = {"k": [{"k": [records]}]}
    assert render_json(nested) \
        == oracles.recursive_render_json({"k": [{"k": [rows]}]})
    header = records.dtype.names
    assert cli._csv(header, records) == cli._csv(header, records.tolist())


def test_render_json_formatting():
    text = render_json({"a": [1.5, None, True], "b": "x\"y"})
    assert json.loads(text) == {"a": [1.5, None, True], "b": 'x"y'}
    assert render_json(0.1) == "0.10000000000000001"
    # quote, backslash and C0 controls are escaped; DEL and non-ASCII are not
    raw = 'a"b\\c\nd\x01e\x1ff\x7fg\u00e9'
    assert render_json(raw) == '"a\\"b\\\\c\\u000ad\\u0001e\\u001ff\x7fg\u00e9"'
    assert json.loads(render_json(raw)) == raw


def _required_lists(schema, path):
    """Every ``required`` list in ``schema``, keyed by its property path."""
    found = {path: schema["required"]} if "required" in schema else {}
    for key, sub in schema.get("properties", {}).items():
        found.update(_required_lists(sub, f"{path}.{key}"))
    if "items" in schema:
        found.update(_required_lists(schema["items"], f"{path}[]"))
    return found


def test_schema_required_keys():
    found = {}
    for command, schema in SCHEMAS.items():
        found.update(_required_lists(schema, command))
    assert found == {
        "tau-star": ["tau_star", "alpha_d"],
        "classify": ["params", "tau", "tau_star", "omega_window",
                     "roots_alpha", "roots_omega", "intervals"],
        "classify.params": ["a", "b", "m"],
        "classify.omega_window": ["omega_star", "m"],
        "classify.intervals[]": ["lo", "hi", "verdict"],
        "profile": ["omega", "half_length", "step", "max_ode_residual",
                    "x", "r"],
        "sigma": ["omega", "alpha", "sigma_closed"],
        "spectrum": ["omega", "grid", "lplus_eigenvalues",
                     "lminus_eigenvalues", "lplus_kernel_match",
                     "lminus_kernel_match", "negative_count_lplus",
                     "negative_count_lminus"],
        "spectrum.grid": ["half_length", "step"],
        "evolve": ["t_final", "relative_energy_drift",
                   "relative_charge_drift", "initial_distance",
                   "max_distance", "distance_ratio", "first_crossing_100x",
                   "max_sup_amplitude", "truncated", "truncation_time",
                   "tail_first_exceed"],
        "sweep": ["n", "rows"],
        "sweep.rows[]": ["omega", "alpha", "sigma", "d2_sign"],
    }


@pytest.mark.parametrize("argv, tag", _BAD_INPUTS)
def test_bad_input_exit_code(capsys, argv, tag):
    code, out, err = _run(capsys, argv)
    assert code == 3
    assert out == ""
    assert err.startswith(f"kgstab: {tag}: ")
    assert len(err.splitlines()) == 1


def test_entry_point_exit_codes():
    # a fresh interpreter shows what in-process calls cannot: an uncaught
    # exception would end in a traceback
    src = Path(kgstab.__file__).resolve().parent.parent
    cases = [(["tau-star"], 0), (_BAD_INPUTS[0][0], 3), (_BAD_INPUTS[8][0], 3),
             (_BAD_INPUTS[13][0], 3)]
    for argv, expected in cases:
        result = subprocess.run(
            [sys.executable, "-m", "kgstab.cli", *argv], capture_output=True,
            text=True, env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == expected, result.stderr
        assert "Traceback" not in result.stderr


def test_spectrum_at_large_c_exits_instead_of_hanging():
    # c = 1.75e6, about 430 nodes: eigenvalues near 1e6, whose float spacing
    # exceeds the 1e-10 bisection width; the eigensolver used to bisect two
    # neighbouring floats forever
    src = Path(kgstab.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src),
                                         os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "kgstab.cli", "spectrum", "--a", "2000",
         "--b", "1", "--m", "2000", "--omega", "1500", "--h", "7e-5",
         "--json"], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 1
    assert result.stdout == ""
    assert result.stderr.startswith("kgstab: eigensolver-error: ")


def _module_entry(argv, fresh, capsys, monkeypatch):
    """(exit code, stdout, stderr) of ``python -m kgstab.cli ARGV``: in a
    fresh interpreter, or through runpy in this one, where a statement trace
    of the suite sees the module's ``__main__`` block run."""
    if fresh:
        src = Path(kgstab.__file__).resolve().parent.parent
        path = os.pathsep.join(filter(None, [str(src),
                                             os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-m", "kgstab.cli", *argv], capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": path})
        return result.returncode, result.stdout, result.stderr
    # runpy warns of a module it runs that is already imported
    monkeypatch.delitem(sys.modules, "kgstab.cli", raising=False)
    monkeypatch.setattr(sys, "argv", ["kgstab", *argv])
    with pytest.raises(SystemExit) as exit_info:
        runpy.run_module("kgstab.cli", run_name="__main__")
    captured = capsys.readouterr()
    return exit_info.value.code, captured.out, captured.err


@pytest.mark.parametrize("fresh", [True, False])
def test_module_entry_exit_codes_and_output(capsys, monkeypatch, fresh):
    code, out, err = _module_entry(["tau-star"], fresh, capsys, monkeypatch)
    assert (code, err) == (0, "")
    assert out.startswith("tau_star = ")
    code, out, err = _module_entry(["spectrum"], fresh, capsys, monkeypatch)
    assert (code, out) == (2, "")
    assert err.startswith("kgstab: usage-error: ")
    assert len(err.splitlines()) == 1


def test_tolerances_in_provenance_are_the_library_defaults(capsys):
    envelope = _run_json(capsys, ["tau-star", "--json"], "tau-star")
    assert envelope["provenance"]["tolerances"] == {
        "tol_alpha": stability.ALPHA_TOL}
    argv = ["classify", "--a", "1", "--b", "1", "--m", "2", "--no-check",
            "--json"]
    envelope = _run_json(capsys, argv, "classify")
    assert envelope["provenance"]["tolerances"] == {
        "alpha_tol": stability.ALPHA_TOL, "sign_tol": stability.SIGN_TOL}
    argv = _SPECTRUM + ["--h", "0.1", "--k", "2", "--json"]
    envelope = _run_json(capsys, argv, "spectrum")
    assert envelope["provenance"]["tolerances"] == {
        "eigenvalue_tol": spectrum.EIGENVALUE_TOL,
        "kernel_band": spectrum.kernel_band(ModelParams(1, 1, 1), 0.9, 0.1)}


def test_sigma_check_gap_exit_code(capsys, monkeypatch):
    closed = sigma_closed(ModelParams(1, 1, 1), 0.9)
    monkeypatch.setattr(soliton, "charge", lambda prof: 1.01 * closed)
    code, out, err = _run(capsys, ["sigma", "--a", "1", "--b", "1", "--m",
                                   "1", "--omega", "0.9", "--check"])
    assert code == 4
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    assert list(values) == ["sigma_closed", "sigma_quadrature",
                            "relative_gap"]
    assert float(values["sigma_quadrature"]) == 1.01 * closed
    assert float(values["relative_gap"]) == pytest.approx(0.01)
    assert err == ("kgstab: oracle-disagreement: sigma quadrature gap "
                   "1.000e-02 exceeds 1e-06\n")


def test_spectrum_plain(capsys):
    code, out, err = _run(capsys, _SPECTRUM + ["--h", "0.05"])
    assert code == 0, err
    values = dict(line.split(" = ") for line in out.strip().splitlines())
    report = spectral_report(ModelParams(1, 1, 1), 0.9, 0.05)
    assert float(values["omega"]) == 0.9
    for kind in ("lplus", "lminus"):
        listed = [float(v) for v in values[f"{kind}_eigenvalues"].split()]
        assert listed == list(getattr(report, f"{kind}_eigenvalues"))
        assert int(values[f"negative_count_{kind}"]) \
            == getattr(report, f"negative_count_{kind}")
        assert float(values[f"{kind}_kernel_match"]) \
            == getattr(report, f"{kind}_kernel_match")


def test_eigensolver_failure_exit_code(capsys, monkeypatch):
    # a solve that always overflows: every refinement stalls
    monkeypatch.setattr(spectrum._kernels, "tridiag_solve",
                        lambda diag, off, rhs: np.full(rhs.shape, np.inf))
    code, out, err = _run(capsys, _SPECTRUM + ["--h", "0.2", "--L", "5"])
    assert code == 1
    assert out == ""
    assert err.startswith("kgstab: eigensolver-error: ")
    assert len(err.splitlines()) == 1


def test_sweep_rejects_empty_grid(capsys):
    code, out, err = _run(capsys, ["sweep", "--a", "1", "--b", "1", "--m",
                                   "2", "--n", "0"])
    assert code == 3
    assert out == ""
    assert err.startswith("kgstab: domain-error: ")


def test_sweep_row_budget(capsys, monkeypatch):
    argv = ["sweep", "--a", "1", "--b", "1", "--m", "2", "--json", "--n"]
    tracemalloc.start()
    try:
        code, out, err = _run(capsys, argv + [str(stability.MAX_ROWS + 1)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # refused before any row is built
    assert (code, out) == (3, "")
    assert err.startswith("kgstab: domain-error: ")
    assert len(err.splitlines()) == 1
    # the budget counts rows: exactly at it is accepted
    monkeypatch.setattr(stability, "MAX_ROWS", 5)
    assert len(_run_json(capsys, argv + ["5"], "sweep")["payload"]["rows"]) \
        == 5
    code, out, err = _run(capsys, argv + ["6"])
    assert (code, out) == (3, "")
    assert err.startswith("kgstab: domain-error: ")


@pytest.mark.parametrize("perturbation", ["scale:1e300", "bump:1e200",
                                          "scale:-1"])
def test_degenerate_initial_data_exit_code(capsys, tmp_path, perturbation):
    # overflowing data must not add NumPy warnings to the tagged line
    out_path = tmp_path / "diag.csv"
    argv = _EVOLVE[:-3] + [perturbation, "--t-final", "0.1",
                           "--out", str(out_path)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, argv)
    assert code == 3
    assert out == ""
    kind = perturbation.partition(":")[0]
    assert err.startswith(f"kgstab: domain-error: perturbation '{kind}:")
    assert len(err.splitlines()) == 1
    assert not out_path.exists()


@settings(max_examples=40)
@given(kind=st.sampled_from(["scale", "bump"]),
       magnitude=st.floats(0.0, 1e300), sign=st.sampled_from([1.0, -1.0]))
def test_evolve_exit_codes_and_payloads(kind, magnitude, sign):
    argv = ["evolve", "--a", "1", "--b", "1", "--m", "1", "--omega", "0.9",
            "--perturb", f"{kind}:{sign * magnitude!r}", "--t-final", "0.2",
            "--dx", "0.1", "--dt", "0.05", "--out", os.devnull]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 3, 5), err.getvalue()
    if code in (0, 5):
        _check_schema(json.loads(out.getvalue())["payload"], SCHEMAS["evolve"])


# Property tests over the model inputs: a, b, m in [0.5, 2]; omega as a
# fraction of the window (omega_star, m), below 0 and above 1 leaving it; the
# grid step h as a multiple of 0.1/sqrt(|m^2 - omega^2|), the decay length
# over ten, so a grid holds a few hundred to a few thousand nodes.
_COEFFICIENT = st.floats(0.5, 2.0)
_FRACTION = st.floats(-0.25, 1.25)
_STEP_MULTIPLE = st.floats(0.2, 1.5)
_TAG_CODES = {tag: code for tag, code in cli._ERRORS.values()}


def _model_argv(a, b, m, fraction, multiple):
    window = ModelParams(a, b, m).window
    omega = window.omega_star + fraction * window.width
    decay = math.sqrt(abs(m * m - omega * omega)) or 1.0
    # "--omega=-1e-05" form: argparse reads "-1e-05" alone as an option
    model = [f"--a={a!r}", f"--b={b!r}", f"--m={m!r}", f"--omega={omega!r}"]
    return model, [f"--h={multiple * 0.1 / decay!r}"]


def _check_outcome(argv, command):
    """Exit 0 with a schema-valid payload and a clean stderr, or exit 1, 3
    or 4 with one tagged stderr line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
        _check_schema(json.loads(out.getvalue())["payload"], SCHEMAS[command])
        return
    assert code in (1, 3, 4), err.getvalue()
    assert len(lines) == 1, err.getvalue()
    prefix, tag, reason = lines[0].split(": ", 2)
    assert prefix == "kgstab" and _TAG_CODES[tag] == code and reason


_PROPERTY = settings(max_examples=40)


@_PROPERTY
@given(a=_COEFFICIENT, b=_COEFFICIENT, m=_COEFFICIENT, fraction=_FRACTION,
       multiple=_STEP_MULTIPLE)
def test_profile_outcomes(a, b, m, fraction, multiple):
    model, step = _model_argv(a, b, m, fraction, multiple)
    _check_outcome(["profile", *model, *step, "--json"], "profile")


@_PROPERTY
@given(a=_COEFFICIENT, b=_COEFFICIENT, m=_COEFFICIENT, fraction=_FRACTION)
def test_sigma_check_outcomes(a, b, m, fraction):
    model, _ = _model_argv(a, b, m, fraction, 1.0)
    _check_outcome(["sigma", *model, "--check", "--json"], "sigma")


@_PROPERTY
@given(a=_COEFFICIENT, b=_COEFFICIENT, m=_COEFFICIENT, fraction=_FRACTION,
       multiple=_STEP_MULTIPLE, k=st.integers(0, 6))
def test_spectrum_outcomes(a, b, m, fraction, multiple, k):
    model, step = _model_argv(a, b, m, fraction, multiple)
    _check_outcome(["spectrum", *model, *step, "--k", str(k), "--json"],
                   "spectrum")


@_PROPERTY
@given(a=_COEFFICIENT, b=_COEFFICIENT, m=_COEFFICIENT)
def test_classify_no_check_outcomes(a, b, m):
    argv = ["classify", f"--a={a!r}", f"--b={b!r}", f"--m={m!r}",
            "--no-check", "--json"]
    _check_outcome(argv, "classify")
