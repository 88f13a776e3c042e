import hashlib
import itertools
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lattice_akns import al, cli, dnls
from lattice_akns.cli import _STATE_HEADER, _write_states, main, write_csv


def run(args):
    return main([str(a) for a in args])


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"family": "type1", "bogus": 1}}))
    code = run(["soliton", "--config", cfg, "--out", tmp_path / "out"])
    assert code == 2


def test_unknown_top_level_key_is_usage_error(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mystery": True, "params": {"family": "type1"}}))
    assert run(["soliton", "--config", cfg, "--out", tmp_path / "out"]) == 2


def test_soliton_periodicity_violation(tmp_path):
    out = tmp_path / "out"
    code = run(
        [
            "soliton",
            "--model",
            "dnls",
            "--family",
            "type1",
            "--sites",
            12,
            "--periodic",
            "--xi-re",
            "1.3",
            "--xi-im",
            "0.2",
            "--out",
            out,
        ]
    )
    assert code == 1
    report = json.loads((out / "failure-report.json").read_text())
    assert report["error"] == "PeriodicityViolation"


def test_soliton_root_of_unity_succeeds(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"family": "type1", "xi_root_of_unity": 1, "periodic": True, "sites": 12}}))
    out = tmp_path / "out"
    assert run(["soliton", "--config", cfg, "--out", out]) == 0
    state = json.loads((out / "state.json").read_text())
    assert state["config"]["params"]["xi_root_of_unity"] == 1
    assert state["sites"] == 12
    csv = (out / "state.csv").read_text().splitlines()
    assert csv[0] == "t,site,field,row,col,re,im"
    assert len(csv) == 1 + 2 * 12


def test_glm_symmetric_single_mode(tmp_path):
    out = tmp_path / "glm"
    assert run(["glm", "--scheme", "symmetric", "--modes", 1, "--out", out]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["factorization_residual"] < 1e-10
    assert report["closed_form_delta"] < 1e-10
    lines = (out / "glm_solution.csv").read_text().splitlines()
    assert lines[0] == "i,j,b_re,b_im,c_re,c_im"


def test_glm_output_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["glm", "--modes", 2, "--seed", 7, "--out", out]) == 0
    assert (out1 / "glm_solution.csv").read_bytes() == (out2 / "glm_solution.csv").read_bytes()


def test_evolve_and_charges_commands(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "params": {
                    "initial": {"family": "type1", "xi_root_of_unity": 1, "sites": 12},
                    "alpha": 1,
                    "dt": 1e-3,
                    "steps": 50,
                }
            }
        )
    )
    out = tmp_path / "evolve"
    assert run(["evolve", "--config", cfg, "--out", out]) == 0
    assert (out / "trajectory.csv").exists()
    final = json.loads((out / "final_state.json").read_text())
    assert final["t"] == pytest.approx(0.05)

    out2 = tmp_path / "charges"
    assert run(["charges", "--config", cfg, "--out", out2]) == 0
    rep = json.loads((out2 / "report.json").read_text())
    assert rep["h_drift"] < 1e-8
    assert rep["trace_drift_rel"] < 1e-8
    header = (out2 / "charges.csv").read_text().splitlines()[0]
    assert header.startswith("t,h1_re,h1_im")


def test_burgers_command(tmp_path):
    out = tmp_path / "burgers"
    assert run(["burgers", "--delta", "0.05", "--out", out]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert 6.0 <= rep["truncation"]["ratio_squared_difference"] <= 10.0
    assert rep["exact_residuals"]["slope"] < 1e-10


def test_burgers_delta_flag_reaches_the_report(tmp_path):
    out = tmp_path / "burgers"
    assert run(["burgers", "--delta", "0.1", "--out", out]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert rep["truncation"]["delta"] == 0.1
    assert rep["config"]["params"]["delta"] == 0.1


def test_continuum_command(tmp_path):
    out = tmp_path / "continuum"
    assert run(["continuum", "--out", out]) == 0
    rep = json.loads((out / "report.json").read_text())
    assert 3.5 <= rep["ratio_u"] <= 4.5


def test_al_soliton_command(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "al", "params": {"family": "oscillator", "sites": 16}}))
    out = tmp_path / "al"
    assert run(["soliton", "--config", cfg, "--out", out]) == 0
    state = json.loads((out / "state.json").read_text())
    assert state["model"] == "al"


def test_verify_all_command(tmp_path, capsys):
    out = tmp_path / "verify"
    assert run(["verify-all", "--out", out]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 12
    assert all(line.startswith("PASS") for line in lines)
    rep = json.loads((out / "report.json").read_text())
    assert all(s["passed"] for s in rep["suites"])


def test_nested_initial_block_is_validated(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"params": {"initial": {"family": "type1", "junk": 1}, "steps": 5}})
    )
    assert run(["evolve", "--config", cfg, "--out", tmp_path / "out"]) == 2


def test_charges_report_keeps_nan_trace_drift(tmp_path, monkeypatch):
    from lattice_akns import conserved

    traces = conserved.transfer_traces
    last = complex(-0.7, 0.3)

    def nan_at_last(states, lams):
        out = traces(states, lams)
        out[:, [complex(lam) == last for lam in lams]] = complex("nan")
        return out

    monkeypatch.setattr(conserved, "transfer_traces", nan_at_last)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"params": {"initial": {"family": "type1", "xi_root_of_unity": 1, "sites": 12}, "steps": 5}}
        )
    )
    out = tmp_path / "charges"
    assert run(["charges", "--config", cfg, "--out", out]) == 1
    rep = json.loads((out / "report.json").read_text())
    assert math.isnan(rep["trace_drift_rel"])
    assert math.isfinite(rep["h_drift"])


_SOLITON = {"family": "type1", "xi_root_of_unity": 1, "sites": 12}


@pytest.mark.parametrize(
    "command,config",
    [
        ("evolve", {"params": {"initial": _SOLITON, "dt": 0}}),
        ("evolve", {"params": {"initial": _SOLITON, "dt": -1e-3}}),
        ("evolve", {"params": {"initial": _SOLITON, "steps": -1}}),
        ("evolve", {"model": "al", "params": {"initial": _SOLITON}}),
        ("evolve", {"params": {"initial": {"family": "oscillator"}}}),
        ("evolve", {"model": "al", "params": {"initial": {"family": "oscillator"}, "variant": "bogus"}}),
        ("charges", {"model": "al", "params": {"initial": {"family": "oscillator"}}}),
        ("charges", {"params": {"initial": _SOLITON, "dt": 0}}),
        ("glm", {"params": {"scheme": "bogus"}}),
        ("glm", {"params": {"window": -3}}),
        ("glm", {"params": {"window": 0}}),
        ("soliton", {"params": {"family": "type1", "sites": 0}}),
        ("soliton", {"model": "al", "params": {"family": "oscillator", "sites": 0}}),
        ("evolve", {"params": {"initial": {**_SOLITON, "sites": 0}}}),
        ("evolve", {"params": {"initial": _SOLITON, "save_every": 0}}),
        ("evolve", {"params": {"initial": _SOLITON, "save_every": -2}}),
        ("charges", {"params": {"initial": _SOLITON, "save_every": 0}}),
        ("soliton", {"params": {"family": "type1", "sites": True}}),
        ("soliton", {"params": {"family": "type1", "t": True}}),
        ("evolve", {"params": {"initial": _SOLITON, "steps": False}}),
        ("soliton", {"params": {"family": "type1", "kappa": [True, 0]}}),
        # the removed quick mode
        ("verify-all", {"params": {"quick": True}}),
        # a key of another family
        ("soliton", {"params": {"family": "type1", "c": 5}}),
        ("glm", {"params": {"modes": []}}),
    ],
)
def test_bad_run_config_is_usage_error(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "config error:" in capsys.readouterr().err


_NO_TODA_MODES = {"family": "toda", "modes": []}


@pytest.mark.parametrize(
    "command,config",
    [
        ("soliton", {"params": _NO_TODA_MODES}),
        ("evolve", {"params": {"initial": _NO_TODA_MODES}}),
        ("charges", {"params": {"initial": _NO_TODA_MODES}}),
    ],
)
def test_empty_toda_modes_is_one_line_usage_error(tmp_path, capsys, command, config):
    # an empty mode list used to reach the constructor and exit 1 as a SingularSoliton
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "dnls", **config}))
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "config error:" in err[0] and err[0].endswith(".modes: expected at least one mode")


@pytest.mark.parametrize("command", ["evolve", "charges"])
@pytest.mark.parametrize("alpha", [3, 4])
def test_flow_without_equations_of_motion_is_one_line_usage_error(tmp_path, capsys, command, alpha):
    # it used to reach the integrator and exit 1 with FlowUnsupported
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "dnls", "params": {"initial": _SOLITON, "alpha": alpha}}))
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "config error:" in err[0] and err[0].endswith(".alpha: expected 1 or 2")


@pytest.mark.parametrize("args", [["soliton", "--sites", 0], ["glm", "--window", 0], ["glm", "--modes", 0]])
def test_flags_set_to_zero_are_usage_errors(tmp_path, capsys, args):
    # a zero flag is checked like the same zero in a config file, not dropped
    assert run([*args, "--out", tmp_path / "out"]) == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, flag",
    [(["burgers", "--t", "1000"], "--t"), (["glm", "--win", "14"], "--win")],
)
def test_abbreviated_flags_are_usage_errors(tmp_path, capsys, args, flag):
    # argparse would read --t as --tolerance-scale and --win as --window
    with pytest.raises(SystemExit) as exc:
        run([*args, "--out", tmp_path / "out"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_full_flag_names_still_parse(tmp_path):
    out = tmp_path / "burgers"
    assert run(["burgers", "--tolerance-scale", "1000", "--delta", "0.1", "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["tolerance_scale"] == 1000.0
    out = tmp_path / "glm"
    assert run(["glm", "--window", "14", "--out", out]) == 0
    assert json.loads((out / "report.json").read_text())["config"]["params"]["window"] == 14


@pytest.mark.parametrize(
    "command,config,code",
    [
        # config-level faults: exit 2
        ("soliton", [1, 2], 2),
        ("soliton", {"params": "type1"}, 2),
        ("evolve", {"seed": -1, "params": {"initial": {"family": "random"}}}, 2),
        ("evolve", {"params": {"initial": _SOLITON, "dt": math.inf}}, 2),
        ("evolve", {"params": {"initial": {**_SOLITON, "alpha": 0}}}, 2),
        ("charges", {"params": {"initial": _SOLITON, "lambda_samples": []}}, 2),
        ("charges", {"params": {"initial": _SOLITON, "lambda_samples": [{"re": 1}]}}, 2),
        ("soliton", {"params": {"family": "toda", "modes": [3]}}, 2),
        ("glm", {"params": {"window": None}}, 2),
        ("glm", {"params": {"modes": [3]}}, 2),
        ("glm", {"params": {"weight_w": 0, "alpha": -1}}, 2),
        ("glm", {"params": {"scheme": "symmetric", "alpha": 2}}, 2),
        ("burgers", {"params": {"t": math.inf}}, 2),
        ("burgers", {"params": {"sites": 1}}, 2),
        ("continuum", {"params": {"hx": 0}}, 2),
        ("continuum", {"params": {"x_min": 1.0, "x_max": -1.0}}, 2),
        ("continuum", {"params": {"pair": "bogus"}}, 2),
        # degenerate soliton data: exit 1 with a failure report
        ("soliton", {"params": {"family": "type1", "xi": -0.5, "d1": 0.5}}, 1),
        ("soliton", {"params": {"family": "type2", "c": 1}}, 1),
        # a non-positive burgers delta is a config error: exit 2
        ("burgers", {"params": {"delta": 0}}, 2),
    ],
)
def test_configs_that_escaped_as_tracebacks_exit_with_a_status(tmp_path, command, config, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == code


@pytest.mark.parametrize("command", ["soliton", "charges"])
@pytest.mark.parametrize(
    "c,error",
    [
        # 1 - c = -5e-324j: the barred base (1 - c)/(1 + c) underflows to 0
        ([1, 5e-324], "DegenerateMode"),
        # c**2 overflows
        ([1e300, 0], "ModeOverflow"),
        # 1 + c = 5e-324j: the barred base overflows; this one used to
        # write an all-NaN state and exit 0
        ([-1, 5e-324], "DegenerateMode"),
        # finite bases, but their powers overflow on the lattice, so the
        # sampled dressing constraint reads NaN
        ([1e150, 0], "InconsistentDressing"),
    ],
)
def test_type2_near_degenerate_c_exits_1_with_a_report(tmp_path, command, c, error):
    params = {"family": "type2", "c": c}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params if command == "soliton" else {"initial": params}}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--config", cfg, "--out", out]) == 1
    # the overflowing closed forms end in the report, not in numpy warnings
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert json.loads((out / "failure-report.json").read_text())["error"] == error
    assert not (out / "state.csv").exists()


@pytest.mark.parametrize(
    "command,config,error",
    [
        # the x and y Moebius denominators vanish at site 12
        (
            "soliton",
            {"params": {"family": "type1", "alpha": 3, "kappa": -1, "xi_root_of_unity": -1, "d1": -1}},
            "SingularSoliton",
        ),
        # heat data near 1e20: the heat-equation residual, about 1e-16 of the
        # data, misses its absolute bound 1e-10
        ("burgers", {"params": {"t": 1000}}, "ToleranceFailure"),
        # heat data beyond float64 range
        ("burgers", {"params": {"t": 100000}}, "ModeOverflow"),
        # the x denominator, a multiple of xi^(n-1), overflows from site 103
        ("soliton", {"params": {"family": "type1", "xi": [1000, 0], "sites": 200}}, "SingularSoliton"),
        # a subnormal x1: the y seed is 0/0
        ("soliton", {"params": {"family": "type2", "x1": 5e-324}}, "InconsistentDressing"),
        # exp(800 m) overflows and meets b = 0: the f data are NaN
        ("glm", {"params": {"modes": [{"bhat": 1, "b": 0, "lam_hat": 0.5, "lam": -800}]}}, "ModeOverflow"),
        # the f data peak at inf
        ("glm", {"params": {"modes": [{"bhat": 1, "b": 1e-300, "lam_hat": 0.5, "lam": -30}]}}, "ModeOverflow"),
        # xi^4000 overflows for the default xi = 1.2
        ("soliton", {"params": {"family": "type1", "sites": 4000, "periodic": True}}, "PeriodicityViolation"),
        # the closed form's h_k overflows at k = -300 while kappa underflows
        ("glm", {"params": {"window": 300}}, "ModeOverflow"),
        # the AL oscillator: the fields leave float64 range at 1000 sites or at t = 1e6
        ("soliton", {"model": "al", "params": {"family": "oscillator", "sites": 1000}}, "BlowUp"),
        ("soliton", {"model": "al", "params": {"family": "oscillator", "t": 1e6}}, "BlowUp"),
        ("evolve", {"model": "al", "params": {"initial": {"family": "oscillator", "sites": 1000}}}, "BlowUp"),
        # its geometric seed mu**-core overflows from 1550 sites (core 775)
        ("soliton", {"model": "al", "params": {"family": "oscillator", "sites": 1550}}, "ModeOverflow"),
        ("soliton", {"model": "al", "params": {"family": "oscillator", "sites": 4000}}, "ModeOverflow"),
        ("evolve", {"model": "al", "params": {"initial": {"family": "oscillator", "sites": 1550}}}, "ModeOverflow"),
    ],
)
def test_out_of_range_data_exit_1_with_a_report_and_no_warning(tmp_path, capsys, command, config, error):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run([command, "--config", cfg, "--out", out]) == 1
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert json.loads((out / "failure-report.json").read_text())["error"] == error
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_al_oscillator_in_range_exits_0_without_warnings(tmp_path, capsys):
    # 800 sites: the fields stay finite, while derivative terms that the state drops overflow
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "al", "params": {"family": "oscillator", "sites": 800}}))
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["soliton", "--config", cfg, "--out", out]) == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert capsys.readouterr().err == ""
    assert (out / "state.csv").exists()


@pytest.mark.parametrize(
    "command,config,flags,key",
    [
        ("glm", {"params": {"tolerance": 1e-300}}, [], "report"),
        ("burgers", {}, ["--tolerance-scale", "1e-20"], "report"),
        # halving ratios 2.5 and 1.7 on this coarse grid
        ("continuum", {"params": {"hx": 0.5, "ht": 0.2, "t_min": 0.3, "t_max": 1.0}}, [], "report"),
        ("verify-all", {}, ["--tolerance-scale", "1e-30"], "failed"),
    ],
)
def test_tolerance_misses_exit_1_with_a_report(tmp_path, command, config, flags, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, *flags, "--out", out]) == 1
    failure = json.loads((out / "failure-report.json").read_text())
    report = json.loads((out / "report.json").read_text())
    assert failure["error"] == "ToleranceFailure"
    assert set(failure) - {"message"} == {"config", "error", key}
    assert failure["config"] == report["config"]
    if key == "report":
        assert failure["report"] == report
    else:
        assert failure["failed"] == [s["name"] for s in report["suites"] if not s["passed"]]
        assert failure["failed"]


@pytest.mark.parametrize("delta", [5, 1e300])
def test_burgers_delta_beyond_float_range_exits_1_with_a_report(tmp_path, delta):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["burgers", "--delta", delta, "--out", out]) == 1
    # the overflowing heat data end in the report, not in numpy warnings
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    failure = json.loads((out / "failure-report.json").read_text())
    assert failure["error"] == "ModeOverflow"
    assert f"delta = {float(delta)}" in failure["message"]
    assert not (out / "report.json").exists()


def test_charges_with_a_zero_initial_trace_reports_a_non_finite_drift(tmp_path, capsys):
    # the vacuum on 3 sites: tr T(lam) = (1 + lam)^3 + 1, which is 0 at lam = -2
    initial = {"family": "type1", "d1": 0, "x1": 0, "sites": 3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"initial": initial, "steps": 2, "lambda_samples": [-2]}}))
    out = tmp_path / "out"
    assert run(["charges", "--config", cfg, "--out", out]) == 1
    assert math.isnan(json.loads((out / "report.json").read_text())["trace_drift_rel"])
    failure = json.loads((out / "failure-report.json").read_text())
    assert failure["error"] == "ToleranceFailure"
    assert "trace_drift_rel = nan" in failure["message"] and "h_drift" not in failure["message"]
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_charges_report_lists_every_lambda_sample(tmp_path):
    # a repeated sample keeps its own entry, in charges.csv column order
    lams = [0.5, 0.5, [1, 2]]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"initial": _SOLITON, "steps": 4, "lambda_samples": lams}}))
    out = tmp_path / "out"
    assert run(["charges", "--config", cfg, "--out", out]) == 0
    charges = json.loads((out / "report.json").read_text())["charges"]
    assert set(charges) == {*(f"h{k}" for k in range(1, 5)), *(f"tau{k}" for k in range(5)), "trace_samples"}
    assert [s["lambda"] for s in charges["trace_samples"]] == [[0.5, 0.0], [0.5, 0.0], [1.0, 2.0]]
    last = (out / "charges.csv").read_text().splitlines()[-1].split(",")
    for k, sample in enumerate(charges["trace_samples"]):
        assert sample["trace"] == [float(last[9 + 2 * k]), float(last[10 + 2 * k])]
    assert charges["h4"] == [float(last[7]), float(last[8])]


def test_write_json_writes_complex_values_as_pairs(tmp_path):
    z = complex(0.1, -2.5e300)
    written = []
    # a Python complex, a numpy complex scalar and a 0-d complex array
    for k, value in enumerate((z, np.complex128(z), np.array(z))):
        cli.write_json(tmp_path / f"{k}.json", {"v": [value, 1j]})
        written.append((tmp_path / f"{k}.json").read_bytes())
    assert written[1] == written[0] and written[2] == written[0]
    assert json.loads(written[0])["v"] == [[0.1, -2.5e300], [0.0, 1.0]]
    with pytest.raises(TypeError):
        cli.write_json(tmp_path / "bad.json", {"v": object()})


def _state_rows(t, state):
    """Reference rows for write_csv: one per field entry, built cell by cell."""
    rows = []
    for name in state.FIELDS:
        arr = getattr(state, name)
        for site in range(arr.shape[0]):
            for i in range(arr.shape[1]):
                for j in range(arr.shape[2]):
                    v = arr[site, i, j]
                    rows.append((t, site + 1, name, i, j, v.real, v.imag))
    return rows


def _python_csv(header, rows):
    """The CSV bytes of ``rows`` formatted cell by cell with Python's ``%.17e``."""
    cells = lambda row: (str(c) if isinstance(c, (int, str)) else "%.17e" % float(c) for c in row)  # noqa: E731
    return "".join(",".join(cells(row)) + "\n" for row in [header, *rows]).encode()


def test_state_writer_matches_write_csv(tmp_path, monkeypatch):
    special = np.array([-0.0, 1e-300, 1e300, -1e300, -1e-300, 0.1, np.inf, np.nan])
    rng = np.random.default_rng(5)

    def entries(shape):
        out = special[rng.integers(0, special.size, shape)] + 0j
        out.imag = special[rng.integers(0, special.size, shape)]
        return out

    x, y = entries((6, 2, 1)), entries((6, 1, 2))
    x[0, 0, 0] = complex(-0.0, -0.0)
    d = dnls.DnlsState(6, 2, 1, x, y)
    a = al.AlState(6, 2, 1, y.transpose(0, 2, 1), x.transpose(0, 2, 1))
    cases = ([(0.0, d), (1e-3, d), (-0.0, d), (2.5e300, d)], [(1, a)], [(0.25, a), (3, a)])
    # chunks of one sample, of a few samples, and the default
    for chunk_lines, samples in itertools.product((1, 50, cli._CHUNK_LINES), cases):
        monkeypatch.setattr(cli, "_CHUNK_LINES", chunk_lines)
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        _write_states(got, samples)
        rows = [row for t, st in samples for row in _state_rows(t, st)]
        write_csv(ref, _STATE_HEADER, rows)
        assert got.read_bytes() == ref.read_bytes()
        assert got.read_bytes() == _python_csv(_STATE_HEADER, rows)


@pytest.mark.parametrize("chunk_lines", [1, 3, cli._CHUNK_LINES])
def test_write_csv_formats_each_cell_as_python_does(tmp_path, monkeypatch, chunk_lines):
    monkeypatch.setattr(cli, "_CHUNK_LINES", chunk_lines)
    # ints, bools and strs as str writes them; any other cell as '%.17e' % float(cell)
    rows = [
        (0, True, "pass", 0.1, np.float64(-2.5e-300), np.float32(0.1), np.int64(7)),
        (-3, False, "fail", float("nan"), -0.0, float("inf"), 1e300),
        ("t", 5e-324),
        (),
        (np.nextafter(1e23, 0), 1e23, 12345678901234567890, "ünï"),
    ]
    path = tmp_path / "mixed.csv"
    write_csv(path, ["a", "b", "c"], rows)
    assert path.read_bytes() == _python_csv(["a", "b", "c"], rows)


@pytest.mark.parametrize("writer", ["states", "zero-site states", "csv"])
def test_writers_without_rows_write_only_the_header(tmp_path, writer):
    path = tmp_path / "empty.csv"
    if writer == "csv":
        write_csv(path, ["x", "y"], iter([]))
        assert path.read_bytes() == b"x,y\n"
        return
    empty = np.zeros((0, 1, 1), dtype=complex)
    _write_states(path, [] if writer == "states" else [(0.0, dnls.DnlsState(0, 1, 1, empty, empty))] * 3)
    assert path.read_bytes() == (",".join(_STATE_HEADER) + "\n").encode()


# the cli-trajectory benchmark configs at seed 1: the dnls soliton they start from,
# and each file's SHA-256 as the 17-digit Python formatter wrote it
_BENCH_SOLITON = {
    "family": "type1",
    "sites": 96,
    "xi_root_of_unity": 1,
    "d1": [0.10047286498801028, 0.01801854785303741],
    "x1": [0.6288319225439267, 0.0],
    "periodic": True,
}
_PINNED = [
    (
        ["charges"],
        {
            "model": "dnls",
            "seed": 1,
            "params": {
                "initial": _BENCH_SOLITON,
                "alpha": 1,
                "dt": 0.001,
                "steps": 200,
                "save_every": 4,
                "lambda_samples": [[0.5, 0.0], [1.5, 0.5], [-0.7, 0.3]],
            },
        },
        "charges.csv",
        "a18d66e4864334d112a2f895ebcc09dcead360e63a1abc66d0c557ec94715383",
    ),
    (
        ["evolve"],
        {
            "model": "dnls",
            "seed": 1,
            "params": {"initial": _BENCH_SOLITON, "alpha": 2, "dt": 0.001, "steps": 400, "save_every": 2},
        },
        "trajectory.csv",
        "775c993541a11f16d22dda7a807cb93c66e0129291b5d562b7e27adb177e97e4",
    ),
    (
        ["evolve"],
        {
            "model": "al",
            "seed": 1,
            "params": {
                "initial": {"family": "oscillator", "sites": 16, "t": 0.18972988942744878},
                "variant": "al",
                "dt": 0.001,
                "steps": 400,
                "save_every": 2,
            },
        },
        "trajectory.csv",
        "e569de5dc32d3e1cb4cfcefc556f05ae8cf3d60fa6a31966bd0b10e647cee3c1",
    ),
    (["glm"], None, "glm_solution.csv", "b4591d33f8aacf55a2d7f181b24a64dd54c2fef7e6604cc5eebbb8664887afc2"),
    (
        ["burgers", "--delta", "0.1"],
        None,
        "burgers_field.csv",
        "3e30989a581298e5458c2a018c050f312543e22769b5e0201383062c22ef406e",
    ),
]


@pytest.mark.parametrize(
    "args, config, name, digest", _PINNED, ids=["charges", "evolve-dnls", "evolve-al", "glm", "burgers"]
)
def test_csv_bytes_match_pinned_digests(tmp_path, args, config, name, digest):
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args = [*args, "--config", cfg]
    assert run([*args, "--out", tmp_path / "out"]) == 0
    assert hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() == digest


@pytest.mark.parametrize(
    "config",
    [
        {"params": {"family": "type1", "sites": 8}},
        {"model": "al", "params": {"family": "oscillator", "sites": 16}},
    ],
)
def test_integer_and_float_t_write_the_same_state(tmp_path, config):
    outs = []
    for t in (1, 1.0):
        cfg = tmp_path / f"cfg-{t!r}.json"
        cfg.write_text(json.dumps({**config, "params": {**config["params"], "t": t}}))
        out = tmp_path / f"out-{t!r}"
        assert run(["soliton", "--config", cfg, "--out", out]) == 0
        outs.append(out)
    assert (outs[0] / "state.csv").read_bytes() == (outs[1] / "state.csv").read_bytes()
    assert json.loads((outs[0] / "state.json").read_text())["config"]["params"]["t"] == 1
    assert isinstance(json.loads((outs[0] / "state.json").read_text())["t"], float)


# every JSON type, with the strings and numbers the tables give meaning to
_WORDS = sorted(
    {*cli._COMMANDS, "dnls", "al", "network", *cli._GLM_SCHEMES}
    | {f for fams in cli._INITIAL_FAMILIES.values() for f in fams}
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_WORDS),
    st.text(max_size=4),
)
_JSON = st.one_of(
    _SCALARS,
    st.lists(_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(_WORDS), _SCALARS, max_size=2),
)
_TYPED = {
    "int": st.integers(-3, 40),
    "number": st.one_of(st.integers(-3, 40), st.floats(-2, 2)),
    "complex": st.one_of(st.floats(-2, 2), st.lists(st.integers(-2, 2), min_size=2, max_size=2)),
    "str": st.sampled_from(_WORDS),
    "bool": st.booleans(),
    "dict": st.dictionaries(st.sampled_from(_WORDS), _SCALARS, max_size=2),
}
# every soliton family of either model, with its table
_SOLITON_TABLES = {f: table for fams in cli._INITIAL_FAMILIES.values() for f, table in fams.items()}
_STR_KEYS = {
    "command": st.sampled_from(sorted(cli._COMMANDS)),
    "model": st.sampled_from(["dnls", "al"]),
    "family": st.sampled_from(sorted(_SOLITON_TABLES)),
}
# hypothesis leans to small integers, so the common branch is 0 and the rare one 7
_RARELY = st.integers(0, 7).map(lambda i: i == 7)


# where _object draws from: values per key, values per kind, the wildcard
# JSON value and the value of an unknown key
_VALIDATION_SPACE = (_STR_KEYS, _TYPED, _JSON, _SCALARS)


def _of_kind(kind, space, noisy):
    """Values of a table entry's kind: objects for a table, lists for ``[kind]``."""
    if isinstance(kind, dict):
        return _object(kind, space, noisy)
    if isinstance(kind, list):
        return st.lists(_of_kind(kind[0], space, noisy), max_size=2)
    return space[1][kind]


@st.composite
def _object(draw, table, space=_VALIDATION_SPACE, noisy=True):
    """An object over a table's keys.

    Values are mostly of the key's kind; when ``noisy``, now and then a value
    is any JSON value, a required key is left out or an unknown key is added.
    """
    by_key, _, wildcard, unknown = space
    rarely = _RARELY if noisy else st.just(False)
    obj = {}
    for key, (kind, default, _) in table.items():
        present = not draw(rarely) if default is ... else draw(st.booleans())
        if present:
            if key == "initial":
                value = _soliton(space, noisy)
            else:
                value = by_key[key] if key in by_key else _of_kind(kind, space, noisy)
            obj[key] = draw(wildcard if draw(rarely) else value)
    if draw(rarely):
        obj["bogus"] = draw(unknown)
    return obj


@st.composite
def _soliton(draw, space, noisy):
    """Soliton params over the table of a family drawn from either model."""
    family = draw(st.sampled_from(sorted(_SOLITON_TABLES)))
    by_key, *rest = space
    return draw(_object(_SOLITON_TABLES[family], ({**by_key, "family": st.just(family)}, *rest), noisy))


def _params(command, space, noisy):
    if command == "soliton":
        return _soliton(space, noisy)
    return _object(cli._PARAMS.get(command, {}) if isinstance(command, str) else {}, space, noisy)


@st.composite
def _configs(draw):
    config = draw(_object(cli._TOP))
    if not draw(_RARELY):
        config["params"] = draw(_params(config.get("command"), _VALIDATION_SPACE, True))
    return draw(_JSON) if draw(_RARELY) else config


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_validate_config_raises_only_config_errors(config):
    # validation only: no command runs, so no draw can start a large computation
    try:
        cli.settle_config(config)
    except cli.ConfigError:
        pass


# Whole CLI runs.  Every size is capped (sites <= 16, steps <= 20, window <=
# 6, continuum spacings >= 0.02 over ranges of at most 4) and the wildcard
# values hold no large number, so that no draw starts a large run.
_RUN_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 6),
    st.sampled_from([0.0, -0.0, 0.5, -1.5, math.inf, -math.inf, math.nan]),
    st.sampled_from(_WORDS),
    st.text(max_size=4),
)
_RUN_JSON = st.one_of(
    _RUN_SCALARS,
    st.lists(_RUN_SCALARS, max_size=3),
    st.dictionaries(st.sampled_from(_WORDS), _RUN_SCALARS, max_size=2),
)
_RUN_NUMBER = st.one_of(st.integers(-2, 2), st.floats(-2, 2))
_RUN_COMPLEX = st.one_of(_RUN_NUMBER, st.lists(_RUN_NUMBER, min_size=2, max_size=2))
_RUN_TYPED = {
    **_TYPED,
    "int": st.integers(-2, 6),
    "number": _RUN_NUMBER,
    "complex": _RUN_COMPLEX,
    "dict": st.dictionaries(st.sampled_from(_WORDS), _RUN_SCALARS, max_size=2),
}
_SPACING = st.one_of(st.sampled_from([0, -0.1]), st.floats(0.02, 0.5))
_MODE_KEYS = sorted({*cli._TODA_MODE, *cli._GLM_MODE})
_RUN_KEYS = {
    **_STR_KEYS,
    "sites": st.integers(-1, 16),
    "steps": st.integers(-1, 20),
    "save_every": st.integers(-1, 25),
    "window": st.integers(-1, 6),
    "alpha": st.integers(0, 3),
    "seed": st.integers(-2, 50),
    "dt": st.floats(-0.01, 0.5),
    "hx": _SPACING,
    "ht": _SPACING,
    "t_min": st.floats(-0.5, 2),
    "t_max": st.floats(-0.5, 2),
    "scheme": st.sampled_from([*cli._GLM_SCHEMES, "bogus"]),
    "variant": st.sampled_from([*al.VARIANTS, "bogus"]),
    "pair": st.sampled_from(["heat-kernel", "two-mode", "bogus"]),
    "lambda_samples": st.lists(_RUN_COMPLEX, max_size=3),
    "modes": st.lists(
        st.dictionaries(st.sampled_from(_MODE_KEYS), _RUN_COMPLEX, max_size=4), max_size=2
    ),
}


_RUN_SPACE = (_RUN_KEYS, _RUN_TYPED, _RUN_JSON, _RUN_SCALARS)


@st.composite
def _run_configs(draw, command):
    # half the draws are well-typed and complete, so that more of them get past validation and run
    noisy = draw(st.booleans())
    rarely = _RARELY if noisy else st.just(False)
    config = draw(_object(cli._TOP, _RUN_SPACE, noisy))
    if not draw(rarely):
        config["params"] = draw(_params(command, _RUN_SPACE, noisy))
    return draw(_RUN_JSON) if draw(rarely) else config


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(set(cli._COMMANDS) - {"verify-all"})), st.data())
def test_cli_run_exits_with_a_status_never_a_traceback(command, data):
    # verify-all takes no size from its config and runs for about a second
    config = data.draw(_run_configs(command))
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert run([command, "--config", cfg, "--out", Path(tmp) / "out"]) in (0, 1, 2)
