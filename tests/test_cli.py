import json
import math
import tempfile
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


def test_verify_all_quick(tmp_path, capsys):
    out = tmp_path / "verify"
    assert run(["verify-all", "--quick", "--out", out]) == 0
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

    trace = conserved.transfer_trace
    last = complex(-0.7, 0.3)
    monkeypatch.setattr(
        conserved,
        "transfer_trace",
        lambda state, lam: complex("nan") if lam == last else trace(state, lam),
    )
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {"params": {"initial": {"family": "type1", "xi_root_of_unity": 1, "sites": 12}, "steps": 5}}
        )
    )
    out = tmp_path / "charges"
    assert run(["charges", "--config", cfg, "--out", out]) == 0
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
    ],
)
def test_bad_run_config_is_usage_error(tmp_path, capsys, command, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == 2
    assert "config error:" in capsys.readouterr().err


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
        ("burgers", {"params": {"delta": 0}}, 1),
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
        # finite bases, but 1e150**11 overflows on the lattice
        ([1e150, 0], "BlowUp"),
    ],
)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy on the overflowing closed forms
def test_type2_near_degenerate_c_exits_1_with_a_report(tmp_path, command, c, error):
    params = {"family": "type2", "c": c}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": params if command == "soliton" else {"initial": params}}))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == 1
    assert json.loads((out / "failure-report.json").read_text())["error"] == error
    assert not (out / "state.csv").exists()


def test_charges_with_a_zero_initial_trace_reports_a_non_finite_drift(tmp_path):
    # the vacuum on 3 sites: tr T(lam) = (1 + lam)^3 + 1, which is 0 at lam = -2
    initial = {"family": "type1", "d1": 0, "x1": 0, "sites": 3}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"params": {"initial": initial, "steps": 2, "lambda_samples": [-2]}}))
    out = tmp_path / "out"
    assert run(["charges", "--config", cfg, "--out", out]) == 0
    assert math.isnan(json.loads((out / "report.json").read_text())["trace_drift_rel"])


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


def test_state_writer_matches_write_csv(tmp_path):
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
    for samples in ([(0.0, d), (1e-3, d), (-0.0, d), (2.5e300, d)], [(1, a)], [(0.25, a), (3, a)]):
        got, ref = tmp_path / "got.csv", tmp_path / "ref.csv"
        _write_states(got, samples)
        write_csv(ref, _STATE_HEADER, [row for t, st in samples for row in _state_rows(t, st)])
        assert got.read_bytes() == ref.read_bytes()


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


# every JSON type, with the strings and numbers the schemas give meaning to
_WORDS = sorted(
    {*cli._PARAM_SCHEMAS, "dnls", "al", "network", "random", *cli._GLM_SCHEMES}
    | {f for fams in cli._FAMILIES.values() for f in fams}
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
    "list": st.lists(_JSON, max_size=2),
    "dict": st.dictionaries(st.sampled_from(_WORDS), _SCALARS, max_size=2),
}
_STR_KEYS = {
    "command": st.sampled_from(sorted(cli._PARAM_SCHEMAS)),
    "model": st.sampled_from(["dnls", "al"]),
    "family": st.sampled_from(sorted(cli._INITIAL_FAMILIES["dnls"] + cli._INITIAL_FAMILIES["al"])),
}
# hypothesis leans to small integers, so the common branch is 0 and the rare one 7
_RARELY = st.integers(0, 7).map(lambda i: i == 7)


# where _object draws from: values per key, values per kind, the wildcard
# JSON value and the value of an unknown key
_VALIDATION_SPACE = (_STR_KEYS, _TYPED, _JSON, _SCALARS)


@st.composite
def _object(draw, schema, space=_VALIDATION_SPACE, noisy=True):
    """An object over a schema's keys.

    Values are mostly of the key's kind; when ``noisy``, now and then a value
    is any JSON value, a required key is left out or an unknown key is added.
    """
    by_key, by_kind, wildcard, unknown = space
    rarely = _RARELY if noisy else st.just(False)
    obj = {}
    for key, (required, kind) in schema.items():
        present = not draw(rarely) if required else draw(st.booleans())
        if present:
            if key == "initial":
                value = _object(cli._SOLITON_KEYS, space, noisy)
            else:
                value = by_key.get(key, by_kind[kind])
            obj[key] = draw(wildcard if draw(rarely) else value)
    if draw(rarely):
        obj["bogus"] = draw(unknown)
    return obj


@st.composite
def _configs(draw):
    # command is optional in the schema, but without one nothing past the top level runs
    config = draw(_object({**cli._TOP_KEYS, "command": (True, "str")}))
    command = config.get("command")
    schema = cli._PARAM_SCHEMAS.get(command, {}) if isinstance(command, str) else {}
    if not draw(_RARELY):
        config["params"] = draw(_object(schema))
    return draw(_JSON) if draw(_RARELY) else config


@settings(max_examples=300, deadline=None)
@given(_configs())
def test_validate_config_raises_only_config_errors(config):
    # validation only: no command runs, so no draw can start a large computation
    try:
        cli.validate_config(config)
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
    "list": st.lists(_RUN_JSON, max_size=2),
    "dict": st.dictionaries(st.sampled_from(_WORDS), _RUN_SCALARS, max_size=2),
}
_SPACING = st.one_of(st.sampled_from([0, -0.1]), st.floats(0.02, 0.5))
_MODE_KEYS = sorted({*cli._TODA_MODE_KEYS, *cli._GLM_MODE_KEYS})
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
    config = draw(_object(cli._TOP_KEYS, _RUN_SPACE, noisy))
    if not draw(rarely):
        config["params"] = draw(_object(cli._PARAM_SCHEMAS[command], _RUN_SPACE, noisy))
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
