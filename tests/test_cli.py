import json
import math

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


@st.composite
def _object(draw, schema):
    """An object over a schema's keys.

    Values are mostly of the key's kind; now and then a value is any JSON
    value, a required key is left out or an unknown key is added.
    """
    obj = {}
    for key, (required, kind) in schema.items():
        present = not draw(_RARELY) if required else draw(st.booleans())
        if present:
            if key == "initial":
                value = _object(cli._SOLITON_KEYS)
            else:
                value = _STR_KEYS.get(key, _TYPED[kind])
            obj[key] = draw(_JSON if draw(_RARELY) else value)
    if draw(_RARELY):
        obj["bogus"] = draw(_SCALARS)
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
