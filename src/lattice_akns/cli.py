"""Command-line surface.

Subcommands: soliton, evolve, charges, glm, burgers, continuum, verify-all.
Each run takes an optional JSON config (--config) merged with a handful of
direct flags, validates it against a strict schema (unknown keys are
errors), executes, and writes artifacts into the output directory:

* JSON snapshots embed the producing config;
* CSV files carry a header row and deterministic 17-digit formatting, so
  identical configs produce byte-identical output.

Exit status: 0 when every declared tolerance passes, 1 on a tolerance or
constraint failure (with failure-report.json), 2 on a config/usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import al, colehopf, conserved, darboux, dnls, glm, verification
from .algebra import make_rank_one_pair
from .errors import BlowUp, LatticeError, SingularTime

USAGE_ERROR = 2
TOLERANCE_ERROR = 1


class ConfigError(Exception):
    pass


# --------------------------------------------------------------------------
# config validation
# --------------------------------------------------------------------------


def _is_number(val) -> bool:
    """A finite JSON number; true and false are not numbers, although bool is an int.

    Python's json module also reads NaN, Infinity and integers beyond float
    range, which no run can use.
    """
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(float(val))
    except OverflowError:
        return False


def _is_complex(val) -> bool:
    """A finite JSON number or a ``[re, im]`` pair of them."""
    return _is_number(val) or (isinstance(val, list) and len(val) == 2 and all(map(_is_number, val)))


def _check_keys(obj: dict, allowed: dict, where: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")
    for key, (required, kind) in allowed.items():
        if key not in obj:
            if required:
                raise ConfigError(f"{where}: missing required key {key!r}")
            continue
        val = obj[key]
        if kind == "complex":
            if not _is_complex(val):
                raise ConfigError(f"{where}.{key}: expected finite number or [re, im]")
        elif kind == "number" and not _is_number(val):
            raise ConfigError(f"{where}.{key}: expected finite number")
        elif kind == "int" and (isinstance(val, bool) or not isinstance(val, int)):
            raise ConfigError(f"{where}.{key}: expected integer")
        elif kind == "str" and not isinstance(val, str):
            raise ConfigError(f"{where}.{key}: expected string")
        elif kind == "bool" and not isinstance(val, bool):
            raise ConfigError(f"{where}.{key}: expected boolean")
        elif kind == "list" and not isinstance(val, list):
            raise ConfigError(f"{where}.{key}: expected list")
        elif kind == "dict" and not isinstance(val, dict):
            raise ConfigError(f"{where}.{key}: expected object")


def _cplx(v, default=0.0) -> complex:
    if v is None:
        return complex(default)
    if isinstance(v, (int, float)):
        return complex(v)
    return complex(v[0], v[1])


_SOLITON_KEYS = {
    "family": (True, "str"),
    "sites": (False, "int"),
    "alpha": (False, "int"),
    "t": (False, "number"),
    "kappa": (False, "complex"),
    "xi": (False, "complex"),
    "xi_root_of_unity": (False, "int"),
    "d1": (False, "complex"),
    "x1": (False, "complex"),
    "c": (False, "complex"),
    "dhat1": (False, "complex"),
    "periodic": (False, "bool"),
    "modes": (False, "list"),
    "y1": (False, "complex"),
}

_EVOLVE_KEYS = {
    "initial": (True, "dict"),
    "alpha": (False, "int"),
    "variant": (False, "str"),
    "dt": (False, "number"),
    "steps": (False, "int"),
    "save_every": (False, "int"),
}

_CHARGES_KEYS = {
    "initial": (True, "dict"),
    "alpha": (False, "int"),
    "dt": (False, "number"),
    "steps": (False, "int"),
    "save_every": (False, "int"),
    "lambda_samples": (False, "list"),
}

_GLM_KEYS = {
    "scheme": (False, "str"),
    "weight_w": (False, "complex"),
    "window": (False, "int"),
    "alpha": (False, "int"),
    "time": (False, "number"),
    "modes": (True, "list"),
    "compare_closed_form": (False, "bool"),
    "tolerance": (False, "number"),
}

_BURGERS_KEYS = {
    "delta": (False, "number"),
    "sites": (False, "int"),
    "t": (False, "number"),
}

_CONTINUUM_KEYS = {
    "x_min": (False, "number"),
    "x_max": (False, "number"),
    "hx": (False, "number"),
    "t_min": (False, "number"),
    "t_max": (False, "number"),
    "ht": (False, "number"),
    "pair": (False, "str"),
}

# the objects inside a "modes" list: toda soliton modes and glm modes
_TODA_MODE_KEYS = {"amplitude": (False, "complex"), "base": (False, "complex")}
_GLM_MODE_KEYS = {
    "bhat": (False, "complex"),
    "b": (False, "complex"),
    "lam_hat": (True, "complex"),
    "lam": (True, "complex"),
}

_TOP_KEYS = {
    "command": (False, "str"),
    "model": (False, "str"),
    "seed": (False, "int"),
    "tolerance_scale": (False, "number"),
    "out": (False, "str"),
    "params": (False, "dict"),
}

_PARAM_SCHEMAS = {
    "soliton": _SOLITON_KEYS,
    "evolve": _EVOLVE_KEYS,
    "charges": _CHARGES_KEYS,
    "glm": _GLM_KEYS,
    "burgers": _BURGERS_KEYS,
    "continuum": _CONTINUUM_KEYS,
    "verify-all": {},
}


_GLM_SCHEMES = {"forward-backward": glm.FORWARD_BACKWARD, "symmetric": glm.SYMMETRIC}
_CONTINUUM_PAIRS = ("heat-kernel", "two-mode")

_FAMILIES = {
    "dnls": ("type1", "type2", "toda"),
    "al": ("fundamental", "oscillator"),
}
# evolve and charges may also start from a random dnls state
_INITIAL_FAMILIES = {"dnls": _FAMILIES["dnls"] + ("random",), "al": _FAMILIES["al"]}


def validate_config(config: dict) -> dict:
    _check_keys(config, _TOP_KEYS, "config")
    command = config.get("command")
    if command not in _PARAM_SCHEMAS:
        raise ConfigError(f"config.command: unknown command {command!r}")
    model = config.get("model", "dnls")
    if model not in ("dnls", "al"):
        raise ConfigError("config.model: expected 'dnls' or 'al'")
    if config.get("seed", 0) < 0:
        raise ConfigError("config.seed: must not be negative")
    params = config.get("params", {})
    where = f"config.params ({command})"
    _check_keys(params, _PARAM_SCHEMAS[command], where)
    _check_flow(params, where)
    if command == "soliton":
        _check_soliton(params, model, _FAMILIES[model], where)
    if command in ("evolve", "charges"):
        _validate_run(params, command, model)
    if command == "glm":
        scheme = params.get("scheme", "forward-backward")
        if scheme not in _GLM_SCHEMES:
            raise ConfigError("config.params.scheme (glm): expected 'forward-backward' or 'symmetric'")
        if scheme == "symmetric" and params.get("alpha", 1) != 1:
            raise ConfigError("config.params.alpha (glm): the symmetric scheme has flow 1 only")
        if params.get("window", 1) < 1:
            raise ConfigError("config.params.window (glm): must be at least 1")
        _check_modes(params["modes"], _GLM_MODE_KEYS, f"{where}.modes")
    if command == "burgers":
        _check_sites(params, where, minimum=2)
    if command == "continuum":
        if params.get("pair", "heat-kernel") not in _CONTINUUM_PAIRS:
            raise ConfigError(f"{where}.pair: expected 'heat-kernel' or 'two-mode'")
        _continuum_grid(params)
    return config


def _check_sites(params: dict, where: str, minimum: int = 1):
    if params.get("sites", minimum) < minimum:
        raise ConfigError(f"{where}.sites: must be at least {minimum}")


def _check_flow(params: dict, where: str):
    if params.get("alpha", 1) < 1:
        raise ConfigError(f"{where}.alpha: flows start at 1")


def _check_modes(modes: list, schema: dict, where: str):
    for k, mode in enumerate(modes):
        _check_keys(mode, schema, f"{where}[{k}]")


def _check_soliton(params: dict, model: str, families, where: str):
    """Family, sites and toda modes of a soliton params object."""
    _check_family(params["family"], model, families)
    _check_sites(params, where)
    _check_modes(params.get("modes", []), _TODA_MODE_KEYS, f"{where}.modes")


def _continuum_grid(params: dict) -> colehopf.ContinuumGrid:
    """The grid of a continuum config; a grid the check cannot run on is a config error."""
    try:
        return colehopf.ContinuumGrid(
            params.get("x_min", -1.0),
            params.get("x_max", 1.0),
            params.get("hx", 0.02),
            params.get("t_min", 0.5),
            params.get("t_max", 1.0),
            params.get("ht", 0.01),
        )
    except (ValueError, SingularTime) as exc:
        raise ConfigError(f"config.params (continuum): {exc}") from exc


def _check_family(family: str, model: str, allowed):
    if family not in allowed:
        raise ConfigError(f"family {family!r} not available for model {model!r}")


def _run_settings(params: dict) -> tuple[float, int, int]:
    """dt, steps and save_every of an evolve or charges config."""
    steps = params.get("steps", 200)
    return params.get("dt", 1e-3), steps, params.get("save_every", max(steps // 10, 1))


def _validate_run(params: dict, command: str, model: str):
    """Cross-field checks of an evolve or charges config."""
    if command == "charges" and model != "dnls":
        raise ConfigError("charges: only model 'dnls' is supported")
    initial = params["initial"]
    where = f"config.params.initial ({command})"
    _check_keys(initial, _SOLITON_KEYS, where)
    _check_soliton(initial, model, _INITIAL_FAMILIES[model], where)
    _check_flow(initial, where)
    dt, steps, save_every = _run_settings(params)
    if not dt > 0:
        raise ConfigError(f"config.params.dt ({command}): must be positive")
    if steps < 0:
        raise ConfigError(f"config.params.steps ({command}): must not be negative")
    if save_every < 1:
        raise ConfigError(f"config.params.save_every ({command}): must be at least 1")
    if params.get("variant", al.VARIANT_AL) not in al.VARIANTS:
        raise ConfigError(f"config.params.variant ({command}): expected 'al' or 'network'")
    samples = params.get("lambda_samples")
    if samples is not None and not (samples and all(map(_is_complex, samples))):
        raise ConfigError(f"config.params.lambda_samples ({command}): expected finite numbers or [re, im] pairs")


# --------------------------------------------------------------------------
# deterministic writers
# --------------------------------------------------------------------------


def _fmt(v: float) -> str:
    return f"{float(v):.17e}"


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) if isinstance(c, (int, str)) else _fmt(c) for c in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_STATE_HEADER = ["t", "site", "field", "row", "col", "re", "im"]


def _write_states(path: Path, samples) -> None:
    """State CSV with one row per field entry of each ``(t, state)`` sample.

    Byte-equal to :func:`write_csv` on per-entry rows: the samples share one
    shape, so one ``%``-template formats a whole state, and states are
    written as they come.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(_STATE_HEADER) + "\n")
        template = None
        for t, state in samples:
            fields = [getattr(state, name) for name in state.FIELDS]
            if template is None:
                template = "".join(
                    f"%s,{site + 1},{name},{i},{j},%.17e,%.17e\n"
                    for name, arr in zip(state.FIELDS, fields)
                    for site, i, j in np.ndindex(arr.shape)
                )
            values = np.concatenate([a.ravel() for a in fields])
            # the t cell is formatted once; write_csv writes an int t as is
            cells = [str(t) if isinstance(t, int) else _fmt(t), 0.0, 0.0] * values.size
            cells[1::3] = values.real.tolist()
            cells[2::3] = values.imag.tolist()
            fh.write(template % tuple(cells))


def _state_json(state, config: dict, t: float) -> dict:
    payload = {
        "config": config,
        "t": t,
        "model": state.MODEL,
        "sites": state.n_sites,
        "n_dim": state.n_dim,
        "m_dim": state.m_dim,
    }
    for name in state.FIELDS:
        payload[name] = [[[[v.real, v.imag] for v in row] for row in blk] for blk in getattr(state, name)]
    return payload


# --------------------------------------------------------------------------
# state/soliton factories from config
# --------------------------------------------------------------------------


def _build_dnls_initial(params: dict, seed: int):
    family = params["family"]
    sites = params.get("sites", 12)
    alpha = params.get("alpha", 1)
    kappa = _cplx(params.get("kappa"), 1.0)
    t = float(params.get("t", 0.0))  # one spelling of t in the outputs, whether given as 1 or 1.0
    if family == "type1":
        if "xi_root_of_unity" in params:
            xi = np.exp(2j * np.pi * params["xi_root_of_unity"] / sites)
        else:
            xi = _cplx(params.get("xi"), 1.2)
        sp = darboux.type1_params(xi, kappa, _cplx(params.get("d1"), 0.1), _cplx(params.get("x1"), 0.7), alpha)
        state = darboux.soliton_type1(sp, sites, t, require_periodic=params.get("periodic", False))
    elif family == "type2":
        sp = darboux.type2_params(
            _cplx(params.get("c"), 0.4), kappa, _cplx(params.get("dhat1"), 0.15), _cplx(params.get("x1"), 0.9), alpha
        )
        state = darboux.soliton_type2(sp, sites, t)
    elif family == "toda":
        modes = [( _cplx(m.get("amplitude"), 1.0), _cplx(m.get("base"), 1.2)) for m in params.get("modes", [{"amplitude": 2.0, "base": 1.0}, {"amplitude": 0.5, "base": 1.3}])]
        lin = darboux.build_linear_solution(modes, alpha, darboux.FORWARD)
        state = darboux.toda_general_solution(lin, kappa, _cplx(params.get("y1"), 1.0), sites, t)
    elif family == "random":
        rng = np.random.default_rng(seed)
        state = dnls.random_state(rng, sites)
    else:
        raise ConfigError(f"unknown family {family!r}")
    return state, t


def _build_al_initial(params: dict):
    family = params["family"]
    sites = params.get("sites", 16)
    t = float(params.get("t", 0.0))
    pair = make_rank_one_pair(1, 1, 1.0, "triple")
    if family == "fundamental":
        ap = al.AlDarbouxParams(big_q=1.1, pair=pair, d1=_cplx(params.get("d1")), bhat1=0.3, b1=0.2)
        return al.al_soliton_fundamental(ap, sites), t
    if family == "oscillator":
        sol = al.localized_oscillator(core=sites // 2)
        return sol.state(sites, t, boundary=al.PERIODIC), t
    raise ConfigError(f"unknown family {family!r}")


# --------------------------------------------------------------------------
# command implementations
# --------------------------------------------------------------------------


def _build_initial(params: dict, config: dict):
    """The configured initial state and its time; BlowUp (step 0) if it is not finite."""
    if config.get("model", "dnls") == "dnls":
        state, t = _build_dnls_initial(params, config.get("seed", 42))
    else:
        state, t = _build_al_initial(params)
    if not all(np.isfinite(getattr(state, name)).all() for name in state.FIELDS):
        raise BlowUp(0, "the initial state is not finite")
    return state, t


def cmd_soliton(config: dict, out: Path) -> int:
    params = config["params"]
    state, t = _build_initial(params, config)
    write_json(out / "state.json", _state_json(state, config, t))
    _write_states(out / "state.csv", [(t, state)])
    if state.MODEL == "dnls":
        report = {"config": config}
        if params["family"] == "type1" and params.get("periodic"):
            # only a periodic closed form wraps consistently onto the lattice
            alpha = params.get("alpha", 1)
            report["zero_curvature_residual"] = max(
                dnls.zero_curvature_residual(state, alpha, [0.7, 1.3 + 0.4j])
            )
        write_json(out / "report.json", report)
    return 0


def cmd_evolve(config: dict, out: Path) -> int:
    params = config["params"]
    dt, steps, save_every = _run_settings(params)
    state, _ = _build_initial(params["initial"], config)
    if state.MODEL == "dnls":
        traj = dnls.evolve(state, params.get("alpha", 1), dt, steps, save_every)
    else:
        traj = al.al_evolve(state, params.get("variant", al.VARIANT_AL), dt, steps, save_every)
    write_json(out / "final_state.json", _state_json(traj[-1][1], config, traj[-1][0]))
    _write_states(out / "trajectory.csv", traj)
    return 0


def cmd_charges(config: dict, out: Path) -> int:
    params = config["params"]
    state, _ = _build_initial(params["initial"], config)
    lam_samples = [
        _cplx(v) for v in params.get("lambda_samples", [[0.5, 0.0], [1.5, 0.5], [-0.7, 0.3]])
    ]
    dt, steps, save_every = _run_settings(params)
    traj = dnls.evolve(state, params.get("alpha", 1), dt, steps, save_every)
    header = ["t"]
    for k in range(1, 5):
        header += [f"h{k}_re", f"h{k}_im"]
    for i in range(len(lam_samples)):
        header += [f"trace{i}_re", f"trace{i}_im"]
    # one batched call for every saved sample
    reports = conserved.charge_reports([st for _, st in traj], lam_samples)
    rows = []
    for (t, _), rep in zip(traj, reports):
        row = [t]
        for h in rep.h:
            row += [h.real, h.imag]
        for lam in lam_samples:
            tr = rep.trace_samples[complex(lam)]
            row += [tr.real, tr.imag]
        rows.append(row)
    write_csv(out / "charges.csv", header, rows)
    rep0, rep1 = reports[0], reports[-1]
    h_drifts = [abs(a - b) for a, b in zip(rep0.h, rep1.h)]
    tr0, tr1 = (np.array([rep.trace_samples[complex(l)] for l in lam_samples]) for rep in (rep0, rep1))
    # a zero initial trace gives an inf or NaN drift, not a ZeroDivisionError
    with np.errstate(divide="ignore", invalid="ignore"):
        trace_drifts = np.abs(tr1 - tr0) / np.abs(tr0)
    # np.max, not max(): a NaN drift must reach the report
    drift = {"h_drift": float(np.max(h_drifts)), "trace_drift_rel": float(np.max(trace_drifts))}
    write_json(out / "report.json", {"config": config, "charges": rep1.to_json_dict(), **drift})
    return 0


def cmd_glm(config: dict, out: Path) -> int:
    params = config["params"]
    scheme = _GLM_SCHEMES[params.get("scheme", "forward-backward")]
    window = params.get("window", 14)
    alpha = params.get("alpha", 1)
    time = params.get("time", 0.0)
    weight_w = _cplx(params.get("weight_w"), 1.0)
    modes = []
    for m in params["modes"]:
        modes.append(
            glm.GlmMode(
                np.array([[_cplx(m.get("bhat"), 1.0)]]),
                _cplx(m["lam_hat"]),
                np.array([[_cplx(m.get("b"), 1.0)]]),
                _cplx(m["lam"]),
            )
        )
    system = glm.build_hankel_data(modes, scheme, weight_w, window, alpha, time)
    sol = glm.solve_glm(system)
    rows = []
    size = 2 * window + 1
    for wi in range(size):
        for wj in range(wi, size):
            b = sol.b[wi, wj]
            c = sol.c[wi, wj]
            rows.append((wi - window, wj - window, b[0, 0].real, b[0, 0].imag, c[0, 0].real, c[0, 0].imag))
    write_csv(out / "glm_solution.csv", ["i", "j", "b_re", "b_im", "c_re", "c_im"], rows)
    report = {
        "config": config,
        "system": system.to_json_dict(),
        "factorization_residual": sol.factorization_residual,
        "min_rcond": sol.min_rcond,
        "linear_residual": system.linear_residual(),
    }
    tolerance = params.get("tolerance", 1e-10) * config.get("tolerance_scale", 1.0)
    failed = sol.factorization_residual >= tolerance
    if len(modes) == 1 and params.get("compare_closed_form", True):
        mode = modes[0]
        kappa = complex(mode.amp_hat[0, 0] * mode.amp[0, 0])
        bcf, ccf = glm.one_soliton_closed_form(mode, kappa, window, time, scheme, weight_w, alpha)
        mask = np.triu(np.ones((size, size), dtype=bool))
        delta = max(
            float(np.abs((sol.b - bcf)[:, :, 0, 0])[mask].max()),
            float(np.abs((sol.c - ccf)[:, :, 0, 0])[mask].max()),
        )
        report["closed_form_delta"] = delta
        failed = failed or delta >= tolerance
    write_json(out / "report.json", report)
    if failed:
        write_json(out / "failure-report.json", {"config": config, "error": "ToleranceFailure", "report": report})
        return TOLERANCE_ERROR
    return 0


def cmd_burgers(config: dict, out: Path) -> int:
    params = config["params"]
    delta = params.get("delta", 0.05)
    report = colehopf.burgers_truncation_order(delta, n_sites=params.get("sites", 40), t=params.get("t", 0.1))
    heat = colehopf.heat_trajectory([(2.0, 1.2), (0.5, 0.8)])
    mapped = colehopf.cole_hopf_forward(heat, params.get("sites", 40), params.get("t", 0.1))
    rows = [
        (site + 1, mapped.u.values[site].real, mapped.u.values[site].imag)
        for site in range(len(mapped.u.values))
    ]
    write_csv(out / "burgers_field.csv", ["site", "u_re", "u_im"], rows)
    write_csv(
        out / "residuals.csv",
        ["site", "residual"],
        [(site + 1, r) for site, r in enumerate(mapped.burgers_residuals)],
    )
    payload = {
        "config": config,
        "exact_residuals": {
            "potential": mapped.potential_residual,
            "slope": mapped.burgers_residual,
        },
        "truncation": {
            "delta": delta,
            "ratio_squared_difference": report.ratio_sq,
            "ratio_difference_of_squares": report.ratio_diffsq,
            "ratio_potential": report.ratio_potential,
        },
    }
    write_json(out / "report.json", payload)
    scale = config.get("tolerance_scale", 1.0)
    ok = mapped.burgers_residual < 1e-10 * scale and 6.0 <= report.ratio_sq <= 10.0
    if not ok:
        write_json(out / "failure-report.json", {"config": config, "error": "ToleranceFailure", "report": payload})
        return TOLERANCE_ERROR
    return 0


def cmd_continuum(config: dict, out: Path) -> int:
    params = config["params"]
    rep = colehopf.verify_continuum_nls(_continuum_grid(params), params.get("pair", "heat-kernel"))
    payload = {
        "config": config,
        "residuals_u": list(rep.residual_u),
        "residuals_uhat": list(rep.residual_uhat),
        "ratio_u": rep.ratio_u,
        "ratio_uhat": rep.ratio_uhat,
    }
    write_json(out / "report.json", payload)
    write_csv(
        out / "residuals.csv",
        ["level", "residual_u", "residual_uhat"],
        [(0, rep.residual_u[0], rep.residual_uhat[0]), (1, rep.residual_u[1], rep.residual_uhat[1])],
    )
    ok = 3.5 <= rep.ratio_u <= 4.5 and 3.5 <= rep.ratio_uhat <= 4.5
    if not ok:
        write_json(out / "failure-report.json", {"config": config, "error": "ToleranceFailure", "report": payload})
        return TOLERANCE_ERROR
    return 0


def cmd_verify_all(config: dict, out: Path) -> int:
    results = verification.run_all(
        seed=config.get("seed", 42),
        tolerance_scale=config.get("tolerance_scale", 1.0),
    )
    rows = []
    for r in results:
        print(r.line())
        rows.append((r.name, "pass" if r.passed else "fail", r.measured, r.requirement))
    write_csv(out / "verify.csv", ["suite", "status", "measured", "requirement"], rows)
    write_json(
        out / "report.json",
        {
            "config": config,
            "suites": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "measured": r.measured,
                    "requirement": r.requirement,
                    "details": list(r.details),
                }
                for r in results
            ],
        },
    )
    if not all(r.passed for r in results):
        write_json(
            out / "failure-report.json",
            {
                "config": config,
                "error": "ToleranceFailure",
                "failed": [r.name for r in results if not r.passed],
            },
        )
        return TOLERANCE_ERROR
    return 0


_COMMANDS = {
    "soliton": cmd_soliton,
    "evolve": cmd_evolve,
    "charges": cmd_charges,
    "glm": cmd_glm,
    "burgers": cmd_burgers,
    "continuum": cmd_continuum,
    "verify-all": cmd_verify_all,
}


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lattice-akns",
        description="Construct, evolve, and machine-verify integrable lattice solutions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument("--out", type=Path, default=Path("out"), help="output directory")
        p.add_argument("--seed", type=int, default=None, help="64-bit seed for random suites")
        p.add_argument(
            "--tolerance-scale", type=float, default=None, help="multiplies all default tolerances"
        )
        if name in ("soliton", "evolve", "charges"):
            p.add_argument("--model", choices=("dnls", "al"), default=None)
        if name == "soliton":
            p.add_argument("--family", default=None)
            p.add_argument("--sites", type=int, default=None)
            p.add_argument("--periodic", action="store_true", default=None)
            p.add_argument("--xi-re", type=float, default=None)
            p.add_argument("--xi-im", type=float, default=None)
        if name == "glm":
            p.add_argument("--scheme", choices=("forward-backward", "symmetric"), default=None)
            p.add_argument("--modes", type=int, default=None, help="number of default modes")
            p.add_argument("--window", type=int, default=None)
        if name == "burgers":
            p.add_argument("--delta", type=float, default=None)
    return parser


def _default_glm_modes(count: int, window: int):
    lam_pairs = [(0.65, 0.55), (0.8, 0.6)]
    modes = []
    for k in range(count):
        lh, l = lam_pairs[k % len(lam_pairs)]
        amp = [0.7**k * float(np.exp(-2 * window * lh)), 0.0]
        ampb = [0.8**k * float(np.exp(-2 * window * l)), 0.0]
        modes.append({"bhat": amp, "lam_hat": [lh, 0.0], "b": ampb, "lam": [l, 0.0]})
    return modes


def _merge_config(args: argparse.Namespace) -> dict:
    config: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    if not isinstance(config, dict) or not isinstance(config.get("params", {}), dict):
        raise ConfigError("config and config.params must be JSON objects")
    config["command"] = args.command
    params = dict(config.get("params", {}))
    if args.seed is not None:
        config["seed"] = args.seed
    if args.tolerance_scale is not None:
        config["tolerance_scale"] = args.tolerance_scale
    if getattr(args, "model", None):
        config["model"] = args.model
    if args.command == "soliton":
        if args.family:
            params["family"] = args.family
        if args.sites:
            params["sites"] = args.sites
        if args.periodic:
            params["periodic"] = True
        if args.xi_re is not None or args.xi_im is not None:
            params["xi"] = [args.xi_re or 0.0, args.xi_im or 0.0]
        params.setdefault("family", "type1")
    if args.command == "glm":
        if args.scheme:
            params["scheme"] = args.scheme
        if args.window:
            params["window"] = args.window
        if "modes" not in params:
            # a window that is no integer fails validation, and these modes go unused
            window = params.get("window", 14)
            params["modes"] = _default_glm_modes(args.modes or 1, window if isinstance(window, int) else 14)
    if args.command == "burgers" and args.delta is not None:
        params["delta"] = args.delta
    config["params"] = params
    return config


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = validate_config(_merge_config(args))
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        return _COMMANDS[args.command](config, out)
    except LatticeError as exc:
        write_json(
            out / "failure-report.json",
            {"config": config, "error": type(exc).__name__, "message": str(exc)},
        )
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return TOLERANCE_ERROR


if __name__ == "__main__":
    sys.exit(main())
