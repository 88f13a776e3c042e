"""Command-line surface.

Subcommands: soliton, evolve, charges, glm, burgers, continuum, verify-all.
Each run takes an optional JSON config (--config) merged with a handful of
direct flags, settles it against the tables below (one per command and one
per soliton family, each key with its kind, default and bound; unknown keys
are errors), executes, and writes artifacts into the output directory:

* JSON snapshots embed the producing config as given;
* CSV files carry a header row and deterministic 17-digit formatting, so
  identical configs produce byte-identical output.  Every number is
  written as Python's ``'%.17e' % v`` writes it, a chunk of lines at a time
  by one numpy pass (:mod:`lattice_akns.numtext`); only inf, nan, |v|
  outside [1e-280, 1e280], near-ties and digits that round to a power of
  ten are formatted by Python one by one.

Exit status: 0 when every declared tolerance passes, 1 on a tolerance or
constraint failure (a LatticeError, written to failure-report.json by
:func:`main`), 2 on a config/usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from functools import cache
from itertools import chain, islice, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import al, colehopf, conserved, darboux, dnls, glm, lattice, verification
from .algebra import make_rank_one_pair, sup_norm
from .errors import BlowUp, LatticeError, SingularTime, ToleranceFailure
from .numtext import e17_cells, e17_strs, padded, unpadded

USAGE_ERROR = 2
TOLERANCE_ERROR = 1


class ConfigError(Exception):
    pass


# --------------------------------------------------------------------------
# config schema: one table per command and per soliton family
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


class Key(NamedTuple):
    """One config key of a table.

    ``kind`` is a name in ``_KINDS``, a table (an object settled against it)
    or ``[kind]`` (a list of values of that kind).  ``default`` is ``...``
    for a required key and ``None`` for an optional key without one.
    ``bound`` is a ``(predicate, rule)`` pair that the settled value must meet.
    """

    kind: object
    default: object = None
    bound: tuple | None = None


_KINDS = {
    "int": (lambda v: isinstance(v, int) and not isinstance(v, bool), "integer"),
    "number": (_is_number, "finite number"),
    "complex": (_is_complex, "finite number or [re, im]"),
    "str": (lambda v: isinstance(v, str), "string"),
    "bool": (lambda v: isinstance(v, bool), "boolean"),
    "dict": (lambda v: isinstance(v, dict), "object"),
}


def _at_least(low):
    return (lambda v: v >= low), f"must be at least {low}"


def _positive():
    return (lambda v: v > 0), "must be positive"


def _non_empty(what):
    return (lambda v: len(v) > 0), f"expected at least one {what}"


def _one_of(*words):
    return (lambda v: v in words), "expected " + " or ".join(map(repr, words))


_GLM_SCHEMES = {"forward-backward": glm.FORWARD_BACKWARD, "symmetric": glm.SYMMETRIC}

_FLOW = Key("int", 1, _at_least(1))
_FAMILY = {"family": Key("str", ...)}
_DNLS_SOLITON = {
    **_FAMILY,
    "sites": Key("int", 12, _at_least(1)),
    "alpha": _FLOW,
    "t": Key("number", 0.0),
    "kappa": Key("complex", 1.0),
}
_AL_SOLITON = {**_FAMILY, "sites": Key("int", 16, _at_least(1)), "t": _DNLS_SOLITON["t"]}
_TODA_MODE = {"amplitude": Key("complex", 1.0), "base": Key("complex", 1.2)}

# soliton params by model and family
_FAMILIES = {
    "dnls": {
        "type1": {
            **_DNLS_SOLITON,
            "xi": Key("complex", 1.2),
            # k for xi = exp(2 pi i k / sites), in place of xi
            "xi_root_of_unity": Key("int"),
            "d1": Key("complex", 0.1),
            "x1": Key("complex", 0.7),
            "periodic": Key("bool", False),
        },
        "type2": {
            **_DNLS_SOLITON,
            "c": Key("complex", 0.4),
            "dhat1": Key("complex", 0.15),
            "x1": Key("complex", 0.9),
        },
        "toda": {
            **_DNLS_SOLITON,
            "modes": Key(
                [_TODA_MODE],
                [{"amplitude": 2.0, "base": 1.0}, {"amplitude": 0.5, "base": 1.3}],
                _non_empty("mode"),
            ),
            "y1": Key("complex", 1.0),
        },
    },
    "al": {"fundamental": {**_AL_SOLITON, "d1": Key("complex", 0.0)}, "oscillator": _AL_SOLITON},
}
# evolve and charges may also start from a random dnls state
_INITIAL_FAMILIES = {
    "dnls": {**_FAMILIES["dnls"], "random": {**_FAMILY, "sites": _DNLS_SOLITON["sites"]}},
    "al": _FAMILIES["al"],
}

_RUN = {
    "initial": Key("dict", ...),
    # the flows with equations of motion
    "alpha": Key("int", 1, _one_of(*dnls.FLOWS)),
    "dt": Key("number", 1e-3, _positive()),
    "steps": Key("int", 200, _at_least(0)),
    # settles to max(steps // 10, 1)
    "save_every": Key("int", None, _at_least(1)),
}
_GLM_MODE = {
    "bhat": Key("complex", 1.0),
    "b": Key("complex", 1.0),
    "lam_hat": Key("complex", ...),
    "lam": Key("complex", ...),
}

# the params of each command; soliton params take the table of their family
_PARAMS = {
    "evolve": {**_RUN, "variant": Key("str", al.VARIANT_AL, _one_of(*al.VARIANTS))},
    "charges": {
        **_RUN,
        "lambda_samples": Key(
            ["complex"],
            [[0.5, 0.0], [1.5, 0.5], [-0.7, 0.3]],
            _non_empty("sample"),
        ),
    },
    "glm": {
        "scheme": Key("str", "forward-backward", _one_of(*_GLM_SCHEMES)),
        "weight_w": Key("complex", 1.0),
        "window": Key("int", 14, _at_least(1)),
        "alpha": _FLOW,
        "time": Key("number", 0.0),
        "modes": Key([_GLM_MODE], ..., _non_empty("mode")),
        "compare_closed_form": Key("bool", True),
        "tolerance": Key("number", 1e-10),
    },
    "burgers": {
        "delta": Key("number", 0.05, _positive()),
        "sites": Key("int", 40, _at_least(2)),
        "t": Key("number", 0.1),
    },
    "continuum": {
        "x_min": Key("number", -1.0),
        "x_max": Key("number", 1.0),
        "hx": Key("number", 0.02),
        "t_min": Key("number", 0.5),
        "t_max": Key("number", 1.0),
        "ht": Key("number", 0.01),
        "pair": Key("str", "heat-kernel", _one_of("heat-kernel", "two-mode")),
    },
    "verify-all": {},
}

_TOP = {
    "command": Key("str", ..., _one_of("soliton", *_PARAMS)),
    "model": Key("str", "dnls", _one_of("dnls", "al")),
    "seed": Key("int", 42, _at_least(0)),
    "tolerance_scale": Key("number", 1.0),
    "out": Key("str"),
    "params": Key("dict", {}),
}


def _value(val, kind, where: str):
    """``val`` checked against ``kind``; complex numbers come back as ``complex``."""
    if isinstance(kind, dict):
        return _settle(val, kind, where)
    if isinstance(kind, list):
        if not isinstance(val, list):
            raise ConfigError(f"{where}: expected list")
        return [_value(v, kind[0], f"{where}[{k}]") for k, v in enumerate(val)]
    check, name = _KINDS[kind]
    if not check(val):
        raise ConfigError(f"{where}: expected {name}")
    if kind == "complex":
        return complex(val) if _is_number(val) else complex(*val)
    return val


def _settle(obj, table: dict, where: str) -> dict:
    """Every key of ``table`` with its value from ``obj`` or its default, checked."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{where}: expected an object")
    for key in obj:
        if key not in table:
            raise ConfigError(f"{where}: unknown key {key!r}")
    settled = {}
    for key, (kind, default, bound) in table.items():
        if key in obj:
            val = obj[key]
        elif default is ...:
            raise ConfigError(f"{where}: missing required key {key!r}")
        elif default is None:
            settled[key] = None
            continue
        else:
            val = default
        settled[key] = _value(val, kind, f"{where}.{key}")
        if bound is not None and not bound[0](settled[key]):
            raise ConfigError(f"{where}.{key}: {bound[1]}")
    return settled


def _settle_soliton(obj, families: dict, model: str, where: str) -> dict:
    """A soliton params object, settled against the table of its family."""
    family = obj.get("family") if isinstance(obj, dict) else None
    if not (isinstance(family, str) and family in families):
        raise ConfigError(f"{where}: family {family!r} not available for model {model!r}")
    return _settle(obj, families[family], where)


def _continuum_grid(params: dict) -> colehopf.ContinuumGrid:
    """The grid of settled continuum params; a grid the check cannot run on is a config error."""
    try:
        return colehopf.ContinuumGrid(
            *(params[key] for key in ("x_min", "x_max", "hx", "t_min", "t_max", "ht"))
        )
    except (ValueError, SingularTime) as exc:
        raise ConfigError(f"config.params (continuum): {exc}") from exc


def settle_config(config: dict) -> dict:
    """The merged config checked against the tables, with every default filled in.

    The result has every key of ``_TOP``, and its ``params`` every key of the
    command's table (the family's for soliton params), with complex numbers
    as ``complex``.  Raises ConfigError on an unknown key, a value of the
    wrong kind or out of bounds, or params that do not fit together.
    """
    run = _settle(config, _TOP, "config")
    command, model = run["command"], run["model"]
    where = f"config.params ({command})"
    if command == "soliton":
        params = _settle_soliton(run["params"], _FAMILIES[model], model, where)
    else:
        params = _settle(run["params"], _PARAMS[command], where)
    if command == "charges" and model != "dnls":
        raise ConfigError("charges: only model 'dnls' is supported")
    if "initial" in params:
        where = f"config.params.initial ({command})"
        params["initial"] = _settle_soliton(params["initial"], _INITIAL_FAMILIES[model], model, where)
        if params["save_every"] is None:
            params["save_every"] = max(params["steps"] // 10, 1)
    if command == "glm" and params["scheme"] == "symmetric" and params["alpha"] != 1:
        raise ConfigError(f"{where}.alpha: the symmetric scheme has flow 1 only")
    if command == "continuum":
        _continuum_grid(params)
    run["params"] = params
    return run


# --------------------------------------------------------------------------
# deterministic writers
# --------------------------------------------------------------------------


# lines formatted and written at a time; a whole-trajectory buffer would raise peak RSS by megabytes
_CHUNK_LINES = 2048


def _fmt(v: float) -> str:
    return f"{float(v):.17e}"


def write_csv(path: Path, header: list[str], rows) -> None:
    """CSV with a header line: an int, bool or str cell as ``str`` writes it, any other as ``%.17e``.

    Rows go a chunk of ``_CHUNK_LINES`` at a time, whose float cells are
    formatted by one :func:`e17_cells` call.
    """
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while chunk := list(islice(rows, _CHUNK_LINES)):
            cells = np.fromiter(chain.from_iterable(chunk), dtype=object)
            floats = ~np.fromiter(map(isinstance, cells, repeat((int, str))), bool, cells.size)
            cells[floats] = e17_strs(cells[floats].astype(np.float64))
            widths = list(map(len, chunk))
            # one %-template line per row width
            lines = {n: ",".join(["%s"] * n) + "\n" for n in set(widths)}
            fh.write("".join(map(lines.__getitem__, widths)) % tuple(cells))


def _encode(obj):
    """JSON form of what ``json`` cannot write: a complex number as ``[re, im]``, an array as lists.

    numpy's complex scalars subclass ``complex``; the entries of a complex
    array come back here one by one.
    """
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot write {type(obj).__name__} to JSON")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=_encode)
        fh.write("\n")


_STATE_HEADER = ["t", "site", "field", "row", "col", "re", "im"]


def _write_states(path: Path, samples) -> None:
    """State CSV with one line per field entry of each ``(t, state)`` sample.

    Byte-equal to :func:`write_csv` on per-entry rows.  The samples share one
    shape, so the ``,site,field,row,col,`` text of each entry is built once.
    Samples go a chunk of about ``_CHUNK_LINES`` lines at a time: their re and
    im parts in one :func:`e17_cells` call, each line a row of one NUL-padded byte
    buffer, and the chunk one ``write`` of that buffer without its NULs.
    """
    samples = iter(samples)
    with open(path, "wb") as fh:
        fh.write((",".join(_STATE_HEADER) + "\n").encode())
        first = next(samples, None)
        if first is None:
            return
        fields = first[1].FIELDS
        entries = padded(
            [
                f",{site + 1},{name},{i},{j},"
                for name in fields
                for site, i, j in np.ndindex(getattr(first[1], name).shape)
            ]
        )
        per_chunk = max(_CHUNK_LINES // max(len(entries), 1), 1)
        chunk = [first, *islice(samples, per_chunk - 1)]
        while chunk:
            values = np.array([np.concatenate([getattr(st, name).ravel() for name in fields]) for _, st in chunk])
            # the t cell is formatted once per sample; write_csv writes an int t as is
            times = padded([str(t) if isinstance(t, int) else _fmt(t) for t, _ in chunk])
            # the re and im cells of each entry
            cells = e17_cells(values.view(np.float64))
            cells = cells.reshape(*values.shape, 2, cells.shape[1])
            re = times.shape[1] + entries.shape[1]
            im = re + cells.shape[3] + 1
            lines = np.empty((*values.shape, im + cells.shape[3] + 1), dtype=np.uint8)
            lines[:, :, : times.shape[1]] = times[:, None]
            lines[:, :, times.shape[1] : re] = entries
            lines[:, :, re : im - 1] = cells[:, :, 0]
            lines[:, :, im - 1] = ord(",")
            lines[:, :, im:-1] = cells[:, :, 1]
            lines[:, :, -1] = ord("\n")
            fh.write(unpadded(lines))
            chunk = list(islice(samples, per_chunk))


def _state_json(state, config: dict, t: float) -> dict:
    shape = {"sites": state.n_sites, "n_dim": state.n_dim, "m_dim": state.m_dim}
    fields = {name: getattr(state, name) for name in state.FIELDS}
    return {"config": config, "t": t, "model": state.MODEL, **shape, **fields}


# --------------------------------------------------------------------------
# state/soliton factories from settled params
# --------------------------------------------------------------------------


def _build_dnls_initial(p: dict, seed: int):
    family, sites = p["family"], p["sites"]
    if family == "random":
        return dnls.random_state(np.random.default_rng(seed), sites), 0.0
    t = float(p["t"])  # one spelling of t in the outputs, whether given as 1 or 1.0
    if family == "type1":
        root = p["xi_root_of_unity"]
        xi = p["xi"] if root is None else np.exp(2j * np.pi * root / sites)
        sp = darboux.type1_params(xi, p["kappa"], p["d1"], p["x1"], p["alpha"])
        state = darboux.soliton_type1(sp, sites, t, require_periodic=p["periodic"])
    elif family == "type2":
        sp = darboux.type2_params(p["c"], p["kappa"], p["dhat1"], p["x1"], p["alpha"])
        state = darboux.soliton_type2(sp, sites, t)
    else:
        modes = [(m["amplitude"], m["base"]) for m in p["modes"]]
        lin = darboux.build_linear_solution(modes, p["alpha"], darboux.FORWARD)
        state = darboux.toda_general_solution(lin, p["kappa"], p["y1"], sites, t)
    return state, t


def _build_al_initial(p: dict):
    sites, t = p["sites"], float(p["t"])
    if p["family"] == "fundamental":
        pair = make_rank_one_pair(1, 1, 1.0, "triple")
        ap = al.AlDarbouxParams(big_q=1.1, pair=pair, d1=p["d1"], bhat1=0.3, b1=0.2)
        return al.al_soliton_fundamental(ap, sites), t
    sol = al.localized_oscillator(core=sites // 2)
    return sol.state(sites, t), t


# --------------------------------------------------------------------------
# command implementations: settled config in, artifacts out; a missed
# tolerance raises ToleranceFailure
# --------------------------------------------------------------------------


def _build_initial(p: dict, run: dict):
    """The configured initial state and its time; BlowUp (step 0) if it is not finite."""
    if run["model"] == "dnls":
        state, t = _build_dnls_initial(p, run["seed"])
    else:
        state, t = _build_al_initial(p)
    if not all(np.isfinite(getattr(state, name)).all() for name in state.FIELDS):
        raise BlowUp(0, "the initial state is not finite")
    return state, t


def cmd_soliton(run: dict, config: dict, out: Path) -> None:
    p = run["params"]
    state, t = _build_initial(p, run)
    write_json(out / "state.json", _state_json(state, config, t))
    _write_states(out / "state.csv", [(t, state)])
    if state.MODEL == "dnls":
        report = {"config": config}
        if p["family"] == "type1" and p["periodic"]:
            # only a periodic closed form wraps consistently onto the lattice
            report["zero_curvature_residual"] = sup_norm(
                dnls.zero_curvature_residual(state, p["alpha"], [0.7, 1.3 + 0.4j])
            )
        write_json(out / "report.json", report)


# each model's flows, and the run key that names one
_FLOWS = {"dnls": (dnls.FLOWS, "alpha"), "al": (al.FLOWS, "variant")}


def cmd_evolve(run: dict, config: dict, out: Path) -> None:
    p = run["params"]
    state, _ = _build_initial(p["initial"], run)
    flows, key = _FLOWS[state.MODEL]
    traj = lattice.evolve(state, flows[p[key]], p["dt"], p["steps"], p["save_every"])
    write_json(out / "final_state.json", _state_json(traj[-1][1], config, traj[-1][0]))
    _write_states(out / "trajectory.csv", traj)


def cmd_charges(run: dict, config: dict, out: Path) -> None:
    p = run["params"]
    state, _ = _build_initial(p["initial"], run)
    lam_samples = p["lambda_samples"]
    traj = dnls.evolve(state, p["alpha"], p["dt"], p["steps"], p["save_every"])
    states = [st for _, st in traj]
    # one row per saved sample: H1..H4, then tr T at each lambda sample, shape (S, 4 + L)
    table = np.concatenate(
        (conserved.closed_form_charges_batch(states), conserved.transfer_traces(states, lam_samples)),
        axis=1,
    )
    names = [f"h{k}" for k in range(1, 5)] + [f"trace{i}" for i in range(len(lam_samples))]
    header = ["t"] + [f"{name}_{part}" for name in names for part in ("re", "im")]
    rows = ([t, *row] for (t, _), row in zip(traj, table.view(np.float64).tolist()))
    write_csv(out / "charges.csv", header, rows)
    first, last = table[0], table[-1]
    # a zero initial trace gives an inf or NaN drift, not a ZeroDivisionError
    with np.errstate(divide="ignore", invalid="ignore"):
        trace_drifts = np.abs(last[4:] - first[4:]) / np.abs(first[4:])
    charges = dict(zip(names[:4], last[:4]))
    charges |= {f"tau{k}": tau for k, tau in enumerate(conserved.tau_series(states[-1:])[0])}
    charges["trace_samples"] = [{"lambda": lam, "trace": tr} for lam, tr in zip(lam_samples, last[4:])]
    # Python's abs, whose moduli np.abs does not always round alike
    h_drifts = [abs(h) for h in (last[:4] - first[:4]).tolist()]
    drift = {"h_drift": sup_norm(h_drifts), "trace_drift_rel": sup_norm(trace_drifts)}
    report = {"config": config, "charges": charges, **drift}
    write_json(out / "report.json", report)
    # only a non-finite drift fails: its size is reported, not gated
    nonfinite = [f"{name} = {value}" for name, value in drift.items() if not math.isfinite(value)]
    if nonfinite:
        raise ToleranceFailure(f"charges: non-finite drift, {', '.join(nonfinite)}", report=report)


def cmd_glm(run: dict, config: dict, out: Path) -> None:
    p = run["params"]
    scheme, window = _GLM_SCHEMES[p["scheme"]], p["window"]
    modes = [
        glm.GlmMode(np.array([[m["bhat"]]]), m["lam_hat"], np.array([[m["b"]]]), m["lam"])
        for m in p["modes"]
    ]
    system = glm.build_hankel_data(modes, scheme, p["weight_w"], window, p["alpha"], p["time"])
    closed_form = None
    if len(modes) == 1 and p["compare_closed_form"]:
        mode = modes[0]
        kappa = complex(mode.amp_hat[0, 0] * mode.amp[0, 0])
        # a reference out of float range fails here, before the O(W^3) solve
        closed_form = glm.one_soliton_closed_form(mode, kappa, window, p["time"], scheme, p["weight_w"], p["alpha"])
    sol = glm.solve_glm(system)
    # the supported region j >= i, row by row
    i, j = np.triu_indices(2 * window + 1)
    b, c = sol.b[i, j, 0, 0], sol.c[i, j, 0, 0]
    # Python ints and floats: write_csv writes an int as it is and formats a float
    columns = [a.tolist() for a in (i - window, j - window, b.real, b.imag, c.real, c.imag)]
    write_csv(out / "glm_solution.csv", ["i", "j", "b_re", "b_im", "c_re", "c_im"], zip(*columns))
    # the system's data without its Hankel arrays
    data = {key: getattr(system, key) for key in ("scheme", "weight_w", "alpha", "window_n", "time")}
    report = {
        "config": config,
        "system": {**data, "modes": [asdict(m) for m in system.modes]},
        "factorization_residual": sol.factorization_residual,
        "min_rcond": sol.min_rcond,
        "linear_residual": system.linear_residual(),
    }
    tolerance = p["tolerance"] * run["tolerance_scale"]
    failed = not sol.factorization_residual < tolerance
    if closed_form is not None:
        bcf, ccf = closed_form
        delta = sup_norm(b - bcf[i, j, 0, 0], c - ccf[i, j, 0, 0])
        report["closed_form_delta"] = delta
        failed = failed or not delta < tolerance
    write_json(out / "report.json", report)
    if failed:
        raise ToleranceFailure(f"glm: a residual reaches the tolerance {tolerance:.3e}", report=report)


def cmd_burgers(run: dict, config: dict, out: Path) -> None:
    p = run["params"]
    report = colehopf.burgers_truncation_order(p["delta"], p["sites"], p["t"])
    heat = colehopf.heat_trajectory([(2.0, 1.2), (0.5, 0.8)])
    mapped = colehopf.cole_hopf_forward(heat, p["sites"], p["t"])
    rows = [(site + 1, u.real, u.imag) for site, u in enumerate(mapped.u)]
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
            "delta": p["delta"],
            "ratio_squared_difference": report.ratio_sq,
            "ratio_difference_of_squares": report.ratio_diffsq,
            "ratio_potential": report.ratio_potential,
        },
    }
    write_json(out / "report.json", payload)
    tolerance = 1e-10 * run["tolerance_scale"]
    if not (mapped.burgers_residual < tolerance and 6.0 <= report.ratio_sq <= 10.0):
        raise ToleranceFailure(
            f"burgers: slope residual {mapped.burgers_residual:.3e} (require < {tolerance:.1e}),"
            f" halving ratio {report.ratio_sq:.3f} (require [6, 10])",
            report=payload,
        )


def cmd_continuum(run: dict, config: dict, out: Path) -> None:
    p = run["params"]
    rep = colehopf.verify_continuum_nls(_continuum_grid(p), p["pair"])
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
    if not (3.5 <= rep.ratio_u <= 4.5 and 3.5 <= rep.ratio_uhat <= 4.5):
        raise ToleranceFailure(
            f"continuum: halving ratios {rep.ratio_u:.3f}, {rep.ratio_uhat:.3f} (require [3.5, 4.5])",
            report=payload,
        )


def cmd_verify_all(run: dict, config: dict, out: Path) -> None:
    results = verification.run_all(seed=run["seed"], tolerance_scale=run["tolerance_scale"])
    rows = []
    for r in results:
        print(r.line())
        rows.append((r.name, "pass" if r.passed else "fail", r.measured, r.requirement))
    write_csv(out / "verify.csv", ["suite", "status", "measured", "requirement"], rows)
    write_json(out / "report.json", {"config": config, "suites": [asdict(r) for r in results]})
    failed = [r.name for r in results if not r.passed]
    if failed:
        raise ToleranceFailure(f"verify-all: {len(failed)} of {len(results)} suites failed", failed=failed)


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


# A parse fills a fresh Namespace and leaves the parser as it was: the parser
# holds no per-call state, so the one built on the first call serves every
# main() call of the process.
@cache
def _build_parser() -> argparse.ArgumentParser:
    # no abbreviated flags: a prefix such as --t would otherwise stand for --tolerance-scale
    parser = argparse.ArgumentParser(
        prog="lattice-akns",
        description="Construct, evolve, and machine-verify integrable lattice solutions.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name, allow_abbrev=False)
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
            p.add_argument("--scheme", choices=tuple(_GLM_SCHEMES), default=None)
            p.add_argument("--modes", type=int, default=1, help="number of default modes")
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
    if not isinstance(config, dict) or not isinstance(config.setdefault("params", {}), dict):
        raise ConfigError("config and config.params must be JSON objects")
    config["command"] = args.command
    params = dict(config["params"])
    if args.seed is not None:
        config["seed"] = args.seed
    if args.tolerance_scale is not None:
        config["tolerance_scale"] = args.tolerance_scale
    if getattr(args, "model", None):
        config["model"] = args.model
    if args.command == "soliton":
        if args.family is not None:
            params["family"] = args.family
        if args.sites is not None:
            params["sites"] = args.sites
        if args.periodic:
            params["periodic"] = True
        if args.xi_re is not None or args.xi_im is not None:
            params["xi"] = [args.xi_re or 0.0, args.xi_im or 0.0]
        params.setdefault("family", "type1")
    if args.command == "glm":
        if args.scheme is not None:
            params["scheme"] = args.scheme
        if args.window is not None:
            params["window"] = args.window
        if "modes" not in params:
            window = params.get("window")
            if not isinstance(window, int):
                # absent: the table's default; otherwise settling fails and these modes go unused
                window = _PARAMS["glm"]["window"].default
            params["modes"] = _default_glm_modes(args.modes, window)
    if args.command == "burgers" and args.delta is not None:
        params["delta"] = args.delta
    config["params"] = params
    return config


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config = _merge_config(args)
        run = settle_config(config)
    except (ConfigError, json.JSONDecodeError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        _COMMANDS[args.command](run, config, out)
    except LatticeError as exc:
        # the one writer of failure-report.json
        fields = exc.fields if isinstance(exc, ToleranceFailure) else {}
        write_json(
            out / "failure-report.json",
            {"config": config, "error": type(exc).__name__, "message": str(exc), **fields},
        )
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return TOLERANCE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
