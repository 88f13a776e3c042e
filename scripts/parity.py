"""Compare the outputs of this tree's ``lattice_akns`` with another tree's, bit for bit.

    PYTHONPATH=src python scripts/parity.py --baseline OTHER/src [--baseline-label NAME] [--out parity.json]
        [--cases PATTERN ...]

Both packages are imported side by side, the other one under another
package name (``bench_kernels.load_tree``).  Each case builds its inputs in
both trees from the same seed, runs them, and compares every number of the
two results bit for bit (a raised error compares by its type and message).
The cases:

- the single-state kernels at N = 1..13, 96 and 768 and block widths up to
  (2,2): the right-hand sides, a short RK4 run, the zero-curvature
  residual and the Lax stacks of each dnls flow and AL variant (AL on both
  boundaries), the transfer trace and, for dnls, the closed-form charges;
- batched zero-curvature residuals of mixed sizes, widths and boundaries,
  with empty states and one NaN state;
- batch evolution (dnls, and AL, which a tree without AL batches runs one
  state at a time), and a batch that blows up;
- transfer traces, closed-form charges and tau series of batches;
- ``verification.run_all`` at seeds 0..11;
- ``glm.solve_glm`` on the ``glm-window`` benchmark's data (W = 7, 14, 28
  and 40, both schemes, one and two modes), the six systems of
  ``verification.glm_suite``, two-mode data with (1,2) and (2,1) blocks, and
  a bordering stop forced by raising ``RCOND_MIN``: a, b, c, d and
  ``factorization_residual`` as one case, ``min_rcond`` as another, and the
  single-mode closed form as a third;
- the console-script configs of the CI workflow, file by file, with their
  exit codes and messages.

``--cases`` keeps the cases whose names match any of the given shell-style
patterns (``--cases 'glm.*' 'cli.glm*'`` reruns the solver's cases only).

Where the trees name an entry point differently (the per-model functions of
older trees against the flow records and ``lattice`` drivers of newer ones),
the name is resolved per tree.  One JSON summary goes to ``--out``: the
number of numbers compared, the cases, and each differing case with its
largest distance in units in the last place (``inf`` for a difference that
is not one of float values, such as an error or a changed shape).  The exit
code is 1 if any case differs.
"""

import argparse
import contextlib
import dataclasses
import fnmatch
import functools
import importlib
import io
import json
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import lattice_akns
from bench_kernels import flow_driver, load_tree

SIZES = (*range(1, 14), 96, 768)
WIDTHS = ((1, 1), (1, 2), (2, 1), (2, 2))
LAMS = (0.5, 1.5 + 0.5j, -0.7 + 0.3j)
ZS = (0.8, 1.5 + 0.3j, 0.6 + 0.8j)
SEEDS = range(12)


def entry_points(lib):
    """The tree's drivers under one set of names, each taking a model's flow key (alpha or variant)."""

    def by_model(name, dnls_old, al_old, al_fallback=None):
        fns = {"dnls": flow_driver(lib, "dnls", name, dnls_old), "al": flow_driver(lib, "al", name, al_old)}
        fns["al"] = fns["al"] or al_fallback
        return lambda first, *rest: fns[(first if hasattr(first, "MODEL") else first[0]).MODEL](first, *rest)

    lax_stacks = getattr(lib.lattice, "lax_stacks", None)
    if lax_stacks is None:
        lax = {"dnls": lib.dnls.lax_stacks, "al": getattr(lib.al, "al_lax_stacks", None)}
        lax_stacks = lambda st, samples: lax[st.MODEL](st, samples)  # noqa: E731
    return SimpleNamespace(
        eom=by_model("eom_rhs", "eom_rhs", "al_eom_rhs"),
        residuals=by_model("zero_curvature_residuals", "zero_curvature_residuals", "al_zero_curvature_residuals"),
        # a tree without AL batches runs one state at a time: what each member of a batch must equal
        evolve_batch=by_model(
            "evolve", "evolve_batch", None, lambda states, key, *run: [lib.al.al_evolve(st, key, *run) for st in states]
        ),
        lax_stacks=lax_stacks,
    )


def call(fn, *args):
    """``fn(*args)``, or the error it raises as its type name and message."""
    try:
        return fn(*args)
    except Exception as exc:  # noqa: BLE001 - an error is a result to compare
        return ("raised", type(exc).__name__, str(exc), getattr(exc, "step", None), getattr(exc, "members", None))


def leaves(value):
    """The comparable parts of a result, depth first."""
    if isinstance(value, (list, tuple)):
        for v in value:
            yield from leaves(v)
    elif isinstance(value, dict):
        for k in sorted(value, key=str):
            yield str(k)
            yield from leaves(value[k])
    elif hasattr(value, "FIELDS"):  # a lattice state
        yield value.MODEL
        yield from (getattr(value, name) for name in value.FIELDS)
        yield repr(getattr(value, "theta", None)), value.periodic
    elif dataclasses.is_dataclass(value):
        yield from leaves(dataclasses.astuple(value))
    else:
        yield value


def _ordered(a: np.ndarray) -> np.ndarray:
    """float64 values as integers in the order of the values, one apart for adjacent doubles."""
    i = a.view(np.int64).astype(object)
    return np.where(a.view(np.int64) < 0, -(i & 0x7FFFFFFFFFFFFFFF), i)


def distance(a, b) -> float:
    """0 for equal results, else the largest ulp distance of their float values, inf if not of floats."""
    worst, xs, ys = 0.0, list(leaves(a)), list(leaves(b))
    if len(xs) != len(ys):
        return float("inf")
    for x, y in zip(xs, ys):
        if isinstance(x, (str, bytes, type(None))) or isinstance(y, (str, bytes, type(None))):
            worst = worst if x == y else float("inf")
            continue
        x, y = np.asarray(x), np.asarray(y)
        if x.shape != y.shape or x.dtype != y.dtype:
            return float("inf")
        if x.tobytes() == y.tobytes():
            continue
        if x.dtype.kind not in "fc":
            return float("inf")
        fx, fy = (np.ascontiguousarray(v).view(np.float64).ravel() for v in (x, y))
        differ = (fx.view(np.int64) != fy.view(np.int64)) & ~(np.isnan(fx) & np.isnan(fy))
        if differ.any():
            worst = max(worst, float(np.abs(_ordered(fx[differ]) - _ordered(fy[differ])).max()))
    return worst


def count(value) -> int:
    """The numbers in a result."""
    total = 0
    for leaf in leaves(value):
        if not isinstance(leaf, (str, bytes, type(None))):
            arr = np.asarray(leaf)
            total += arr.size * (2 if arr.dtype.kind == "c" else 1)
    return total


# --------------------------------------------------------------------------
# cases: (name, fn(lib, api) -> result); each builds its inputs from its own seed
# --------------------------------------------------------------------------


def _states(lib, rng, n, nd, md):
    """A dnls state with theta != 1 and AL states on both boundaries."""
    dnls, al = lib.dnls, lib.al
    out = [dnls.random_state(rng, n, nd, md, scale=0.4, theta=0.8 + 0.3j)]
    out += [al.random_state(rng, n, nd, md, scale=0.4, boundary=b) for b in (al.PERIODIC, al.VANISHING)]
    return out


def kernel_cases():
    for seed, (n, (nd, md)) in enumerate((n, w) for n in SIZES for w in WIDTHS):

        def run(lib, api, n=n, nd=nd, md=md, seed=seed):
            out = {}
            for st in _states(lib, np.random.default_rng(seed), n, nd, md):
                tag = f"{st.MODEL}.{'periodic' if st.periodic else 'vanishing'}"
                dnls_model = st.MODEL == "dnls"
                keys, samples = ((1, 2), LAMS) if dnls_model else (lib.al.VARIANTS, ZS)
                for key in keys:
                    out[f"{tag}.eom.{key}"] = call(api.eom, st, key)
                    run_fn = lib.dnls.evolve if dnls_model else lib.al.al_evolve
                    out[f"{tag}.evolve.{key}"] = call(run_fn, st, key, 1e-2, 6, 2)
                    zc = lib.dnls.zero_curvature_residual if dnls_model else lib.al.al_zero_curvature_residual
                    out[f"{tag}.zero_curvature.{key}"] = call(zc, st, key, samples)
                out[f"{tag}.lax_stacks"] = call(api.lax_stacks, st, samples)
                out[f"{tag}.transfer_trace"] = call(lib.conserved.transfer_trace, st, samples[-1])
                if dnls_model:
                    out[f"{tag}.closed_form_charges"] = call(lib.conserved.closed_form_charges, st)
            return out

        yield f"kernels.N{n}.{nd}x{md}", run


def _mixed(lib, rng, model):
    """States of sizes 0..13 and three widths (AL on both boundaries), shuffled, one of them NaN."""
    make = lib.dnls.random_state if model == "dnls" else lib.al.random_state
    kinds = [{}] if model == "dnls" else [{"boundary": b} for b in (lib.al.PERIODIC, lib.al.VANISHING)]
    sizes, widths = (0, 1, 2, 3, 6, 13), WIDTHS[:3]
    states = [make(rng, n, nd, md, scale=0.5, **kw) for n in sizes for nd, md in widths for kw in kinds]
    states = [states[i] for i in rng.permutation(len(states))]
    st = next(s for s in states if s.n_sites > 2)
    upper = getattr(st, st.FIELDS[0]).copy()
    upper[0] = np.nan
    states[states.index(st)] = st.with_fields(upper, getattr(st, st.FIELDS[1]))
    return states


def batch_cases():
    for model in ("dnls", "al"):

        def residuals(lib, api, model=model):
            rng = np.random.default_rng(100)
            states = _mixed(lib, rng, model)
            rows = rng.uniform(0.5, 1.5, (len(states), 3)) * np.exp(1j * rng.uniform(0, 6, (len(states), 3)))
            keys = (1, 2) if model == "dnls" else lib.al.VARIANTS
            return {key: call(api.residuals, states, key, rows) for key in keys}

        yield f"residuals.mixed.{model}", residuals

    for model in ("dnls", "al.periodic", "al.vanishing"):
        for nd, md in WIDTHS[:3]:

            def evolve(lib, api, model=model, nd=nd, md=md):
                rng = np.random.default_rng(200 + 10 * nd + md)
                if model == "dnls":
                    states = [lib.dnls.random_state(rng, 9, nd, md, scale=0.4, theta=t) for t in (1.0, 0.8 + 0.3j, 1.2)]
                    keys = (1, 2)
                else:
                    boundary = model.split(".")[1]
                    states = [lib.al.random_state(rng, 9, nd, md, scale=0.4, boundary=boundary) for _ in range(3)]
                    keys = lib.al.VARIANTS
                return {key: call(api.evolve_batch, states, key, 1e-2, 25, 4) for key in keys}

            yield f"evolve.batch.{model}.{nd}x{md}", evolve

    def blowup(lib, api):
        rng = np.random.default_rng(5)
        states = [lib.dnls.random_state(rng, 9, scale=0.2) for _ in range(3)]
        big = np.full((9, 1, 1), 50.0 + 0j)
        states[1] = states[1].with_fields(big, big)
        return call(api.evolve_batch, states, 1, 0.1, 50, None), call(lib.dnls.evolve, states[1], 1, 0.1, 50)

    yield "evolve.blowup", blowup

    for n in (12, 96, 768):

        def charges(lib, api, n=n):
            rng = np.random.default_rng(300 + n)
            states = [lib.dnls.random_state(rng, n, scale=0.4) for _ in range(51)]
            astates = [lib.al.random_state(rng, n, 1, 1, scale=0.4, boundary=b) for b in ("periodic", "vanishing")]
            c = lib.conserved
            return (
                call(c.transfer_traces, states, LAMS),
                call(c.transfer_traces, astates, ZS),
                call(c.closed_form_charges_batch, states),
                call(c.tau_series, states),
                call(c.tau_series, astates),
            )

        yield f"traces.N{n}", charges


def verification_cases():
    for seed in SEEDS:
        yield f"run_all.seed{seed}", lambda lib, api, seed=seed: call(lib.verification.run_all, seed)


@functools.cache
def _glm_systems(lib):
    """(name, system, closed-form arguments or None, RCOND_MIN or None) of the solver's cases, built once per tree."""
    glm, pair = lib.glm, lib.algebra.make_rank_one_pair(1, 1, 1.0, "triple")
    out = []
    for seed in (41, 42):
        # the glm-window benchmark's data: the core at the window centre, a second mode
        rng = np.random.default_rng(seed)
        lam_hat, lam, time = rng.uniform(1.0, 1.1), rng.uniform(0.9, 1.0), rng.uniform(0.0, 0.3)
        for window in (7, 14, 28, 40):
            mode = glm.GlmMode(
                np.exp(-2 * window * lam_hat) * pair.bhat, lam_hat, np.exp(-2 * window * lam) * pair.b, lam
            )
            mode2 = glm.GlmMode(
                0.4 * np.exp(-2 * window * (lam_hat + 0.15)) * pair.bhat,
                lam_hat + 0.15,
                0.7 * np.exp(-2 * window * (lam + 0.05)) * pair.b,
                lam + 0.05,
            )
            for scheme in (glm.FORWARD_BACKWARD, glm.SYMMETRIC):
                for modes in ((mode,), (mode, mode2)):
                    system = glm.build_hankel_data(modes, scheme, 1.0, window, 1, time)
                    kappa = complex(mode.amp_hat[0, 0] * mode.amp[0, 0])
                    closed = (mode, kappa, window, time, scheme) if len(modes) == 1 else None
                    out.append((f"window.seed{seed}.W{window}.{scheme}.{len(modes)}mode", system, closed, None))
    systems, solve = [], glm.solve_glm
    glm.solve_glm = lambda system: (systems.append(system), solve(system))[1]
    try:
        lib.verification.glm_suite()
    finally:
        glm.solve_glm = solve
    out += [(f"glm_suite.{k}", system, None, None) for k, system in enumerate(systems)]
    for window, nd, md, rcond_min in ((40, 1, 2, None), (40, 2, 1, None), (40, 1, 1, 0.9), (40, 1, 2, 0.9)):
        rng = np.random.default_rng(window + 10 * nd + 100 * md)
        modes = []
        for lam_hat, lam in ((0.65, 0.55), (0.8, 0.6)):
            amp_hat = np.exp(-2 * window * lam_hat) * rng.uniform(-1, 1, (nd, md, 2)) @ [1, 1j]
            amp = np.exp(-2 * window * lam) * rng.uniform(-1, 1, (md, nd, 2)) @ [1, 1j]
            modes.append(glm.GlmMode(amp_hat, lam_hat, amp, lam))
        system = glm.build_hankel_data(modes, glm.FORWARD_BACKWARD, 1.0, window, 1, 0.2)
        stop = "" if rcond_min is None else f".rcond_min{rcond_min}"
        out.append((f"blocks.W{window}.{nd}x{md}{stop}", system, None, rcond_min))
    return out


@functools.cache
def _glm_solve(lib, index, rcond_min):
    """The solve of system ``index``, with ``RCOND_MIN`` raised to ``rcond_min`` if given; solved once per tree."""
    glm = lib.glm
    _, system, _, _ = _glm_systems(lib)[index]
    saved = glm.RCOND_MIN
    glm.RCOND_MIN = saved if rcond_min is None else rcond_min
    try:
        return call(glm.solve_glm, system)
    finally:
        glm.RCOND_MIN = saved


def glm_cases():
    for index, (name, _, closed, rcond_min) in enumerate(_glm_systems(lattice_akns)):

        def solve(lib, api, index=index, rcond_min=rcond_min):
            sol = _glm_solve(lib, index, rcond_min)
            if isinstance(sol, tuple):  # raised
                return sol
            return {k: getattr(sol, k) for k in ("a", "b", "c", "d", "factorization_residual")}

        def min_rcond(lib, api, index=index, rcond_min=rcond_min):
            sol = _glm_solve(lib, index, rcond_min)
            return sol if isinstance(sol, tuple) else sol.min_rcond

        yield f"glm.{name}.solve", solve
        yield f"glm.{name}.min_rcond", min_rcond
        if closed is not None:

            def closed_form(lib, api, index=index):
                mode, kappa, window, time, scheme = _glm_systems(lib)[index][2]
                return call(lib.glm.one_soliton_closed_form, mode, kappa, window, time, scheme)

            yield f"glm.{name}.closed_form", closed_form


def _cli_runs(tmp: Path):
    """(name, argv) of the console-script configs of the CI workflow."""

    def run(dt, steps, save_every):
        return {"dt": dt, "steps": steps, "save_every": save_every}

    configs = {
        "glm-tight": {"params": {"tolerance": 1e-300}},
        "singular": {"params": {"family": "type1", "alpha": 3, "kappa": -1, "xi_root_of_unity": -1, "d1": -1}},
        "overflow": {"params": {"family": "type1", "xi": [1000, 0], "sites": 200}},
        "toda-overflow": {"params": {"family": "toda", "kappa": 1e300}},
        "glm-nan": {"params": {"modes": [{"bhat": 1, "b": 0, "lam_hat": 0.5, "lam": -800}]}},
        "periodic-large": {"params": {"family": "type1", "sites": 4000, "periodic": True}},
        "glm-wide": {"params": {"window": 300}},
        "osc-overflow": {"model": "al", "params": {"family": "oscillator", "sites": 1600}},
        "osc-800": {"model": "al", "params": {"family": "oscillator", "sites": 800}},
        "toda-no-modes": {"model": "dnls", "params": {"family": "toda", "modes": []}},
        "flow-3": {"model": "dnls", "params": {"initial": {"family": "random"}, "alpha": 3}},
        "evolve-dnls": {
            "command": "evolve",
            "model": "dnls",
            "params": {"initial": {"family": "random", "sites": 1}, "alpha": 2, **run(0.01, 20, 5)},
        },
        "evolve-al": {
            "command": "evolve",
            "model": "al",
            "params": {"initial": {"family": "oscillator"}, "variant": "network", **run(0.001, 20, 5)},
        },
        "evolve-al-vanishing": {
            "command": "evolve",
            "model": "al",
            "params": {"initial": {"family": "fundamental", "sites": 24}, "variant": "al", **run(0.001, 50, 10)},
        },
    }
    initial = {"family": "type1", "xi_root_of_unity": 1, "d1": [0.1, 0.0], "x1": [0.7, 0.0], "periodic": True}
    for sites in (96, 768):
        configs[f"charges-{sites}"] = {
            "command": "charges",
            "model": "dnls",
            "params": {"initial": {**initial, "sites": sites}, "alpha": 1, **run(0.001, 200, 4)},
        }
    for name, config in configs.items():
        (tmp / f"{name}.json").write_text(json.dumps(config))
    command = {name: c.get("command", "soliton") for name, c in configs.items()}
    command.update({k: "glm" for k in ("glm-tight", "glm-nan", "glm-wide")})
    command["flow-3"] = "evolve"
    runs = [(name, [command[name], "--config", str(tmp / f"{name}.json")]) for name in configs]
    runs += [
        ("glm-symmetric", ["glm", "--scheme", "symmetric", "--modes", "1"]),
        ("glm-200", ["glm", "--window", "200"]),
        ("glm-290", ["glm", "--window", "290"]),
        ("verify-all", ["verify-all"]),
        ("burgers", ["burgers", "--delta", "0.1"]),
        ("burgers-negative", ["burgers", "--delta", "-0.1"]),
        ("sites-0", ["soliton", "--sites", "0"]),
        ("al-fundamental", ["soliton", "--model", "al", "--family", "fundamental"]),
    ]
    return runs


def cli_cases(tmp: Path):
    for name, argv in _cli_runs(tmp):

        def run(lib, api, name=name, argv=argv):
            cli = importlib.import_module(f"{lib.__name__}.cli")
            out = tmp / lib.__name__ / name
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = call(cli.main, [*argv, "--out", str(out)])
            files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
            texts = (s.getvalue().replace(str(out), "OUT") for s in (stdout, stderr))
            return code, *texts, files

        yield f"cli.{name}", run


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--baseline", type=Path, required=True, help="source tree (a src directory) to compare against")
    ap.add_argument("--baseline-label", default="baseline", help="name of the baseline tree in the summary")
    ap.add_argument("--out", type=Path, default=Path("parity.json"))
    ap.add_argument("--cases", nargs="+", metavar="PATTERN", help="run only the cases matching a pattern")
    args = ap.parse_args()
    trees = [lattice_akns, load_tree(args.baseline, "baseline_lattice_akns")]
    apis = [entry_points(lib) for lib in trees]
    summary = {"baseline": args.baseline_label, "cases": 0, "numbers": 0, "differences": {}}
    with tempfile.TemporaryDirectory() as tmp:
        cases = [*kernel_cases(), *batch_cases(), *verification_cases(), *glm_cases(), *cli_cases(Path(tmp))]
        if args.cases:
            cases = [(name, case) for name, case in cases if any(fnmatch.fnmatchcase(name, p) for p in args.cases)]
        for name, case in cases:
            got, ref = (case(lib, api) for lib, api in zip(trees, apis))
            summary["cases"] += 1
            summary["numbers"] += count(ref)
            ulps = distance(got, ref)
            if ulps:
                summary["differences"][name] = ulps
                print(f"DIFFERS {name}: {ulps} ulp", flush=True)
    print(f"{summary['cases']} cases, {summary['numbers']} numbers, {len(summary['differences'])} differ")
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 1 if summary["differences"] else 0


if __name__ == "__main__":
    sys.exit(main())
