"""Time the lattice kernels against lattice size N and block width (n, m).

Kernels: the equation-of-motion right-hand sides (``lattice.eom_rhs`` of
the dnls flows 1-2 and of both AL variants; each builds the right-hand
side that RK4 steps and runs it once on a padded copy of the state), one
RK4 step (``dnls.evolve`` flows 1 and 2, ``al.al_evolve`` variant "al" on
a periodic lattice and on a vanishing window, ``RK4_STEPS`` = 64 steps per
call, the time per step including a 64th of the call's set-up and state
wrap: at N = 12 and (1,1) fields, where that set-up weighs most, it is
about two steps' time, so about 3 % of a call),
the zero-curvature residuals (``dnls.zero_curvature_residual`` flow 2
at the samples ``BATCH_LAMBDAS``, ``al.al_zero_curvature_residual`` variant
"al" at ``ZS``) and ``dnls.v_coeffs`` for flows 1-3, at N in ``SIZES``; and
``conserved.transfer_trace`` of a random dnls state (lambda = -0.7+0.3i) and
AL state (z = 0.6+0.8i), moduli at which the trace stays in float64 range,
at N in ``TRACE_SIZES``;
``glm.solve_glm`` of two-mode Hankel data (forward-backward scheme, the
decay rates of ``verification.glm_suite``) at window W in ``GLM_WINDOWS``,
for the widths in ``GLM_WIDTHS`` (each of these cells also records, as
``peak_mib``, the tracemalloc peak of one untimed solve); and the charges of a saved trajectory at
N in ``BATCH_SIZES``: ``conserved.transfer_traces`` of ``BATCH_STATES``
random width-(1,1) dnls states at the three samples of the ``charges``
command, and ``conserved.tau`` (``tau_series``) of the same states; and the
batched zero-curvature residuals (``lattice.zero_curvature_residuals`` of
dnls flow 2 and of AL variant "al") of ``RESIDUAL_STATES``
random width-(1,1) states, each at its own row of samples, at each
(N, states) pair there (a tree without the batched functions runs the
single-state residual once per state), and the same batched residuals on
the zero-curvature suites' own draw: ``SUITE_STATES`` random states of 6 to
13 sites, alternately of widths (1,1) and (1,2), each at its own five
samples, for ``dnls`` flows 1-2 and both ``al`` variants; and one RK4 step of
``lattice.evolve`` of dnls flow 2 on random width-(1,1) states at each
(N, members) pair of ``RK4_BATCHES``, the shape of the conservation suite;
and the CSV writers, each writing to the null device: ``cli._write_states``
of the ``cli-trajectory`` benchmark's flow-2 run (a type-1 soliton on
``CSV_SITES`` sites, 400 steps saved every 2, so 201 samples), and
``cli.write_csv`` of the one-mode ``glm_solution.csv`` at window
``CSV_WINDOW``, its rows built as the ``glm`` command builds them; and,
on the same soliton, ``conserved.closed_form_charges_batch`` of the 51
saved samples of the ``charges`` command's flow-1 run (a tree without it
forms them one state at a time) and ``numtext.e17_cells`` of the 77,184
floats of the flow-2 run's ``trajectory.csv``.
Each cell is the best of ``--repeat`` timings with one BLAS thread.  One
JSON row goes to ``--out``; if that file already holds rows, the new row is
appended.

``--baseline SRC`` also imports the ``lattice_akns`` package under ``SRC``
(a source tree's ``src`` directory, say a checkout of an earlier commit)
under another package name, builds each cell's inputs with both trees from
the same seed, and alternates the two trees' timings of each cell, first
one then the other, so that load drift on a shared host hits both alike.
Each result then carries ``baseline_ms`` beside ``ms`` (and
``baseline_peak_mib`` beside ``peak_mib``).  Where the trees name an entry
point differently (the per-model functions of older trees against the flow
records and ``lattice`` drivers of newer ones), the cell keeps its name and
calls each tree's own (:func:`flow_driver`).
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import timeit  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import lattice_akns  # noqa: E402

SIZES = (12, 96, 768)
TRACE_SIZES = (12, 96, 768, 4000)
WIDTHS = ((1, 1), (1, 2), (2, 2), (4, 4), (8, 8))
GLM_WINDOWS = (7, 14, 28, 40, 100, 200)
GLM_WIDTHS = ((1, 1), (1, 2))
BATCH_SIZES = (12, 96, 768)
BATCH_STATES = 51
BATCH_LAMBDAS = (0.5, 1.5 + 0.5j, -0.7 + 0.3j)
RK4_STEPS = 64
ZS = (0.8, 1.5 + 0.3j, 0.7j)
# (N, states) of the batched zero-curvature residual cells
RESIDUAL_STATES = ((12, 8), (96, 8), (768, 1))
# states of the zero-curvature suites' draw
SUITE_STATES = 50
# (N, members) of the batched RK4 step cells
RK4_BATCHES = ((12, 4),)
CSV_SITES = 96
CSV_WINDOW = 100


def load_tree(src: Path, name: str):
    """Import the ``lattice_akns`` package under ``src`` as the package ``name``."""
    pkg = src / "lattice_akns"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    if spec is None:
        raise SystemExit(f"no lattice_akns package under {src}")
    lib = importlib.util.module_from_spec(spec)
    sys.modules[name] = lib
    spec.loader.exec_module(lib)
    return lib


def flow_driver(lib, module, name, old):
    """``lattice.<name>`` of the tree ``lib`` bound to the flow records of ``module``.

    The result takes a flow key (alpha or variant) where the driver takes a
    flow record, as the per-model function ``old`` of a tree without flow
    records does; in such a tree it is ``old`` itself, or ``None`` if
    ``old`` is ``None`` or the tree has no function of that name.
    """
    mod = getattr(lib, module)
    if not hasattr(mod, "FLOWS"):
        return getattr(mod, old, None) if old else None
    driver = getattr(lib.lattice, name)
    return lambda first, key, *rest: driver(first, mod.FLOWS[key], *rest)


def best_ms(fns, repeat, budget=0.02):
    """Best time per call in ms of each callable over ``repeat`` runs of about ``budget`` seconds.

    The callables' runs alternate, their order flipping from one run to the next.
    """
    number = max(1, int(budget / max(timeit.timeit(fns[0], number=1), 1e-9)))
    best = [float("inf")] * len(fns)
    for r in range(repeat):
        for i in range(len(fns))[:: 1 if r % 2 == 0 else -1]:
            best[i] = min(best[i], timeit.timeit(fns[i], number=number))
    return [1e3 * b / number for b in best]


def peak_mib(fn):
    """Peak of the memory that one call of ``fn`` allocates, in MiB (tracemalloc)."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def kernels(lib, n_sites, n_dim, m_dim, rng):
    """(name, zero-argument callable) pairs for one grid cell."""
    al, dnls = lib.al, lib.dnls
    st = dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.4, theta=0.8 + 0.3j)
    ast = al.random_state(rng, n_sites, n_dim, m_dim, scale=0.4)
    vst = al.AlState(n_sites, n_dim, m_dim, ast.bhat, ast.b, al.VANISHING)
    dnls_rhs, al_rhs = flow_driver(lib, "dnls", "eom_rhs", "eom_rhs"), flow_driver(lib, "al", "eom_rhs", "al_eom_rhs")
    out = [(f"dnls.eom_rhs.flow{a}", lambda a=a: dnls_rhs(st, a)) for a in (1, 2)]
    out += [(f"al.al_eom_rhs.{var}", lambda var=var: al_rhs(ast, var)) for var in al.VARIANTS]
    out += [
        ("dnls.rk4_step.flow1", lambda: dnls.evolve(st, 1, 1e-3, RK4_STEPS, RK4_STEPS)),
        ("dnls.rk4_step.flow2", lambda: dnls.evolve(st, 2, 1e-3, RK4_STEPS, RK4_STEPS)),
        ("al.rk4_step.al", lambda: al.al_evolve(ast, al.VARIANT_AL, 1e-3, RK4_STEPS, RK4_STEPS)),
        ("al.rk4_step.al.vanishing", lambda: al.al_evolve(vst, al.VARIANT_AL, 1e-3, RK4_STEPS, RK4_STEPS)),
        ("dnls.zero_curvature_residual.flow2", lambda: dnls.zero_curvature_residual(st, 2, BATCH_LAMBDAS)),
        ("al.al_zero_curvature_residual.al", lambda: al.al_zero_curvature_residual(ast, al.VARIANT_AL, ZS)),
    ]
    out += [(f"dnls.v_coeffs.flow{a}", lambda a=a: dnls.v_coeffs(st, a)) for a in dnls.V_OPERATOR_FLOWS]
    return out


def trace_kernels(lib, n_sites, n_dim, m_dim, rng):
    """Transfer traces of one random state per model, for one grid cell."""
    st = lib.dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.4)
    ast = lib.al.random_state(rng, n_sites, n_dim, m_dim, scale=0.4)
    return [
        ("conserved.transfer_trace.dnls", lambda: lib.conserved.transfer_trace(st, -0.7 + 0.3j)),
        ("conserved.transfer_trace.al", lambda: lib.conserved.transfer_trace(ast, 0.6 + 0.8j)),
    ]


def batch_kernels(lib, n_sites, n_dim, m_dim, rng):
    """Traces and tau series of a batch of states, for one grid cell."""
    states = [lib.dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.4) for _ in range(BATCH_STATES)]
    return [
        ("conserved.transfer_traces", lambda: lib.conserved.transfer_traces(states, BATCH_LAMBDAS)),
        ("conserved.tau", lambda: lib.conserved.tau_series(states)),
    ]


def _batched(single, batched):
    """The batched residual function, or a loop of the single-state one in a tree without it."""
    if batched is not None:
        return batched
    return lambda states, flow, rows: [single(st, flow, row) for st, row in zip(states, rows)]


def _residuals(lib):
    """The tree's batched zero-curvature residuals of dnls and of AL states, each taking a flow key."""
    name = "zero_curvature_residuals"
    dnls = _batched(lib.dnls.zero_curvature_residual, flow_driver(lib, "dnls", name, name))
    al = _batched(lib.al.al_zero_curvature_residual, flow_driver(lib, "al", name, f"al_{name}"))
    return dnls, al


def residual_kernels(lib, n_sites, n_states, rng):
    """Batched zero-curvature residuals of ``n_states`` states, each at its own samples."""
    al, dnls = lib.al, lib.dnls
    states = [dnls.random_state(rng, n_sites, scale=0.4, theta=0.8 + 0.3j) for _ in range(n_states)]
    astates = [al.random_state(rng, n_sites, scale=0.4) for _ in range(n_states)]
    # state k takes the samples rotated by k places
    rows, zrows = ([s[k % len(s) :] + s[: k % len(s)] for k in range(n_states)] for s in (BATCH_LAMBDAS, ZS))
    dnls_fn, al_fn = _residuals(lib)
    return [
        ("dnls.zero_curvature_residuals.flow2", lambda: dnls_fn(states, 2, rows)),
        ("al.al_zero_curvature_residuals.al", lambda: al_fn(astates, al.VARIANT_AL, zrows)),
    ]


def suite_residual_kernels(lib, n_states, rng):
    """Batched zero-curvature residuals of the suites' draw: sizes 6..13, widths (1,1) and (1,2), five samples each."""
    al, dnls = lib.al, lib.dnls
    shapes = [(int(rng.integers(6, 14)), 1, 1 + k % 2) for k in range(n_states)]
    states = [dnls.random_state(rng, *shape, scale=0.6) for shape in shapes]
    astates = [al.random_state(rng, *shape, scale=0.4) for shape in shapes]
    rows = rng.uniform(-1.5, 1.5, (n_states, 5)) + 1j * rng.uniform(-1.5, 1.5, (n_states, 5))
    zrows = rng.uniform(0.5, 2.0, (n_states, 5)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (n_states, 5)))
    dnls_fn, al_fn = _residuals(lib)
    out = [(f"dnls.zero_curvature_residuals.suite.flow{a}", lambda a=a: dnls_fn(states, a, rows)) for a in (1, 2)]
    out += [(f"al.al_zero_curvature_residuals.suite.{v}", lambda v=v: al_fn(astates, v, zrows)) for v in al.VARIANTS]
    return out


def rk4_batch_kernels(lib, n_sites, n_members, rng):
    """One RK4 step of a batch of ``n_members`` states on a member axis."""
    states = [lib.dnls.random_state(rng, n_sites, scale=0.4, theta=0.8 + 0.3j) for _ in range(n_members)]
    name = f"dnls.rk4_step.flow2.batch{n_members}"
    evolve = flow_driver(lib, "dnls", "evolve", "evolve_batch")
    return [(name, lambda: evolve(states, 2, 1e-3, RK4_STEPS, RK4_STEPS))]


def glm_system(lib, window, n_dim, m_dim, mode_params):
    """Forward-backward Hankel data of the modes ``(amp, lam_hat, lam)`` at ``window``."""
    glm = lib.glm
    pair = lib.algebra.make_rank_one_pair(n_dim, m_dim, 1.0, "triple")
    modes = [
        glm.GlmMode(
            amp * np.exp(-2 * window * lam_hat) * pair.bhat,
            lam_hat,
            amp * np.exp(-2 * window * lam) * pair.b,
            lam,
        )
        for amp, lam_hat, lam in mode_params
    ]
    return glm.build_hankel_data(modes, glm.FORWARD_BACKWARD, 1.0, window, 1, 0.2)


def glm_kernels(lib, window, n_dim, m_dim, rng):
    """The factorization solve of one two-mode system, for one grid cell."""
    system = glm_system(lib, window, n_dim, m_dim, ((1.0, 0.65, 0.55), (0.5, 0.8, 0.6)))
    return [("glm.solve_glm", lambda: lib.glm.solve_glm(system))]


def state_csv_kernels(lib, n_sites, rng):
    """``trajectory.csv`` of a flow-2 type-1 soliton run: 201 samples of ``n_sites`` sites."""
    traj = _soliton_run(lib, n_sites, 2, 400, 2)
    cli = importlib.import_module(f"{lib.__name__}.cli")
    return [("cli._write_states", lambda: cli._write_states(Path(os.devnull), traj))]


def _soliton_run(lib, n_sites, alpha, steps, save_every):
    """The saved samples of a flow-``alpha`` run of the CLI's default type-1 soliton on ``n_sites`` sites."""
    darboux, dnls = lib.darboux, lib.dnls
    params = darboux.type1_params(np.exp(2j * np.pi / n_sites), 1.0, 0.1, 0.7, alpha)
    state = darboux.soliton_type1(params, n_sites, 0.0, require_periodic=True)
    return dnls.evolve(state, alpha, 1e-3, steps, save_every)


def charges_kernels(lib, n_sites, rng):
    """The closed-form charges of the ``charges`` command's 51 saved samples (flow 1, 200 steps saved every 4)."""
    states = [st for _, st in _soliton_run(lib, n_sites, 1, 200, 4)]
    conserved = lib.conserved
    batch = getattr(conserved, "closed_form_charges_batch", None)
    if batch is None:  # a tree without the batch forms one state at a time
        batch = lambda states: [conserved.closed_form_charges(st) for st in states]  # noqa: E731
    return [("conserved.closed_form_charges_batch", lambda: batch(states))]


def e17_kernels(lib, n_sites, rng):
    """``numtext.e17_cells`` of the 77,184 floats of the flow-2 ``trajectory.csv`` (``state_csv_kernels``' run)."""
    traj = _soliton_run(lib, n_sites, 2, 400, 2)
    values = np.array([np.concatenate([st.x.ravel(), st.y.ravel()]) for _, st in traj]).view(np.float64)
    numtext = importlib.import_module(f"{lib.__name__}.numtext")
    return [("numtext.e17_cells", lambda: numtext.e17_cells(values))]


def glm_csv_kernels(lib, window, rng):
    """``glm_solution.csv`` of a one-mode solve at ``window``, rows as the ``glm`` command writes them."""
    sol = lib.glm.solve_glm(glm_system(lib, window, 1, 1, ((1.0, 0.65, 0.55),)))
    i, j = np.triu_indices(2 * window + 1)
    b, c = sol.b[i, j, 0, 0], sol.c[i, j, 0, 0]
    rows = list(zip(*(a.tolist() for a in (i - window, j - window, b.real, b.imag, c.real, c.imag))))
    header = ["i", "j", "b_re", "b_im", "c_re", "c_im"]
    cli = importlib.import_module(f"{lib.__name__}.cli")
    return [("cli.write_csv.glm_solution", lambda: cli.write_csv(Path(os.devnull), header, rows))]


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", type=Path, default=Path("bench_kernels.json"))
    ap.add_argument("--label", default="current", help="name of this row")
    ap.add_argument("--repeat", type=int, default=5)
    ap.add_argument("--baseline", type=Path, help="source tree (a src directory) to time against, cell by cell")
    ap.add_argument("--baseline-label", default="baseline", help="name of the baseline tree in the row")
    args = ap.parse_args()

    libs = [lattice_akns]
    if args.baseline is not None:
        libs.append(load_tree(args.baseline, "baseline_lattice_akns"))
    # (size key, size, the cell's other arguments, cell): N is the lattice size, W the glm window
    widths = [{"n_dim": n_dim, "m_dim": m_dim} for n_dim, m_dim in WIDTHS]
    grid = [("N", n, w, kernels) for n in SIZES for w in widths]
    grid += [("N", n, w, trace_kernels) for n in TRACE_SIZES for w in widths]
    grid += [("W", n, {"n_dim": nd, "m_dim": md}, glm_kernels) for n in GLM_WINDOWS for nd, md in GLM_WIDTHS]
    grid += [("N", n, {"n_dim": 1, "m_dim": 1}, batch_kernels) for n in BATCH_SIZES]
    grid += [("N", n, {"states": k}, residual_kernels) for n, k in RESIDUAL_STATES]
    grid += [("N", n, {"members": k}, rk4_batch_kernels) for n, k in RK4_BATCHES]
    grid += [("N", CSV_SITES, {}, state_csv_kernels), ("W", CSV_WINDOW, {}, glm_csv_kernels)]
    # last, so that the cells before it keep their seeds
    grid += [("states", SUITE_STATES, {}, suite_residual_kernels)]
    grid += [("N", CSV_SITES, {}, charges_kernels), ("N", CSV_SITES, {}, e17_kernels)]
    results = []
    for seed, (key, size, extra, cell) in enumerate(grid):
        # each tree builds the cell's inputs from the same seed
        cells = [cell(lib, size, *extra.values(), np.random.default_rng(seed)) for lib in libs]
        for named in zip(*cells):
            name = named[0][0]
            times = best_ms([fn for _, fn in named], args.repeat)
            if "rk4_step" in name:
                times = [t / RK4_STEPS for t in times]
            result = {"kernel": name, key: size, **extra, "ms": times[0]}
            line = f"{name:36s} {key}={size:4d} {tuple(extra.values())!s:6s} {times[0]:10.4f} ms"
            if len(times) > 1:
                result["baseline_ms"] = times[1]
                line += f"  baseline {times[1]:10.4f} ms  ({times[0] / times[1]:.3f})"
            if cell is glm_kernels:
                peaks = [peak_mib(fn) for _, fn in named]
                result["peak_mib"] = peaks[0]
                line += f"  peak {peaks[0]:.2f} MiB"
                if len(peaks) > 1:
                    result["baseline_peak_mib"] = peaks[1]
                    line += f" (baseline {peaks[1]:.2f})"
            results.append(result)
            print(line, flush=True)
    row = {
        "label": args.label,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "repeat": args.repeat,
    }
    if args.baseline is not None:
        row["baseline"] = args.baseline_label
    row["results"] = results
    rows = json.loads(args.out.read_text())["rows"] if args.out.exists() else []
    args.out.write_text(json.dumps({"rows": rows + [row]}, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
