"""Time the lattice kernels against lattice size N and block width (n, m).

Kernels: the equation-of-motion right-hand sides (``dnls.eom_rhs`` for
flows 1-2, ``al.al_eom_rhs`` for both variants; each builds the right-hand
side that RK4 steps and runs it once on a padded copy of the state), one
RK4 step (``dnls.evolve`` flow 2 and ``al.al_evolve`` variant "al",
``RK4_STEPS`` = 64 steps per call, the time per step including a 64th of
the call's set-up and state wrap: at N = 12 and (1,1) fields, where that
set-up weighs most, it is about two steps' time, so about 3 % of a call),
the zero-curvature residuals (``dnls.zero_curvature_residual`` flow 2
at the samples ``BATCH_LAMBDAS``, ``al.al_zero_curvature_residual`` variant
"al" at ``ZS``) and ``dnls.v_coeffs`` for flows 1-3, at N in ``SIZES``; and
``conserved.transfer_trace`` of a random dnls state (lambda = -0.7+0.3i) and
AL state (z = 0.6+0.8i), moduli at which the trace stays in float64 range,
at N in ``TRACE_SIZES``;
``glm.solve_glm`` of two-mode Hankel data (forward-backward scheme, the
decay rates of ``verification.glm_suite``) at window W in ``GLM_WINDOWS``,
for the widths in ``GLM_WIDTHS``; and the charges of a saved trajectory at
N in ``BATCH_SIZES``: ``conserved.transfer_traces`` of ``BATCH_STATES``
random width-(1,1) dnls states at the three samples of the ``charges``
command, and ``conserved.tau`` (``tau_series``) of the same states.  Each
cell is the best of ``--repeat`` timings with one BLAS thread.  One
JSON row goes to ``--out``; if that file already holds rows, the new row is
appended, so two runs (say, against two source trees on PYTHONPATH) give a
before/after table.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import timeit  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from lattice_akns import al, conserved, dnls, glm  # noqa: E402
from lattice_akns.algebra import make_rank_one_pair  # noqa: E402

SIZES = (12, 96, 768)
TRACE_SIZES = (12, 96, 768, 4000)
WIDTHS = ((1, 1), (1, 2), (2, 2), (4, 4), (8, 8))
GLM_WINDOWS = (7, 14, 28, 40, 100)
GLM_WIDTHS = ((1, 1), (1, 2))
BATCH_SIZES = (12, 96, 768)
BATCH_STATES = 51
BATCH_LAMBDAS = (0.5, 1.5 + 0.5j, -0.7 + 0.3j)
RK4_STEPS = 64
ZS = (0.8, 1.5 + 0.3j, 0.7j)


def best_ms(fn, repeat, budget=0.02):
    """Best time per call in ms over ``repeat`` runs of about ``budget`` seconds."""
    once = timeit.timeit(fn, number=1)
    number = max(1, int(budget / max(once, 1e-9)))
    return 1e3 * min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def kernels(n_sites, n_dim, m_dim, rng):
    """(name, zero-argument callable) pairs for one grid cell."""
    st = dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.4, theta=0.8 + 0.3j)
    ast = al.random_state(rng, n_sites, n_dim, m_dim, scale=0.4)
    out = [(f"dnls.eom_rhs.flow{a}", lambda a=a: dnls.eom_rhs(st, a)) for a in (1, 2)]
    out += [(f"al.al_eom_rhs.{var}", lambda var=var: al.al_eom_rhs(ast, var)) for var in al.VARIANTS]
    out += [
        ("dnls.rk4_step.flow2", lambda: dnls.evolve(st, 2, 1e-3, RK4_STEPS, RK4_STEPS)),
        ("al.rk4_step.al", lambda: al.al_evolve(ast, al.VARIANT_AL, 1e-3, RK4_STEPS, RK4_STEPS)),
        ("dnls.zero_curvature_residual.flow2", lambda: dnls.zero_curvature_residual(st, 2, BATCH_LAMBDAS)),
        ("al.al_zero_curvature_residual.al", lambda: al.al_zero_curvature_residual(ast, al.VARIANT_AL, ZS)),
    ]
    out += [(f"dnls.v_coeffs.flow{a}", lambda a=a: dnls.v_coeffs(st, a)) for a in dnls.V_OPERATOR_FLOWS]
    return out


def trace_kernels(n_sites, n_dim, m_dim, rng):
    """Transfer traces of one random state per model, for one grid cell."""
    st = dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.4)
    ast = al.random_state(rng, n_sites, n_dim, m_dim, scale=0.4)
    return [
        ("conserved.transfer_trace.dnls", lambda: conserved.transfer_trace(st, -0.7 + 0.3j)),
        ("conserved.transfer_trace.al", lambda: conserved.transfer_trace(ast, 0.6 + 0.8j)),
    ]


def batch_kernels(n_sites, n_dim, m_dim, rng):
    """Traces and tau series of a batch of states, for one grid cell."""
    states = [dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.4) for _ in range(BATCH_STATES)]
    return [
        ("conserved.transfer_traces", lambda: conserved.transfer_traces(states, BATCH_LAMBDAS)),
        ("conserved.tau", lambda: conserved.tau_series(states)),
    ]


def glm_kernels(window, n_dim, m_dim, rng):
    """The factorization solve of one two-mode system, for one grid cell."""
    pair = make_rank_one_pair(n_dim, m_dim, 1.0, "triple")
    modes = [
        glm.GlmMode(
            amp * np.exp(-2 * window * lam_hat) * pair.bhat,
            lam_hat,
            amp * np.exp(-2 * window * lam) * pair.b,
            lam,
        )
        for amp, lam_hat, lam in ((1.0, 0.65, 0.55), (0.5, 0.8, 0.6))
    ]
    system = glm.build_hankel_data(modes, glm.FORWARD_BACKWARD, 1.0, window, 1, 0.2)
    return [("glm.solve_glm", lambda: glm.solve_glm(system))]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("bench_kernels.json"))
    ap.add_argument("--label", default="current", help="name of this row")
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    # (size key, size, widths, cell): N is the lattice size, W the glm window
    grid = [("N", n, w, kernels) for n in SIZES for w in WIDTHS]
    grid += [("N", n, w, trace_kernels) for n in TRACE_SIZES for w in WIDTHS]
    grid += [("W", n, w, glm_kernels) for n in GLM_WINDOWS for w in GLM_WIDTHS]
    grid += [("N", n, (1, 1), batch_kernels) for n in BATCH_SIZES]
    results = []
    for key, size, (n_dim, m_dim), cell in grid:
        for name, fn in cell(size, n_dim, m_dim, rng):
            ms = best_ms(fn, args.repeat)
            if "rk4_step" in name:
                ms /= RK4_STEPS
            results.append({"kernel": name, key: size, "n_dim": n_dim, "m_dim": m_dim, "ms": ms})
            print(f"{name:36s} {key}={size:4d} ({n_dim},{m_dim}) {ms:10.4f} ms")
    row = {
        "label": args.label,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "repeat": args.repeat,
        "results": results,
    }
    rows = json.loads(args.out.read_text())["rows"] if args.out.exists() else []
    args.out.write_text(json.dumps({"rows": rows + [row]}, indent=1) + "\n")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
