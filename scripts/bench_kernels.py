"""Time the lattice kernels against lattice size N and block width (n, m).

Kernels: the equation-of-motion right-hand sides (``dnls._eom`` for flows
1-2, ``al._eom`` for both variants), one RK4 step (``dnls.evolve`` flow 2
and ``al.al_evolve`` variant "al", four steps per call, the time per step
including the call's state wrap), and ``lattice.curvature_residual`` on
random (N, d, d) stacks, at N in ``SIZES``; and ``conserved.transfer_trace``
of a random dnls state (lambda = -0.7+0.3i) and AL state (z = 0.6+0.8i),
moduli at which the trace stays in float64 range, at N in ``TRACE_SIZES``;
and ``glm.solve_glm`` of two-mode Hankel data (forward-backward scheme, the
decay rates of ``verification.glm_suite``) at window W in ``GLM_WINDOWS``,
for the widths in ``GLM_WIDTHS``.  Each cell is the best of ``--repeat`` timings with one BLAS thread.  One
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

from lattice_akns import al, conserved, dnls, glm, lattice  # noqa: E402
from lattice_akns.algebra import make_rank_one_pair  # noqa: E402

SIZES = (12, 96, 768)
TRACE_SIZES = (12, 96, 768, 4000)
WIDTHS = ((1, 1), (1, 2), (2, 2), (4, 4), (8, 8))
GLM_WINDOWS = (7, 14, 28, 40, 100)
GLM_WIDTHS = ((1, 1), (1, 2))
RK4_STEPS = 4


def best_ms(fn, repeat, budget=0.02):
    """Best time per call in ms over ``repeat`` runs of about ``budget`` seconds."""
    once = timeit.timeit(fn, number=1)
    number = max(1, int(budget / max(once, 1e-9)))
    return 1e3 * min(timeit.repeat(fn, number=number, repeat=repeat)) / number


def kernels(n_sites, n_dim, m_dim, rng):
    """(name, zero-argument callable) pairs for one grid cell."""
    st = dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.4, theta=0.8 + 0.3j)
    ast = al.random_state(rng, n_sites, n_dim, m_dim, scale=0.4)
    nn = st.nmat()
    d = n_dim + m_dim
    lax, v, dl = (
        rng.standard_normal((n_sites, d, d)) + 1j * rng.standard_normal((n_sites, d, d))
        for _ in range(3)
    )
    out = [(f"dnls._eom.flow{a}", lambda a=a: dnls._eom(st.x, st.y, nn, a)) for a in (1, 2)]
    out += [
        (f"al._eom.{var}", lambda var=var: al._eom(ast.bhat, ast.b, True, var))
        for var in al.VARIANTS
    ]
    out += [
        ("dnls.rk4_step.flow2", lambda: dnls.evolve(st, 2, 1e-3, RK4_STEPS, RK4_STEPS)),
        ("al.rk4_step.al", lambda: al.al_evolve(ast, al.VARIANT_AL, 1e-3, RK4_STEPS, RK4_STEPS)),
        ("lattice.curvature_residual", lambda: lattice.curvature_residual(dl, lax, v)),
    ]
    return out


def trace_kernels(n_sites, n_dim, m_dim, rng):
    """Transfer traces of one random state per model, for one grid cell."""
    st = dnls.random_state(rng, n_sites, n_dim, m_dim, scale=0.4)
    ast = al.random_state(rng, n_sites, n_dim, m_dim, scale=0.4)
    return [
        ("conserved.transfer_trace.dnls", lambda: conserved.transfer_trace(st, -0.7 + 0.3j)),
        ("conserved.transfer_trace.al", lambda: conserved.transfer_trace(ast, 0.6 + 0.8j)),
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
    results = []
    for key, size, (n_dim, m_dim), cell in grid:
        for name, fn in cell(size, n_dim, m_dim, rng):
            ms = best_ms(fn, args.repeat)
            if "rk4_step" in name:
                ms /= RK4_STEPS
            results.append({"kernel": name, key: size, "n_dim": n_dim, "m_dim": m_dim, "ms": ms})
            print(f"{name:30s} {key}={size:4d} ({n_dim},{m_dim}) {ms:10.4f} ms")
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
