"""The benchmark's four workloads.

Each workload is built from a seed (its inputs are generated here; the
library only ever receives the generated states, mode data and config
files), runs one fixed pass of work with :meth:`run_pass`, and checks every
output against the tolerances the library itself uses.  A pass returns one
verdict per op: ``(op_name, failures)``, where each failure is a
``(code, message)`` pair and an empty list means the op passed.

``run_pass(measure)`` hands every op to ``measure(name, fn)``, which calls
``fn`` and may time it; the default :func:`plain` only calls it.

Library functions are always looked up on the module objects at call time
(``self.dnls.evolve``), never cached, so that the tracer's substitutions
take effect.
"""

from __future__ import annotations

import cmath
import functools
import importlib
import json
import math
import sys
from pathlib import Path

import numpy as np

# tolerances the library applies in its own verification suites and CLI
ZERO_CURVATURE_DNLS = 1e-11
ZERO_CURVATURE_AL = 1e-10
TRACE_DRIFT_REL = 1e-6
CHARGE_DRIFT_ABS = 1e-7
GLM_TOL = 1e-10

# spectral samples of the conservation suites
LAMBDA_SAMPLES = (0.5, 1.5 + 0.5j, -0.7 + 0.3j)
Z_SAMPLES = (0.8, 1.5, 0.6 + 0.6j)

# Two known defects count as failed ops without making a run incorrect:
# the overflow of the unscaled transfer-matrix product at large N (a
# non-finite trace), and the closed-form-vs-recursion suite missing its
# 1e-12 gate by accumulated round-off on about 6% of seeds (measured up to
# 3.2e-11 over seeds 0-1999; a miss of 1e-10 or more is not round-off).
NONFINITE_TRACE = "nonfinite-trace"
RECURSION_ROUNDOFF = "recursion-roundoff"
KNOWN_FAILURE_CODES = frozenset({NONFINITE_TRACE, RECURSION_ROUNDOFF})


def import_library(src: Path):
    """Import ``lattice_akns`` afresh from ``src`` and return the package."""
    for name in [n for n in sys.modules if n == "lattice_akns" or n.startswith("lattice_akns.")]:
        del sys.modules[name]
    lib = importlib.import_module("lattice_akns")
    if not Path(lib.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"lattice_akns was imported from {lib.__file__}, not from {src}")
    importlib.import_module("lattice_akns.cli")
    return lib


def plain(name, fn):
    return fn()


def run_op(name, fn, measure=plain):
    """Run one op; any exception it raises is recorded as its failure."""

    def checked():
        try:
            return fn()
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            return [("raised", f"{type(exc).__name__}: {exc}")]

    return name, measure(name, checked)


def _below(value, tol, what):
    """Failures for a scalar check; NaN fails because it is not below tol."""
    if not math.isfinite(value):
        return [("nonfinite", f"{what} is {value}")]
    if not value < tol:
        return [("tolerance", f"{what} {value:.3e} not below {tol:.0e}")]
    return []


def _trace_drift(conserved, initial, final, samples):
    failures = []
    with np.errstate(over="ignore", invalid="ignore"):
        for s in samples:
            before = conserved.transfer_trace(initial, s)
            after = conserved.transfer_trace(final, s)
            if not (cmath.isfinite(before) and cmath.isfinite(after)):
                failures.append((NONFINITE_TRACE, f"transfer trace non-finite at {s}"))
                continue
            failures += _below(abs(after - before) / abs(before), TRACE_DRIFT_REL, f"trace drift at {s}")
    return failures


def _charge_drift(conserved, initial, final):
    h0 = conserved.closed_form_charges(initial)
    h1 = conserved.closed_form_charges(final)
    return _below(max(abs(a - b) for a, b in zip(h0, h1)), CHARGE_DRIFT_ABS, "charge drift")


class _OpList:
    """A workload whose pass runs ``self.cases``, a list of (name, fn) ops;
    the first op doubles as the warm-up."""

    def warm_up(self):
        return [run_op(*self.cases[0])]

    def run_pass(self, measure=plain):
        return [run_op(name, fn, measure) for name, fn in self.cases]


def _measured_suite(measure, suite):
    def run(**kwargs):
        return measure(suite.__name__, lambda: suite(**kwargs))

    return run


class VerifyAll:
    """One ``verification.run_all(seed)`` pass; one op per suite."""

    name = "verify-all"

    def __init__(self, lib, seed: int, workdir: Path):
        self.verification = lib.verification
        self.seed = seed

    def warm_up(self):
        return [run_op("integrator_suite", lambda: self._suite_failures(
            self.verification.integrator_suite(seed=self.seed)))]

    @staticmethod
    def _suite_failures(result):
        if result.passed and math.isfinite(result.measured):
            return []
        roundoff = result.name == "closed-form-vs-recursion" and result.measured < 1e-10
        return [(RECURSION_ROUNDOFF if roundoff else "suite", result.line())]

    def run_pass(self, measure=plain):
        """One run_all call; with a timing ``measure`` each suite is timed
        through a temporary substitute for ``verification.ALL_SUITES``."""
        verification = self.verification
        suites = verification.ALL_SUITES
        if measure is not plain:
            verification.ALL_SUITES = tuple(_measured_suite(measure, s) for s in suites)
        try:
            results = verification.run_all(seed=self.seed)
        except Exception as exc:  # every suite of the pass fails with it
            return [(s.__name__, [("raised", f"{type(exc).__name__}: {exc}")]) for s in suites]
        finally:
            verification.ALL_SUITES = suites
        return [(r.name, self._suite_failures(r)) for r in results]


class LatticeScale(_OpList):
    """Direct kernel calls on seeded random states at N = 96 and 768."""

    name = "lattice-scale"
    sizes = (96, 768)
    dt, steps = 1e-3, 200

    def __init__(self, lib, seed: int, workdir: Path):
        self.dnls, self.al, self.conserved = lib.dnls, lib.al, lib.conserved
        rng = np.random.default_rng(seed)
        self.cases = []  # dnls flow 1 at N=96 first: the warm-up
        for n in self.sizes:
            for flow in (1, 2):
                state = self.dnls.random_state(rng, n)
                self.cases.append((f"dnls-flow{flow}-N{n}", functools.partial(self._dnls_op, state, flow)))
            for variant in (self.al.VARIANT_AL, self.al.VARIANT_NETWORK):
                state = self.al.random_state(rng, n)
                self.cases.append((f"al-{variant}-N{n}", functools.partial(self._al_op, state, variant)))

    def _dnls_op(self, state, flow):
        final = self.dnls.evolve(state, flow, self.dt, self.steps, save_every=self.steps)[-1][1]
        zc = max(self.dnls.zero_curvature_residual(final, flow, LAMBDA_SAMPLES))
        failures = _below(zc, ZERO_CURVATURE_DNLS, "zero-curvature residual")
        failures += _trace_drift(self.conserved, state, final, LAMBDA_SAMPLES)
        return failures + _charge_drift(self.conserved, state, final)

    def _al_op(self, state, variant):
        final = self.al.al_evolve(state, variant, self.dt, self.steps, save_every=self.steps)[-1][1]
        zc = max(self.al.al_zero_curvature_residual(final, variant, Z_SAMPLES))
        failures = _below(zc, ZERO_CURVATURE_AL, "zero-curvature residual")
        return failures + _trace_drift(self.conserved, state, final, Z_SAMPLES)


class GlmWindow(_OpList):
    """Hankel data and the factorization solve over a sweep of windows W.

    The mode data follow ``verification.glm_suite`` (rank-one amplitudes
    scaled by exp(-2 W lam) so the core sits at the window centre, a second
    mode with prefactors 0.4 and 0.7), with seeded decay rates.  The rates
    sum to at least 1.9 so that window truncation, of relative order
    exp(-2 (lam + lam_hat) W) at the lower edge, stays below the closed-form
    tolerance even at W = 7; glm_suite's own rates (sum 1.2) are tuned for
    W = 14 and leave about 5e-8 of truncation at W = 7.
    """

    name = "glm-window"
    windows = (7, 14, 28, 40)

    def __init__(self, lib, seed: int, workdir: Path):
        self.glm = lib.glm
        rng = np.random.default_rng(seed)
        lam_hat, lam = rng.uniform(1.0, 1.1), rng.uniform(0.9, 1.0)
        self.time = rng.uniform(0.0, 0.3)
        pair = lib.algebra.make_rank_one_pair(1, 1, 1.0, "triple")
        self.cases = []
        for w in self.windows:
            mode = self.glm.GlmMode(np.exp(-2 * w * lam_hat) * pair.bhat, lam_hat, np.exp(-2 * w * lam) * pair.b, lam)
            mode2 = self.glm.GlmMode(
                0.4 * np.exp(-2 * w * (lam_hat + 0.15)) * pair.bhat,
                lam_hat + 0.15,
                0.7 * np.exp(-2 * w * (lam + 0.05)) * pair.b,
                lam + 0.05,
            )
            for scheme in (self.glm.FORWARD_BACKWARD, self.glm.SYMMETRIC):
                for modes in ((mode,), (mode, mode2)):
                    op = functools.partial(self._op, w, scheme, modes)
                    self.cases.append((f"W{w}-{scheme}-{len(modes)}mode", op))

    def _op(self, window, scheme, modes):
        glm = self.glm
        system = glm.build_hankel_data(modes, scheme, 1.0, window, alpha=1, time=self.time)
        sol = glm.solve_glm(system)
        failures = _below(sol.factorization_residual, GLM_TOL, "factorization residual")
        if len(modes) == 1:
            mode = modes[0]
            kappa = complex(mode.amp_hat[0, 0] * mode.amp[0, 0])
            bcf, ccf = glm.one_soliton_closed_form(mode, kappa, window, self.time, scheme)
            upper = np.triu(np.ones((2 * window + 1,) * 2, dtype=bool))
            delta = max(
                float(np.abs((sol.b - bcf)[:, :, 0, 0])[upper].max()),
                float(np.abs((sol.c - ccf)[:, :, 0, 0])[upper].max()),
            )
            failures += _below(delta, GLM_TOL, "closed-form match")
        return failures



class CliTrajectory(_OpList):
    """In-process ``cli.main`` runs of documented ``charges``/``evolve`` configs.

    Every run saves often, so the pass writes megabytes of CSV and JSON
    beside the lattice work.  The dnls evolve config runs twice per pass and
    the second run must reproduce the first run's CSV byte for byte.
    """

    name = "cli-trajectory"
    dnls_sites, al_sites = 96, 16

    def __init__(self, lib, seed: int, workdir: Path):
        self.cli, self.conserved, self.dnls, self.al = lib.cli, lib.conserved, lib.dnls, lib.al
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        soliton = {
            "family": "type1",
            "sites": self.dnls_sites,
            "xi_root_of_unity": 1,
            "d1": [0.1 + rng.uniform(-0.02, 0.02), rng.uniform(-0.02, 0.02)],
            "x1": [0.7 + rng.uniform(-0.1, 0.1), 0.0],
            "periodic": True,
        }
        self.configs = {
            "charges": {
                "command": "charges",
                "model": "dnls",
                "seed": seed,
                "params": {
                    "initial": soliton,
                    "alpha": 1,
                    "dt": 1e-3,
                    "steps": 200,
                    "save_every": 4,
                    "lambda_samples": [[s.real, s.imag] for s in map(complex, LAMBDA_SAMPLES)],
                },
            },
            "evolve-dnls": {
                "command": "evolve",
                "model": "dnls",
                "seed": seed,
                "params": {"initial": soliton, "alpha": 2, "dt": 1e-3, "steps": 400, "save_every": 2},
            },
            "evolve-al": {
                "command": "evolve",
                "model": "al",
                "seed": seed,
                "params": {
                    "initial": {"family": "oscillator", "sites": self.al_sites, "t": rng.uniform(0.0, 0.2)},
                    "variant": "al",
                    "dt": 1e-3,
                    "steps": 400,
                    "save_every": 2,
                },
            },
        }
        for name, config in self.configs.items():
            with open(workdir / f"{name}.json", "w", encoding="utf-8") as fh:
                json.dump(config, fh)
        # the repeat must follow evolve-dnls; evolve-al, the cheapest, warms up
        self.cases = [
            ("evolve-al", functools.partial(self._evolve, "evolve-al")),
            ("charges", self._charges),
            ("evolve-dnls", functools.partial(self._evolve, "evolve-dnls")),
            ("evolve-dnls-repeat", self._repeat),
        ]

    def _main(self, name, out_name=None):
        out = self.workdir / (out_name or name)
        config = str(self.workdir / f"{name}.json")
        code = self.cli.main([self.configs[name]["command"], "--config", config, "--out", str(out)])
        return out, ([] if code == 0 else [("exit-code", f"cli exited {code}")])

    @staticmethod
    def _saves(params):
        return params["steps"] // params["save_every"] + 1

    def _charges(self):
        out, failures = self._main("charges")
        if failures:
            return failures
        with open(out / "report.json", encoding="utf-8") as fh:
            report = json.load(fh)
        failures += _below(report["h_drift"], CHARGE_DRIFT_ABS, "report h_drift")
        failures += _below(report["trace_drift_rel"], TRACE_DRIFT_REL, "report trace_drift_rel")
        with open(out / "charges.csv", encoding="utf-8") as fh:
            header, *rows = [line.split(",") for line in fh.read().splitlines()]
        expected = self._saves(self.configs["charges"]["params"])
        if len(rows) != expected:
            failures.append(("output", f"charges.csv has {len(rows)} rows, expected {expected}"))
        for col, name in enumerate(header):
            if not all(math.isfinite(float(row[col])) for row in rows):
                code = NONFINITE_TRACE if name.startswith("trace") else "nonfinite"
                failures.append((code, f"charges.csv column {name} holds non-finite values"))
        return failures

    def _read_run(self, out, fields):
        """Initial snapshot from trajectory.csv, final from final_state.json."""
        with open(out / "final_state.json", encoding="utf-8") as fh:
            final = json.load(fh)
        shapes = {fields[0]: (final["sites"], final["n_dim"], final["m_dim"]),
                  fields[1]: (final["sites"], final["m_dim"], final["n_dim"])}
        first = {f: np.zeros(shape, dtype=complex) for f, shape in shapes.items()}
        rows, t0, finite = 0, None, True
        with open(out / "trajectory.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                t, site, field, row, col, re, im = line.split(",")
                rows += 1
                value = complex(float(re), float(im))
                finite = finite and cmath.isfinite(value)
                if t0 is None:
                    t0 = t
                if t == t0:
                    first[field][int(site) - 1, int(row), int(col)] = value
        last = {f: np.array(final[f])[..., 0] + 1j * np.array(final[f])[..., 1] for f in fields}
        return first, last, rows, finite

    def _evolve(self, name):
        out, failures = self._main(name)
        if failures:
            return failures
        params = self.configs[name]["params"]
        if name == "evolve-dnls":
            fields, samples = ("x", "y"), LAMBDA_SAMPLES
            make = lambda f: self.dnls.DnlsState(self.dnls_sites, 1, 1, f["x"], f["y"])  # noqa: E731
        else:
            fields, samples = ("bhat", "b"), Z_SAMPLES
            make = lambda f: self.al.AlState(self.al_sites, 1, 1, f["bhat"], f["b"])  # noqa: E731
        first, last, rows, finite = self._read_run(out, fields)
        expected = self._saves(params) * sum(a.size for a in first.values())
        if rows != expected:
            failures.append(("output", f"trajectory.csv has {rows} rows, expected {expected}"))
        if not finite:
            failures.append(("nonfinite", "trajectory.csv holds non-finite values"))
        initial, final = make(first), make(last)
        failures += _trace_drift(self.conserved, initial, final, samples)
        if name == "evolve-dnls":
            failures += _charge_drift(self.conserved, initial, final)
        return failures

    def _repeat(self):
        out, failures = self._main("evolve-dnls", "evolve-dnls-repeat")
        if failures:
            return failures
        first = (self.workdir / "evolve-dnls" / "trajectory.csv").read_bytes()
        if (out / "trajectory.csv").read_bytes() != first:
            failures.append(("bytes-differ", "identical config gave different trajectory.csv bytes"))
        return failures



WORKLOADS = {w.name: w for w in (VerifyAll, LatticeScale, GlmWindow, CliTrajectory)}
