"""Benchmark entry point for lattice_akns.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): verify-all, lattice-scale, glm-window,
cli-trajectory.  The library is imported from ``src/`` beside this
directory; without it the benchmark exits with status 2 before measuring.

``--trace 0`` prints the end-to-end metrics.  Set-up (import of
lattice_akns, input generation, one warm-up op) is timed several times and
reported as a median.  Then whole passes of the workload's fixed work run
until ``--seconds`` would be exceeded; each op is timed with its checks, and
``wall_s`` sums the per-op medians over the passes.  Times are scaled to a
reference machine speed (see meter.py); raw times are printed beside them.

``--trace 1`` prints the per-layer metrics: untraced passes for the first
half of ``--seconds``, then one pass with every public library function
wrapped in a span (tracing.py).  Spans and a result file with the run
manifest and every op verdict go to ``.bench_out/``.

Every output is checked; the last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  An op fails
when it raises, returns a non-finite value, misses its tolerance or (CLI)
exits non-zero.  ``correct`` is false when any failure falls outside the
known defects listed in ``workloads.KNOWN_FAILURE_CODES``; those still
count in ``failed``.

BLAS is pinned to one thread and ``LATTICE_AKNS_THREADS`` is unset, so the
process computes on one thread, except while ``verification.pool_speedup``
is measured with a two-worker pool (one BLAS thread per worker).
"""

from __future__ import annotations

import argparse
import cmath
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5
POOL_THREADS = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "verified_ratio": "ratio",
}

SUITES = (
    "conservation_suite",
    "zero_curvature_dnls_suite",
    "zero_curvature_al_suite",
    "al_conservation_suite",
    "glm_suite",
)

PER_LAYER = {
    **{f"verification.{s}.s": "s" for s in SUITES},
    "verification.other_suites.s": "s",
    "verification.pool_speedup": "ratio",
    "dnls.eom_rhs.calls": "count",
    "dnls.eom_rhs.self_s": "s",
    **{f"dnls.evolve.site_steps_per_s.N{n}": "1/s" for n in (12, 96, 768)},
    "al.al_eom_rhs.calls": "count",
    "al.al_eom_rhs.self_s": "s",
    **{f"al.al_evolve.site_steps_per_s.N{n}": "1/s" for n in (16, 96, 768)},
    **{f"dnls.zero_curvature_residual.ms.N{n}": "ms" for n in (96, 768)},
    "dnls.v_operator.calls": "count",
    **{f"al.al_zero_curvature_residual.ms.N{n}": "ms" for n in (96, 768)},
    "al.al_v_operator.calls": "count",
    "al.al_lax.calls": "count",
    **{f"conserved.transfer_trace.ms.N{n}": "ms" for n in (96, 768)},
    "conserved.transfer_trace.nonfinite": "count",
    "conserved.transfer_poly.ms.N96": "ms",
    "algebra.poly_mul.calls": "count",
    "conserved.closed_form_charges.self_s": "s",
    **{f"glm.solve_glm.s.W{w}": "s" for w in (7, 14, 28, 40)},
    "glm.build_hankel_data.self_s": "s",
    "algebra.dense_solve.calls": "count",
    "algebra.dense_solve.self_s": "s",
    "glm.factorization_residual.max": "norm",
    "cli.write_csv.self_s": "s",
    "cli.write_json.self_s": "s",
    "cli.bytes_written": "bytes",
    # self time per module: these sum with trace.unattributed_s to trace.wall_s
    **{f"{m}.self_s": "s" for m in (
        "verification", "dnls", "al", "conserved", "glm", "algebra", "darboux", "cli", "colehopf")},
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
    "trace.overhead_s": "s",
    "failed_ratio": "ratio",
}


def _pin_threads():
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("LATTICE_AKNS_THREADS", None)


def _git_commit():
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _manifest(args, np, lib):
    digest = hashlib.sha256()
    for path in sorted((SRC / "lattice_akns").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "lattice_akns": lib.__version__,
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "blas": blas_name,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "lattice_akns_threads": "unset (pool_speedup pass only: "
        f"{POOL_THREADS} workers, 1 BLAS thread each)",
        "python_threads": threading.active_count(),
    }


def _fmt(values):
    return ", ".join(f"{v:.4f}" for v in values)


def _set_up(workloads, args, workdir):
    """Import the library, generate the inputs and run one warm-up op."""
    lib = workloads.import_library(SRC)
    wl = workloads.WORKLOADS[args.workload](lib, args.seed, workdir)
    return lib, wl, wl.warm_up()


def _annotators():
    size = lambda a, r: {"n": a["state"].n_sites}  # noqa: E731
    steps = lambda a, r: {"n": a["state"].n_sites, "steps": a["steps"]}  # noqa: E731
    written = lambda a, r: {"bytes": os.path.getsize(a["path"])}  # noqa: E731
    return {
        "dnls.evolve": steps,
        "al.al_evolve": steps,
        "dnls.zero_curvature_residual": size,
        "al.al_zero_curvature_residual": size,
        "conserved.transfer_poly": size,
        "conserved.transfer_trace": lambda a, r: {"n": a["state"].n_sites, "nonfinite": not cmath.isfinite(r)},
        "glm.solve_glm": lambda a, r: {"w": a["system"].window_n, "residual": r.factorization_residual},
        "cli.write_csv": written,
        "cli.write_json": written,
    }


def _per_layer(summary, traced_wall, traced_scaled, untraced_scaled, pooled_scaled, verdicts):
    from tracing import TRACED_MODULES

    def get(name, key):
        return summary[name][key] if name in summary else 0

    def attrs(name, **match):
        return [(d, a) for d, a in (summary[name]["attrs"] if name in summary else [])
                if all(a.get(k) == v for k, v in match.items())]

    def mean_ms(name, **match):
        spans = attrs(name, **match)
        return 1e3 * sum(d for d, _ in spans) / len(spans) if spans else 0.0

    def site_steps_rate(name, n):
        spans = attrs(name, n=n)
        busy = sum(d for d, _ in spans)
        return sum(a["n"] * a["steps"] for _, a in spans) / busy if busy else 0.0

    m = {f"verification.{s}.s": get(f"verification.{s}", "total_s") for s in SUITES}
    m["verification.other_suites.s"] = sum(
        e["total_s"] for name, e in summary.items()
        if name.startswith("verification.") and name.endswith("_suite") and name[13:] not in SUITES
    )
    untraced = statistics.median(untraced_scaled)
    m["verification.pool_speedup"] = untraced / statistics.median(pooled_scaled) if pooled_scaled else 0.0
    for fn in ("dnls.eom_rhs", "al.al_eom_rhs"):
        m[f"{fn}.calls"] = get(fn, "calls")
        m[f"{fn}.self_s"] = get(fn, "self_s")
    for n in (12, 96, 768):
        m[f"dnls.evolve.site_steps_per_s.N{n}"] = site_steps_rate("dnls.evolve", n)
    for n in (16, 96, 768):
        m[f"al.al_evolve.site_steps_per_s.N{n}"] = site_steps_rate("al.al_evolve", n)
    for n in (96, 768):
        m[f"dnls.zero_curvature_residual.ms.N{n}"] = mean_ms("dnls.zero_curvature_residual", n=n)
        m[f"al.al_zero_curvature_residual.ms.N{n}"] = mean_ms("al.al_zero_curvature_residual", n=n)
        m[f"conserved.transfer_trace.ms.N{n}"] = mean_ms("conserved.transfer_trace", n=n)
    for fn in ("dnls.v_operator", "al.al_v_operator", "al.al_lax", "algebra.poly_mul", "algebra.dense_solve"):
        m[f"{fn}.calls"] = get(fn, "calls")
    m["conserved.transfer_trace.nonfinite"] = len(attrs("conserved.transfer_trace", nonfinite=True))
    m["conserved.transfer_poly.ms.N96"] = mean_ms("conserved.transfer_poly", n=96)
    for fn in ("conserved.closed_form_charges", "glm.build_hankel_data", "algebra.dense_solve",
               "cli.write_csv", "cli.write_json"):
        m[f"{fn}.self_s"] = get(fn, "self_s")
    for w in (7, 14, 28, 40):
        m[f"glm.solve_glm.s.W{w}"] = mean_ms("glm.solve_glm", w=w) / 1e3
    m["glm.factorization_residual.max"] = max((a["residual"] for _, a in attrs("glm.solve_glm")), default=0.0)
    m["cli.bytes_written"] = sum(a["bytes"] for fn in ("cli.write_csv", "cli.write_json") for _, a in attrs(fn))
    modules = {mod: sum(e["self_s"] for name, e in summary.items() if name.startswith(mod + "."))
               for mod in TRACED_MODULES}
    m.update({f"{mod}.self_s": s for mod, s in modules.items()})
    m["trace.wall_s"] = traced_wall
    m["trace.unattributed_s"] = traced_wall - sum(modules.values())
    m["trace.overhead_s"] = traced_scaled - untraced
    m["failed_ratio"] = sum(1 for _, f in verdicts if f) / len(verdicts)
    return m


def _report_verdicts(verdicts):
    """Print one line per op name; return True when every failure is known."""
    from workloads import KNOWN_FAILURE_CODES

    by_op: dict[str, list] = {}
    for name, failures in verdicts:
        by_op.setdefault(name, []).append(failures)
    correct = True
    for name, runs in by_op.items():
        failed = [f for f in runs if f]
        status = "PASS" if not failed else "FAIL"
        line = f"op {name}: {status} {len(runs) - len(failed)}/{len(runs)}"
        if failed:
            line += f" ({'; '.join(msg for _, msg in failed[0])})"
            correct = correct and all(code in KNOWN_FAILURE_CODES for f in failed for code, _ in f)
        print(line)
    return correct


def _end_to_end(args, wl, verdicts, n_warm, setup_scaled):
    """Untraced passes until --seconds is used up; returns the e2e metrics."""
    import meter

    ops, raw_passes, start = meter.Meter(), [], time.perf_counter()
    while True:
        t0 = time.perf_counter()
        verdicts += wl.run_pass(ops)
        raw_passes.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(raw_passes) > args.seconds:
            break
    timed = verdicts[n_warm:]
    metrics = {
        "wall_s": ops.pass_seconds(),
        "setup_s": statistics.median(setup_scaled),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "verified_ratio": sum(1 for _, f in timed if not f) / len(timed),
    }
    print(f"passes {len(raw_passes)}, probes included: raw s {_fmt(raw_passes)}")
    print(f"wall_s from per-op medians: raw {ops.pass_seconds(raw=True):.4f} s, "
          f"scaled {ops.pass_seconds():.4f} s")
    print(f"failed_ratio {sum(1 for _, f in timed if f)}/{len(timed)}")
    return metrics, END_TO_END, timed


def _traced(args, wl, verdicts, n_warm):
    """Untraced (and, on verify-all, pooled) passes for half of --seconds,
    then one traced pass; returns the per-layer metrics."""
    import meter
    import tracing

    untraced, pooled, start = [], [], time.perf_counter()
    while True:
        _, seconds, out = meter.scaled(wl.run_pass)
        untraced.append(seconds)
        verdicts += out
        if args.workload == "verify-all":
            os.environ["LATTICE_AKNS_THREADS"] = str(POOL_THREADS)
            try:
                _, seconds, out = meter.scaled(wl.run_pass)
            finally:
                del os.environ["LATTICE_AKNS_THREADS"]
            pooled.append(seconds)
            verdicts += out
        per_round = (time.perf_counter() - start) / len(untraced)
        if time.perf_counter() - start + per_round > args.seconds / 2:
            break
    tracer = tracing.Tracer(_annotators())
    tracer.install()
    try:
        t0 = time.perf_counter()
        traced_raw, traced_scaled, out = meter.scaled(wl.run_pass)
    finally:
        tracer.restore()
    verdicts += out
    timed = verdicts[n_warm:]
    metrics = _per_layer(tracing.summarize(tracer), traced_raw, traced_scaled, untraced, pooled, timed)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path, t0)
    print(f"untraced passes {len(untraced)}: scaled s {_fmt(untraced)}; traced pass: raw s "
          f"{traced_raw:.4f}, scaled s {traced_scaled:.4f}")
    if pooled:
        print(f"pooled passes ({POOL_THREADS} threads) {len(pooled)}: scaled s {_fmt(pooled)}")
    suites = sum(v for k, v in metrics.items() if k.startswith("verification.") and k.endswith(".s"))
    print(f"trace check: suite spans {suites:.4f} s + outside suites {traced_raw - suites:.4f} s "
          f"= traced wall {traced_raw:.4f} s; module self times sum to "
          f"{traced_raw - metrics['trace.unattributed_s']:.4f} s")
    print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    return metrics, PER_LAYER, timed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lattice_akns" / "__init__.py").is_file():
        print(f"error: no lattice_akns package under {SRC}", file=sys.stderr)
        return 2

    _pin_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np

    import meter
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        setup = meter.Meter()
        for _ in range(SETUP_REPS):
            lib, wl, warm = setup("setup", lambda: _set_up(workloads, args, workdir))
        setup_raw, setup_scaled = setup.raw["setup"], setup.scaled["setup"]
        verdicts = list(warm)
        manifest = _manifest(args, np, lib)
        print("manifest " + json.dumps(manifest, sort_keys=True))
        print(f"setup reps {SETUP_REPS}: raw s {_fmt(setup_raw)}; scaled s {_fmt(setup_scaled)}")

        if args.trace == 0:
            metrics, units, timed = _end_to_end(args, wl, verdicts, len(warm), setup_scaled)
        else:
            metrics, units, timed = _traced(args, wl, verdicts, len(warm))
        correct = _report_verdicts(verdicts)
        for name, value in metrics.items():
            print(f"metric {name} = {value:.6g} {units[name]}")
        result = {
            "correct": correct,
            "attempted": len(timed),
            "failed": sum(1 for _, f in timed if f),
            "metrics": {name: {"value": float(v), "unit": units[name]} for name, v in metrics.items()},
        }
        with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
                  encoding="utf-8") as fh:
            json.dump({"manifest": manifest, "verdicts": verdicts, **result}, fh, indent=1)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
