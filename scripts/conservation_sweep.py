"""Sweep the integrator step and record invariant drift.

For each dt the two-soliton state evolves to t = 1 under the first flow;
the relative transfer-trace drift and absolute charge drifts go into
conservation_sweep.csv.  The drift should fall like dt^4 until round-off.
"""

import argparse
from pathlib import Path

import numpy as np

from lattice_akns import conserved, darboux as dx, dnls
from lattice_akns.algebra import sup_norm
from lattice_akns.cli import write_csv


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sites", type=int, default=12)
    ap.add_argument("--out", type=Path, default=Path("conservation_sweep.csv"))
    args = ap.parse_args()

    n = args.sites
    p1 = dx.type1_params(np.exp(2j * np.pi / n), 1.0, 0.1, 0.7)
    p2 = dx.type1_params(np.exp(4j * np.pi / n), 1.0, 0.15 + 0.05j, 0.9)
    initial = dx.bianchi_two_soliton(p1, p2, n, 0.0)
    lam0 = 1.5 + 0.5j
    tr0 = conserved.transfer_trace(initial, lam0)
    h0 = conserved.closed_form_charges(initial)

    rows = []
    for dt in (4e-2, 2e-2, 1e-2, 5e-3, 2.5e-3, 1.25e-3):
        steps = int(round(1.0 / dt))
        final = dnls.evolve(initial, 1, dt, steps)[-1][1]
        tr_drift = abs(conserved.transfer_trace(final, lam0) - tr0) / abs(tr0)
        h_drift = sup_norm([abs(a - b) for a, b in zip(h0, conserved.closed_form_charges(final))])
        rows.append((dt, steps, tr_drift, h_drift))
        print(f"dt={dt:.3e}: trace drift {tr_drift:.3e}, charge drift {h_drift:.3e}")
    write_csv(args.out, ["dt", "steps", "trace_drift_rel", "charge_drift_abs"], rows)
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
