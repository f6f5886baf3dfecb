#!/usr/bin/env python3
"""Scan the band-cover thickness and box-dimension estimate across couplings.

Reproduces the two qualitative trends of the 1D family at desk scale: thickness
blows up as the coupling goes to zero, and the dimension estimate collapses as
the coupling grows.

    python scripts/thickness_vs_coupling.py --level 15 --out thickness.csv
"""

import argparse
import math
import sys

from quasilab.bands import box_dimension_estimate, thickness
from quasilab.jacobi1d import ModelParams, hopping_from_coupling
from quasilab.tracemap import cover_sequence, thickness_levels


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=int, default=1)
    ap.add_argument("--couplings", default="0.1,0.2,0.5,1.0,2.0,3.75")
    ap.add_argument("--level", type=int, default=15)
    ap.add_argument("--resolution", type=float, default=1e-4)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args(argv)

    lams = [float(x) for x in args.couplings.split(",")]
    levels = thickness_levels(args.level)
    rows = []
    for lam in lams:
        params = ModelParams(args.s, hopping_from_coupling(lam))
        seq = cover_sequence(params, levels, args.resolution)
        tau = thickness(seq[-1])
        dim = box_dimension_estimate(seq) if len(seq) >= 3 else float("nan")
        rows.append((lam, tau, dim, seq[-1].count, seq[-1].total_length))
        tau_s = "inf" if math.isinf(tau) else f"{tau:10.4f}"
        print(f"lambda={lam:6.3f}  thickness={tau_s}  box_dim={dim:7.4f}  "
              f"bands={seq[-1].count:5d}  total_length={seq[-1].total_length:.6f}")

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("lambda,thickness,box_dim,bands,total_length\n")
            for row in rows:
                fh.write(",".join(format(v, ".17g") if isinstance(v, float) else str(v)
                                  for v in row) + "\n")
        print(f"wrote {args.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
