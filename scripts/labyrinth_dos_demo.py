#!/usr/bin/env python3
"""Labyrinth counting-measure demo: CDF by three routes plus a density histogram.

Computes the finite-volume 2D CDF through (a) counts of the pairwise
eigenvalue products, (b) the log-convolution identity on a selection of
intervals, and (c) a dense solve of a small box, then writes CDF/histogram
CSVs and an SVG curve.

    python scripts/labyrinth_dos_demo.py --lam1 0.5 --lam2 0.5 --N 512 --outdir out/
"""

import argparse
import os

import numpy as np

from quasilab import svg
from quasilab.jacobi1d import hopping_from_coupling
from quasilab.labyrinth import (
    LabyrinthParams,
    build_2d,
    count_products_leq,
    dense_eigs_2d,
    dos2d_cdf,
    eigs_1d_axes,
    log_convolution_cdf,
    product_histogram,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--s", type=int, default=1)
    ap.add_argument("--lam1", type=float, default=0.5)
    ap.add_argument("--lam2", type=float, default=0.5)
    ap.add_argument("--N", type=int, default=512)
    ap.add_argument("--bins", type=int, default=512)
    ap.add_argument("--grid", type=int, default=401)
    ap.add_argument("--outdir", default="labyrinth_out")
    args = ap.parse_args(argv)

    p = LabyrinthParams(args.s, hopping_from_coupling(args.lam1),
                        hopping_from_coupling(args.lam2))
    os.makedirs(args.outdir, exist_ok=True)

    # the N^2 products are counted off the two sorted axes, never formed, as in
    # `quasilab dos2d`; rounding is monotone, so the largest |product| is this one
    e1, e2 = eigs_1d_axes(p, args.N)
    hull = float(np.max(np.abs(e1))) * float(np.max(np.abs(e2))) * 1.05
    grid = np.linspace(-hull, hull, args.grid)
    cdf = count_products_leq(e1, e2, grid) / (args.N * args.N)

    with open(os.path.join(args.outdir, "cdf.csv"), "w", encoding="utf-8") as fh:
        fh.write("energy,cdf\n")
        for e, v in zip(grid, cdf):
            fh.write(f"{e:.17g},{v:.17g}\n")

    edges = np.histogram_bin_edges([], args.bins, range=(-hull, hull))
    mass = product_histogram(e1, e2, edges) / (args.N * args.N)
    with open(os.path.join(args.outdir, "histogram.csv"), "w", encoding="utf-8") as fh:
        fh.write("center,mass\n")
        for c, m in zip(0.5 * (edges[:-1] + edges[1:]), mass):
            fh.write(f"{c:.17g},{m:.17g}\n")

    with open(os.path.join(args.outdir, "cdf.svg"), "w", encoding="utf-8") as fh:
        fh.write(svg.curve_svg(grid, cdf, {"lam1": args.lam1, "lam2": args.lam2, "N": args.N}))

    # spot-check the log-convolution identity between a few quantiles, read off the grid CDF
    qs = grid[np.searchsorted(cdf, [0.1, 0.3, 0.5, 0.7, 0.9])]
    print("interval                    products      log-convolution")
    for lo, hi in zip(qs, qs[1:]):
        direct = dos2d_cdf(p, float(hi), args.N) - dos2d_cdf(p, float(lo), args.N)
        conv = log_convolution_cdf(p, (float(lo), float(hi)), args.N, args.bins)
        print(f"({lo:9.4f},{hi:9.4f}]   {direct:10.6f}    {conv:10.6f}")

    if args.N <= 16:
        dense = dense_eigs_2d(build_2d(p, args.N))
        err = float(np.max(np.abs(dense.cdf(grid) - cdf)))
        print(f"dense-vs-product CDF sup deviation at N={args.N}: {err:.3e}")
    print(f"artifacts in {args.outdir}/")


if __name__ == "__main__":
    main()
