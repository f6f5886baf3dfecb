"""Trace-map dynamics on R^3 for the metallic-mean hopping chains.

The order-s map is T_s = U^s o P with U(x,y,z) = (2xz - y, x, z) and
P(x,y,z) = (x,z,y); it conserves the Fricke-Vogt invariant
G = x^2 + y^2 + z^2 - 2xyz - 1.  An energy E enters through the initial point
line_point(params, E), which sits on the level surface G = lambda^2 / 4; the
spectrum consists of the energies whose forward orbit stays bounded, and finite
iteration depth turns that into computable band covers.

Escape detection is heuristic: an orbit is declared escaped once its sup-norm
exceeds a radius R while having strictly grown on two consecutive steps, or
once a coordinate stops being finite.  The covers fix R at coupling + 3
(``default_escape_radius``) and iterate as many steps as the level; only the
escape evaluators themselves take R and the step budget as arguments.  There is
one evaluator, the vectorised ``escape_steps`` stepping with ``trace_map``:
every escape pass of a cover, sampling and edge bisection alike, is one call,
and ``escape_time`` is the same call on one point.  A cover holds the energies
that this escape rule keeps for ``level`` steps, at the sampling resolution; it
is no rigorous bound on either side, and at strong coupling it can miss
spectrum (README's caveats give an example at lambda = 3 and 5).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from . import bands
from .bands import BandCover, merge_intervals
from .errors import ResourceLimitError
from .jacobi1d import ModelParams

#: Number of points in the initial energy grid (odd, so 0 is always sampled).
DEFAULT_GRID = 4097

#: Cap on the number of points in the initial energy grid.
GRID_CAP = 10**6

#: Cap on level * s * max(sample points, initial grid points, WORK_GRID_FLOOR)
#: summed over a cover's levels: the map applications of one pass per level.
#: Levels not yet sampled count at their least, so a ladder stops before the
#: first pass that cannot fit.  A free-chain cover at the cap takes about 7 s at
#: grid 257 on a 2-core x86 machine.
TRACE_WORK_CAP = 5 * 10**7

#: Below this many grid points a pass costs about as much per level as at it
#: (a vectorised map application took 19 us at grid 3 and 22 us at grid 257 on a
#: 2-core x86 machine, numpy 2.4), so the work cap counts a smaller grid as this
#: many points.  Without the floor, grid 3 ran for 40 s just below the cap.
WORK_GRID_FLOOR = 257


class TraceVector(NamedTuple):
    x: float
    y: float
    z: float


def trace_map(s: int, v) -> TraceVector:
    """One step of T_s = U^s o P (elementwise on arrays)."""
    if s < 1:
        raise ValueError("s must be a positive integer")
    x, z, y = v
    for _ in range(s):
        x, y = 2.0 * x * z - y, x
    return TraceVector(x, y, z)


def fricke_vogt(v) -> float:
    """The conserved quantity x^2 + y^2 + z^2 - 2xyz - 1 (elementwise on arrays)."""
    x, y, z = v
    return x * x + y * y + z * z - 2.0 * x * y * z - 1.0


def line_point(params: ModelParams, energy) -> TraceVector:
    """Initial condition ((E^2 - a^2 - 1)/(2a), E/(2a), E/2) for the hopping chain.

    Lies on the surface G = coupling^2 / 4 for every energy.
    """
    a = params.a
    e = energy
    return TraceVector((e * e - a * a - 1.0) / (2.0 * a), e / (2.0 * a), e / 2.0)


def default_escape_radius(coupling: float) -> float:
    return coupling + 3.0


def escape_steps(s: int, x, y, z, max_iter: int, radius: float) -> np.ndarray:
    """Step at which the orbit under T_s of each initial point is flagged as escaping; -1 = survived.

    Escape at step t requires sup-norm(v_t) > radius together with
    norm(v_t) > norm(v_{t-1}) > norm(v_{t-2}), or a nonfinite coordinate.  The
    two-step growth requirement guards against transient excursions.  Each lane
    reads only itself, so its result does not depend on how lanes are grouped.
    Escaped lanes keep iterating until every lane has escaped; they may
    overflow to inf or NaN, but only each lane's first escape is recorded.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if not 2.0 < radius < math.inf:
        raise ValueError(f"escape radius must be finite and exceed 2, got {radius}")
    v = TraceVector(np.array(x, dtype=float), np.array(y, dtype=float), np.array(z, dtype=float))
    steps = np.full(v.x.shape, -1, dtype=np.int64)
    alive = np.ones(v.x.shape, dtype=bool)
    prev = np.maximum(np.abs(v.x), np.maximum(np.abs(v.y), np.abs(v.z)))
    prev2 = np.full(v.x.shape, np.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, max_iter + 1):
            v = trace_map(s, v)
            norm = np.maximum(np.abs(v.x), np.maximum(np.abs(v.y), np.abs(v.z)))
            escaped = ~np.isfinite(norm) | ((norm > radius) & (norm > prev) & (prev > prev2))
            newly = escaped & alive
            steps[newly] = t
            alive &= ~escaped
            if not alive.any():
                break
            prev2, prev = prev, norm
    return steps


def escape_time(s: int, v, max_iter: int, radius: float) -> int | None:
    """:func:`escape_steps` on the one point ``v``: the step of its escape, or None when it survives."""
    x, y, z = v
    (t,) = escape_steps(s, [x], [y], [z], max_iter, radius).tolist()
    return None if t < 0 else t


def _survivors(params: ModelParams, energies: np.ndarray, level: int, radius: float) -> np.ndarray:
    """Mask of the energies whose orbit survives ``level`` steps, in one pass."""
    pts = line_point(params, energies)
    return escape_steps(params.s, pts.x, pts.y, pts.z, level, radius) < 0


def _refine_edges(params, surviving, escaping, level, radius, resolution) -> np.ndarray:
    """Bisect every survival/escape bracket at once; returns the escaping-side endpoints.

    A bracket stops at width ``resolution`` or when its midpoint rounds to an
    endpoint; each pass evaluates the midpoints of the brackets still open.
    """
    surviving = surviving.copy()
    escaping = escaping.copy()
    open_ = np.flatnonzero(np.abs(escaping - surviving) > resolution)
    while open_.size:
        mid = 0.5 * (surviving[open_] + escaping[open_])
        moved = (mid != surviving[open_]) & (mid != escaping[open_])
        open_, mid = open_[moved], mid[moved]
        alive = _survivors(params, mid, level, radius)
        surviving[open_[alive]] = mid[alive]
        escaping[open_[~alive]] = mid[~alive]
        open_ = open_[np.abs(escaping[open_] - surviving[open_]) > resolution]
    return escaping


def _level_bands(params, e, sizes, level, radius, resolution) -> np.ndarray:
    """Merged bands of one level from the samples ``e`` of consecutive segments.

    ``sizes`` gives each segment's sample count.  All samples are tested in one
    pass.  A band is a run of surviving samples inside one segment; an edge at a
    segment boundary keeps the sample itself, and every other edge is bisected
    towards the escaping neighbour.  More than ``bands.INTERVAL_CAP`` bands
    raise before any edge is refined.
    """
    if not e.size:
        return np.empty((0, 2))
    first = np.zeros(e.size, dtype=bool)
    first[np.cumsum(sizes) - sizes] = True
    last = np.roll(first, -1)
    surv = _survivors(params, e, level, radius)
    starts = np.flatnonzero(surv & (first | ~np.roll(surv, 1)))
    ends = np.flatnonzero(surv & (last | ~np.roll(surv, -1)))
    if starts.size > bands.INTERVAL_CAP:
        raise ResourceLimitError(f"{starts.size} bands exceed the cap of {bands.INTERVAL_CAP}")
    lo, hi = e[starts], e[ends]
    inner_lo, inner_hi = ~first[starts], ~last[ends]
    edges = _refine_edges(
        params,
        np.concatenate([lo[inner_lo], hi[inner_hi]]),
        np.concatenate([e[starts[inner_lo] - 1], e[ends[inner_hi] + 1]]),
        level, radius, resolution,
    )
    n_lo = int(inner_lo.sum())
    lo[inner_lo] = edges[:n_lo]
    hi[inner_hi] = edges[n_lo:]
    return merge_intervals(np.column_stack([lo, hi]))


def _band_samples(intervals: np.ndarray, spacing: float) -> tuple[np.ndarray, np.ndarray]:
    """The samples of every band of a level, built in one pass, and each band's count.

    Band [lo, hi] gets m = max(17, ceil((hi - lo) / spacing) + 1) samples with
    the bits of ``np.linspace(lo, hi, m)``: i * step + lo with step =
    (hi - lo) / (m - 1), or (i / (m - 1)) * (hi - lo) + lo when the step
    underflows to 0, and hi itself last.  The band with lo < 0 < hi also gets
    the zero energy, as ``np.unique(np.append(samples, 0.0))`` would add it.
    """
    lo, hi = intervals.T
    width = hi - lo
    m = np.maximum(17, np.ceil(width / spacing).astype(np.int64) + 1)
    ends = np.cumsum(m)
    band = np.repeat(np.arange(m.size), m)
    i = (np.arange(m.sum()) - (ends - m)[band]).astype(float)
    step = width / (m - 1)
    y = i * step[band]
    flat = (step == 0.0)[band]
    y[flat] = i[flat] / (m - 1)[band[flat]] * width[band[flat]]
    y += lo[band]
    y[ends - 1] = hi
    for k in np.flatnonzero((lo < 0.0) & (hi > 0.0)):  # at most one band
        a, b = ends[k] - m[k], ends[k]
        seg = np.unique(np.append(y[a:b], 0.0))
        y = np.concatenate([y[:a], seg, y[b:]])
        m[k] = seg.size
    return y, m


def spectrum_cover(
    params: ModelParams,
    level: int,
    resolution: float,
    *,
    initial_grid: int = DEFAULT_GRID,
) -> BandCover:
    """Cover of the energies surviving ``level`` trace-map iterations.

    The one-level case of :func:`cover_sequence`.
    """
    return cover_sequence(params, [level], resolution, initial_grid=initial_grid)[0]


def cover_sequence(
    params: ModelParams,
    levels,
    resolution: float,
    *,
    initial_grid: int = DEFAULT_GRID,
) -> list[BandCover]:
    """One nested cover per entry of the increasing ``levels``, each inside the previous.

    The first level samples the search interval [-2(1+a), 2(1+a)] on a uniform
    grid.  Deeper levels only resample inside the bands already found, which
    enforces cover(n+1) <= cover(n) by construction: each band is sampled at the
    initial grid spacing (at least 17 points), and the zero energy is always
    kept as a sample point of whichever band contains it.  A level makes one
    escape pass over all its samples, then bisects all survive/escape edges
    together to width ``resolution``, placing band endpoints on the escaping
    side; the band cap applies to the level's total before any edge is refined.
    Survival islands narrower than the grid spacing can be missed; run with a
    denser ``initial_grid`` to chase those.  A level's pass costs level x s x
    its sample count, at least the grid and ``WORK_GRID_FLOOR``.  Before each
    pass the levels done and this one are priced at that cost and the later
    ones at their least; a sum above ``TRACE_WORK_CAP`` raises.
    """
    levels = list(levels)
    if not levels or levels[0] < 1 or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError("levels must be positive and strictly increasing")
    if not 0.0 < resolution < math.inf:
        raise ValueError(f"resolution must be positive and finite, got {resolution}")
    if initial_grid > GRID_CAP:
        raise ResourceLimitError(f"{initial_grid} grid points exceed the cap of {GRID_CAP}")
    radius = default_escape_radius(params.coupling)
    bound = 2.0 * (1.0 + params.a)
    spacing = 2.0 * bound / (initial_grid - 1)
    floor = max(initial_grid, WORK_GRID_FLOOR)
    work = sum(levels) * params.s * floor  # every level at its least
    out = []
    for lvl in levels:
        if out:
            e, sizes = _band_samples(out[-1].intervals, spacing)
            work += lvl * params.s * max(e.size - floor, 0)
        if work > TRACE_WORK_CAP:
            raise ResourceLimitError(f"level x s x max(samples, grid, {WORK_GRID_FLOOR}), summed over levels, "
                                     f"exceed the cap of {TRACE_WORK_CAP} before level {lvl}")
        if not out:
            e, sizes = np.linspace(-bound, bound, initial_grid), np.array([initial_grid])
        out.append(BandCover(_level_bands(params, e, sizes, lvl, radius, resolution)))
    return out


# ---------------------------------------------------------------------------
# torus factor


def cat_map(s: int, theta, phi):
    """Hyperbolic torus automorphism (theta, phi) -> (s*theta + phi mod 1, theta)."""
    return (s * theta + phi) % 1.0, theta


def factor_map(theta, phi) -> TraceVector:
    """Semi-conjugacy F(theta, phi) = (cos 2pi(theta+phi), cos 2pi theta, cos 2pi phi).

    Intertwines the torus automorphism with the trace map on the bounded part of
    the invariant surface G = 0: T_s(F(p)) = F(cat_map(s, p)).
    """
    tp = 2.0 * np.pi
    return TraceVector(np.cos(tp * (theta + phi)), np.cos(tp * theta), np.cos(tp * phi))
