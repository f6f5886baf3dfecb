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
one evaluator, the vectorised ``escape_steps``, and ``escape_time`` is the same
call on one point.  It runs the map a block of steps at a time and tests the
rule once per block, or once per step when the lanes are too many for a block
to stay in cache; a lane reads only itself, so its result depends neither on
which lanes share its call nor on the block.  A cover level makes one
``escape_steps`` pass over its samples, then bisects its edges by trees: one
pass evaluates every midpoint that the next halvings of every open bracket can
visit, so a level takes one or two bisection passes.  A cover holds the energies
that this escape rule keeps for ``level`` steps, at the sampling resolution; it
is no rigorous bound on either side, and at strong coupling it can miss
spectrum (README's caveats give an example at lambda = 3 and 5).
"""

from __future__ import annotations

import functools
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
#: first pass that cannot fit.  A free-chain cover just below the cap (s = 1,
#: level 194 552, grid 257, resolution 1e-4) took 0.8 s on a 2-core x86 machine
#: with numpy 2.4 (2.9 s testing the rule after every step and bisecting one
#: midpoint per pass).
TRACE_WORK_CAP = 5 * 10**7

#: Below this many grid points a pass costs about as much per level as at it
#: (a map application with the block escape test took 3.8 us at grid 3 and
#: 5.1 us at grid 257 on a 2-core x86 machine, numpy 2.4, best of 5 over 2000
#: steps), so the work cap counts a smaller grid as this many points.  Without
#: the floor, grid 3 ran for 40 s just below the cap.
WORK_GRID_FLOOR = 257

#: Cap on the orbit rows x lanes that ``escape_steps`` holds for one block, in
#: doubles, and the most lanes it runs in blocks: beyond them it tests the
#: rule after every step.  A block that leaves the cache costs more than the
#: per-step calls it saves: at 4097 lanes, s = 1 and 15 steps, blocks were
#: 1.4-2x slower than testing every step.  Job time of 20 rounds of the
#: ``covers`` stream (seed 1, 2-core x86, three runs each) read 1.08-1.99 s
#: with these values, 1.30-1.50 s with 2^16 and 4096 lanes, 1.20-1.52 s with
#: 2^14 and 1024 lanes, and 1.52-1.72 s with the rule tested after every step
#: and one midpoint per edge-bisection pass.
_BLOCK_DOUBLES = 2**15
_BLOCKED_LANES = 2048

#: Lanes of one edge-bisection pass: open brackets x (2^depth - 1) tree nodes.
#: In the runs above, 1024 lanes read 1.10-1.46 s and 4096 lanes 1.22-1.27 s.
_TREE_LANES = 2048


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
    two-step growth requirement guards against transient excursions.

    Up to ``_BLOCKED_LANES`` lanes, the map runs a block of steps at a time and
    the rule is tested once per block.  Within a step, U^s keeps z fixed and
    only x is new at each application, so after step t y_t is the x of the
    previous application and z_t = y_{t-1}: one row per map application holds
    the whole orbit, and the block's norms come from one ``abs`` over its rows.
    A lane's escape step is the first block row where the rule holds.  With
    more lanes, a block would leave the cache, and the rule is tested after
    every step.  Escaped lanes keep iterating (they may overflow to inf or NaN)
    until a test finds every lane escaped.  Each lane reads only itself, so its
    result depends neither on how lanes are grouped into a call nor on the
    block size.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be positive")
    if not 2.0 < radius < math.inf:
        raise ValueError(f"escape radius must be finite and exceed 2, got {radius}")
    shape = np.shape(x)
    x, y, z = (np.array(c, dtype=float).reshape(-1) for c in (x, y, z))
    blocked = 0 < x.size <= _BLOCKED_LANES
    steps = (_escape_blocked if blocked else _escape_stepwise)(s, x, y, z, max_iter, radius)
    return steps.reshape(shape)


def _escape_stepwise(s, x, y, z, max_iter, radius):
    """The escape rule tested after every step: the cheaper loop once lanes fill the cache."""
    v = TraceVector(x, y, z)
    steps = np.full(x.shape, -1, dtype=np.int64)
    alive = np.ones(x.shape, dtype=bool)
    ax, ay = np.abs(x), np.abs(y)
    prev = np.maximum(ax, np.maximum(ay, np.abs(z)))
    grew = np.zeros(x.shape, dtype=bool)  # norm(v_{t-1}) > norm(v_{t-2}); norm(v_{-1}) counts as inf
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(1, max_iter + 1):
            v = trace_map(s, v)
            # z_t = y_{t-1}, and at s = 1 also y_t = x_{t-1}
            az, ay, ax = ay, ax if s == 1 else np.abs(v.y), np.abs(v.x)
            norm = np.maximum(ax, np.maximum(ay, az))
            grows = norm > prev
            escaped = grows & grew
            escaped &= norm > radius
            escaped |= ~np.isfinite(norm)
            steps[escaped & alive] = t
            alive &= ~escaped
            if not alive.any():
                break
            prev, grew = norm, grows
    return steps


def _escape_blocked(s, x, y, z, max_iter, radius):
    """The escape rule tested once per block of steps, for at most ``_BLOCKED_LANES`` lanes."""
    n = x.size
    steps = np.full(n, -1, dtype=np.int64)
    # orbit rows: z_t0 at 0, y_t0 at s, x_t0 at s + 1, then the s applications of each step;
    # step k of the block ends with y at row 2s + k s and x at row 2s + 1 + k s
    head = s + 2
    block = max(1, min(max_iter, (_BLOCK_DOUBLES // n - head) // s))
    orbit = np.empty((head + block * s, n))
    orbit[0], orbit[s], orbit[s + 1] = z, y, x
    carry = np.empty((head, n))
    norms = np.empty((block + 2, n))  # norm(v_{t-2}) and norm(v_{t-1}), then the block's steps
    norms[0] = np.inf
    norms[1] = np.maximum(np.abs(x), np.maximum(np.abs(y), np.abs(z)))
    rows = list(orbit)
    twice = np.empty(n)
    countdown = np.arange(block, 0, -1, dtype=np.int32)[:, None]
    t0 = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            b = min(block, max_iter - t0)
            for k in range(b):
                c = rows[s + k * s]  # y_{t-1}: the fixed z of the step's applications
                before = rows[k * s]  # z_{t-1}: the y of its first application
                for r in range(head + k * s, head + k * s + s):
                    np.multiply(rows[r - 1], 2.0, out=twice)
                    np.multiply(twice, c, out=twice)
                    np.subtract(twice, before, out=rows[r])
                    before = rows[r - 1]
            end = head + b * s
            carry[...] = orbit[b * s : end]  # the next block's first rows, before their abs
            np.abs(orbit[s:end], out=orbit[s:end])
            norm = norms[2 : b + 2]
            np.maximum(orbit[2 * s + 1 : end : s], orbit[2 * s : end - 1 : s], out=norm)  # |x_t|, |y_t|
            np.maximum(norm, orbit[s : end - s - 1 : s], out=norm)  # |z_t| = |y_{t-1}|
            grew = norms[1 : b + 2] > norms[: b + 1]
            escaped = grew[1:] & grew[:-1]
            escaped &= norm > radius
            escaped |= ~np.isfinite(norm)
            # the first escaping row of each lane has the largest weight b - row; no escape weighs 0
            weight = np.multiply(escaped, countdown[block - b :]).max(axis=0)
            newly = (steps < 0) & (weight > 0)
            steps[newly] = t0 + b + 1 - weight[newly]
            t0 += b
            if t0 == max_iter or (steps >= 0).all():
                break
            orbit[:head] = carry
            norms[:2] = norms[b : b + 2]
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
    endpoint.  A pass builds, for every open bracket, the tree of the midpoints
    that its next ``depth`` halvings can visit, each ``0.5 * (surviving +
    escaping)`` of its own bracket, and evaluates all of them at once.  Each
    bracket then walks down its tree under the two stop rules, so it visits the
    midpoints that halving once per pass would, in the same order.  The depth
    is the largest that keeps a pass within ``_TREE_LANES`` lanes and no more
    than the widest bracket needs to reach ``resolution``.
    """
    surviving = surviving.copy()
    escaping = escaping.copy()
    open_ = np.flatnonzero(np.abs(escaping - surviving) > resolution)
    while open_.size:
        n = open_.size
        sv, es = surviving[open_], escaping[open_]
        depth = (_TREE_LANES // n + 1).bit_length() - 1
        need = float(np.abs(es - sv).max()) / resolution
        if need < math.inf:
            depth = min(depth, math.ceil(math.log2(need)))
        depth = max(depth, 1)
        # Node i of level k, numbered 2^k + i, has the children i (its midpoint escaped) and
        # i + 2^k (it survived) on level k + 1, which keep one of its sides and take its
        # midpoint as the other.  So the surviving sides of level k are the first 2^k columns
        # of side_s, its midpoints the next 2^k, and its escaping sides the last 2^k of side_e.
        width = 1 << depth
        side_s, side_e = np.empty((n, width)), np.empty((n, width))
        side_s[:, 0], side_e[:, -1] = sv, es
        for k in range(depth):
            h = 1 << k
            m = side_s[:, h : 2 * h]
            np.add(side_s[:, :h], side_e[:, width - h :], out=m)
            m *= 0.5
            side_e[:, width - 2 * h : width - h] = m
        mid = side_s[:, 1:]  # the midpoint of node j in column j - 1
        alive = _survivors(params, mid.ravel(), level, radius).reshape(n, width - 1)
        half, s_col, e_col = _tree_columns(depth)
        node_s, node_e = side_s[:, s_col[1:width]], side_e[:, e_col[1:width]]
        go = (np.abs(node_e - node_s) > resolution) & (mid != node_s) & (mid != node_e)
        # from each inner node, the flat index (row stride 2 width) of the node its bracket moves to
        rows = np.arange(0, 2 * width * n, 2 * width)
        nxt = np.zeros((n, 2 * width), dtype=np.int64)
        nxt[:, 1:width] = rows[:, None] + np.arange(1, width) + go * (half[1:width] + alive * half[1:width])
        at = rows + 1
        for _ in range(depth):
            at = nxt.take(at)
        node = at - rows
        sv, es = side_s.take(rows // 2 + s_col[node]), side_e.take(rows // 2 + e_col[node])
        surviving[open_], escaping[open_] = sv, es
        open_ = open_[(node >= width) & (np.abs(es - sv) > resolution)]
    return escaping


@functools.lru_cache(maxsize=None)
def _tree_columns(depth: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the nodes 1 .. 2^(depth + 1) - 1 of a bisection tree in ``_refine_edges``, numbered
    level by level: 2^k for a node of level k, and the columns of its two sides."""
    level = np.repeat(np.arange(depth + 1), 1 << np.arange(depth + 1))
    half = np.concatenate([[0], 1 << level])
    i = np.arange(half.size) - half  # position within the level
    return half, i, (1 << depth) - half + i


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
    last = np.empty_like(first)
    last[:-1], last[-1] = first[1:], True
    surv = _survivors(params, e, level, radius)
    starts, ends = surv.copy(), surv.copy()
    starts[1:] &= first[1:] | ~surv[:-1]
    ends[:-1] &= last[:-1] | ~surv[1:]
    starts, ends = np.flatnonzero(starts), np.flatnonzero(ends)
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
        seg = np.sort(np.append(y[a:b], 0.0))  # np.unique, which would import numpy.ma
        seg = seg[np.append(True, seg[1:] != seg[:-1])]
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
    The bisection evaluates a tree of midpoints per edge in one pass and walks
    each edge down its own tree, which gives the endpoints that halving one
    midpoint per pass would.
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
