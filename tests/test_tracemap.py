import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasilab import bands, tracemap
from quasilab.bands import BandCover, merge_intervals
from quasilab.errors import ResourceLimitError
from quasilab.jacobi1d import ModelParams, hopping_from_coupling
from quasilab.tracemap import (
    DEFAULT_GRID,
    TraceVector,
    cat_map,
    cover_sequence,
    default_escape_radius,
    escape_steps,
    escape_time,
    factor_map,
    fricke_vogt,
    line_point,
    spectrum_cover,
    trace_map,
)

coords = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


def nests_in(outer: BandCover, inner: BandCover, slack: float) -> bool:
    """True when every band of ``inner`` sits inside a band of ``outer`` (up to slack)."""
    return all(
        any(a - slack <= c and d <= b + slack for a, b in outer.intervals)
        for c, d in inner.intervals
    )


def escape_time_reference(s, v, max_iter, radius):
    """The escape rule as a scalar loop over Python floats: the oracle of ``escape_steps``."""
    x, y, z = (float(c) for c in v)
    prev = max(abs(x), abs(y), abs(z))
    prev2 = math.inf
    for t in range(1, max_iter + 1):
        x, y, z = x, z, y
        for _ in range(s):
            x, y, z = 2.0 * x * z - y, x, z
        norm = max(abs(x), abs(y), abs(z))
        if not math.isfinite(norm):
            return t
        if norm > radius and norm > prev and prev > prev2:
            return t
        prev2 = prev
        prev = norm
    return None


# ---------------------------------------------------------------------------
# reference cover builder: one escape_steps call per band and a scalar
# bisection per edge, the plain reading of the construction that the batched
# builder must reproduce bit for bit


def _ref_refine_edge(params, e_surviving, e_escaping, level, radius, resolution):
    while abs(e_escaping - e_surviving) > resolution:
        mid = 0.5 * (e_surviving + e_escaping)
        if mid == e_surviving or mid == e_escaping:
            break
        if escape_time_reference(params.s, line_point(params, mid), level, radius) is None:
            e_surviving = mid
        else:
            e_escaping = mid
    return e_escaping


def _ref_bands_from_samples(params, e, level, radius, resolution):
    pts = line_point(params, e)
    surv = escape_steps(params.s, pts.x, pts.y, pts.z, level, radius) < 0
    padded = np.concatenate([[False], surv, [False]])
    starts = np.flatnonzero(padded[1:] & ~padded[:-1])
    ends = np.flatnonzero(~padded[1:] & padded[:-1]) - 1
    bands = []
    for i0, i1 in zip(starts, ends):
        lo = float(e[0]) if i0 == 0 else _ref_refine_edge(
            params, float(e[i0]), float(e[i0 - 1]), level, radius, resolution)
        hi = float(e[-1]) if i1 == e.size - 1 else _ref_refine_edge(
            params, float(e[i1]), float(e[i1 + 1]), level, radius, resolution)
        bands.append((lo, hi))
    return bands


def reference_cover_sequence(params, levels, resolution, initial_grid=DEFAULT_GRID):
    radius = default_escape_radius(params.coupling)
    bound = 2.0 * (1.0 + params.a)
    spacing = 2.0 * bound / (initial_grid - 1)
    grid = np.linspace(-bound, bound, initial_grid)
    bands = _ref_bands_from_samples(params, grid, levels[0], radius, resolution)
    out = [BandCover(merge_intervals(bands))]
    for lvl in levels[1:]:
        pieces = []
        for lo, hi in out[-1].intervals:
            m = max(17, int(math.ceil((hi - lo) / spacing)) + 1)
            pts = np.linspace(lo, hi, m)
            if lo < 0.0 < hi:
                pts = np.unique(np.append(pts, 0.0))
            pieces.extend(_ref_bands_from_samples(params, pts, lvl, radius, resolution))
        out.append(BandCover(merge_intervals(pieces)))
    return out


class TestMapAlgebra:
    def test_golden_map_closed_form(self):
        # U o P is (x, y, z) -> (2xy - z, x, y)
        for v in [(0.3, -1.2, 0.7), (1.0, 2.0, 3.0)]:
            got = trace_map(1, v)
            x, y, z = v
            assert got == TraceVector(2 * x * y - z, x, y)

    def test_simple_points(self):
        assert trace_map(1, (1.0, 0.0, 0.0)) == TraceVector(0.0, 1.0, 0.0)
        assert trace_map(1, (0.0, 0.0, 5.0)) == TraceVector(-5.0, 0.0, 0.0)
        # P gives (1, 3, 2), then U twice: (1, 1, 2), (3, 1, 2)
        assert trace_map(2, (1.0, 2.0, 3.0)) == TraceVector(3.0, 1.0, 2.0)

    def test_invariant_values(self):
        assert fricke_vogt((1.0, 1.0, 1.0)) == 0.0
        assert fricke_vogt(trace_map(1, (1.0, 0.0, 0.0))) == fricke_vogt((1.0, 0.0, 0.0))

    @given(coords, coords, coords, st.integers(min_value=1, max_value=3))
    def test_invariant_conserved(self, x, y, z, s):
        v = (x, y, z)
        g0 = fricke_vogt(v)
        g1 = fricke_vogt(trace_map(s, v))
        assert abs(g1 - g0) <= 1e-10 * (1.0 + abs(g0))

    def test_invariant_conserved_bulk(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 2, size=(100_000, 3))
        for s in (1, 2, 3):
            v = TraceVector(pts[:, 0], pts[:, 1], pts[:, 2])
            g0 = fricke_vogt(v)
            g1 = fricke_vogt(trace_map(s, v))
            assert np.max(np.abs(g1 - g0) / (1.0 + np.abs(g0))) <= 1e-10


class TestLines:
    def test_line_point_formula(self):
        p = ModelParams(1, 1.0)
        v = line_point(p, 1.0)
        assert v == TraceVector((1.0 - 2.0) / 2.0, 0.5, 0.5)

    def test_zero_energy_point(self):
        p = ModelParams(1, 2.0)
        assert line_point(p, 0.0) == TraceVector(-(4.0 + 1.0) / 4.0, 0.0, 0.0)

    def test_line_lies_on_invariant_surface(self):
        v = line_point(ModelParams(1, 2.0), 1.3)
        assert fricke_vogt(v) == pytest.approx(1.5**2 / 4.0, abs=1e-12)

    @pytest.mark.parametrize("a", [1.0, 1.3, 2.0, (4 + math.sqrt(20)) / 2])
    def test_surface_membership_sweep(self, a):
        p = ModelParams(1, a)
        lam = p.coupling
        for e in np.linspace(-10, 10, 41):
            assert abs(fricke_vogt(line_point(p, e)) - lam * lam / 4.0) <= 1e-12


class TestEscape:
    def test_zero_energy_periodic_orbit(self):
        for lam in (0.0, 0.5, 1.5, 3.75):
            p = ModelParams(1, (lam + math.sqrt(lam * lam + 4)) / 2)
            v = line_point(p, 0.0)
            assert escape_time(1, v, 10_000, default_escape_radius(lam)) is None
            # the orbit cycles through signed permutations of (c, 0, 0)
            c = abs(v.x)
            w = v
            seen = set()
            for _ in range(12):
                w = trace_map(1, w)
                seen.add(tuple(round(t, 12) for t in w))
            for t in seen:
                assert sorted(np.abs(t)) == pytest.approx([0.0, 0.0, c])

    def test_outside_free_spectrum_escapes(self):
        p = ModelParams(1, 1.0)
        assert escape_time(1, line_point(p, 3.0), 100, 3.0) is not None

    def test_inside_free_spectrum_survives(self):
        p = ModelParams(1, 1.0)
        assert escape_time(1, line_point(p, 1.9), 10_000, 3.0) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            escape_time(1, (0.0, 0.0, 0.0), 0, 3.0)
        with pytest.raises(ValueError):
            escape_time(1, (0.0, 0.0, 0.0), 10, 1.0)

    @pytest.mark.parametrize("max_iter, radius", [
        (10, math.nan), (10, math.inf), (10, 2.0), (10, 0.5), (0, 3.0),
    ])
    def test_vectorised_validation_matches_scalar(self, max_iter, radius):
        zeros = np.zeros(30)
        with pytest.raises(ValueError):
            escape_steps(1, zeros, zeros, zeros, max_iter, radius)
        with pytest.raises(ValueError):
            escape_time(1, (0.0, 0.0, 0.0), max_iter, radius)

    def test_vectorised_matches_scalar(self):
        p = ModelParams(2, 2.5)
        radius = default_escape_radius(p.coupling)
        energies = np.linspace(-7, 7, 101)
        pts = line_point(p, energies)
        steps = escape_steps(p.s, pts.x, pts.y, pts.z, 40, radius)
        for e, step in zip(energies, steps):
            scalar = escape_time_reference(p.s, line_point(p, float(e)), 40, radius)
            assert (scalar is None and step == -1) or scalar == step
            assert escape_time(p.s, line_point(p, float(e)), 40, radius) == scalar
        # the steps of a lane do not depend on which lanes share its call
        cuts = np.sort(np.random.default_rng(3).choice(np.arange(1, energies.size), 9, replace=False))
        chunks = [escape_steps(p.s, q.x, q.y, q.z, 40, radius)
                  for q in (line_point(p, part) for part in np.split(energies, cuts))]
        assert np.array_equal(np.concatenate(chunks), steps)


class TestSinglePass:
    @settings(max_examples=60, deadline=None)
    @given(
        s=st.sampled_from([1, 2, 3]),
        lam=st.floats(min_value=0.0, max_value=50.0),
        max_iter=st.integers(min_value=1, max_value=200),
        # energies as multiples of the hull bound 2(1 + a), inside it and far outside
        scaled=st.lists(st.one_of(st.floats(min_value=-1.2, max_value=1.2),
                                  st.floats(min_value=10.0, max_value=1e6),
                                  st.floats(min_value=-1e6, max_value=-10.0)),
                        min_size=1, max_size=40),
        cuts=st.lists(st.integers(min_value=1, max_value=39), max_size=6),
    )
    @example(s=1, lam=1.0, max_iter=200, scaled=[0.0, 1e6], cuts=[])  # the dead lane overflows
    def test_escape_steps_equals_escape_time_under_any_split(self, s, lam, max_iter, scaled, cuts):
        p = ModelParams.from_coupling(s, lam)
        radius = default_escape_radius(lam)
        energies = 2.0 * (1.0 + p.a) * np.array(scaled)
        pts = line_point(p, energies)
        steps = escape_steps(s, pts.x, pts.y, pts.z, max_iter, radius)
        expected = [escape_time_reference(s, line_point(p, e), max_iter, radius) for e in energies.tolist()]
        assert steps.tolist() == [-1 if t is None else t for t in expected]
        parts = np.split(energies, sorted({c for c in cuts if c < energies.size}))
        chunks = [escape_steps(s, q.x, q.y, q.z, max_iter, radius)
                  for q in (line_point(p, part) for part in parts)]
        assert np.array_equal(np.concatenate(chunks), steps)

    def test_escaped_lanes_overflow_while_others_survive(self):
        # the example above: the lane at 1e6 x bound escapes at step 2 and then overflows,
        # while the zero energy survives all 200 steps in the same pass
        p = ModelParams.from_coupling(1, 1.0)
        pts = line_point(p, np.array([0.0, 2.0 * (1.0 + p.a) * 1e6]))
        assert escape_steps(1, pts.x, pts.y, pts.z, 200, default_escape_radius(1.0)).tolist() == [-1, 2]
        v = TraceVector(*(np.float64(c[1]) for c in pts))
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(200):
                v = trace_map(1, v)
        assert not np.isfinite(v.x)

    @pytest.mark.parametrize("s, lanes", [(1, 2000), (2, 1000), (1, 5001), (2, 5001)])
    def test_blocks_and_wide_passes_match_the_scalar_rule(self, s, lanes):
        # the first two fill blocks of many steps, and the last two take more lanes than a block holds;
        # max_iter runs up to, onto and past a block boundary
        p = ModelParams.from_coupling(s, 1.0)
        radius = default_escape_radius(1.0)
        rng = np.random.default_rng(lanes)
        scaled = np.concatenate([rng.uniform(-1.2, 1.2, lanes - 100), rng.uniform(10.0, 1e6, 100)])
        energies = 2.0 * (1.0 + p.a) * rng.permutation(scaled)
        pts = line_point(p, energies)
        block = max(2, (tracemap._BLOCK_DOUBLES // lanes - (s + 2)) // s)  # steps a block holds
        sample = rng.choice(lanes, 80, replace=False)
        for max_iter in (1, block - 1, block, block + 1, 40):
            steps = escape_steps(s, pts.x, pts.y, pts.z, max_iter, radius)
            expected = [escape_time_reference(s, line_point(p, e), max_iter, radius)
                        for e in energies[sample].tolist()]
            assert steps[sample].tolist() == [-1 if t is None else t for t in expected]

    def test_covers_never_call_the_scalar_evaluator(self, monkeypatch):
        sizes = []
        vectorised = tracemap.escape_steps

        def counted(s, x, *rest):
            sizes.append(np.size(x))
            return vectorised(s, x, *rest)

        monkeypatch.setattr(tracemap, "escape_steps", counted)
        p = ModelParams(1, hopping_from_coupling(3.75))
        cover_sequence(p, [12, 15], 1e-4)
        spectrum_cover(p, 15, 1e-4)
        cover_sequence(ModelParams(1, hopping_from_coupling(0.5)), [1, 2, 3], 1e-3, initial_grid=3)
        # passes of a few lanes go through the vectorised pass too
        assert min(sizes) <= 24


class TestLevelSamples:
    @staticmethod
    def per_band_linspace(intervals, spacing):
        segments = []
        for lo, hi in intervals:
            pts = np.linspace(lo, hi, max(17, int(math.ceil((hi - lo) / spacing)) + 1))
            if lo < 0.0 < hi:
                pts = np.unique(np.append(pts, 0.0))
            segments.append(pts)
        return segments

    @pytest.mark.parametrize("middle", [
        (-1.0, 1.0),                    # straddles 0, which is already a sample
        (-1.0, 2.0),                    # straddles 0, which falls between samples
        (-5e-324, 1e-323),              # straddles 0; the step underflows to 0
        (-1e-310, 2e-310),              # straddles 0 with a subnormal step
        (1e-310, 2e-310),               # subnormal width
        (0.0, 0.0),                     # zero width at 0
    ])
    @pytest.mark.parametrize("spacing", [0.25, 1e-3])
    def test_one_pass_has_the_bits_of_per_band_linspace(self, middle, spacing):
        intervals = [(-7.0, -3.5), (-3.0, -3.0), (-2.5, -2.5 + 2**-50), middle, (3.0, 3.0), (4.0, 9.75)]
        samples, sizes = tracemap._band_samples(np.array(intervals), spacing)
        want = self.per_band_linspace(intervals, spacing)
        assert sizes.tolist() == [seg.size for seg in want]
        assert samples.tobytes() == np.concatenate(want).tobytes()

    def test_no_bands_give_no_samples(self):
        samples, sizes = tracemap._band_samples(np.empty((0, 2)), 0.25)
        assert samples.size == 0 and sizes.size == 0


class TestSpectrumCover:
    def test_free_cover_is_full_band(self):
        c = spectrum_cover(ModelParams(1, 1.0), 20, 1e-4)
        assert c.count == 1
        lo, hi = c.intervals[0]
        assert abs(lo + 2.0) <= 1e-3 and abs(hi - 2.0) <= 1e-3

    def test_cover_contains_zero(self):
        for a in (1.0, 2.0, 4.0):
            c = spectrum_cover(ModelParams(1, a), 12, 1e-3)
            assert c.contains(0.0)

    def test_nested_sequence(self):
        seq = cover_sequence(ModelParams(1, 4.0), [5, 10, 15], 1e-4)
        for coarse, fine in zip(seq, seq[1:]):
            assert nests_in(coarse, fine, slack=1e-12)
        lengths = [c.total_length for c in seq]
        assert lengths[0] > lengths[1] > lengths[2]

    def test_independent_covers_nest_up_to_resolution(self):
        p = ModelParams(1, 2.0)
        c10 = spectrum_cover(p, 10, 1e-4)
        c14 = spectrum_cover(p, 14, 1e-4)
        assert nests_in(c10, c14, slack=2e-4)

    # (s, coupling, levels, resolution, initial_grid)
    REFERENCE_CASES = [
        (1, 3.75, [12, 15], 1e-4, DEFAULT_GRID),  # few bands, strong coupling
        (1, 3.75, [1, 2, 3, 4, 5, 6, 7, 8], 1e-4, DEFAULT_GRID),
        (1, 3.0, [5, 10, 14], 1e-6, DEFAULT_GRID),
        (2, 0.3, [3, 6, 9], 1e-4, DEFAULT_GRID),  # many bands, s = 2 ladder
        (2, 1.0, [2, 4, 6, 8], 1e-9, 257),
        (1, 1.25, [1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 1e-12, DEFAULT_GRID),
        (1, 1.0, [4, 7], 1e-17, DEFAULT_GRID),  # resolution below the float spacing
        (1, 0.5, [1, 2, 3], 1e-3, 3),  # the grid is (-b, 0, b)
        (2, 0.5, [2, 3], 1e-3, 2),  # the grid is the two ends, which escape
        (1, 0.8, [3, 6], 1e-2, 33),
    ]

    @pytest.mark.parametrize("s, lam, levels, resolution, grid", REFERENCE_CASES)
    def test_batched_builder_matches_reference(self, s, lam, levels, resolution, grid):
        p = ModelParams(s, hopping_from_coupling(lam))
        ref = reference_cover_sequence(p, levels, resolution, grid)
        got = cover_sequence(p, levels, resolution, initial_grid=grid)
        # shape and bytes: every endpoint bit, the sign of a zero included
        def bits(covers):
            return [(c.intervals.shape, c.intervals.tobytes()) for c in covers]
        assert bits(got) == bits(ref)
        flat = spectrum_cover(p, levels[-1], resolution, initial_grid=grid)
        assert bits([flat]) == bits(reference_cover_sequence(p, levels[-1:], resolution, grid)[:1])

    def test_reference_grid_reaches_the_cases_it_names(self):
        counts = {}
        for s, lam, levels, resolution, grid in self.REFERENCE_CASES:
            seq = cover_sequence(ModelParams(s, hopping_from_coupling(lam)), levels, resolution,
                                 initial_grid=grid)
            counts[(s, lam, tuple(levels))] = [c.count for c in seq]
            if grid == 3:
                assert seq[1].contains(0.0)
                assert any(lo < 0.0 < hi for lo, hi in seq[1].intervals)
        # at most 24 edges: the flat level bisects in passes of a few lanes
        assert counts[(1, 3.75, (12, 15))][0] <= 12
        assert counts[(2, 0.3, (3, 6, 9))][-1] > 100
        assert counts[(2, 0.5, (2, 3))] == [0, 0]

    def test_band_cap_applies_to_the_level_total_before_refinement(self, monkeypatch):
        p = ModelParams(1, hopping_from_coupling(1.25))
        seq = cover_sequence(p, [5, 9], 1e-4)
        flat = spectrum_cover(p, 9, 1e-4)
        # no band of level 5 holds cap + 1 bands of level 9: only the level total trips the cap
        per_band = [sum(lo <= a and b <= hi for a, b in seq[1].intervals) for lo, hi in seq[0].intervals]
        assert max(per_band) < seq[1].count - 1

        refine = tracemap._refine_edges

        def refine_below_level_9(params, surviving, escaping, level, *rest):
            assert level < 9, "edges refined before the band cap was checked"
            return refine(params, surviving, escaping, level, *rest)

        monkeypatch.setattr(tracemap, "_refine_edges", refine_below_level_9)
        monkeypatch.setattr(bands, "INTERVAL_CAP", seq[1].count - 1)
        with pytest.raises(ResourceLimitError, match="bands exceed the cap"):
            cover_sequence(p, [5, 9], 1e-4)
        monkeypatch.setattr(bands, "INTERVAL_CAP", flat.count - 1)
        with pytest.raises(ResourceLimitError, match="bands exceed the cap"):
            spectrum_cover(p, 9, 1e-4)

    @pytest.mark.parametrize("resolution", [1e-4, 1e-12, 1e-17])
    def test_bisection_trees_match_scalar_bisection(self, resolution):
        # 1500 brackets at first: more than one tree pass holds at any depth above one; the narrow
        # ones close at once, then deeper trees finish the wide ones, in either orientation
        p = ModelParams(1, hopping_from_coupling(1.0))
        level, radius = 8, default_escape_radius(1.0)
        rng = np.random.default_rng(7)
        n_wide = 120
        centre = rng.uniform(-3.0, 3.0, 1500)
        width = np.concatenate([rng.uniform(1.0, 2.0, 1500 - n_wide) * resolution,
                                rng.uniform(1e-3, 1e-2, n_wide)])
        other = centre + rng.choice([-1.0, 1.0], 1500) * width
        got = tracemap._refine_edges(p, centre, other, level, radius, resolution)
        want = [_ref_refine_edge(p, a, b, level, radius, resolution)
                for a, b in zip(centre.tolist(), other.tolist())]
        assert got.tobytes() == np.array(want).tobytes()

    def test_few_brackets_take_one_bisection_pass(self, monkeypatch):
        sizes = []
        vectorised = tracemap.escape_steps

        def counted(s, x, *rest):
            sizes.append(np.size(x))
            return vectorised(s, x, *rest)

        monkeypatch.setattr(tracemap, "escape_steps", counted)
        cover = spectrum_cover(ModelParams(1, hopping_from_coupling(1.0)), 5, 1e-4)
        assert cover.count <= 4  # at most 8 edges to bisect
        assert len(sizes) == 2  # the sample pass, then one tree pass for every edge
        assert sizes[0] == DEFAULT_GRID

    def test_validation(self):
        with pytest.raises(ValueError):
            spectrum_cover(ModelParams(1, 1.0), 0, 1e-3)
        with pytest.raises(ValueError):
            spectrum_cover(ModelParams(1, 1.0), 5, -1.0)
        with pytest.raises(ValueError):
            spectrum_cover(ModelParams(1, 1.0), 5, math.nan)
        with pytest.raises(ResourceLimitError):
            spectrum_cover(ModelParams(1, 1.0), 5, 1e-3, initial_grid=tracemap.GRID_CAP + 1)
        with pytest.raises(ValueError):
            cover_sequence(ModelParams(1, 1.0), [5, 5], 1e-3)

    def test_work_cap(self):
        # just above the cap, at the deepest level only; nothing is iterated
        level = tracemap.TRACE_WORK_CAP // (2 * 257) + 1
        refused = f"exceed the cap of {tracemap.TRACE_WORK_CAP} before level"
        with pytest.raises(ResourceLimitError, match=f"{refused} {level}$"):
            spectrum_cover(ModelParams(2, 1.5), level, 1e-3, initial_grid=257)
        with pytest.raises(ResourceLimitError, match=f"{refused} 1$"):
            cover_sequence(ModelParams(2, 1.5), [1, level], 1e-3, initial_grid=257)

    def test_work_cap_sums_the_ladder(self, monkeypatch):
        # levels 1..k with k(k+1)/2 x s x 257 just above the cap: each level alone is far below it
        k = 1
        while k * (k + 1) // 2 * 2 * 257 <= tracemap.TRACE_WORK_CAP:
            k += 1
        assert k * 2 * 257 < tracemap.TRACE_WORK_CAP // 100

        def no_pass(*args):
            raise AssertionError("a level was sampled before the work cap was checked")

        monkeypatch.setattr(tracemap, "_level_bands", no_pass)
        with pytest.raises(ResourceLimitError, match="summed over levels, .* before level 1$"):
            cover_sequence(ModelParams(2, 1.5), range(1, k + 1), 1e-3, initial_grid=257)
        with pytest.raises(AssertionError, match="before the work cap"):
            cover_sequence(ModelParams(2, 1.5), range(1, k), 1e-3, initial_grid=257)


class TestTorusFactor:
    def test_factor_at_origin(self):
        assert factor_map(0.0, 0.0) == TraceVector(1.0, 1.0, 1.0)

    def test_cat_map_matrix(self):
        th, ph = cat_map(2, 0.3, 0.5)
        assert th == pytest.approx((2 * 0.3 + 0.5) % 1.0)
        assert ph == 0.3

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_semiconjugacy(self, s):
        rng = np.random.default_rng(s)
        theta, phi = rng.random(10_000), rng.random(10_000)
        lhs = trace_map(s, factor_map(theta, phi))
        rhs = factor_map(*cat_map(s, theta, phi))
        err = max(np.max(np.abs(np.asarray(l) - np.asarray(r))) for l, r in zip(lhs, rhs))
        assert err <= 1e-10

    def test_diagonal_lands_on_free_line(self):
        # F(t, t) = ((E^2-2)/2, E/2, E/2) with E = 2 cos 2 pi t
        for t in (0.05, 0.21, 0.4):
            e = 2.0 * math.cos(2 * math.pi * t)
            v = factor_map(t, t)
            expected = line_point(ModelParams(1, 1.0), e)
            assert np.allclose(v, expected, atol=1e-12)
