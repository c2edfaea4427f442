"""Differential tests: the whole-bitmap finder search in `qr/decode.py`
against the per-line search kept in `qr_ref.py`, its run-by-run
perpendicular join against the per-hit cell lookup there, its clustering
loop against the cluster-by-cluster one, its all-triples finder pick
against the triple-by-triple one, and its refinement from the whole-bitmap
hits against the per-line rescan there, on rendered symbols with noise and
damage, symbol pairs, lines repeated as rendering repeats them, finder-tiled
and degenerate bitmaps."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qr_ref
from test_qr import finder_tiles
from trap4phish.qr import NoFinderPatterns, byte_mode_capacity, qr_decode, qr_encode, qr_render
from trap4phish.qr import decode
from trap4phish.qr.matrix import QrMatrix


def outcome(fn, *args):
    """The result, or the exception's type and message."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - any divergence counts
        return type(exc), str(exc)


def reference_decode(bitmap: np.ndarray):
    """`qr_decode` with the reference cluster search and per-line refinement."""
    binary = bitmap < 128

    def find(bits):
        return qr_ref.find_finder_centers(bits), None, None

    def refine(_row_hits, _col_hits, y, x, unit):
        return qr_ref.refine_center(binary, y, x, unit)

    with mock.patch.object(decode, "_find_finder_centers", find), \
            mock.patch.object(decode, "_refine_center", refine):
        return qr_decode(bitmap)


def clusters_of(binary: np.ndarray):
    return decode._find_finder_centers(binary)[0]


def copies(hits):
    """(line, center, unit) of every hit of every line, the lines of each
    run of equal lines that `_ratio_hits` returns given the hits of its
    first line."""
    first, reps, run, center, unit = hits
    return [(float(line), c, u)
            for j, (start, count) in enumerate(zip(first.tolist(), reps.tolist()))
            for line in range(start, start + count)
            for c, u in zip(center[run == j].tolist(), unit[run == j].tolist())]


def assert_agree(pixels: np.ndarray):
    binary = pixels < 128
    row_hits, col_hits = decode._ratio_hits(binary), decode._ratio_hits(binary.T)
    # run centers are edge coordinates, so a hit's line stands for its middle
    rows = [(line + 0.5, x, u) for line, x, u in copies(row_hits)]
    cols = [(y, line + 0.5, u) for line, y, u in copies(col_hits)]
    found = qr_ref.has_perpendicular(np.array(rows).reshape(-1, 3).T, np.array(cols).reshape(-1, 3).T)
    matched = decode._perpendicular(row_hits, col_hits, max(binary.shape) + 3)
    assert list(zip(*(a.tolist() for a in matched))) == [row for row, ok in zip(rows, found) if ok]
    assert outcome(clusters_of, binary) == outcome(qr_ref.find_finder_centers, binary)
    assert outcome(qr_decode, pixels) == outcome(reference_decode, pixels)


@st.composite
def run_rows(draw):
    """A boolean array whose rows are drawn as run lengths, with planted
    1:1:3:1:1 windows and near misses at either parity."""
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        segments = draw(st.lists(st.one_of(
            st.lists(st.integers(1, 4), min_size=1, max_size=6),
            st.sampled_from([[1, 1, 3, 1, 1], [2, 2, 6, 2, 2], [1, 2, 4, 1, 2], [3, 1, 3, 1, 1]]),
        ), max_size=5))
        runs = [run for segment in segments for run in segment]
        colours = np.arange(len(runs)) % 2 == int(draw(st.booleans()))
        rows.append(np.repeat(colours, runs))
    width = max((len(row) for row in rows), default=draw(st.integers(0, 3)))
    padded = [np.pad(row, (0, width - len(row))) for row in rows]
    return np.array(padded, dtype=bool).reshape(len(rows), width)


@st.composite
def repeated_run_rows(draw):
    """`run_rows` with each row repeated 1-9 times and, in some examples,
    each column too, as a symbol rendered at several pixels a module
    repeats its lines; a few pixels are then flipped, often in the first
    or last column, so that some lines differ from the one before them
    in one pixel only."""
    lines = draw(run_rows())
    n, width = lines.shape
    lines = np.repeat(lines, draw(st.lists(st.integers(1, 9), min_size=n, max_size=n)), axis=0)
    columns = st.integers(1, 9) if draw(st.booleans()) else st.just(1)
    lines = np.repeat(lines, draw(st.lists(columns, min_size=width, max_size=width)), axis=1)
    return flip_pixels(draw, lines)


def flip_pixels(draw, lines: np.ndarray) -> np.ndarray:
    n, width = lines.shape
    if n and width:
        column = st.one_of(st.just(0), st.just(width - 1), st.integers(0, width - 1))
        for r, c in draw(st.lists(st.tuples(st.integers(0, n - 1), column), max_size=3)):
            lines[r, c] ^= True
    return lines


FINDER = np.maximum(*np.abs(np.mgrid[-3:4, -3:4])) != 2


@st.composite
def repeated_finder_grids(draw):
    """A random module grid with finder patterns planted in it, some of
    them overlapping, each row and each column repeated about as often as
    the others (1-9 times), then a few pixels flipped as in
    `repeated_run_rows`. Both axes carry hits, and the runs of repeated rows
    of a row hit are matched by column hits over part of their length."""
    height, width = draw(st.integers(7, 20)), draw(st.integers(7, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.random((height, width)) < draw(st.sampled_from([0.1, 0.5, 0.9]))
    for _ in range(draw(st.integers(1, 4))):
        r, c = draw(st.integers(0, height - 7)), draw(st.integers(0, width - 7))
        grid[r:r + 7, c:c + 7] = FINDER
    base = draw(st.integers(1, 9))
    reps = st.integers(max(1, base - 1), min(9, base + 1))
    grid = np.repeat(grid, draw(st.lists(reps, min_size=height, max_size=height)), axis=0)
    grid = np.repeat(grid, draw(st.lists(reps, min_size=width, max_size=width)), axis=1)
    return flip_pixels(draw, grid)


@settings(deadline=None, max_examples=300)
@given(st.one_of(repeated_run_rows(), repeated_finder_grids()))
def test_run_join_of_repeated_lines_agrees(lines):
    assert_agree(np.where(lines, 0, 255).astype(np.uint8))


def assert_hits_match(lines: np.ndarray):
    hits = first, reps, run, center, unit = decode._ratio_hits(lines)
    assert (run.dtype, center.dtype, unit.dtype) == (np.intp, np.float64, np.float64)
    # the runs of equal lines cover every line once, in order
    assert (first + reps).tolist() == first[1:].tolist() + [len(lines)] * (len(first) > 0)
    assert first[:1].tolist() == [0] * (len(lines) > 0)
    expected = [(float(r), c, u) for r in range(len(lines)) for c, u in qr_ref.ratio_candidates(lines[r])]
    assert copies(hits) == expected


@settings(deadline=None, max_examples=300)
@given(run_rows())
def test_ratio_hits_match_per_line_scan(lines):
    assert_hits_match(lines)


@settings(deadline=None, max_examples=300)
@given(repeated_run_rows())
def test_ratio_hits_of_repeated_lines_match_per_line_scan(lines):
    assert_hits_match(lines)
    assert_hits_match(lines.T)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.one_of(st.floats(1.0, 1e6), st.integers(1, 2**20).map(float)), min_size=1))
def test_levels_match_scalar_level(units):
    assert decode._levels(np.array(units)).tolist() == [qr_ref.level(u) for u in units]


@st.composite
def symbols(draw, max_version=4):
    """A rendered symbol, optionally with flipped modules (finder patterns
    included), returned as grayscale pixels."""
    version = draw(st.integers(1, max_version))
    level = draw(st.sampled_from("LMQH"))
    n = draw(st.integers(0, byte_mode_capacity(version, level)))
    matrix = qr_encode(bytes(draw(st.binary(min_size=n, max_size=n))), level, version=version)
    flips = draw(st.lists(st.tuples(st.integers(0, matrix.size - 1), st.integers(0, matrix.size - 1)),
                          max_size=12))
    if flips:
        modules = matrix.modules.copy()
        for r, c in flips:
            modules[r, c] ^= True
        matrix = QrMatrix(matrix.version, matrix.ec_level, matrix.mask_id, modules)
    return qr_render(matrix, draw(st.integers(1, 8)), draw(st.integers(0, 4)))


def with_noise(pixels: np.ndarray, rate: float, seed: int) -> np.ndarray:
    flip = np.random.default_rng(seed).random(pixels.shape) < rate
    return np.where(flip, 255 - pixels, pixels).astype(np.uint8)


@settings(deadline=None, max_examples=40)
@given(symbols())
def test_rendered_symbols_agree(pixels):
    assert_agree(pixels)


@settings(deadline=None, max_examples=40)
@given(symbols(max_version=3), st.floats(0.002, 0.05), st.integers(0, 2**32 - 1))
def test_noisy_symbols_agree(pixels, rate, seed):
    assert_agree(with_noise(pixels, rate, seed))


@settings(deadline=None, max_examples=20)
@given(symbols(max_version=2), symbols(max_version=2))
def test_two_symbols_side_by_side_agree(left, right):
    height = max(len(left), len(right))
    pad = [np.pad(p, ((0, height - len(p)), (0, 0)), constant_values=255) for p in (left, right)]
    assert_agree(np.hstack(pad))


@pytest.mark.parametrize("shape", [(0, 0), (5, 0), (0, 5), (1, 1), (1, 40), (40, 1), (7, 7)])
@pytest.mark.parametrize("value", [0, 255])
def test_degenerate_bitmaps_agree(shape, value):
    assert_agree(np.full(shape, value, dtype=np.uint8))


@st.composite
def crowded_points(draw):
    """(y, x, unit) points on the half-pixel grid of run centers inside a
    40-pixel square, with units of several scale levels, so that a point
    often lies near more than one cluster mean and cluster means cross cell
    boundaries at every level as they move."""
    coordinate = st.integers(0, 79).map(lambda v: v / 2)
    unit = st.integers(7, 84).map(lambda v: v / 7)
    return draw(st.lists(st.tuples(coordinate, coordinate, unit), min_size=1, max_size=80))


@settings(deadline=None, max_examples=300)
@given(crowded_points())
def test_clusters_match_cluster_by_cluster_search(points):
    y, x, unit = np.array(points).T
    assert decode._cluster(y, x, unit, 40 + 3) == qr_ref.cluster_points(points)


@st.composite
def cluster_lists(draw):
    """3-12 cluster dicts: points of a coarse grid, and upright L triples
    whose arm offsets sit on a 0.15 tolerance boundary or one step of a
    float either side, each also translated or mirrored about the diagonal
    through its corner so that asymmetries tie. Weights come from a small
    range, so that they tie too; some lists hold no valid triple."""
    grid = st.integers(0, 6).map(lambda v: 10.0 * v)
    points = draw(st.lists(st.tuples(grid, grid), max_size=12))
    for _ in range(draw(st.integers(0, 3))):
        y0, x0 = draw(grid), draw(grid)
        arm = draw(st.sampled_from([7.0, 10.0, 20.0, 40.0]))
        down = arm * draw(st.sampled_from([1.0, 0.85, 1.15, 1 / 0.85, 1 / 1.15]))

        def edge(origin, length):
            offset = draw(st.sampled_from([0.0, 0.15, -0.15])) * length
            return float(np.nextafter(origin + offset, draw(st.sampled_from([-np.inf, origin + offset, np.inf]))))

        triple = [(y0, x0), (edge(y0, arm), x0 + arm), (y0 + down, edge(x0, down))]
        if draw(st.booleans()):
            triple += [(y0 + x - x0, x0 + y - y0) for y, x in triple[1:]]
        if draw(st.booleans()):
            dy, dx = draw(grid), draw(grid)
            triple += [(y + dy, x + dx) for y, x in triple]
        points += triple
    points = draw(st.permutations(points))[:12]
    points += [(draw(grid), draw(grid)) for _ in range(3 - len(points))]
    return [{"y": y, "x": x, "unit": draw(st.sampled_from([1.0, 2.5, 8.0])), "weight": draw(st.integers(1, 3))}
            for y, x in points]


@settings(deadline=None, max_examples=500)
@given(cluster_lists())
def test_selected_finders_match_triple_by_triple_search(clusters):
    assert outcome(lambda c: decode._finder_triples(c, 1)[0], clusters) == outcome(qr_ref.select_finders, clusters)


def assert_refinements_agree(pixels: np.ndarray):
    """Every cluster refined from the whole-bitmap hits lands where the
    per-line reference refinement puts it, with the cluster's own unit and
    with the mean unit of the selected finder triple."""
    binary = pixels < 128
    try:
        clusters, row_hits, col_hits = decode._find_finder_centers(binary)
    except NoFinderPatterns:
        return
    selected = []
    try:
        selected.append(decode._finder_triples(clusters, 1)[0][3])
    except NoFinderPatterns:
        pass
    for cluster in clusters:
        for unit in [cluster["unit"]] + selected:
            args = cluster["y"], cluster["x"], unit
            assert decode._refine_center(row_hits, col_hits, *args) == qr_ref.refine_center(binary, *args)


@pytest.mark.parametrize("module_px", range(1, 9))
def test_refined_centres_match_per_line_refinement(module_px):
    for level in "LH":
        matrix = qr_encode(b"https://refine.test/" + bytes(module_px), level)
        assert_refinements_agree(qr_render(matrix, module_px, 2))


@settings(deadline=None, max_examples=40)
@given(symbols(), st.floats(0.0, 0.02), st.integers(0, 2**32 - 1))
def test_refined_centres_of_rendered_symbols_match(pixels, rate, seed):
    assert_refinements_agree(with_noise(pixels, rate, seed))


@pytest.mark.parametrize("large", ["", "edge", "cross"])
def test_refined_centres_on_finder_tiles_match(large):
    assert_refinements_agree(finder_tiles(198, large))


def test_row_hit_far_along_a_run_of_columns_agrees():
    # a unit-4 column pattern over columns 1-42 crossed on row 14 by a unit-6
    # row pattern: the columns of its 18-pixel center run form one run of
    # equal columns, whose first copy lies two level-2 cells (7 px) left of
    # the row hit at x = 22, the only copies within its reach
    dark = np.zeros((31, 45), dtype=bool)
    dark[1:29, 1:43] = (np.repeat([1, 0, 1, 0, 1], [4, 4, 12, 4, 4]) == 1)[:, None]
    dark[14, 1:43] = np.repeat([1, 0, 1, 0, 1], [6, 6, 18, 6, 6]) == 1
    first, reps, run, _center, _unit = decode._ratio_hits(dark.T)
    assert reps[first == 13].tolist() == [18] and np.flatnonzero(first == 13)[0] in run
    assert_agree(np.where(dark, 0, 255).astype(np.uint8))


def test_lines_outside_the_bitmap_have_no_hits():
    row = np.array([1, 0, 1, 1, 1, 0, 1], dtype=bool)
    hits = decode._ratio_hits(np.repeat(row[None, :], 3, axis=0))
    assert decode._nearest_hit(hits, 2, 3.5, 1.0) == (3.5, 1.0)
    assert decode._nearest_hit(hits, 3, 3.5, 1.0) is None
    assert decode._nearest_hit(hits, -1, 3.5, 1.0) is None


def test_single_row_of_finder_runs_agrees():
    row = np.array([255] + [0] * 2 + [255] * 2 + [0] * 6 + [255] * 2 + [0] * 2 + [255], dtype=np.uint8)
    assert_agree(row[None, :])
    assert_agree(np.repeat(row[None, :], 15, axis=0))
