"""Differential tests: the whole-bitmap finder search in `qr/decode.py`
against the per-line search kept in `qr_ref.py`, on rendered symbols with
noise and damage, symbol pairs and degenerate bitmaps."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qr_ref
from trap4phish.qr import QrBitmap, byte_mode_capacity, qr_decode, qr_encode, qr_render
from trap4phish.qr import decode
from trap4phish.qr.matrix import QrMatrix


def outcome(fn, *args):
    """The result, or the exception's type and message."""
    try:
        return "ok", fn(*args)
    except Exception as exc:  # noqa: BLE001 - any divergence counts
        return type(exc), str(exc)


def reference_decode(bitmap: QrBitmap):
    with mock.patch.object(decode, "_find_finder_centers", qr_ref.find_finder_centers), \
            mock.patch.object(decode, "_refine_center", qr_ref.refine_center):
        return qr_decode(bitmap)


def assert_agree(pixels: np.ndarray):
    binary = pixels < 128
    assert outcome(decode._find_finder_centers, binary) == outcome(qr_ref.find_finder_centers, binary)
    bitmap = QrBitmap(pixels.shape[1], pixels.shape[0], pixels, 0, 0)
    assert outcome(qr_decode, bitmap) == outcome(reference_decode, bitmap)


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


@settings(deadline=None, max_examples=300)
@given(run_rows())
def test_ratio_hits_match_per_line_scan(lines):
    row, center, unit = decode._ratio_hits(lines)
    expected = [(float(r), c, u) for r in range(len(lines)) for c, u in qr_ref.ratio_candidates(lines[r])]
    assert list(zip(row.astype(float).tolist(), center.tolist(), unit.tolist())) == expected


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
        matrix = QrMatrix(matrix.version, matrix.size, matrix.ec_level, matrix.mask_id, modules)
    bitmap = qr_render(matrix, draw(st.integers(1, 8)), draw(st.integers(0, 4)))
    return bitmap.pixels


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


def test_single_row_of_finder_runs_agrees():
    row = np.array([255] + [0] * 2 + [255] * 2 + [0] * 6 + [255] * 2 + [0] * 2 + [255], dtype=np.uint8)
    assert_agree(row[None, :])
    assert_agree(np.repeat(row[None, :], 15, axis=0))
