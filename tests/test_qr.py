import statistics
import time

import numpy as np
import pytest

from trap4phish.qr import (
    BadBitmap,
    NoFinderPatterns,
    PayloadTooLong,
    QrBitmap,
    RsFailure,
    UnsupportedMode,
    FormatUnrecoverable,
    byte_mode_capacity,
    from_pgm,
    qr_decode,
    qr_encode,
    qr_render,
    to_pgm,
)
from trap4phish.qr.encode import interleaved_block_ids
from trap4phish.qr.gf256 import generator_poly, gf_pow, poly_eval, rs_encode
from trap4phish.qr.matrix import QrMatrix, data_positions, function_layout
from trap4phish.qr.tables import (
    BLOCK_STRUCTURE,
    REMAINDER_BITS,
    TOTAL_CODEWORDS,
    blocks_of,
    matrix_size,
)


def corrupt_codewords(matrix: QrMatrix, codeword_indices) -> QrMatrix:
    modules = matrix.modules.copy()
    rows, cols = data_positions(matrix.version)
    for k in codeword_indices:
        for bit in range(8):
            pos = 8 * k + bit
            modules[rows[pos], cols[pos]] ^= True
    return QrMatrix(matrix.version, matrix.size, matrix.ec_level, matrix.mask_id, modules)


class TestTables:
    def test_block_structure_consistency(self):
        for (version, level), (ec, groups) in BLOCK_STRUCTURE.items():
            data = sum(count * dlen for count, dlen in groups)
            blocks = sum(count for count, _ in groups)
            assert data + blocks * ec == TOTAL_CODEWORDS[version], (version, level)

    def test_data_region_capacity_matches_tables(self):
        for version in range(1, 11):
            rows, _cols = data_positions(version)
            assert len(rows) == TOTAL_CODEWORDS[version] * 8 + REMAINDER_BITS[version]

    def test_function_layout_reserved_plus_data_covers_grid(self):
        for version in range(1, 11):
            reserved, _base = function_layout(version)
            n = matrix_size(version)
            rows, _ = data_positions(version)
            assert int(reserved.sum()) + len(rows) == n * n

    def test_byte_capacities(self):
        assert byte_mode_capacity(1, "M") == 14
        assert byte_mode_capacity(10, "H") < 300


class TestEncode:
    def test_smallest_version_selection(self):
        assert qr_encode(b"x" * 10, "M").version == 1
        assert qr_encode(b"x" * 15, "M").version == 2

    def test_payload_too_long_names_capacity(self):
        with pytest.raises(PayloadTooLong) as err:
            qr_encode(b"y" * 300, "H")
        assert str(byte_mode_capacity(10, "H")) in str(err.value)

    def test_empty_payload(self):
        m = qr_encode(b"", "M")
        assert m.version == 1
        assert qr_decode(qr_render(m)) == b""

    def test_rs_parity_roots(self):
        # parity makes the codeword polynomial vanish at the generator roots
        data = [32, 91, 11, 120, 209, 114, 220, 77, 67, 64, 236, 17, 236, 17, 236, 17]
        parity = rs_encode(data, 10)
        codeword = data + parity
        for i in range(10):
            assert poly_eval(codeword, gf_pow(2, i)) == 0

    def test_generator_poly_degree(self):
        for nsym in (7, 10, 13, 30):
            assert len(generator_poly(nsym)) == nsym + 1


class TestRenderPgm:
    def test_geometry(self):
        m = qr_encode(b"geometry", "M")
        assert m.version == 1
        bmp = qr_render(m, 4, 4)
        assert bmp.width == bmp.height == (21 + 8) * 4

    def test_pixels_binary(self):
        bmp = qr_render(qr_encode(b"px", "L"), 3, 2)
        assert set(np.unique(bmp.pixels)) <= {0, 255}

    def test_deterministic(self):
        a = to_pgm(qr_render(qr_encode(b"same", "Q"), 5, 4))
        b = to_pgm(qr_render(qr_encode(b"same", "Q"), 5, 4))
        assert a == b

    def test_pgm_roundtrip(self):
        bmp = qr_render(qr_encode(b"pgm test", "M"), 4, 4)
        again = from_pgm(to_pgm(bmp))
        assert (again.pixels == bmp.pixels).all()

    def test_module_px_zero_rejected(self):
        with pytest.raises(ValueError):
            qr_render(qr_encode(b"x", "M"), 0)

    def test_pgm_bad_input(self):
        with pytest.raises(ValueError):
            from_pgm(b"P6\n1 1\n255\n\x00")
        with pytest.raises(ValueError):
            from_pgm(b"P5\n4 4\n255\nshort")


class TestDecode:
    def test_roundtrip_url(self):
        payload = b"https://example.test/a?b=1"
        assert qr_decode(qr_render(qr_encode(payload, "M"))) == payload

    def test_roundtrip_random_versions_levels(self):
        rng = np.random.default_rng(12)
        for version in range(1, 11):
            for level in "LMQH":
                n = int(rng.integers(0, byte_mode_capacity(version, level) + 1))
                payload = bytes(rng.integers(0, 256, n, dtype=np.uint8))
                m = qr_encode(payload, level, version=version)
                assert qr_decode(qr_render(m, 3, 4)) == payload, (version, level)

    def test_all_masks_decode(self):
        for mask in range(8):
            m = qr_encode(b"mask spin", "Q", mask_id=mask)
            assert m.mask_id == mask
            assert qr_decode(qr_render(m)) == b"mask spin"

    def test_blank_bitmap(self):
        blank = QrBitmap(80, 80, np.full((80, 80), 255, dtype=np.uint8), 4, 4)
        with pytest.raises(NoFinderPatterns):
            qr_decode(blank)

    def test_pixel_budget(self):
        # a blank bitmap gets as far as the finder search only within the budget
        at_limit = QrBitmap(2048, 2048, np.full((2048, 2048), 255, dtype=np.uint8), 0, 0)
        with pytest.raises(NoFinderPatterns):
            qr_decode(at_limit)
        over = QrBitmap(2049, 2048, np.full((2048, 2049), 255, dtype=np.uint8), 0, 0)
        with pytest.raises(BadBitmap, match="2049x2048"):
            qr_decode(over)

    def test_correction_at_capacity(self):
        rng = np.random.default_rng(5)
        for version, level in [(1, "M"), (3, "Q"), (5, "H"), (7, "L"), (10, "H")]:
            ec, _ = BLOCK_STRUCTURE[(version, level)]
            t = ec // 2
            n = min(8, byte_mode_capacity(version, level))
            payload = bytes(rng.integers(0, 256, n, dtype=np.uint8))
            m = qr_encode(payload, level, version=version)
            ids = interleaved_block_ids(version, level)
            block0 = [i for i, b in enumerate(ids) if b == 0]
            chosen = rng.choice(block0, size=t, replace=False)
            assert qr_decode(qr_render(corrupt_codewords(m, chosen), 3, 4)) == payload

    def test_beyond_capacity_never_silent(self):
        rng = np.random.default_rng(6)
        for version, level in [(1, "M"), (2, "H"), (4, "Q"), (6, "L"), (9, "M")]:
            ec, _ = BLOCK_STRUCTURE[(version, level)]
            t = ec // 2
            n = min(6, byte_mode_capacity(version, level))
            payload = bytes(rng.integers(0, 256, n, dtype=np.uint8))
            m = qr_encode(payload, level, version=version)
            ids = interleaved_block_ids(version, level)
            block0 = [i for i, b in enumerate(ids) if b == 0]
            chosen = rng.choice(block0, size=t + 1, replace=False)
            try:
                out = qr_decode(qr_render(corrupt_codewords(m, chosen), 3, 4))
            except (RsFailure, UnsupportedMode, FormatUnrecoverable):
                continue
            assert out == payload  # corrected against the odds, but not wrong

    def test_format_info_recovered_with_flips(self):
        m = qr_encode(b"format flip", "M")
        modules = m.modules.copy()
        # flip three of the fifteen format modules of copy A (BCH distance)
        for r, c in [(8, 0), (8, 2), (0, 8)]:
            modules[r, c] ^= True
        damaged = QrMatrix(m.version, m.size, m.ec_level, m.mask_id, modules)
        assert qr_decode(qr_render(damaged, 3, 4)) == b"format flip"

    def test_opencv_cross_validation(self):
        cv2 = pytest.importorskip("cv2")
        detector = cv2.QRCodeDetector()
        for version, level in [(1, "M"), (2, "L"), (4, "Q"), (7, "H"), (10, "M")]:
            payload = f"https://cross.test/v{version}{level}"
            payload = payload[: byte_mode_capacity(version, level)]
            m = qr_encode(payload.encode(), level, version=version)
            text, _pts, _ = detector.detectAndDecode(qr_render(m, 8, 4).pixels)
            assert text == payload, (version, level)


def finder_tiles(side: int, large: str = "") -> QrBitmap:
    """A bitmap tiled with 9x9 cells that each hold a 7x7 finder-like
    pattern (unit 1). `large` adds patterns of unit side // 8 drawn on
    single rows and columns: "edge" puts one on row 0 and column 0, where
    they never cross; "cross" puts three of each through one point, so
    large-unit finder candidates exist next to the small ones."""
    cell = np.zeros((9, 9), dtype=bool)
    cell[1:8, 1:8] = True
    cell[2:7, 2:7] = False
    cell[3:6, 3:6] = True
    dark = np.tile(cell, (side // 9, side // 9))
    u = side // 8
    line = np.zeros(len(dark), dtype=bool)
    line[:u] = line[2 * u:5 * u] = line[6 * u:7 * u] = True
    at = {"": [], "edge": [0], "cross": [3 * u, 3 * u + 9, 3 * u + 18]}[large]
    for i in at:
        dark[i] = dark[:, i] = line
    pixels = np.where(dark, 0, 255).astype(np.uint8)
    return QrBitmap(len(pixels), len(pixels), pixels, 0, 0)


@pytest.mark.parametrize("large", ["", "edge", "cross"])
def test_finder_search_time_grows_linearly(large):
    """Twice the side is four times the pixels and the hits; the old
    all-pairs search took about 14 times as long. Each small/large pair is
    timed back to back in CPU time, and the median pair decides, so a slow
    spell of a shared machine does not."""
    def cpu_time(bitmap):
        start = time.process_time()
        with pytest.raises(NoFinderPatterns):
            qr_decode(bitmap)
        return time.process_time() - start

    side_s, side_2s = finder_tiles(198, large), finder_tiles(396, large)
    pairs = [(cpu_time(side_s), cpu_time(side_2s)) for _ in range(7)]
    assert min(t_2s for _t_s, t_2s in pairs) < 5.0
    assert statistics.median(t_2s / t_s for t_s, t_2s in pairs) <= 6.0, pairs
