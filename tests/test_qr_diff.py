"""Differential and property tests of the QR encoder and Reed-Solomon code.

The stacked mask scorer, the table-product Reed-Solomon parity, syndromes
and Chien search, the format-word decoder, the integer bitstream packer,
the whole encoder and the renderer are compared with the one-at-a-time
versions kept in `qr_ref.py`. The
round trip then checks that any payload at any version and level survives
encode, render and decode with up to floor(ec / 2) damaged codewords in
every block.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import qr_ref
from test_qr import interleaved_block_ids
from trap4phish.qr import QrError, byte_mode_capacity, decode, qr_decode, qr_encode, qr_render, to_pgm
from trap4phish.qr.encode import build_data_codewords, interleave, mask_candidates
from trap4phish.qr.gf256 import RsDecodeError, _find_errors, _syndromes, gf_pow, poly_mul, rs_decode, rs_encode
from trap4phish.qr.matrix import QrMatrix, data_positions, format_index, penalty_scores
from trap4phish.qr.tables import ALL_FORMAT_WORDS, BLOCK_STRUCTURE, blocks_of, smallest_version

BYTES = st.integers(0, 255)


@st.composite
def grid_stacks(draw):
    """(k, n, n) boolean stacks, 21 <= n <= 57: random modules at a random
    density, with some rows, columns or blocks painted one colour so that
    long runs, 2x2 blocks and dark-ratio extremes all occur."""
    n = draw(st.integers(21, 57))
    k = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = rng.random((k, n, n)) < draw(st.sampled_from([0.02, 0.3, 0.5, 0.7, 0.98]))
    for _ in range(draw(st.integers(0, 6))):
        s, r, c = (int(v) for v in rng.integers(0, (k, n, n)))
        stack[s, r:r + int(rng.integers(1, n)), c:c + int(rng.integers(1, n))] = bool(rng.integers(2))
    return stack


@settings(deadline=None, max_examples=300)
@given(grid_stacks())
def test_stacked_scores_match_per_symbol_penalty(stack):
    assert penalty_scores(stack).tolist() == [qr_ref.penalty_score(m) for m in stack]


@settings(deadline=None, max_examples=300)
@given(st.lists(BYTES, max_size=160), st.integers(1, 68))
def test_rs_encode_matches_long_division(data, nsym):
    assert rs_encode(data, nsym) == qr_ref.rs_encode(data, nsym)


@settings(deadline=None, max_examples=300)
@given(st.lists(BYTES, min_size=1, max_size=200), st.integers(1, 68))
def test_syndromes_match_horner(msg, nsym):
    assert _syndromes(msg, nsym) == qr_ref.syndromes(msg, nsym)


def test_rs_encode_matches_long_division_on_every_qr_block_shape():
    rng = np.random.default_rng(25)
    shapes = {(dlen, ec) for (version, level), (ec, _groups) in BLOCK_STRUCTURE.items()
              for dlen in blocks_of(version, level)}
    assert len(shapes) == 47
    for dlen, ec in sorted(shapes):
        for data in (rng.integers(0, 256, dlen).tolist(), [0] * dlen, [0xFF] * dlen):
            assert rs_encode(data, ec) == qr_ref.rs_encode(data, ec), (dlen, ec, data)


def outcome(f, *args):
    """What f returns, or the type and message of the QR or Reed-Solomon
    error it raises."""
    try:
        return f(*args)
    except (QrError, RsDecodeError) as exc:
        return type(exc), str(exc)


@st.composite
def locators(draw):
    """(error locator, message length): the reciprocal locator is a nonzero
    constant times x + alpha^i for up to 15 distinct i below the length,
    sometimes times a random factor that may add roots, repeat one, or make
    the polynomial zero."""
    nmess = draw(st.integers(1, 255))
    roots = draw(st.lists(st.integers(0, nmess - 1), max_size=min(15, nmess), unique=True))
    reciprocal = [draw(st.integers(1, 255))]
    for i in roots:
        reciprocal = poly_mul(reciprocal, [1, gf_pow(2, i)])
    if draw(st.booleans()):
        reciprocal = poly_mul(reciprocal, draw(st.lists(BYTES, min_size=1, max_size=3)))
    return reciprocal[::-1], nmess


@settings(deadline=None, max_examples=300)
@given(locators())
def test_chien_search_matches_power_by_power_search(case):
    err_loc, nmess = case
    assert outcome(_find_errors, err_loc, nmess) == outcome(qr_ref.find_errors, err_loc, nmess)


def format_modules(word_a: int, word_b: int) -> np.ndarray:
    """A version-1 module grid, light but for the two format words."""
    modules = np.zeros((21, 21), dtype=bool)
    bits = np.array([word_a, word_b])[:, None] >> np.arange(15) & 1
    modules[format_index(21)] = bits.reshape(-1) == 1
    return modules


FORMAT_CODEWORDS = list(ALL_FORMAT_WORDS.values())
WORDS = st.integers(0, 2**15 - 1)
NEAR_CODEWORDS = st.builds(lambda word, flips: word ^ sum(1 << i for i in flips),
                           st.sampled_from(FORMAT_CODEWORDS), st.sets(st.integers(0, 14), max_size=4))


@settings(deadline=None, max_examples=300)
@given(WORDS, WORDS)
def test_format_decode_matches_codeword_loop_on_random_words(word_a, word_b):
    modules = format_modules(word_a, word_b)
    assert outcome(decode._decode_format, modules) == outcome(qr_ref.decode_format, modules)


@settings(deadline=None, max_examples=500)
@given(NEAR_CODEWORDS, NEAR_CODEWORDS)
# two clean copies of different codewords tie at distance 0: the first in
# table order wins, whichever copy holds it
@example(FORMAT_CODEWORDS[9], FORMAT_CODEWORDS[4])
@example(FORMAT_CODEWORDS[4], FORMAT_CODEWORDS[9])
# four flips in both copies: refused with the distance
@example(FORMAT_CODEWORDS[0] ^ 0b1111, FORMAT_CODEWORDS[31] ^ 0b1111 << 11)
def test_format_decode_matches_codeword_loop_near_codewords(word_a, word_b):
    modules = format_modules(word_a, word_b)
    assert outcome(decode._decode_format, modules) == outcome(qr_ref.decode_format, modules)


@st.composite
def encodings(draw):
    """(payload, level, version, mask_id) with the payload fitting the
    version; the version and the mask are sometimes left to the encoder."""
    level = draw(st.sampled_from("LMQH"))
    n = draw(st.integers(0, byte_mode_capacity(10, level)))
    payload = draw(st.binary(min_size=n, max_size=n))
    version = draw(st.one_of(st.none(), st.integers(smallest_version(n, level), 10)))
    mask_id = draw(st.one_of(st.none(), st.integers(0, 7)))
    return payload, level, version, mask_id


@settings(deadline=None, max_examples=150)
@given(encodings())
def test_encoder_matches_per_mask_encoder(case):
    payload, level, version, mask_id = case
    got = qr_encode(payload, level, mask_id=mask_id, version=version)
    want = qr_ref.qr_encode(payload, level, mask_id=mask_id, version=version)
    assert (got.version, got.mask_id) == (want.version, want.mask_id)
    assert got.modules.tobytes() == want.modules.tobytes()
    assert build_data_codewords(payload, got.version, level) == qr_ref.build_data_codewords(
        payload, got.version, level)


@pytest.mark.parametrize("version", range(1, 11))
def test_render_matches_kron_renderer(version):
    matrix = qr_encode(bytes(range(version)), "L", version=version)
    for module_px in range(1, 9):
        for quiet_zone in range(5):
            bitmap = qr_render(matrix, module_px, quiet_zone)
            expected = qr_ref.render_pixels(matrix, module_px, quiet_zone)
            assert bitmap.dtype == np.uint8
            assert np.array_equal(bitmap, expected), (module_px, quiet_zone)
            assert to_pgm(bitmap) == to_pgm(expected)


@pytest.mark.parametrize("level, n, salt, mask_id", [
    ("L", 18, 0, 2), ("Q", 8, 1, 0), ("Q", 20, 0, 0), ("H", 26, 2, 1),
])
def test_lowest_mask_id_wins_a_tied_penalty(level, n, salt, mask_id):
    payload = bytes((i * 31 + salt * 7 + n) % 256 for i in range(n))
    version = smallest_version(n, level)
    final = interleave(build_data_codewords(payload, version, level), version, level)
    scores = penalty_scores(mask_candidates(version, level, final, list(range(8))))
    assert (scores == scores.min()).sum() == 2
    assert qr_encode(payload, level).mask_id == mask_id == qr_ref.qr_encode(payload, level).mask_id


@settings(deadline=None, max_examples=200)
@given(st.data())
def test_rs_decode_corrects_up_to_half_the_parity(data):
    nsym = data.draw(st.integers(2, 30))
    message = data.draw(st.lists(BYTES, min_size=1, max_size=120))
    received = message + rs_encode(message, nsym)
    errors = data.draw(st.lists(st.tuples(st.integers(0, len(received) - 1), st.integers(1, 255)),
                                max_size=nsym // 2, unique_by=lambda e: e[0]))
    for pos, flip in errors:
        received[pos] ^= flip
    assert rs_decode(received, nsym) == message


def damage(matrix: QrMatrix, errors: dict[int, int]) -> QrMatrix:
    """XOR codeword k (interleaved order) of the symbol with errors[k]."""
    modules = matrix.modules.copy()
    rows, cols = data_positions(matrix.version)
    for k, flip in errors.items():
        for bit in range(8):
            if flip >> (7 - bit) & 1:
                modules[rows[8 * k + bit], cols[8 * k + bit]] ^= True
    return QrMatrix(matrix.version, matrix.ec_level, matrix.mask_id, modules)


@settings(deadline=None, max_examples=40)
@given(encodings(), st.integers(1, 4), st.integers(1, 4), st.data())
def test_roundtrip_with_correctable_damage(case, module_px, quiet_zone, data):
    payload, level, version, mask_id = case
    matrix = qr_encode(payload, level, mask_id=mask_id, version=version)
    ec, _ = BLOCK_STRUCTURE[(matrix.version, level)]
    ids = np.array(interleaved_block_ids(matrix.version, level))
    errors = {}
    for block in range(ids.max() + 1):
        own = np.flatnonzero(ids == block).tolist()
        chosen = data.draw(st.lists(st.sampled_from(own), max_size=ec // 2, unique=True))
        errors.update({k: data.draw(st.integers(1, 255)) for k in chosen})
    bitmap = qr_render(damage(matrix, errors), module_px, quiet_zone)
    assert qr_decode(bitmap) == payload


# A finder-like pattern in the data region of each symbol below outweighs a
# real finder, so the first-ranked finder triple does not decode and the
# decoder must go on to the next one.
FALSE_TRIPLE_PAYLOAD = bytes.fromhex(
    "d7e5db2d500c0fabe6164db339a82b7a7551fc3d5a023af45fd6fb70e7bc7276917caf48"
    "971dabd8f394cb5d6cb0316f6459b51302ed99501557402d97b78847b9277339d99b0a31"
    "dbcb5e2392a3321b04723b6820a08c0a6b85ca1e987e")
FALSE_TRIPLE_DAMAGED_PAYLOAD = bytes.fromhex(
    "ecb61b69d963ae58173b76228f3acea09e413d521faba0996fb3f7196f7fcd7b199be780"
    "c797bac16ddea283048ac8aca2a9ff55c33d1d0621552fed352d6e2b826bb7c546928ed2"
    "0caa038474ffc5a5e395a74f96e9716452a84b2e156d5302dda2ab7e2cf1deb384c03e")


def assert_first_triple_fails(bitmap: np.ndarray):
    binary = bitmap < 128
    clusters, row_hits, col_hits = decode._find_finder_centers(binary)
    with pytest.raises(QrError):
        decode._decode_at(binary, row_hits, col_hits, *decode._finder_triples(clusters, 1)[0])


@pytest.mark.parametrize("module_px", [2, 3, 4])
def test_decodes_past_a_false_finder_triple(module_px):
    matrix = qr_encode(FALSE_TRIPLE_PAYLOAD, "Q", mask_id=1)
    assert matrix.version == 8
    assert qr_decode(qr_render(matrix, 1)) == FALSE_TRIPLE_PAYLOAD
    bitmap = qr_render(matrix, module_px)
    assert_first_triple_fails(bitmap)
    assert qr_decode(bitmap) == FALSE_TRIPLE_PAYLOAD


def test_decodes_past_a_false_finder_triple_with_damage():
    """Two damaged codewords, well inside level H's capacity; the undamaged
    symbol decodes on the first triple."""
    matrix = qr_encode(FALSE_TRIPLE_DAMAGED_PAYLOAD, "H", mask_id=3, version=10)
    assert qr_decode(qr_render(matrix, 3, 3)) == FALSE_TRIPLE_DAMAGED_PAYLOAD
    bitmap = qr_render(damage(matrix, {270: 85, 294: 4}), 3, 3)
    assert_first_triple_fails(bitmap)
    assert qr_decode(bitmap) == FALSE_TRIPLE_DAMAGED_PAYLOAD
