"""Golden QR symbols: the sha256 of the chosen mask id and the module bytes
of fixed payloads at every version 1-10 and every error-correction level,
plus forced masks and forced versions.

`bench/golden.json` checks only the payloads a round trip decodes, so an
encoder change that picks another mask or places one module differently
could still pass there. This table fails on any such change. Regenerate it
only when the encoder's output is meant to change.
"""

import hashlib

import pytest

from trap4phish.qr import byte_mode_capacity, qr_encode


def payload(length: int, salt: int) -> bytes:
    """Fixed bytes that cover the whole byte range."""
    return bytes((i * 37 + salt * 11) % 256 for i in range(length))


def symbol_digest(matrices) -> str:
    h = hashlib.sha256()
    for m in matrices:
        h.update(bytes([m.version, m.mask_id]))
        h.update(m.modules.tobytes())
    return h.hexdigest()


def full_symbols(level: str):
    # a payload of the full capacity of version v picks version v
    for version in range(1, 11):
        m = qr_encode(payload(byte_mode_capacity(version, level), version), level)
        assert m.version == version
        yield m


def forced_masks():
    for mask_id in range(8):
        for level in "LMQH":
            yield qr_encode(b"https://mask.test/" + bytes([48 + mask_id]), level, mask_id=mask_id)


def forced_versions():
    for version in range(1, 11):
        for level in "LMQH":
            yield qr_encode(payload(version * 3, version), level, version=version)


GOLDEN = {
    "empty": "280fc1fa77b403aa55d7db79069f0bc42b4464a96cdc746dc0fb2f972292c34e",
    "forced-mask": "56274806a23a73f31fce965db5b8b3bcdfe7d8d67526b385472749945b381d41",
    "forced-version": "b4a67ed0d8571edbff3a69d35be228b1cfd66dfd678660dcdf36fe98898f080d",
    "full-H": "ba511e1569d84712e11a04c2e91e105a31ab74feb4d5ba486eb4b66b83ef3ab4",
    "full-L": "a46746e7c874df03bf79ac3c1685b783d7c770292ae50af097dd1307e291134f",
    "full-M": "b51835aec687a3dd4b13466591599d30d1fc6739b2d311f3b244ae3522c129fa",
    "full-Q": "a900e87dc7fd7f7921a46378f6b18c8d81141f60baf27ec5d278c5b0178f5d58",
}

CASES = {
    "full-L": lambda: full_symbols("L"),
    "full-M": lambda: full_symbols("M"),
    "full-Q": lambda: full_symbols("Q"),
    "full-H": lambda: full_symbols("H"),
    "forced-mask": forced_masks,
    "forced-version": forced_versions,
    "empty": lambda: [qr_encode(b"", level) for level in "LMQH"],
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_symbols_match_golden(case):
    assert symbol_digest(CASES[case]()) == GOLDEN[case]
