"""Golden QR symbols: the sha256 of the chosen mask id and the module bytes
of fixed payloads at every version 1-10 and every error-correction level,
plus forced masks and forced versions.

`bench/golden.json` checks only the payloads a round trip decodes, so an
encoder change that picks another mask or places one module differently
could still pass there. This table fails on any such change. Regenerate it
only when the encoder's output is meant to change.

`test_cli_encode_bytes_match_golden` pins the bytes `qr encode` writes, PGM
images and manifest, so a renderer or PGM change fails there.
"""

import hashlib

import pytest

from trap4phish.cli import main
from trap4phish.qr import byte_mode_capacity, from_pgm, qr_encode, qr_render, to_pgm


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


CLI_URLS = [
    "https://a.test/",
    "http://login.example.com/verify?id=12345&session=abcdef",
    "https://xn--pple-43d.test/%7Euser/pay?amount=9.99#top",
    "http://192.168.10.20:8080/" + "deep/" * 12 + "index.php",
    "https://b.test/" + "q" * 150,
]
# (--module-px, --quiet-zone): the defaults, the smallest image, and another
CLI_RENDER_SETTINGS = [(8, 4), (1, 0), (3, 2)]
CLI_GOLDEN = "d0d5cce08fffbc602ab76a8392381ba77fecbaec4c987105614dde0db0ec169c"


def test_cli_encode_bytes_match_golden(tmp_path):
    url_file = tmp_path / "urls.txt"
    url_file.write_text("\n".join(CLI_URLS) + "\n", encoding="utf-8")
    h = hashlib.sha256()
    for module_px, quiet_zone in CLI_RENDER_SETTINGS:
        out_dir = tmp_path / f"{module_px}-{quiet_zone}"
        args = ["qr", "encode", "--in", str(url_file), "--out-dir", str(out_dir)]
        if (module_px, quiet_zone) != (8, 4):
            args += ["--module-px", str(module_px), "--quiet-zone", str(quiet_zone)]
        assert main(args) == 0
        for i, url in enumerate(CLI_URLS):
            data = (out_dir / f"{i:05d}.pgm").read_bytes()
            assert data == to_pgm(qr_render(qr_encode(url.encode()), module_px, quiet_zone))
            h.update(data)
        # the PGM reader gives back what the writer took
        assert to_pgm(from_pgm(data)) == data
        h.update((out_dir / "manifest.csv").read_bytes())
    assert h.hexdigest() == CLI_GOLDEN
