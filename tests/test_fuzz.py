"""Moderate-size robustness checks; the full 10k-per-analyzer sweep with the
watchdog lives in the acceptance suite."""

import zlib

import numpy as np
import pytest

from trap4phish.analyzers import FORMATS
from trap4phish.core import sniff_file_kind
from trap4phish.synth import SynthConfig, synthesize

from conftest import assert_full_features

ANALYZERS = [(fmt, spec.analyze, len(spec.schema)) for fmt, spec in FORMATS.items()]


@pytest.mark.parametrize("fmt,analyze,width", ANALYZERS)
def test_random_bytes_never_crash(fmt, analyze, width):
    rng = np.random.default_rng(zlib.crc32(fmt.encode()))
    for _ in range(500):
        size = int(rng.integers(0, 1024))
        data = rng.integers(0, 256, size, dtype=np.uint8).tobytes()
        report = analyze(data)
        assert len(report.features) == width
        assert_full_features(report, FORMATS[fmt].schema)


@pytest.mark.parametrize("fmt,analyze,width", ANALYZERS)
def test_truncations_never_crash(fmt, analyze, width):
    fixture = synthesize(SynthConfig(fmt, count=1, seed=3))[1][1]  # a malicious file
    for offset in range(0, len(fixture), max(1, len(fixture) // 64)):
        report = analyze(fixture[:offset])
        assert len(report.features) == width
        assert_full_features(report, FORMATS[fmt].schema)


def test_structured_garbage():
    # byte strings that look like format fragments
    cases = [
        b"PK\x03\x04" + b"\x00" * 40,
        b"PK\x05\x06" + b"\x00" * 18,
        b"%PDF-",
        b"%PDF-1.5\nstream\n",
        b"%PDF-1.5\n1 0 obj\n<< /Filter [",
        b"\xd0\xcf\x11\xe0\xa1\xb1\x1a\xe1" + b"\x00" * 504,
        b"<html><script>" + b"\x00" * 100,
        b"<!--" * 200,
    ]
    for data in cases:
        sniff_file_kind(data)
        for fmt, analyze, width in ANALYZERS:
            report = analyze(data)
            assert len(report.features) == width
            assert_full_features(report, FORMATS[fmt].schema)
