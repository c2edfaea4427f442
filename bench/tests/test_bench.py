"""Tests of the benchmark itself: generators, tracer and tiny end-to-end runs.

    python3 -m pytest -q bench/tests
"""

import io
import json
import shutil
import subprocess
import sys
import zipfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import tracing  # noqa: E402
from trap4phish import cli  # noqa: E402

WORKLOADS = ("corpus-scan", "hostile-scan", "model-fit", "qr-roundtrip")
# the part of each zipped hostile family that carries the repeated pattern
ZIPPED_PART = {"docx_instrtext": "word/document.xml", "xlsx_cells": "xl/worksheets/sheet1.xml"}


def _generated(seed: int) -> list:
    return [
        gen.corpus(seed, 2),
        [gen.hostile_file(f, 10, seed, r) for f in gen.HOSTILE_FAMILIES for r in (1, 2)],
        gen.docx_inflate(seed, 1),
        [make(seed, 32 << 10) for make in gen.LARGE_MAKERS.values()],
        gen.phishing_urls(seed, 8),
    ]


def test_generators_are_deterministic_by_seed():
    first, again, other = _generated(3), _generated(3), _generated(4)
    assert first == again
    for a, b in zip(first, other):
        assert a != b


def _pattern_text(family: str, data: bytes) -> str:
    if family in ZIPPED_PART:
        with zipfile.ZipFile(io.BytesIO(data)) as zf:
            return zf.read(ZIPPED_PART[family]).decode()
    return data.decode("latin-1")


@pytest.mark.parametrize("family", gen.HOSTILE_FAMILIES)
def test_hostile_2n_input_is_n_pattern_doubled(family):
    head, _body, tail = gen._FAMILIES[family][:3]
    one = _pattern_text(family, gen.hostile_file(family, 25, 5, 1)[1])
    two = _pattern_text(family, gen.hostile_file(family, 25, 5, 2)[1])
    assert one.startswith(head) and one.endswith(tail)
    pattern = one[len(head):len(one) - len(tail)]
    assert pattern.count("\n") + pattern.count("<") >= 25
    assert two == head + pattern * 2 + tail


def _run(cwd: Path, workload: str, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "0.1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_passes_every_output_check(workload):
    for trace in ("0", "1"):
        proc = _run(ROOT, workload, "--size", "tiny", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, proc.stdout
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
        assert sorted(result["metrics"]) == sorted(m["name"] for m in wanted)


def test_run_without_sources_fails(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "qr-roundtrip")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_restores_every_wrapped_function(tmp_path):
    targets = tracing.patch_targets()
    originals = [owner[attr] if isinstance(owner, dict) else getattr(owner, attr) for owner, attr in targets]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for (owner, attr), original in zip(targets, originals):
            current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            assert current is not original, attr
        for rel, data, _label in gen.corpus(2, 2):
            (tmp_path / rel).parent.mkdir(exist_ok=True)
            (tmp_path / rel).write_bytes(data)
        code = tracer.call("cli.scan", cli.main, (["scan", "--jobs", "2", str(tmp_path),
                                                    "--out", str(tmp_path / "out")],))
    finally:
        tracer.uninstall()
    assert code == 0
    for (owner, attr), original in zip(targets, originals):
        current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        assert current is original, attr

    # pool threads hang their analyzer spans under the scan call
    scan = [s for s in tracer.spans if s.name == "cli.scan"]
    analyzers = [s for s in tracer.spans if s.name.startswith("analyzers.") and "ooxml" not in s.name]
    assert len(scan) == 1 and len(analyzers) == 16
    assert all(s.parent == scan[0].id and s.file_id for s in analyzers)
    entropy = [s for s in tracer.spans if s.name == "core.entropy"]
    by_id = {s.id: s for s in tracer.spans}
    assert all(by_id[s.parent].name.startswith("analyzers.") for s in entropy)


def test_clock_scales_wall_time_by_the_probes_around_it():
    from clock import PROBE_REF_S, Clock

    clock = Clock()
    for _ in range(2):
        result, wall, ref = clock.time(sum, range(1000))
    assert result == 499500
    assert len(clock.probes) == 3  # the probe between the two operations is shared
    assert ref == wall * PROBE_REF_S * 2 / (clock.probes[1] + clock.probes[2])
