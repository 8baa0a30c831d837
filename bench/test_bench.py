"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from affine_frames import bezout, cli, sylvester  # noqa: E402


def test_generator_is_deterministic():
    for workload in workloads.WORKLOADS:
        first = workloads.generate(workload, 7, rounds=2)
        again = workloads.generate(workload, 7, rounds=2)
        shorter = workloads.generate(workload, 7, rounds=1)
        other = workloads.generate(workload, 8, rounds=2)
        assert first.documents == again.documents
        assert first.requests == again.requests
        assert first.requests[: len(shorter.requests)] == shorter.requests
        assert first.documents != other.documents
        assert all(r.n >= 2 and r.d >= 1 and r.bits >= 1 for r in first.requests)


def test_self_times_of_a_toy_nest():
    # root [0, 100] holds a [10, 40] (which holds b [20, 30]) and c [50, 90].
    toy = [
        ["root", 0, 100, -1, 0, None],
        ["a", 10, 40, 0, 0, None],
        ["b", 20, 30, 1, 0, None],
        ["c", 50, 90, 0, 0, None],
    ]
    assert spans.self_times(toy) == [30, 20, 10, 40]
    assert sum(spans.self_times(toy)) == 100


def test_recorder_wraps_every_binding_and_restores_it():
    original = sylvester.build_sylvester
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert bezout.build_sylvester is sylvester.build_sylvester is not original
    finally:
        recorder.uninstall()
    assert bezout.build_sylvester is sylvester.build_sylvester is original


def test_digest_check_catches_one_flipped_byte(tmp_path):
    warm = workloads.warmup()
    run.write_documents(warm, tmp_path)
    request = warm.requests[0]
    record = run.call(cli, request, tmp_path, budget_s=60, cal=run.Calibrator())
    out = record["_out"]
    assert run.judge(request, record["exit"], out, record["digest"], record["digest"]) == []

    flipped = bytearray(out)
    flipped[len(flipped) // 2] ^= 0x01
    digest = run.output_digest(record["exit"], bytes(flipped), b"")
    assert run.judge(request, record["exit"], bytes(flipped), digest, record["digest"][:16]) == [
        "output digest differs"
    ]
