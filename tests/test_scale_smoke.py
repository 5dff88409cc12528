"""The child runner of tests/scale_smoke.py, which the CI scale checks share."""

import scale_smoke


def test_runner_reads_the_child_not_the_parent(tmp_path, monkeypatch):
    # the runner finds src from its own file, not from the working directory
    monkeypatch.chdir(tmp_path)
    # a child's ru_maxrss counts from the parent's pages at fork: a runner
    # reading it would see these 128 MB, touched by the zero fill
    ballast = bytearray(128 << 20)
    status, cpu, peak_mb = scale_smoke.run_cli(["parse", "CCO"])
    assert status == 0 and cpu > 0
    assert 0 < peak_mb < 64
    missing = ["eval", "gen", "--records", str(tmp_path / "missing.jsonl"), "--target-kind", "text",
               "--out", str(tmp_path / "report.json")]
    assert scale_smoke.run_cli(missing)[0] == 2
    assert scale_smoke.report("missing records", missing, 80) is None
    assert len(ballast) == 128 << 20
