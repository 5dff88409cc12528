"""Schema of the committed benchmark records, BENCH_<n>.json at the repo root.

Each file records alternating parent/change runs of `perfbench/run.py`:
per workload, the seeds, and per end-to-end metric the bound it was judged
against, each side's runs with their median and quartiles
(`statistics.quantiles(runs, n=4, method="inclusive")`), and whether the
change's median stayed within that bound of the parent's. A file that
claims a gain names the workload and metric, the pairs run, the pairs the
change won, the gain in medians and the parent's quartile distance, and
whether the claim holds: at least nine tenths of the pairs won and a gain
larger than that distance.
"""

import json
import re
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}
WORKLOADS = {w["name"] for w in BENCHMARK["workloads"]}
FILES = sorted(ROOT.glob("BENCH_*.json"))
COMMIT = re.compile(r"[0-9a-f]{7,40}")


def test_bench_files_exist():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_bench_file_schema(path):
    assert re.fullmatch(r"BENCH_\d+\.json", path.name)
    bench = json.loads(path.read_text())
    assert COMMIT.fullmatch(bench["parent"]) and COMMIT.fullmatch(bench["change"])
    assert bench["parent"] != bench["change"]
    assert isinstance(bench["nproc"], int) and bench["nproc"] >= 1
    assert bench["seconds"] == BENCHMARK["run_seconds"]
    assert isinstance(bench["command"], str) and bench["command"].startswith(" ".join(BENCHMARK["command"]))
    assert bench["claim"] is None or isinstance(bench["claim"], dict)
    assert bench["workloads"] and set(bench["workloads"]) <= WORKLOADS
    for workload in bench["workloads"].values():
        seeds = workload["seeds"]
        assert seeds and all(isinstance(s, int) for s in seeds)
        assert set(workload["metrics"]) == set(BOUNDS)
        for name, metric in workload["metrics"].items():
            assert metric["unit"] == BOUNDS[name]["unit"]
            assert metric["better"] == BOUNDS[name]["better"]
            assert metric["bound"] == BOUNDS[name]["bound"]
            for side in ("parent", "change"):
                runs = metric[side]["runs"]
                assert len(runs) == len(seeds)
                q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
                assert metric[side]["median"] == pytest.approx(median)
                assert metric[side]["q1"] == pytest.approx(q1)
                assert metric[side]["q3"] == pytest.approx(q3)
            parent, change = metric["parent"]["median"], metric["change"]["median"]
            if metric["better"] == "higher":
                within = change >= parent * (1 - metric["bound"])
            else:
                within = change <= parent * (1 + metric["bound"])
            assert metric["within_bound"] is within


@pytest.mark.parametrize(
    "path", [p for p in FILES if json.loads(p.read_text())["claim"]], ids=lambda p: p.name
)
def test_bench_file_claim(path):
    bench = json.loads(path.read_text())
    claim = bench["claim"]
    metric = bench["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    parent, change = metric["parent"], metric["change"]
    sign = 1 if metric["better"] == "higher" else -1
    assert claim["pairs"] == len(parent["runs"]) >= 10
    assert claim["wins"] == sum(sign * (c - p) > 0 for p, c in zip(parent["runs"], change["runs"]))
    assert claim["median_gain"] == pytest.approx(sign * (change["median"] - parent["median"]))
    assert claim["parent_quartile_distance"] == pytest.approx(parent["q3"] - parent["q1"])
    holds = claim["wins"] >= 0.9 * claim["pairs"] and claim["median_gain"] > claim["parent_quartile_distance"]
    assert claim["holds"] is holds
