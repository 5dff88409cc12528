"""moleval benchmark: closed-loop runs of CLI subcommands on generated corpora.

    python3 perfbench/run.py --workload gen_mol --seed 1 --seconds 20 --trace 0

One client, one op at a time. An op is one in-process call of
`moleval.harness.cli.main` on one generated input file, made in a forked
child (see runner.py). With --trace 0 the run reports end-to-end metrics;
with --trace 1 it replays the same ops with spans around the calls into
each layer and reports per-layer metrics. The last line of standard output
is one JSON object; details, spans and a per-layer table are written under
.perfbench/results/ in the checkout.

Times in the end-to-end metrics are scaled to a reference speed: the op's
process times a fixed pure-Python task (`runner.calibrate_s`) just before
and just after the op, and the op's wall and CPU times are multiplied by
CALIBRATION_REFERENCE_S over the median of those timings for it and the
ops next to it. Shared machines change speed by tens of percent from
minute to minute; the scaling removes most of that from comparisons
between runs. Raw times are printed and kept in the details file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks
import corpus
import runner
import spans

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("gen_mol", "gen_text", "retrieval", "dataset")
SETUP_REPEATS = 3
END_TO_END = (
    ("items_per_s", "1/s"), ("cpu_ms_per_item", "ms"), ("op_ms_p50", "ms"), ("op_ms_tail", "ms"),
    ("ok_frac", "frac"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)
CALIBRATION_REFERENCE_S = 0.010  # the calibration task's time at the reference speed
CALIBRATION_WINDOW = 2  # ops on each side whose calibrations also set an op's scale


def import_program() -> float:
    """Import moleval from the checkout's src/ and return the time taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import moleval.harness.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    import moleval

    if not Path(moleval.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"moleval was imported from {moleval.__file__}, not from {src}")
    return elapsed


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and that
    percentile; the maximum when there are 10 samples or fewer."""
    ordered = sorted(values)
    index = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def digest(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def replay_argv(argv: list[str]) -> list[str]:
    """The traced replay is sequential: --threads 1 where the op sets it."""
    if "--threads" not in argv:
        return argv
    argv = list(argv)
    argv[argv.index("--threads") + 1] = "1"
    return argv


def out_path(op) -> str:
    return op.argv[op.argv.index("--out") + 1]


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, traced: bool):
        self.workload, self.seed, self.seconds, self.traced = workload, seed, seconds, traced
        self.work = ROOT / ".perfbench" / workload
        self.results = ROOT / ".perfbench" / "results"
        self.log_prefix = str(self.work / "op")
        self.nproc = len(os.sched_getaffinity(0))
        self.executions: list[dict] = []  # every op call after set-up, in order
        self.digests: dict[str, set] = {}
        self.problems: list[str] = []
        self.aggregate = spans.Aggregate()
        self.gap = [0.0, 0.0]  # untraced and traced seconds of the ops run both ways

    def execute(self, op, tracer=None, replay=False) -> runner.OpResult:
        result = runner.run(replay_argv(op.argv) if replay else op.argv, self.log_prefix, tracer)
        if result.ok:
            self.digests.setdefault(op.name, set()).add(digest(out_path(op)))
        return result

    def setup(self, import_s: float) -> None:
        """Generate the corpus and run a warm-up op, several times; keep the
        median, scaled like the ops."""
        shutil.rmtree(self.work, ignore_errors=True)
        calibrations = [runner.calibrate_s()]
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            self.plan = corpus.build(self.workload, self.work, self.seed, self.nproc)
            warm = self.execute(self.plan.warmup)
            times.append(time.perf_counter() - start)
            calibrations.append(runner.calibrate_s())
            if not warm.ok:
                self.problems.append(f"warm-up op failed: {warm.failure} {warm.detail}")
        scaled = [t * CALIBRATION_REFERENCE_S / statistics.median(calibrations[i:i + 2])
                  for i, t in enumerate(times)]
        self.setup_raw = import_s + statistics.median(times)
        self.setup_s = import_s * CALIBRATION_REFERENCE_S / calibrations[0] + statistics.median(scaled)
        self.setup_times = times

    def loop(self) -> None:
        """Run the hostile probes once, then the other ops of the pass in
        order, cycling, for the given number of seconds. Throughput and CPU
        are measured over that timed loop only."""
        for op in self.plan.ops:
            if op.role == "probe":
                self.step(op)
        ops = [op for op in self.plan.ops if op.role != "probe"]
        start = time.perf_counter()
        deadline = start + self.seconds
        seq = 0
        while time.perf_counter() < deadline:
            self.step(ops[seq % len(ops)])
            seq += 1
        self.wall_s = time.perf_counter() - start
        self.timed = self.executions[len(self.executions) - seq:]
        self.gap_frac = self.gap[1] / self.gap[0] - 1.0 if self.gap[0] else 0.0
        calibrations = [e["result"].calibration_s for e in self.executions]
        for i, e in enumerate(self.executions):
            nearby = [c for c in calibrations[max(0, i - CALIBRATION_WINDOW):i + CALIBRATION_WINDOW + 1] if c]
            e["scale"] = CALIBRATION_REFERENCE_S / statistics.median(nearby) if nearby else 1.0

    def step(self, op) -> None:
        seq = len(self.executions)
        if self.traced:
            twin = self.execute(op, replay=True) if op.role != "probe" else None
            result = self.execute(op, spans.Tracer(f"op.{op.kind}"), replay=True)
            if result.spans:
                self.aggregate.add(seq, op.name, result.spans)
            if twin is not None and not twin.ok:
                self.problems.append(f"untraced twin of {op.name} failed: {twin.failure}")
            if twin is not None and twin.ok and result.ok:
                self.gap[0] += twin.wall_s
                self.gap[1] += result.wall_s
        else:
            result = self.execute(op)
        self.executions.append({"seq": seq, "op": op, "result": result})

    def verify(self) -> None:
        """Check every report, and that repeats of an op gave the same bytes."""
        first_ok = next((e for e in self.executions if e["result"].ok and e["op"].role == "primary"), None)
        if first_ok is not None:
            again = self.execute(first_ok["op"], replay=self.traced)
            if not again.ok:
                self.problems.append(f"repeat of {first_ok['op'].name} failed: {again.failure}")
        checked: dict[str, list[str]] = {}
        for e in self.executions:
            op, result = e["op"], e["result"]
            if not result.ok:
                continue
            if op.name not in checked:
                found = checks.check(op, out_path(op))
                if len(self.digests.get(op.name, ())) != 1:
                    found.append("repeated op gave different report bytes")
                checked[op.name] = found
                self.problems += [f"{op.name}: {msg}" for msg in found]
            if checked[op.name]:
                result.ok, result.failure = False, "output check"

    def end_to_end(self) -> tuple[dict, dict]:
        done = [e for e in self.timed if e["result"].ok and e["op"].role == "primary"]
        items = sum(e["op"].items for e in done)
        busy = sum(e["result"].wall_s * e["scale"] for e in self.timed)
        cpu = sum(e["result"].cpu_s * e["scale"] for e in self.timed)
        shards = [e for e in self.executions if e["op"].role in ("primary", "probe")]
        latencies = [e["result"].wall_s * e["scale"] * 1e3 for e in shards]
        raw = [e["result"].wall_s * 1e3 for e in shards]
        ok = sum(e["result"].ok for e in self.executions)
        tail_ms, tail_pct = tail(latencies)
        beyond = len(latencies) - round(tail_pct * len(latencies) / 100)
        metrics = {
            "items_per_s": items / busy,
            "cpu_ms_per_item": cpu * 1e3 / items if items else 0.0,
            "op_ms_p50": statistics.median(latencies),
            "op_ms_tail": tail_ms,
            "ok_frac": ok / len(self.executions),
            "peak_rss_mb": max(e["result"].maxrss_kb for e in self.executions) / 1024.0,
            "setup_s": self.setup_s,
        }
        raw_cpu = sum(e["result"].cpu_s for e in self.timed)
        samples = {
            "items_per_s": f"{items} items in {len(self.timed)} ops; raw {items / self.wall_s:.2f}/s "
                           f"over {self.wall_s:.2f} s",
            "cpu_ms_per_item": f"op processes and their children; raw {raw_cpu * 1e3 / max(items, 1):.3f}",
            "op_ms_p50": f"n={len(latencies)} shard ops, probes included; raw {statistics.median(raw):.1f}",
            "op_ms_tail": f"p{tail_pct:.1f}, n={len(latencies)}, {beyond} beyond; raw {tail(raw)[0]:.1f}",
            "ok_frac": f"{ok} of {len(self.executions)} ops",
            "peak_rss_mb": f"max over {len(self.executions)} op processes",
            "setup_s": f"import + median of {SETUP_REPEATS} set-ups; raw {self.setup_raw:.3f} "
                       f"({', '.join(f'{t:.2f}' for t in self.setup_times)} s)",
        }
        return metrics, samples

    def failures(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for e in self.executions:
            result = e["result"]
            if not result.ok:
                bucket = out.setdefault(e["op"].role, {})
                bucket[result.failure] = bucket.get(result.failure, 0) + 1
        return out

    def report(self) -> dict:
        counted = [e for e in self.executions if e["op"].role != "probe"]
        failed = sum(not e["result"].ok for e in counted)
        slowest = sorted(self.executions, key=lambda e: -e["result"].wall_s)[:5]
        detail = {
            "workload": self.workload, "seed": self.seed, "seconds": self.seconds, "trace": int(self.traced),
            "corpus": self.plan.sizes, "ops_in_pass": len(self.plan.ops), "machine": machine(),
            "failures_by_role_and_class": self.failures(), "problems": self.problems,
            "ops": [{"op": e["op"].name, "ms": round(e["result"].wall_s * 1e3, 2),
                     "cpu_ms": round(e["result"].cpu_s * 1e3, 2), "calibration_ms": round((e["result"].calibration_s or 0) * 1e3, 3),
                     "items": e["op"].items, "failure": e["result"].failure, "detail": e["result"].detail}
                    for e in self.executions],
        }
        self.results.mkdir(parents=True, exist_ok=True)
        if self.traced:
            values = self.aggregate.metrics(self.gap_frac)
            metrics = {name: {"value": v, "unit": u} for name, (v, u) in values.items()}
            with open(self.results / f"{self.workload}.spans.jsonl", "w", encoding="utf-8") as handle:
                for line in self.aggregate.lines:
                    handle.write(json.dumps(line) + "\n")
            table = self.aggregate.table()
            (self.results / f"{self.workload}.layers.txt").write_text(table, encoding="utf-8")
            print(table, end="")
            print(f"trace.gap_frac {self.gap_frac:.4f}  ({len(values)} per-layer metrics)")
        else:
            values, samples = self.end_to_end()
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            detail["samples"] = samples
            for name, unit in END_TO_END:
                print(f"{name:16} {values[name]:14.4f} {unit:5} {samples[name]}")
        print(f"failures: {json.dumps(detail['failures_by_role_and_class'], sort_keys=True)}")
        for e in slowest:
            print(f"slow op {e['op'].name}: {e['result'].wall_s * 1e3:.0f} ms {e['result'].failure or ''}")
        for problem in self.problems[:20]:
            print(f"check: {problem}")
        detail["metrics"] = metrics
        name = f"{self.workload}-seed{self.seed}-trace{int(self.traced)}.json"
        (self.results / name).write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
        return {"correct": not self.problems and failed == 0, "attempted": len(counted),
                "failed": failed, "metrics": metrics}


def machine() -> dict:
    import numpy

    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"cannot import moleval from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.setup(import_s)
    run.loop()
    run.verify()
    print(json.dumps(run.report()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
