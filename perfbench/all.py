"""Run every workload once and print all end-to-end metrics in one table.

    python3 perfbench/all.py --seed 1 --seconds 20

Each workload runs as its own `run.py` process, one after the other.
Exits 1 if any run reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import END_TO_END, ROOT, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    rows = []
    all_correct = True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            print(f"{workload}: run failed\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        detail_path = ROOT / ".perfbench" / "results" / f"{workload}-seed{args.seed}-trace0.json"
        samples = json.loads(detail_path.read_text(encoding="utf-8"))["samples"]
        all_correct &= result["correct"]
        for name, unit in END_TO_END:
            rows.append(f"{workload:10} {name:16} {result['metrics'][name]['value']:14.4f} {unit:5} {samples[name]}")
        rows.append(f"{workload:10} {'checks':16} {'pass' if result['correct'] else 'FAIL':>14} "
                    f"      attempted {result['attempted']}, failed {result['failed']}")
    print("\n".join(rows))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
