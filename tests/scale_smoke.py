"""Whole-file checks at ChEBI-20 scale, which the benchmark's small shards do
not see. Each builds its inputs at seed 7 as the benchmark corpus does, runs
the CLI on them in a child process, prints the child's CPU time and own peak
RSS, and exits 1 unless every bound and agreement holds. From the repository
root: PYTHONPATH=src:tests python3 tests/scale_smoke.py profile|retrieval|text|molecule"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# The child writes its own peak RSS (VmHWM, in kB) to a pipe of its own: the
# ru_maxrss of os.wait4 counts from the parent's pages at fork.
CHILD = f"""\
import os, sys
sys.path.insert(0, {str(ROOT / "src")!r})
from moleval.harness.cli import main
status = main(sys.argv[2:])
with open("/proc/self/status") as lines:
    os.write(int(sys.argv[1]), next(line for line in lines if line.startswith("VmHWM:")).split()[1].encode())
sys.exit(status)
"""


def run_cli(argv: list[str], env=None) -> tuple[int, float, float]:
    """Run `moleval argv` in a child process: its exit code, its CPU seconds
    (from os.wait4) and its own peak RSS in MB, infinite if it wrote none."""
    read, write = os.pipe()
    os.set_inheritable(write, True)
    with os.fdopen(read, "rb") as pipe:
        try:
            pid = os.posix_spawn(sys.executable, [sys.executable, "-c", CHILD, str(write), *argv],
                                 os.environ if env is None else env)
        finally:
            os.close(write)
        _, status, usage = os.wait4(pid, 0)
        peak_kb = pipe.read()
    return (os.waitstatus_to_exitcode(status), usage.ru_utime + usage.ru_stime,
            int(peak_kb) / 1024 if peak_kb else float("inf"))


def report(label: str, argv: list[str], bound_mb: float, env=None) -> bytes | None:
    """Run the CLI as run_cli does and print what it cost: the bytes of its
    --out file, or None unless it exits 0 with a peak RSS under bound_mb."""
    status, cpu, peak_mb = run_cli(argv, env)
    print(f"{label}: exit {status}, CPU {cpu:.2f} s, peak RSS {peak_mb:.1f} MB (bound {bound_mb} MB)")
    return Path(argv[argv.index("--out") + 1]).read_bytes() if status == 0 and peak_mb < bound_mb else None


def verdict(label: str, ok: bool) -> bool:
    print(f"{label}: {ok}")
    return ok


def provenance_ok(payload: dict, *paths: Path) -> bool:
    want = {str(path): hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
    return verdict(f"provenance digests equal to the sha256 of {', '.join(path.name for path in paths)}",
                   payload["provenance"]["inputs"] == want)


def joined_corpus(workload: str, work: Path) -> Path:
    """The workload's benchmark corpus at seed 7, its shards joined in one file."""
    import corpus

    corpus.build(workload, work, 7, 1)
    joined = work / f"{workload}.jsonl"
    joined.write_bytes(b"".join(shard.read_bytes() for shard in sorted((work / "data").glob("shard-*.jsonl"))))
    return joined


def profile(work: Path) -> bool:
    """The dataset corpus's rows, hostile rows and one row per exclusion class,
    ten times over, with \\n line ends and with \\r\\n and \\r alternating: both
    under 80 MB, reports equal but for provenance, exclusions a plain loop's."""
    from moleval.molgraph import SmilesError, parse_smiles, validity
    from moleval.selfies import NotEncodable, encode_selfies

    rows = [json.loads(line) for line in joined_corpus("dataset", work).open(encoding="utf-8")]
    rows += [dict(json.loads(line), id=f"{path.stem}:{i}")
             for path in sorted((work / "data").glob("hostile-*.jsonl"))
             for i, line in enumerate(path.read_text(encoding="utf-8").splitlines())]
    rows += [{"id": "unparseable", "smiles": "C1CC"}, {"id": "invalid", "smiles": "C(C)(C)(C)(C)C"},
             {"id": "salt", "smiles": "CC(=O)[O-].[Na+]"}]
    rows = [dict(row, id=f"{row['id']}-{copy}") for copy in range(10) for row in rows]
    reports = {}
    for name, ends in (("rows.jsonl", ("\n",)), ("rows-cr.jsonl", ("\r\n", "\r"))):
        records = work / name
        records.write_bytes("".join(json.dumps(row) + ends[i % len(ends)]
                                    for i, row in enumerate(rows)).encode("utf-8"))
        raw = report(f"profile of {len(rows):,} rows ({name})",
                     ["profile", "--records", str(records), "--out", str(records.with_suffix(".profile.json"))], 80)
        if raw is None:
            return False
        reports[records] = json.loads(raw)

    def exclusion(smiles: str) -> str | None:
        try:
            graph = parse_smiles(smiles)
            if not validity(graph):
                return "invalid_smiles"
            encode_selfies(graph)
        except SmilesError:
            return "unparseable_smiles"
        except NotEncodable:
            return "selfies_unencodable"
        return None

    verdicts = {smiles: exclusion(smiles) for smiles in {row["smiles"] for row in rows}}
    want = {key: sorted(row["id"] for row in rows if verdicts[row["smiles"]] == key)
            for key in ("unparseable_smiles", "invalid_smiles", "selfies_unencodable")}
    lf, mixed = ({k: v for k, v in payload.items() if k != "provenance"} for payload in reports.values())
    return all([*(provenance_ok(payload, records) for records, payload in reports.items()),
                verdict("reports equal but for provenance", lf == mixed),
                verdict(f"exclusion ids equal to the plain loop's { {k: len(ids) for k, ids in want.items()} }",
                        lf["exclusions"] == want)])


def retrieval(work: Path) -> bool:
    """3,300 queries against 3,300 x 256 targets, 330 of them copies of another
    row, as the retrieval workload builds them, with and without one BLAS
    thread: both under 75 MB, equal report bytes, ranks equal to numpy's."""
    import checks
    import corpus
    import numpy as np

    n, dim, copies = 3300, 256, 330
    rng = np.random.default_rng(7)
    targets = rng.standard_normal((n, dim)).astype(np.float32)
    rows = rng.choice(n, size=2 * copies, replace=False)
    targets[rows[:copies]] = targets[rows[copies:]]
    order = rng.permutation(n)
    queries = targets[order] + rng.standard_normal((n, dim)).astype(np.float32) * np.float32(3.0)
    gold = {f"q{i:04d}": f"t{g:04d}" for i, g in enumerate(order)}
    paths = [work / "queries.emb", work / "targets.emb", work / "gold.jsonl"]
    corpus.write_emb1(paths[0], list(gold), queries)
    corpus.write_emb1(paths[1], [f"t{i:04d}" for i in range(n)], targets)
    paths[2].write_text("".join(json.dumps({"query": q, "target": t}) + "\n" for q, t in gold.items()),
                        encoding="utf-8")
    argv = ["eval", "retrieval", "--queries", str(paths[0]), "--targets", str(paths[1]),
            "--gold", str(paths[2]), "--out", str(work / "report.json")]
    envs = {"default": os.environ, "OPENBLAS_NUM_THREADS=1": {**os.environ, "OPENBLAS_NUM_THREADS": "1"}}
    reports = [report(f"retrieval of 3,300 x 3,300 x 256 ({name})", argv, 75, env) for name, env in envs.items()]
    if None in reports:
        return False
    ranks = json.loads(reports[0])["details"]["ranks"]
    return all([verdict("report bytes equal with one BLAS thread", reports[0] == reports[1]),
                verdict("ranks equal to the numpy check", ranks == checks.expected_ranks(*map(str, paths[:2]), gold)),
                provenance_ok(json.loads(reports[0]), *paths)])


def generation(work: Path, workload: str, kind: str, reference, tolerance: float) -> bool:
    """The workload's corpus in one file: eval gen under 50 MB, each metric of
    `reference(rows)` within `tolerance` of the report's value once both are
    rounded to 6 significant digits, and of the unrounded value that an
    in-process `eval_generation` gives."""
    from moleval.harness.evaluate import eval_generation

    records = joined_corpus(workload, work)
    rows = [json.loads(line) for line in records.open(encoding="utf-8")]
    raw = report(f"eval gen of {len(rows):,} {kind} records", ["eval", "gen", "--records", str(records),
                 "--target-kind", kind, "--out", str(records.with_suffix(".report.json"))], 50)
    if raw is None:
        return False
    payload = json.loads(raw)
    want = reference(rows)

    def agreement(label: str, body: dict, rounded: bool) -> bool:
        got = {**body["metrics"], **{f"sentence {k}": v for k, v in body["details"]["sentence_level"].items()}}
        bad = {name: (got[name], value) for name, value in want.items()
               if abs(got[name] - (float(f"{value:.6g}") if rounded else value)) > tolerance}
        return verdict(f"{label} agreeing with the reference: {len(want) - len(bad)} of {len(want)} {bad}", not bad)

    return all([agreement("report metrics", payload, True),
                agreement("unrounded metrics", eval_generation(records, kind).payload(), False),
                provenance_ok(payload, records)])


def text_reference(rows: list[dict]) -> dict:
    """BLEU-2/4, ROUGE-1/2/L, METEOR and sentence BLEU-2/4 by tests/_oracles.py."""
    import _oracles as oracle

    cands = [row["prediction"].split() for row in rows]
    refs = [row["references"][0].split() for row in rows]
    return {
        "bleu-2": oracle.bleu_reference(cands, refs, 2),
        "bleu-4": oracle.bleu_reference(cands, refs, 4),
        "rouge-1": sum(oracle.rouge_n_reference(c, r, 1) for c, r in zip(cands, refs)) / len(rows),
        "rouge-2": sum(oracle.rouge_n_reference(c, r, 2) for c, r in zip(cands, refs)) / len(rows),
        "rouge-l": sum(oracle.rouge_l_reference(c, r) for c, r in zip(cands, refs)) / len(rows),
        "meteor": sum(oracle.meteor_reference(c, r) for c, r in zip(cands, refs)) / len(rows),
        "sentence bleu-2": oracle.bleu_sentence_reference(cands, refs, 2),
        "sentence bleu-4": oracle.bleu_sentence_reference(cands, refs, 4),
    }


def molecule_reference(rows: list[dict]) -> dict:
    """rdk-fts and morgan-fts by fingerprinting each parsed side on its own,
    so an exact match cannot score 1.0 unfingerprinted; exact-match by the
    oracles' validity and unpruned canonical search. Prints how many parsed
    records exact-match or are one string, which eval gen scores 1.0 on
    both similarities without a fingerprint walk."""
    from _oracles import canonical_smiles_reference, validity_reference
    from moleval.fingerprint import morgan_fp, path_fp, tanimoto
    from moleval.molgraph import SmilesError, parse_smiles

    scores = []  # rdk-fts, morgan-fts and exact-match of each record
    unwalked = 0
    for row in rows:
        try:
            pred, ref = parse_smiles(row["prediction"]), parse_smiles(row["references"][0])
        except SmilesError:
            scores.append((0.0, 0.0, 0.0))
            continue
        same = False
        if validity_reference(pred) and validity_reference(ref):
            try:
                same = canonical_smiles_reference(pred) == canonical_smiles_reference(ref)
            except ValueError:  # a writer refusal counts as no match
                pass
        unwalked += same or row["prediction"] == row["references"][0]
        scores.append((tanimoto(path_fp(pred), path_fp(ref)), tanimoto(morgan_fp(pred), morgan_fp(ref)),
                       float(same)))
    print(f"records that exact-match or are one string, scored without a fingerprint walk: "
          f"{unwalked:,} of {len(rows):,}")
    return {name: sum(column) / len(scores)
            for name, column in zip(("rdk-fts", "morgan-fts", "exact-match"), zip(*scores))}


CHECKS = {
    "profile": profile, "retrieval": retrieval,
    "text": lambda work: generation(work, "gen_text", "text", text_reference, 1e-9),
    "molecule": lambda work: generation(work, "gen_mol", "molecule", molecule_reference, 1e-12),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("check", choices=CHECKS)
    check = CHECKS[parser.parse_args().check]
    sys.stdout.reconfigure(line_buffering=True)  # in order with the child's output
    sys.path.insert(0, str(ROOT / "perfbench"))
    with tempfile.TemporaryDirectory() as work:
        return 0 if check(Path(work)) else 1


if __name__ == "__main__":
    sys.exit(main())
