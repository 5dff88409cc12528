"""Output checks, one per op kind. Each returns a list of problems.

The checks hold the report schema and metric vocabulary, value ranges,
counts, values the generator knows by construction, and numbers the
benchmark recomputes itself (retrieval ranks, property metrics). They do
not pin Validity, exact match or fingerprint similarity, whose correct
values depend on chemistry the program is still being fixed in.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re
import struct
from pathlib import Path

import numpy as np

GEN_MOLECULE_METRICS = {"bleu-2", "bleu-4", "exact-match", "exact-match-raw", "levenshtein",
                        "validity", "rdk-fts", "morgan-fts"}
GEN_TEXT_METRICS = {"bleu-2", "bleu-4", "rouge-1", "rouge-2", "rouge-l", "meteor"}
RETRIEVAL_METRICS = {"mrr", "r@1", "r@5", "r@10"}
_SELFIES = re.compile(r"^(\[[^\]]+\])+$")


def report_digits(value: float) -> float:
    """The rounding reports apply to floats: 6 significant digits."""
    return float(f"{value:.6g}")


class Problems(list):
    def need(self, condition: bool, message: str) -> bool:
        if not condition:
            self.append(message)
        return condition


def _unit(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0.0 <= value <= 1.0


def _provenance(p: Problems, payload: dict, paths: list[str]) -> None:
    inputs = payload.get("provenance", {}).get("inputs", {})
    expected = {path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths}
    p.need(inputs == expected, "provenance inputs do not match the input files")
    p.need(payload.get("provenance", {}).get("tool", {}).get("name") == "moleval", "provenance tool")


def _metrics(p: Problems, payload: dict, names: set, task: str, records: int) -> dict:
    p.need(payload.get("task") == task, f"task is {payload.get('task')!r}, not {task!r}")
    metrics = payload.get("metrics", {})
    p.need(set(metrics) == names, f"metric names {sorted(metrics)}")
    p.need(payload.get("counts") == {"evaluated": records, "skipped": 0}, f"counts {payload.get('counts')}")
    return metrics


def gen_molecule(op, text: str) -> list[str]:
    p = Problems()
    payload = json.loads(text)
    e = op.expect
    metrics = _metrics(p, payload, GEN_MOLECULE_METRICS, "eval-gen-molecule", e["records"])
    for name in GEN_MOLECULE_METRICS - {"levenshtein"}:
        p.need(_unit(metrics.get(name)), f"{name} = {metrics.get(name)} outside [0, 1]")
    lev = metrics.get("levenshtein")
    p.need(isinstance(lev, (int, float)) and lev >= 0, f"levenshtein = {lev}")
    raw = metrics.get("exact-match-raw")
    p.need(raw is not None and abs(raw - report_digits(e["exact_match_raw"])) <= 1e-9,
           f"exact-match-raw {raw} != {e['exact_match_raw']}")
    details = payload.get("details", {})
    for name in ("bleu-2", "bleu-4"):
        p.need(_unit(details.get("sentence_level", {}).get(name)), f"sentence {name} outside [0, 1]")
    unparseable = details.get("unparseable_predictions")
    p.need(isinstance(unparseable, int) and e["broken"] <= unparseable <= e["broken"] + e["edited"],
           f"unparseable_predictions {unparseable} for {e['broken']} broken, {e['edited']} edited")
    _provenance(p, payload, [op.argv[op.argv.index("--records") + 1]])
    return p


def gen_text(op, text: str) -> list[str]:
    p = Problems()
    payload = json.loads(text)
    metrics = _metrics(p, payload, GEN_TEXT_METRICS, "eval-gen-text", op.expect["records"])
    for name in GEN_TEXT_METRICS:
        p.need(_unit(metrics.get(name)), f"{name} = {metrics.get(name)} outside [0, 1]")
        # identical pairs exist in every shard, so no overlap score is zero
        p.need(op.expect["identical"] == 0 or (metrics.get(name) or 0) > 0, f"{name} is 0")
    _provenance(p, payload, [op.argv[op.argv.index("--records") + 1]])
    return p


def _read_emb1(path: str) -> tuple[list[str], np.ndarray]:
    raw = Path(path).read_bytes()
    rows, dim = struct.unpack_from("<II", raw, 4)
    end = 12 + rows * dim * 4
    vectors = np.frombuffer(raw, dtype="<f4", count=rows * dim, offset=12).reshape(rows, dim)
    return raw[end:].decode("utf-8").splitlines(), vectors.astype(np.float64)


def _sequential_cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine in the program's summation order (built-in sum over Python
    floats), so that equal vectors give bit-equal scores."""
    u, v = u.tolist(), v.tolist()
    nu = math.sqrt(sum(x * x for x in u))
    nv = math.sqrt(sum(x * x for x in v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return sum(a * b for a, b in zip(u, v)) / (nu * nv)


def expected_ranks(queries: str, targets: str, gold: dict[str, str]) -> list[int]:
    """Rank of each gold target (queries in id order) by cosine, ties going
    to the smaller target id: 1 + #higher + #equal with a smaller id.
    Scores within 1e-9 of the gold's are recomputed in the program's
    summation order, so that equal vectors tie exactly."""
    q_ids, q_vec = _read_emb1(queries)
    t_ids, t_vec = _read_emb1(targets)
    q_row = {qid: i for i, qid in enumerate(q_ids)}
    t_row = {tid: i for i, tid in enumerate(t_ids)}
    t_unit = t_vec / np.linalg.norm(t_vec, axis=1, keepdims=True)
    ranks = []
    for qid, tid in sorted(gold.items()):
        q = q_vec[q_row[qid]]
        scores = t_unit @ (q / np.linalg.norm(q))
        g = t_row[tid]
        near = np.flatnonzero(np.abs(scores - scores[g]) <= 1e-9)
        exact = {int(j): _sequential_cosine(q, t_vec[j]) for j in near}
        gold_score = exact[g]
        higher = int(np.sum(scores > scores[g] + 1e-9))
        higher += sum(1 for j, s in exact.items() if s > gold_score)
        ties = sum(1 for j, s in exact.items() if s == gold_score and t_ids[j] < tid)
        ranks.append(1 + higher + ties)
    return ranks


def retrieval(op, text: str) -> list[str]:
    p = Problems()
    payload = json.loads(text)
    e = op.expect
    metrics = _metrics(p, payload, RETRIEVAL_METRICS, "eval-retrieval", e["records"])
    gold = {}
    for line in Path(e["gold"]).read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        gold[row["query"]] = row["target"]
    ranks = expected_ranks(e["queries"], e["targets"], gold)
    p.need(payload.get("details", {}).get("ranks") == ranks, "ranks differ from the tie rule")
    expect = {"mrr": sum(1 / r for r in ranks) / len(ranks)}
    for k in (1, 5, 10):
        expect[f"r@{k}"] = sum(r <= k for r in ranks) / len(ranks)
    for name, value in expect.items():
        got = metrics.get(name)
        p.need(got is not None and abs(got - report_digits(value)) <= 1e-9, f"{name} {got} != {value}")
    _provenance(p, payload, [e["queries"], e["targets"], e["gold"]])
    return p


def _property_rows(path: str) -> dict[str, list[dict]]:
    tasks: dict[str, list[dict]] = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        tasks.setdefault(row["task"], []).append(row)
    return tasks


def _roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney AUC with average ranks for tied scores."""
    values, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))
    ranks = (first + (counts + 1) / 2.0)[inverse]
    n_pos = labels.sum()
    n_neg = len(labels) - n_pos
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg))


def _close(got, want: float) -> bool:
    return got is not None and abs(got - want) <= 1e-5 * max(1.0, abs(want))


def property_classification(op, text: str) -> list[str]:
    p = Problems()
    payload = json.loads(text)
    p.need(payload.get("task") == "eval-property", "task")
    p.need(payload.get("details", {}).get("kind") == "classification", "kind")
    metrics = payload.get("metrics", {})
    p.need(set(metrics) == {"f1", "roc-auc", "pr-auc"}, f"metric names {sorted(metrics)}")
    p.need(payload.get("counts") == {"evaluated": op.expect["tasks"], "skipped": 0}, "counts")
    for name in metrics:
        p.need(_unit(metrics[name]), f"{name} outside [0, 1]")
    tasks = _property_rows(op.expect["path"])
    aucs = [_roc_auc(np.array([r["label"] for r in rows]), np.array([r["score"] for r in rows]))
            for _, rows in sorted(tasks.items())]
    p.need(_close(metrics.get("roc-auc"), float(np.mean(aucs))), f"roc-auc {metrics.get('roc-auc')}")
    _provenance(p, payload, [op.expect["path"]])
    return p


def property_regression(op, text: str) -> list[str]:
    p = Problems()
    payload = json.loads(text)
    p.need(payload.get("task") == "eval-property", "task")
    p.need(payload.get("details", {}).get("kind") == "regression", "kind")
    metrics = payload.get("metrics", {})
    p.need(set(metrics) == {"mse", "rmse", "mae"}, f"metric names {sorted(metrics)}")
    p.need(payload.get("counts") == {"evaluated": op.expect["tasks"], "skipped": 0}, "counts")
    per_task = []
    for _, rows in sorted(_property_rows(op.expect["path"]).items()):
        err = np.array([r["pred"] - r["truth"] for r in rows])
        mse = float(np.mean(err ** 2))
        per_task.append((mse, math.sqrt(mse), float(np.mean(np.abs(err)))))
    for i, name in enumerate(("mse", "rmse", "mae")):
        want = float(np.mean([t[i] for t in per_task]))
        p.need(_close(metrics.get(name), want), f"{name} {metrics.get(name)} != {want}")
    _provenance(p, payload, [op.expect["path"]])
    return p


def profile(op, text: str) -> list[str]:
    p = Problems()
    payload = json.loads(text)
    n = op.expect["records"]
    p.need(payload.get("task") == "profile", "task")
    counts = payload.get("counts", {})
    p.need(counts.get("records") == n, f"records {counts.get('records')} != {n}")
    p.need(counts.get("profiled", -1) + counts.get("excluded", -1) == n, "profiled + excluded")
    exclusions = payload.get("exclusions", {})
    p.need(set(exclusions) == {"unparseable_smiles", "invalid_smiles", "selfies_unencodable"},
           "exclusion keys")
    p.need(exclusions.get("unparseable_smiles") == [], "a generated SMILES did not parse")
    lengths = payload.get("lengths", {})
    p.need(set(lengths) == {"smiles", "caption"}, f"length blocks {sorted(lengths)}")
    p.need(all(block.get("records") == n for block in lengths.values()), "length record counts")
    descriptors = payload.get("descriptors", {})
    p.need(set(descriptors) == {"mol_weight", "heavy_atoms", "rings", "aromatic_rings"}, "descriptor keys")
    scaffolds = payload.get("scaffolds", [])
    p.need(len(scaffolds) <= 10 and all(s["count"] >= 1 for s in scaffolds), "scaffolds")
    if op.expect["split"]:
        p.need(payload.get("split_check", {}).get("passes") is True, "80/10/10 split check failed")
    _provenance(p, payload, [op.argv[op.argv.index("--records") + 1]])
    return p


def parse(op, text: str) -> list[str]:
    p = Problems()
    payload = json.loads(text)
    expected = op.expect["parsed"]
    p.need(payload.get("task") == "parse", "task")
    molecules = payload.get("molecules", [])
    p.need(payload.get("counts", {}).get("given") == len(expected), "given count")
    p.need([m.get("parsed") for m in molecules] == expected, "parsed flags differ from construction")
    p.need(all(m.get("error") for m in molecules if not m.get("parsed")), "missing error text")
    return p


def convert(op, text: str) -> list[str]:
    p = Problems()
    payload = json.loads(text)
    inputs = op.expect["inputs"]
    p.need(payload.get("task") == "convert", "task")
    p.need(payload.get("counts") == {"converted": len(inputs)}, "converted count")
    results = payload.get("results", [])
    p.need([r.get("input") for r in results] == inputs, "inputs out of order")
    p.need(all(_SELFIES.match(r.get("output", "")) for r in results), "output is not bracket tokens")
    return p


def tokenmap_build(op, text: str) -> list[str]:
    p = Problems()
    payload = json.loads(text)
    k = op.expect["top_k"]
    p.need(payload.get("task") == "tokenmap-build", "task")
    rows, cols = payload.get("row_tokens", []), payload.get("col_tokens", [])
    p.need(2 <= len(rows) <= k and 2 <= len(cols) <= k, "token axis sizes")
    counts = np.array(payload.get("counts", []), dtype=float)
    p.need(counts.shape == (len(rows), len(cols)) and (counts >= 0).all(), "count matrix")
    p.need(bool((np.diff(counts.sum(axis=1)) <= 0).all()), "rows not sorted by total")
    return p


def tokenmap_sweep(op, text: str) -> list[str]:
    p = Problems()
    payload = json.loads(text)
    rows = payload.get("rows", [])
    p.need(payload.get("task") == "tokenmap-sweep", "task")
    p.need([r.get("T") for r in rows] == [i * 0.25 for i in range(13)], "threshold grid")
    p.need(all(r["flag_count"] >= r["unique_pair_count"] >= 0 for r in rows), "flag counts")
    p.need(all(r["confidence"] is None or _unit(r["confidence"]) for r in rows), "confidence range")
    return p


def tokenmap_select(op, text: str) -> list[str]:
    p = Problems()
    payload = json.loads(text)
    p.need(payload.get("task") == "tokenmap-select", "task")
    p.need(payload.get("threshold_T") == 1.0, "threshold")
    p.need(_unit(payload.get("confidence")), "confidence range")
    pairs = payload.get("pairs", [])
    members = sum(len(g["members"]) for g in payload.get("groups", []))
    p.need(members == len(pairs), "group members do not cover the pairs")
    p.need(all(x["input_token"] != x["output_token"] for x in pairs), "identical-name pair kept")
    return p


def transition(op, text: str) -> list[str]:
    p = Problems()
    modalities = list(op.expect["modalities"])
    rows = list(csv.reader(io.StringIO(text)))
    p.need(len(rows) == len(modalities) + 1 and rows[0] == [""] + modalities, "matrix header")
    for i, row in enumerate(rows[1:]):
        if not p.need(len(row) == len(modalities) + 1 and row[0] == modalities[i], f"row {i}"):
            continue
        p.need(row[i + 1] == "1.000", f"diagonal {row[0]}")
        if row[0] == "property":
            p.need(all(v == "0.000" for j, v in enumerate(row[1:]) if j != i), "property row")
        p.need(all(v == "" or 0.0 <= float(v) <= 1.0 for v in row[1:]), f"row {row[0]} range")
    return p


CHECKS = {
    "gen_molecule": gen_molecule, "gen_text": gen_text, "retrieval": retrieval,
    "property_classification": property_classification, "property_regression": property_regression,
    "profile": profile, "parse": parse, "convert": convert, "tokenmap_build": tokenmap_build,
    "tokenmap_sweep": tokenmap_sweep, "tokenmap_select": tokenmap_select, "transition": transition,
}


def check(op, out_path: str) -> list[str]:
    try:
        text = Path(out_path).read_text(encoding="utf-8")
        return CHECKS[op.kind](op, text)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable report: {type(exc).__name__}: {exc}"]
