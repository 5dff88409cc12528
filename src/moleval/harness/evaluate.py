"""Evaluation over record files: generation, retrieval, property prediction."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

from ..fingerprint import morgan_fp, path_fp, tanimoto
from ..molgraph import SmilesError, parse_smiles, validity
from ..predmetrics import (
    DegenerateLabels,
    ScoredLabels,
    f1_mean,
    pr_auc,
    regression_metrics,
    retrieval_eval,
    roc_auc,
)
from ..textmetrics import (
    bleu_from_counts,
    exact_match_graphs,
    exact_match_raw,
    levenshtein,
    meteor_lite,
    ngram_counts,
    rouge,
    rouge_from_counts,
    tokenize,
)
from .records import read_embeddings, read_gen_records, read_gold, read_property_rows
from .reports import provenance_of

METRIC_NAMES = frozenset(
    {
        "bleu-2", "bleu-4", "rouge-1", "rouge-2", "rouge-l", "meteor",
        "exact-match", "exact-match-raw", "levenshtein", "validity",
        "rdk-fts", "morgan-fts", "mrr", "r@1", "r@5", "r@10",
        "roc-auc", "pr-auc", "f1", "mse", "rmse", "mae",
    }
)


@dataclass
class Report:
    task: str
    metrics: dict[str, float]
    counts: dict[str, int]
    provenance: dict
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        unknown = set(self.metrics) - METRIC_NAMES
        if unknown:
            raise ValueError(f"metric names outside the vocabulary: {sorted(unknown)}")

    def payload(self) -> dict:
        body = {
            "task": self.task,
            "metrics": self.metrics,
            "counts": self.counts,
            "provenance": self.provenance,
        }
        if self.details:
            body["details"] = self.details
        return body


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def _parse_or_none(smiles: str):
    try:
        return parse_smiles(smiles)
    except SmilesError:
        return None


def _molecule_record(pred: str, ref: str) -> dict:
    """Per-record molecule metrics; each distinct side is parsed, checked
    and fingerprinted once, so a prediction equal to its reference shares
    the reference's graph.

    A prediction that exact-matches its reference also shares its
    fingerprints. Equal canonical forms imply an isomorphism that keeps
    element, aromatic flag, charge, total H and bond order, so degree and
    ring membership too; the atom codes read nothing else, so both sides
    have the same features.
    """
    pred_graph = _parse_or_none(pred)
    ref_graph = pred_graph if pred == ref else _parse_or_none(ref)
    exact = exact_match_graphs(pred_graph, ref_graph)
    rdk = morgan = 0.0
    if pred_graph is not None and ref_graph is not None:
        sides = (pred_graph,) if ref_graph is pred_graph or exact else (pred_graph, ref_graph)
        paths = [path_fp(graph) for graph in sides]
        morgans = [morgan_fp(graph) for graph in sides]
        rdk = tanimoto(paths[0], paths[-1])
        morgan = tanimoto(morgans[0], morgans[-1])
    return {
        "valid": 1.0 if pred_graph is not None and validity(pred_graph) else 0.0,
        "parseable": pred_graph is not None,
        "exact": 1.0 if exact else 0.0,
        "exact_raw": 1.0 if exact_match_raw(pred, ref) else 0.0,
        "lev": float(levenshtein(pred, ref)),
        "rdk": rdk,
        "morgan": morgan,
    }


def _text_record(cand_tokens, ref_tokens, orders) -> dict:
    """Per-record text metrics; ROUGE-1/2 read the pair's BLEU counts."""
    if len(cand_tokens) == 0 or len(ref_tokens) == 0:
        return {"rouge-1": 0.0, "rouge-2": 0.0, "rouge-l": 0.0, "meteor": 0.0}
    return {
        "rouge-1": rouge_from_counts(orders, 1),
        "rouge-2": rouge_from_counts(orders, 2),
        "rouge-l": rouge(cand_tokens, ref_tokens, "rl"),
        "meteor": meteor_lite(cand_tokens, ref_tokens),
    }


def eval_generation(records_path, target_kind: str) -> Report:
    """Metric bundle over a generation record file. Metrics compare each
    prediction with the record's first reference; invalid or unparseable
    predictions score zero where chemistry is needed but stay counted."""
    if target_kind not in ("molecule", "text"):
        raise ValueError(f"unknown target kind {target_kind!r}")
    digest = hashlib.sha256()
    records = read_gen_records(records_path, digest)
    preds = [r.prediction for r in records]
    refs = [r.references[0] for r in records]
    scheme = "smiles_regex" if target_kind == "molecule" else "whitespace"
    cand_seqs = [tokenize(p, scheme) for p in preds]
    ref_seqs = [tokenize(r, scheme) for r in refs]

    counts = ngram_counts(cand_seqs, ref_seqs)
    bleus = bleu_from_counts(counts)
    metrics = {"bleu-2": bleus["bleu-2"], "bleu-4": bleus["bleu-4"]}
    details: dict = {
        "sentence_level": {
            "bleu-2": bleus["sentence-bleu-2"],
            "bleu-4": bleus["sentence-bleu-4"],
        }
    }
    if target_kind == "molecule":
        rows = [_molecule_record(pred, ref) for pred, ref in zip(preds, refs)]
        metrics["exact-match"] = _mean(r["exact"] for r in rows)
        metrics["exact-match-raw"] = _mean(r["exact_raw"] for r in rows)
        metrics["levenshtein"] = _mean(r["lev"] for r in rows)
        metrics["validity"] = _mean(r["valid"] for r in rows)
        metrics["rdk-fts"] = _mean(r["rdk"] for r in rows)
        metrics["morgan-fts"] = _mean(r["morgan"] for r in rows)
        details["unparseable_predictions"] = sum(1 for r in rows if not r["parseable"])
    else:
        rows = [
            _text_record(cand, ref, orders)
            for cand, ref, orders in zip(cand_seqs, ref_seqs, counts)
        ]
        for name in ("rouge-1", "rouge-2", "rouge-l", "meteor"):
            metrics[name] = _mean(r[name] for r in rows)

    return Report(
        task=f"eval-gen-{target_kind}",
        metrics=metrics,
        counts={"evaluated": len(records), "skipped": 0},
        provenance=provenance_of({str(records_path): digest.hexdigest()}),
        details=details,
    )


def eval_retrieval(queries_path, targets_path, gold_path) -> Report:
    queries, queries_digest = read_embeddings(queries_path)
    targets, targets_digest = read_embeddings(targets_path)
    gold_digest = hashlib.sha256()
    gold = read_gold(gold_path, gold_digest)
    result = retrieval_eval(queries, targets, gold, ks=(1, 5, 10))
    metrics = {
        "mrr": result["mrr"],
        "r@1": result["recall_at"][1],
        "r@5": result["recall_at"][5],
        "r@10": result["recall_at"][10],
    }
    return Report(
        task="eval-retrieval",
        metrics=metrics,
        counts={"evaluated": len(gold), "skipped": 0},
        provenance=provenance_of({str(queries_path): queries_digest, str(targets_path): targets_digest,
                                  str(gold_path): gold_digest.hexdigest()}),
        details={"ranks": list(result["ranks"])},
    )


def eval_property(records_path) -> Report:
    digest = hashlib.sha256()
    kind, tasks = read_property_rows(records_path, digest)
    skip_reasons: dict[str, int] = {}
    if kind == "classification":
        scored = {
            task: ScoredLabels(tuple(data["labels"]), tuple(data["scores"]), task)
            for task, data in sorted(tasks.items())
        }
        roc_values = []
        pr_values = []
        for task, labels in scored.items():
            try:
                roc_values.append(roc_auc(labels))
            except DegenerateLabels:
                skip_reasons["degenerate-roc-auc"] = skip_reasons.get("degenerate-roc-auc", 0) + 1
            try:
                pr_values.append(pr_auc(labels))
            except DegenerateLabels:
                skip_reasons["degenerate-pr-auc"] = skip_reasons.get("degenerate-pr-auc", 0) + 1
        metrics = {"f1": f1_mean(list(scored.values()))}
        if roc_values:
            metrics["roc-auc"] = _mean(roc_values)
        if pr_values:
            metrics["pr-auc"] = _mean(pr_values)
    else:
        per_task = [
            regression_metrics(data["preds"], data["truths"])
            for _, data in sorted(tasks.items())
        ]
        metrics = {
            "mse": _mean(m["mse"] for m in per_task),
            "rmse": _mean(m["rmse"] for m in per_task),
            "mae": _mean(m["mae"] for m in per_task),
        }
    skipped = sum(skip_reasons.values())
    details = {"kind": kind}
    if skip_reasons:
        details["skip_reasons"] = skip_reasons
    return Report(
        task="eval-property",
        metrics=metrics,
        counts={"evaluated": len(tasks), "skipped": skipped},
        provenance=provenance_of({str(records_path): digest.hexdigest()}),
        details=details,
    )


def merge_reports(payloads: list[dict], provenance: dict) -> dict:
    """Mean and population std per metric over repeated runs of one task."""
    if len(payloads) < 2:
        raise ValueError("repeat merge needs at least two reports")
    tasks = {p.get("task") for p in payloads}
    if len(tasks) != 1:
        raise ValueError(f"reports describe different tasks: {sorted(map(str, tasks))}")
    names = set(payloads[0].get("metrics", {}))
    for p in payloads[1:]:
        if set(p.get("metrics", {})) != names:
            raise ValueError("reports carry different metric sets")
    merged = {}
    for name in sorted(names):
        values = [float(p["metrics"][name]) for p in payloads]
        mean = _mean(values)
        var = _mean((v - mean) ** 2 for v in values)
        merged[name] = {"mean": mean, "std": math.sqrt(var)}
    return {
        "task": tasks.pop(),
        "metrics": merged,
        "counts": {"runs": len(payloads)},
        "provenance": provenance,
    }
