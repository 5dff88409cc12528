"""Evaluation over record files: generation, retrieval, property prediction."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from ..fingerprint import morgan_fp, path_fp, tanimoto
from ..metrics import METRIC_NAMES
from ..molgraph import SmilesError, exact_match_graphs, parse_smiles, validity
from ..predmetrics import (
    DegenerateLabels,
    ScoredLabels,
    f1_mean,
    mean,
    pr_auc,
    regression_metrics,
    retrieval_eval,
    roc_auc,
    root_mean_square,
)
from ..textmetrics import (
    clipped_counts,
    corpus_bleu,
    exact_match_raw,
    levenshtein,
    meteor_lite,
    rouge,
    rouge_from_counts,
    sentence_bleu,
    tokenize,
)
from .records import read_embeddings, read_gen_records, read_gold, read_property_rows
from .reports import provenance_of

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


def _means(rows: list[dict[str, float]]) -> dict[str, float]:
    """The mean of each metric over the rows that carry it."""
    names = dict.fromkeys(name for row in rows for name in row)
    return {name: mean([row[name] for row in rows if name in row]) for name in names}


def _parse_or_none(smiles: str):
    try:
        return parse_smiles(smiles)
    except SmilesError:
        return None


def _molecule_record(pred: str, ref: str) -> tuple[dict[str, float], bool]:
    """Per-record molecule metrics, and whether the prediction parsed. Each
    distinct side is parsed and checked once, and fingerprinted at most once.

    A prediction equal to its reference, or exact-matching it, scores 1.0 on
    both fingerprint similarities without a fingerprint walk. Equal canonical
    forms imply an isomorphism that keeps element, aromatic flag, charge,
    total H and bond order, so degree and ring membership too; the atom codes
    read nothing else, so both sides have equal fingerprints, whose Tanimoto
    is 1.0, empty ones too.
    """
    pred_graph = _parse_or_none(pred)
    ref_graph = pred_graph if pred == ref else _parse_or_none(ref)
    exact = exact_match_graphs(pred_graph, ref_graph)
    rdk = morgan = 0.0
    if pred_graph is not None and ref_graph is not None:
        if ref_graph is pred_graph or exact:
            rdk = morgan = 1.0
        else:
            rdk = tanimoto(path_fp(pred_graph), path_fp(ref_graph))
            morgan = tanimoto(morgan_fp(pred_graph), morgan_fp(ref_graph))
    row = {
        "exact-match": 1.0 if exact else 0.0,
        "exact-match-raw": 1.0 if exact_match_raw(pred, ref) else 0.0,
        "levenshtein": float(levenshtein(pred, ref)),
        "validity": 1.0 if pred_graph is not None and validity(pred_graph) else 0.0,
        "rdk-fts": rdk,
        "morgan-fts": morgan,
    }
    return row, pred_graph is not None


def _text_record(cand_tokens, ref_tokens, orders) -> dict[str, float]:
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
    inputs = {}
    records = read_gen_records(records_path, inputs)
    scheme = "smiles_regex" if target_kind == "molecule" else "whitespace"
    # corpus BLEU reads the clipped counts summed over every pair, so only
    # the running totals outlive a record
    totals = [(0, 0, 0)] * 4
    sentence_2, sentence_4, rows = [], [], []
    unparseable = 0
    for record in records:
        pred, ref = record.prediction, record.references[0]
        cand_tokens, ref_tokens = tokenize(pred, scheme), tokenize(ref, scheme)
        orders = clipped_counts(cand_tokens.tokens, ref_tokens.tokens)
        totals = [(h + dh, c + dc, r + dr) for (h, c, r), (dh, dc, dr) in zip(totals, orders)]
        bleu_2, bleu_4 = sentence_bleu(orders)
        sentence_2.append(bleu_2)
        sentence_4.append(bleu_4)
        if target_kind == "molecule":
            row, parsed = _molecule_record(pred, ref)
            unparseable += not parsed
        else:
            row = _text_record(cand_tokens, ref_tokens, orders)
        rows.append(row)

    metrics = {"bleu-2": corpus_bleu(totals, 2), "bleu-4": corpus_bleu(totals, 4), **_means(rows)}
    details: dict = {"sentence_level": {"bleu-2": mean(sentence_2), "bleu-4": mean(sentence_4)}}
    if target_kind == "molecule":
        details["unparseable_predictions"] = unparseable

    return Report(
        task=f"eval-gen-{target_kind}",
        metrics=metrics,
        counts={"evaluated": len(records), "skipped": 0},
        provenance=provenance_of(inputs),
        details=details,
    )


def eval_retrieval(queries_path, targets_path, gold_path) -> Report:
    inputs = {}
    queries = read_embeddings(queries_path, inputs)
    # one file given as both sides is read once
    targets = queries if str(targets_path) == str(queries_path) else read_embeddings(targets_path, inputs)
    gold = read_gold(gold_path, inputs)
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
        provenance=provenance_of(inputs),
        details={"ranks": list(result["ranks"])},
    )


def eval_property(records_path) -> Report:
    """One row of metrics per task, each metric averaged over the tasks that
    have it; a task lacks roc-auc or pr-auc where its labels cannot give it."""
    inputs = {}
    kind, tasks = read_property_rows(records_path, inputs)
    skip_reasons: Counter[str] = Counter()
    rows = []
    skipped = 0
    for task, data in sorted(tasks.items()):
        if kind == "regression":
            rows.append(regression_metrics(data["preds"], data["truths"]))
            continue
        labels = ScoredLabels(tuple(data["labels"]), tuple(data["scores"]), task)
        row = {"f1": f1_mean([labels])}
        for name, metric in (("roc-auc", roc_auc), ("pr-auc", pr_auc)):
            try:
                row[name] = metric(labels)
            except DegenerateLabels:
                skip_reasons[f"degenerate-{name}"] += 1
        skipped += len(row) < 3  # a task lacking roc-auc, pr-auc or both counts once
        rows.append(row)
    details = {"kind": kind}
    if skip_reasons:
        details["skip_reasons"] = dict(skip_reasons)
    return Report(
        task="eval-property",
        metrics=_means(rows),
        counts={"evaluated": len(tasks), "skipped": skipped},
        provenance=provenance_of(inputs),
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
        centre = mean(values)
        merged[name] = {"mean": centre, "std": root_mean_square(values, centre)}
    return {
        "task": tasks.pop(),
        "metrics": merged,
        "counts": {"runs": len(payloads)},
        "provenance": provenance,
    }
