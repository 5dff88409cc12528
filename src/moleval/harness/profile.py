"""Dataset profiling: length statistics, scaffolds, descriptors, splits."""

from __future__ import annotations

from collections import Counter

from ..molgraph import (
    SmilesError,
    UnsupportedFeature,
    canonical_smiles,
    descriptors,
    murcko_scaffold,
    parse_smiles,
    summarize_descriptors,
    validity,
)
from ..selfies import NotEncodable, check_encodable
from ..textmetrics import SCHEMES, tokenize
from .records import read_profile_rows
from .reports import provenance_of

_HIST_BUCKET = 10

# proportions a train/validation/test column is checked against
_SPLIT_TARGET = (0.8, 0.1, 0.1)
_SPLIT_TOLERANCE = 0.02


def _histogram(lengths) -> list[list[int]]:
    buckets: Counter = Counter()
    for length in lengths:
        buckets[(length // _HIST_BUCKET) * _HIST_BUCKET] += 1
    return [[low, buckets[low]] for low in sorted(buckets)]


def _text_lengths(text: str) -> tuple:
    """Chars, then the token count under each scheme: None where a strict
    scheme refuses text from another notation."""
    counts = [len(text)]
    for scheme in SCHEMES:
        try:
            counts.append(len(tokenize(text, scheme)))
        except ValueError:
            counts.append(None)
    return tuple(counts)


def _modality_lengths(per_row: list[tuple]) -> dict:
    block = {"records": len(per_row), "chars": _histogram(n[0] for n in per_row)}
    tokens = {}
    for column, scheme in enumerate(SCHEMES, 1):
        counts = [n[column] for n in per_row if n[column] is not None]
        entry: dict = {"hist": _histogram(counts)}
        if len(counts) < len(per_row):
            entry["untokenizable"] = len(per_row) - len(counts)
        tokens[scheme] = entry
    block["tokens"] = tokens
    return block


def _split_check(labels: Counter) -> dict:
    total = sum(labels.values())
    proportions = {label: labels[label] / total for label in sorted(labels)}
    ordered = sorted(proportions.values(), reverse=True)
    passes = len(ordered) == len(_SPLIT_TARGET) and all(
        abs(p - t) <= _SPLIT_TOLERANCE for p, t in zip(ordered, _SPLIT_TARGET)
    )
    return {"proportions": proportions, "passes": passes}


def profile_dataset(records_path) -> dict:
    """One pass over the rows. A row's text lengths, split label, id if
    excluded, scaffold and descriptor values are kept; the row and its
    graph are not."""
    records = 0
    lengths = {key: [] for key in ("smiles", "selfies", "iupac", "caption")}
    labels: Counter = Counter()
    unparseable: list[str] = []
    invalid: list[str] = []
    unencodable: list[str] = []
    scaffold_counts: Counter = Counter()
    described = {key: [] for key in ("mol_weight", "heavy_atoms", "rings", "aromatic_rings")}
    inputs = {}
    for row in read_profile_rows(records_path, inputs):
        records += 1
        for key, per_row in lengths.items():
            if key in row:
                per_row.append(_text_lengths(row[key]))
        if "split" in row:
            labels[row["split"]] += 1
        try:
            graph = parse_smiles(row["smiles"])
        except SmilesError:
            unparseable.append(row["id"])
            continue
        if not validity(graph):
            invalid.append(row["id"])
            continue
        try:
            check_encodable(graph)
        except NotEncodable:
            unencodable.append(row["id"])
        scaffold = murcko_scaffold(graph)
        try:
            scaffold_counts[canonical_smiles(scaffold) if scaffold.atoms else ""] += 1
        except UnsupportedFeature:
            pass  # a scaffold the canonical writer refuses is not counted
        values = descriptors(graph)
        for key, column in described.items():
            column.append(values[key])

    top_scaffolds = [
        {"scaffold": s, "count": c}
        for s, c in sorted(scaffold_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    ]
    excluded = len(unparseable) + len(invalid)
    payload = {
        "task": "profile",
        "counts": {"records": records, "profiled": records - excluded, "excluded": excluded},
        "lengths": {key: _modality_lengths(per_row) for key, per_row in lengths.items() if per_row},
        "scaffolds": top_scaffolds,
        "descriptors": {key: summarize_descriptors(column) for key, column in described.items()},
        "exclusions": {
            "unparseable_smiles": sorted(unparseable),
            "invalid_smiles": sorted(invalid),
            "selfies_unencodable": sorted(unencodable),
        },
        "provenance": provenance_of(inputs),
    }
    if labels:
        payload["split_check"] = _split_check(labels)
    return payload
