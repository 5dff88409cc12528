"""Assembly of the modal transition probability matrix.

Cells are filled by rule priority: the diagonal is always 1; the
property row transfers nothing to text modalities; conversions between
the internal representations default to 1 because lossless tools exist,
unless a measured generation score for the row overrides them; every
other cell is either measured or missing.

A result of a lower-is-better metric (a distance or an error) is no
probability and is dropped; any other result, under a metric name of the
vocabulary or not, is a score in [0, 1].
"""

from __future__ import annotations

import csv
import io
import math
import statistics
from dataclasses import dataclass, field

from .metrics import LOWER_IS_BETTER

MODALITIES = (
    "smiles",
    "inchi",
    "selfies",
    "graph",
    "image",
    "iupac",
    "caption",
    "property",
)
INTERNAL = frozenset(("smiles", "inchi", "selfies", "graph"))


class UnknownModality(ValueError):
    pass


class ConflictingResults(ValueError):
    pass


@dataclass(frozen=True)
class TaskResult:
    input: str
    output: str
    metric: str
    value: float

    def __post_init__(self):
        if self.input not in MODALITIES:
            raise UnknownModality(f"unknown input modality {self.input!r}")
        if self.output not in MODALITIES:
            raise UnknownModality(f"unknown output modality {self.output!r}")
        if not math.isfinite(self.value):
            raise ValueError("result value must be finite")
        if self.metric not in LOWER_IS_BETTER and not 0.0 <= self.value <= 1.0:
            raise ValueError(f"{self.metric!r} value {self.value!r} lies outside [0, 1]")


@dataclass
class TransitionMatrix:
    entries: dict[tuple[str, str], float | None] = field(default_factory=dict)
    provenance: dict[tuple[str, str], str] = field(default_factory=dict)

    def cell(self, row: str, col: str) -> float | None:
        return self.entries[(row, col)]

    def tag(self, row: str, col: str) -> str:
        return self.provenance[(row, col)]


def _is_bleu(metric: str) -> bool:
    return metric == "bleu" or metric.startswith("bleu-")


def build_matrix(results: list[TaskResult]) -> TransitionMatrix:
    # distances and errors cannot be read as probabilities; drop them before
    # any conflict checking
    usable = [r for r in results if r.metric not in LOWER_IS_BETTER]

    by_cell: dict[tuple[str, str], dict[str, list[float]]] = {}
    for r in usable:
        cell = by_cell.setdefault((r.input, r.output), {})
        cell.setdefault(r.metric, []).append(r.value)
    # each measured cell's mean and tag; a measured X->smiles generation
    # BLEU also fills all internal-target cells of row X uniformly
    measured: dict[tuple[str, str], tuple[float, str]] = {}
    row_fill: dict[str, tuple[float, str]] = {}
    for (row, col), metrics in by_cell.items():
        if len(metrics) > 1:
            raise ConflictingResults(f"cell {row}->{col} has metrics {sorted(metrics)}")
        metric, values = next(iter(metrics.items()))
        measured[(row, col)] = (statistics.fmean(values), f"measured({metric})")
        if col == "smiles" and _is_bleu(metric):
            row_fill[row] = measured[(row, col)]

    matrix = TransitionMatrix()
    for row in MODALITIES:
        for col in MODALITIES:
            key = (row, col)
            if row == col:
                value, tag = 1.0, "identity"
            elif row == "property":
                value, tag = 0.0, "zero"
            elif col in INTERNAL and row in row_fill:
                value, tag = row_fill[row]
            elif row in INTERNAL and col in INTERNAL:
                value, tag = 1.0, "tool"
            elif key in measured:
                value, tag = measured[key]
            else:
                value, tag = None, "missing"
            matrix.entries[key], matrix.provenance[key] = value, tag
    return matrix


def _grid_csv(cells: dict[tuple[str, str], str]) -> str:
    """CSV of one text cell per (row, col) modality pair under a header of
    modalities; a cell holding a comma, quote or newline is quoted."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["", *MODALITIES])
    for row in MODALITIES:
        writer.writerow([row, *(cells[(row, col)] for col in MODALITIES)])
    return buffer.getvalue()


def export_matrix(matrix: TransitionMatrix) -> str:
    return _grid_csv({key: "" if value is None else f"{value:.3f}" for key, value in matrix.entries.items()})


def export_provenance(matrix: TransitionMatrix) -> str:
    return _grid_csv(matrix.provenance)
