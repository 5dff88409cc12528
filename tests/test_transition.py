import csv
import io
import random

import pytest

from moleval.metrics import LOWER_IS_BETTER
from moleval.transition import (
    INTERNAL,
    MODALITIES,
    ConflictingResults,
    TaskResult,
    UnknownModality,
    build_matrix,
    export_matrix,
    export_provenance,
)


def test_empty_build_rule_conformance():
    m = build_matrix([])
    for row in MODALITIES:
        for col in MODALITIES:
            value = m.cell(row, col)
            tag = m.tag(row, col)
            if row == col:
                assert value == 1.0 and tag == "identity"
            elif row == "property":
                assert value == 0.0 and tag == "zero"
            elif row in INTERNAL and col in INTERNAL:
                assert value == 1.0 and tag == "tool"
            else:
                assert value is None and tag == "missing"


def test_quoted_value_placements():
    m = build_matrix(
        [
            TaskResult("iupac", "smiles", "bleu", 0.881),
            TaskResult("smiles", "caption", "meteor", 0.563),
        ]
    )
    # the generation score propagates across the whole internal-target row
    for col in INTERNAL:
        assert m.cell("iupac", col) == pytest.approx(0.881)
        assert m.tag("iupac", col) == "measured(bleu)"
    assert m.cell("smiles", "caption") == pytest.approx(0.563)
    assert m.tag("smiles", "caption") == "measured(meteor)"
    # untouched cells keep their rule values
    assert m.cell("iupac", "caption") is None
    assert m.cell("smiles", "inchi") == 1.0 and m.tag("smiles", "inchi") == "tool"


def test_internal_row_fill_overrides_tool():
    m = build_matrix([TaskResult("graph", "smiles", "bleu-2", 0.42)])
    for col in INTERNAL - {"graph"}:
        assert m.cell("graph", col) == pytest.approx(0.42)
        assert m.tag("graph", col) == "measured(bleu-2)"
    assert m.cell("graph", "graph") == 1.0  # diagonal untouched
    assert m.cell("inchi", "selfies") == 1.0  # other internal rows keep tool


def test_property_column_mean_roc_auc():
    m = build_matrix(
        [
            TaskResult("smiles", "property", "roc-auc", 0.8),
            TaskResult("smiles", "property", "roc-auc", 0.6),
        ]
    )
    assert m.cell("smiles", "property") == pytest.approx(0.7)
    assert m.tag("smiles", "property") == "measured(roc-auc)"


def test_regression_results_silently_dropped():
    m = build_matrix(
        [
            TaskResult("smiles", "property", "roc-auc", 0.8),
            TaskResult("smiles", "property", "rmse", 0.9),
            TaskResult("smiles", "property", "mae", 0.2),
        ]
    )
    assert m.cell("smiles", "property") == pytest.approx(0.8)


def test_conflicting_metrics_raise():
    with pytest.raises(ConflictingResults):
        build_matrix(
            [
                TaskResult("iupac", "caption", "bleu-2", 0.5),
                TaskResult("iupac", "caption", "meteor", 0.5),
            ]
        )


def test_unknown_modality():
    with pytest.raises(UnknownModality):
        TaskResult("audio", "smiles", "bleu", 0.5)


def test_value_outside_unit_interval_refused():
    # a score of a higher-is-better metric, named in the vocabulary or not,
    # is a probability; a lower-is-better one is only checked finite
    for metric in ("meteor", "bleu", "bleu,4", "accuracy"):
        for value in (1.7, -0.4, 1.0000000000000002):
            with pytest.raises(ValueError, match=r"lies outside \[0, 1\]"):
                TaskResult("smiles", "caption", metric, value)
        assert TaskResult("smiles", "caption", metric, 1.0).value == 1.0
    assert TaskResult("caption", "smiles", "levenshtein", 25.0).value == 25.0
    assert TaskResult("caption", "iupac", "mae", -0.5).value == -0.5
    for metric in ("meteor", "levenshtein"):
        with pytest.raises(ValueError, match="finite"):
            TaskResult("smiles", "caption", metric, float("nan"))


@pytest.mark.parametrize("metric", sorted(LOWER_IS_BETTER))
def test_lower_is_better_results_dropped_in_every_column(metric):
    # an edit distance of 25 or an error of 0.02 is no transfer probability
    for value in (25.0, 0.02):
        results = [TaskResult(row, col, metric, value) for row in MODALITIES for col in MODALITIES]
        m = build_matrix(results)
        assert m.entries == build_matrix([]).entries
        assert m.provenance == build_matrix([]).provenance
    m = build_matrix(
        [TaskResult("caption", "smiles", metric, 25.0), TaskResult("caption", "smiles", "bleu-4", 0.4)]
    )
    assert m.cell("caption", "smiles") == 0.4 and m.tag("caption", "smiles") == "measured(bleu-4)"


def test_order_independence():
    results = [
        TaskResult("iupac", "smiles", "bleu", 0.881),
        TaskResult("smiles", "caption", "meteor", 0.563),
        TaskResult("image", "smiles", "bleu-4", 0.33),
        TaskResult("caption", "property", "roc-auc", 0.71),
    ]
    rng = random.Random(4)
    base = build_matrix(results)
    for _ in range(10):
        shuffled = results[:]
        rng.shuffle(shuffled)
        again = build_matrix(shuffled)
        assert again.entries == base.entries
        assert again.provenance == base.provenance


def test_export_and_parse_round_trip():
    m = build_matrix(
        [
            TaskResult("iupac", "smiles", "bleu", 0.881),
            TaskResult("smiles", "caption", "meteor", 0.563),
        ]
    )
    text = export_matrix(m)
    assert text.splitlines()[0] == "," + ",".join(MODALITIES)
    assert ",1.000," in text
    header, *rows = csv.reader(io.StringIO(text))
    assert header == ["", *MODALITIES]
    assert [row[0] for row in rows] == list(MODALITIES)
    parsed = {
        (row[0], col): float(cell) if cell else None
        for row in rows
        for col, cell in zip(MODALITIES, row[1:], strict=True)
    }
    for key, value in m.entries.items():
        if value is None:
            assert parsed[key] is None
        else:
            assert parsed[key] == pytest.approx(value, abs=1e-3)
    # missing cells serialize as empty fields
    row = text.splitlines()[MODALITIES.index("image") + 1]
    assert ",," in row


def test_provenance_export_shape():
    text = export_provenance(build_matrix([]))
    lines = text.strip().splitlines()
    assert len(lines) == len(MODALITIES) + 1
    assert "identity" in lines[1] and "tool" in lines[1]
    assert lines[-1].split(",")[1] == "zero"


def test_measured_internal_pair_keeps_tool_unless_row_filled():
    # a tool converts between internal representations, so a measured
    # non-BLEU score of an internal pair does not replace its 1.0; only a
    # row fill from a measured X->smiles BLEU does
    accuracy = TaskResult("smiles", "inchi", "accuracy", 0.3)
    m = build_matrix([accuracy])
    assert m.cell("smiles", "inchi") == 1.0 and m.tag("smiles", "inchi") == "tool"
    m = build_matrix([accuracy, TaskResult("smiles", "smiles", "bleu", 0.6)])
    assert m.cell("smiles", "inchi") == pytest.approx(0.6)
    assert m.tag("smiles", "inchi") == "measured(bleu)"
    assert m.cell("smiles", "smiles") == 1.0 and m.tag("smiles", "smiles") == "identity"
    m = build_matrix(
        [TaskResult("graph", "inchi", "accuracy", 0.3), TaskResult("graph", "smiles", "bleu-4", 0.45)]
    )
    assert m.cell("graph", "inchi") == pytest.approx(0.45)
    assert m.tag("graph", "inchi") == "measured(bleu-4)"
