"""File ingestion: JSON-lines record files, saved JSON reports and mapping
matrices, embedding matrices, stoplists.

All readers are strict. Anything malformed raises SchemaError carrying a
1-based line number, or naming the file of a saved JSON document, so a
corrupted file is reported at the exact spot. Given a provenance map
`inputs`, a reader sets `inputs[str(path)]` to the sha256 hex digest of the
bytes it parsed.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..interpret import MappingMatrix
from ..predmetrics import EmbeddingMatrix
from ..transition import MODALITIES, TaskResult


class SchemaError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class EmptyFile(ValueError):
    pass


class FormatError(ValueError):
    pass


@dataclass(frozen=True)
class GenRecord:
    id: str
    input_modality: str
    output_modality: str
    prediction: str
    references: tuple[str, ...]


def _newlines(text: str) -> str:
    # a line ends only at \n, \r\n or \r: str.splitlines would also end one
    # at U+2028, U+0085, \x0c and the other breaks that JSON allows raw in a
    # string and that an id, a token or a config value may hold
    if "\r" not in text:  # most text; a search costs far less than a replace
        return text
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _lines(text: str) -> list[str]:
    lines = _newlines(text).split("\n")
    if not lines[-1]:
        lines.pop()  # the text ends with a line break, or is empty
    return lines


def _decode(data: bytes, path, lineno: int = 0) -> str:
    """UTF-8 text; a bad byte is a SchemaError naming path and its 1-based
    line, counted on from the lineno lines before data."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = lineno + _newlines(data[: exc.start].decode("utf-8")).count("\n") + 1
        reason = f"{exc.reason} 0x{data[exc.start]:02x}"
        raise SchemaError(f"{path}: line {line}: not valid UTF-8 ({reason})") from None


def _read_bytes(path, inputs=None) -> bytes:
    raw = Path(path).read_bytes()
    if inputs is not None:
        inputs[str(path)] = hashlib.sha256(raw).hexdigest()
    return raw


def _text_lines(path, inputs=None):
    """Each line of a UTF-8 text file, streamed; the digest is of the bytes as
    they are read, so the file is opened once."""
    digest = None if inputs is None else hashlib.sha256()
    lineno, rest = 0, b""
    with open(path, "rb") as handle:
        while True:
            # reading at least what is held back keeps a long line linear
            block = handle.read(max(io.DEFAULT_BUFFER_SIZE, len(rest)))
            if digest is not None:
                digest.update(block)
            chunk = rest + block
            if block:
                # cut after the last line break, which no UTF-8 character
                # holds; a final \r stays back, as a \n may follow it
                cut = max(chunk.rfind(b"\n"), chunk.rfind(b"\r", 0, -1)) + 1
                chunk, rest = chunk[:cut], chunk[cut:]
            lines = _lines(_decode(chunk, path, lineno))
            lineno += len(lines)
            yield from lines
            if not block:
                if digest is not None:
                    inputs[str(path)] = digest.hexdigest()
                return


def _iter_jsonl(path, inputs, what: str):
    """(line number, object) of each line. A reader makes each line an item
    or raises, so a file of no line, and only that, has no `what`."""
    lineno = 0
    for lineno, line in enumerate(_text_lines(path, inputs), 1):
        if not line.strip():
            raise SchemaError("blank line", lineno)
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON ({exc.msg})", lineno) from None
        if not isinstance(obj, dict):
            raise SchemaError("expected a JSON object", lineno)
        yield lineno, obj
    if not lineno:
        raise EmptyFile(f"no {what} in {path}")


def _is_number(value) -> bool:
    # json reads true and false as bools, which Python counts as ints
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)


def _require(obj: dict, key: str, kind, lineno: int):
    if key not in obj:
        raise SchemaError(f"missing field {key!r}", lineno)
    value = obj[key]
    if kind is float:
        if not _is_number(value):
            raise SchemaError(f"field {key!r} must be a number", lineno)
        return float(value)
    if not isinstance(value, kind):
        raise SchemaError(f"field {key!r} must be {kind.__name__}", lineno)
    return value


def _finite(obj: dict, key: str, lineno: int) -> float:
    # json reads NaN, Infinity and -Infinity as floats
    value = _require(obj, key, float, lineno)
    if not math.isfinite(value):
        raise SchemaError(f"field {key!r} must be finite", lineno)
    return value


def read_gen_records(path, inputs=None) -> list[GenRecord]:
    records = []
    seen_ids = set()
    for lineno, obj in _iter_jsonl(path, inputs, "records"):
        rec_id = _require(obj, "id", str, lineno)
        if rec_id in seen_ids:
            raise SchemaError(f"duplicate id {rec_id!r}", lineno)
        seen_ids.add(rec_id)
        modality_in = _require(obj, "input_modality", str, lineno)
        modality_out = _require(obj, "output_modality", str, lineno)
        for modality in (modality_in, modality_out):
            if modality not in MODALITIES:
                raise SchemaError(f"unknown modality {modality!r}", lineno)
        prediction = _require(obj, "prediction", str, lineno)
        references = _require(obj, "references", list, lineno)
        if not references or not _is_strings(references):
            raise SchemaError("references must be a non-empty list of strings", lineno)
        records.append(
            GenRecord(rec_id, modality_in, modality_out, prediction, tuple(references))
        )
    return records


def read_gold(path, inputs=None) -> dict[str, str]:
    gold = {}
    for lineno, obj in _iter_jsonl(path, inputs, "gold pairs"):
        query = _require(obj, "query", str, lineno)
        target = _require(obj, "target", str, lineno)
        if query in gold:
            raise SchemaError(f"duplicate query {query!r}", lineno)
        gold[query] = target
    return gold


def _finite_number(text: str) -> float:
    # json reads NaN, Infinity, -Infinity and a literal past the float range
    # as non-finite floats, which no saved document holds
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text}")
    return value


def _read_document(path, inputs, kind: str) -> dict:
    """A saved JSON document, which must be one object of finite numbers."""
    # line ends as in _lines, which the line and column of an error count
    text = _newlines(_decode(_read_bytes(path, inputs), path))
    try:
        document = json.loads(text, parse_float=_finite_number, parse_constant=_finite_number)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON: {exc}") from None
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from None
    if not isinstance(document, dict):
        raise SchemaError(f"{path}: not a {kind} (expected a JSON object)")
    return document


def read_report(path, inputs=None) -> dict:
    """A saved report; a task must be a string, and metrics numbers."""
    report = _read_document(path, inputs, "report")
    task = report.get("task")
    if task is not None and not isinstance(task, str):
        raise SchemaError(f"{path}: task {json.dumps(task)} is not a string")
    metrics = report.get("metrics", {})
    if not isinstance(metrics, dict):
        raise SchemaError(f"{path}: metrics {json.dumps(metrics)} is not an object")
    for name, value in metrics.items():
        if not _is_number(value):
            raise SchemaError(f"{path}: metric {name!r} is {json.dumps(value)}, not a number")
    return report


def read_mapping_matrix(path, inputs=None) -> MappingMatrix:
    """The matrix of a saved `tokenmap build` report."""
    document = _read_document(path, inputs, "saved mapping matrix")
    try:
        for key in ("row_tokens", "col_tokens"):
            if not _is_strings(document.get(key)):
                raise TypeError(f"{key} must be a list of strings")
        counts = document.get("counts")
        if not isinstance(counts, list) or not all(
            isinstance(row, list) and all(map(_is_number, row)) for row in counts
        ):
            raise TypeError("counts must be a list of rows of numbers")
        degraded = document.get("degraded", False)
        if not isinstance(degraded, bool):
            raise TypeError(f"degraded {json.dumps(degraded)} is not true or false")
        return MappingMatrix(counts, tuple(document["row_tokens"]), tuple(document["col_tokens"]), degraded)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"{path}: not a saved mapping matrix ({exc})") from None


def read_results(path, inputs=None) -> list[TaskResult]:
    results = []
    for lineno, obj in _iter_jsonl(path, inputs, "results"):
        modality_in = _require(obj, "input", str, lineno)
        modality_out = _require(obj, "output", str, lineno)
        metric = _require(obj, "metric", str, lineno)
        value = _require(obj, "value", float, lineno)
        try:
            results.append(TaskResult(modality_in, modality_out, metric, value))
        except ValueError as exc:
            raise SchemaError(str(exc), lineno) from None
    return results


def read_property_rows(path, inputs=None):
    """Returns ("classification", {task: {"labels", "scores"}}) or
    ("regression", {task: {"preds", "truths"}}). A file holds one kind."""
    kind = None
    tasks: dict[str, dict[str, list]] = {}
    for lineno, obj in _iter_jsonl(path, inputs, "property rows"):
        task = _require(obj, "task", str, lineno)
        if "label" in obj or "score" in obj:
            row_kind = "classification"
        elif "pred" in obj or "truth" in obj:
            row_kind = "regression"
        else:
            raise SchemaError("expected label/score or pred/truth fields", lineno)
        if kind is None:
            kind = row_kind
        elif kind != row_kind:
            raise SchemaError(f"mixed {row_kind} row in a {kind} file", lineno)
        if kind == "classification":
            label = _require(obj, "label", float, lineno)
            if label not in (0.0, 1.0):
                raise SchemaError("label must be 0 or 1", lineno)
            score = _finite(obj, "score", lineno)
            bucket = tasks.setdefault(task, {"labels": [], "scores": []})
            bucket["labels"].append(int(label))
            bucket["scores"].append(score)
        else:
            pred = _finite(obj, "pred", lineno)
            truth = _finite(obj, "truth", lineno)
            bucket = tasks.setdefault(task, {"preds": [], "truths": []})
            bucket["preds"].append(pred)
            bucket["truths"].append(truth)
    return kind, tasks


def read_pairs(path, scheme: str = "whitespace", inputs=None) -> list[tuple[list[str], list[str]]]:
    """Token mapping input. Each line holds "input" and "output", either
    raw strings (tokenized under scheme) or pre-tokenized string lists."""
    from ..textmetrics import tokenize

    pairs = []
    for lineno, obj in _iter_jsonl(path, inputs, "pairs"):
        sides = []
        for key in ("input", "output"):
            if key not in obj:
                raise SchemaError(f"missing field {key!r}", lineno)
            value = obj[key]
            if isinstance(value, str):
                sides.append(list(tokenize(value, scheme).tokens))
            elif _is_strings(value):
                sides.append(list(value))
            else:
                raise SchemaError(
                    f"field {key!r} must be a string or list of strings", lineno
                )
        pairs.append((sides[0], sides[1]))
    return pairs


_PROFILE_TEXT_FIELDS = ("selfies", "iupac", "caption")


def read_profile_rows(path, inputs=None):
    """Yields each row as a dict of its id, smiles and present text fields
    and split; raises EmptyFile after the last line if there was no row."""
    seen_ids = set()
    for lineno, obj in _iter_jsonl(path, inputs, "records"):
        rec_id = _require(obj, "id", str, lineno)
        if rec_id in seen_ids:
            raise SchemaError(f"duplicate id {rec_id!r}", lineno)
        seen_ids.add(rec_id)
        row = {"id": rec_id, "smiles": _require(obj, "smiles", str, lineno)}
        for key in _PROFILE_TEXT_FIELDS + ("split",):
            if key in obj:
                row[key] = _require(obj, key, str, lineno)
        yield row


_EMB_MAGIC = b"EMB1"


def read_embeddings(path, inputs=None) -> EmbeddingMatrix:
    """The matrix of an embedding file, read once.

    Binary layout: magic "EMB1", little-endian u32 row count, u32
    dimension, rows*dim f32 values, then newline-separated UTF-8 ids.
    Files without the magic are read as CSV (id, then float columns)."""
    raw = _read_bytes(path, inputs)
    parse = _read_binary_embeddings if raw[:4] == _EMB_MAGIC else _read_csv_embeddings
    return parse(raw, path)


def _read_binary_embeddings(raw: bytes, path) -> EmbeddingMatrix:
    if len(raw) < 12:
        raise FormatError(f"{path}: truncated header")
    rows, dim = struct.unpack_from("<II", raw, 4)
    if dim < 1:
        raise FormatError(f"{path}: dimension must be positive")
    data_end = 12 + rows * dim * 4
    if len(raw) < data_end:
        raise FormatError(f"{path}: truncated vector data")
    # a read-only view of the bytes read, kept as float32
    vectors = np.frombuffer(raw, "<f4", count=rows * dim, offset=12).reshape(rows, dim)
    # the line of a byte that is not UTF-8 is counted in id lines
    ids = _lines(_decode(raw[data_end:], path))
    if len(ids) != rows:
        raise FormatError(f"{path}: {len(ids)} ids for {rows} rows")
    return _make_matrix(ids, vectors, path)


def _read_csv_embeddings(raw: bytes, path) -> EmbeddingMatrix:
    ids = []
    vectors = []
    for lineno, line in enumerate(_lines(_decode(raw, path)), 1):
        if not line.strip():
            raise FormatError(f"{path}: blank line {lineno}")
        cells = line.split(",")
        if len(cells) < 2:
            raise FormatError(f"{path}: line {lineno} has no vector columns")
        try:
            vector = [float(c) for c in cells[1:]]
        except ValueError:
            raise FormatError(f"{path}: non-numeric value on line {lineno}") from None
        ids.append(cells[0])
        vectors.append(vector)
    return _make_matrix(ids, vectors, path)


def _make_matrix(ids, vectors, path) -> EmbeddingMatrix:
    if not ids:
        raise FormatError(f"{path}: no embedding rows")
    try:
        return EmbeddingMatrix(ids, vectors)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def write_embeddings(path, matrix: EmbeddingMatrix):
    for item_id in matrix.ids:
        if "\n" in item_id or "\r" in item_id:
            raise ValueError(f"id {item_id!r} holds a line break and could not be read back")
    blob = _EMB_MAGIC + struct.pack("<II", len(matrix.ids), matrix.dim)
    with np.errstate(over="raise"):  # a value beyond the f32 range
        blob += np.asarray(matrix.values, "<f4").tobytes()
    blob += "".join(item_id + "\n" for item_id in matrix.ids).encode("utf-8")
    Path(path).write_bytes(blob)


# tokens dropped from mapping matrices unless the user supplies a stoplist
# file; bare punctuation carries no modality content
DEFAULT_STOPLIST = frozenset(
    [
        ".", ",", ";", ":", "!", "?", "(", ")", "[", "]", "{", "}",
        "'", '"', "`", "-", "_", "/", "\\", "|",
    ]
)


def read_stoplist(path, inputs=None) -> frozenset[str]:
    return frozenset(token for line in _text_lines(path, inputs) if (token := line.strip()))
