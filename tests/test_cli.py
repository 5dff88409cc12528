import argparse
import csv
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import moleval.harness.cli as cli_mod
from moleval.harness.cli import MAX_GRID_POINTS, _parse_grid, build_parser, main
from moleval.transition import MODALITIES, build_matrix, export_matrix
from moleval.harness.records import read_results, read_stoplist, write_embeddings
from moleval.predmetrics import EmbeddingMatrix


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def _gen_rows(n=4):
    rows = []
    smiles = ["CCO", "c1ccccc1", "CC(=O)O", "CCN"]
    for i in range(n):
        rows.append(
            {
                "id": str(i),
                "input_modality": "iupac",
                "output_modality": "smiles",
                "prediction": smiles[i % len(smiles)],
                "references": [smiles[i % len(smiles)]],
            }
        )
    return rows


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["parse", "CCO", "--bogus"]) == 1


def test_parse_exit_zero_even_for_invalid(capsys):
    assert main(["parse", "CCO", "C1CC"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["valid"] == 1


def test_parse_without_input_is_usage_error():
    assert main(["parse"]) == 1


def test_missing_file_is_data_error(capsys):
    assert main(["eval", "gen", "--records", "/nonexistent.jsonl", "--target-kind", "molecule"]) == 2


def test_corrupt_line_is_data_error_naming_line(tmp_path, capsys):
    path = tmp_path / "g.jsonl"
    rows = _gen_rows(3)
    lines = [json.dumps(r) for r in rows]
    lines[1] = "{broken json"
    path.write_text("\n".join(lines) + "\n")
    assert main(["eval", "gen", "--records", str(path), "--target-kind", "molecule"]) == 2
    assert "line 2" in capsys.readouterr().err


def test_eval_gen_writes_file_and_is_deterministic(tmp_path):
    rec = _write_jsonl(tmp_path / "g.jsonl", _gen_rows(6))
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["eval", "gen", "--records", rec, "--target-kind", "molecule", "--out", str(out1)]) == 0
    assert main(["eval", "gen", "--records", rec, "--target-kind", "molecule", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["metrics"]["validity"] == 1.0
    assert data["provenance"]["tool"]["name"] == "moleval"


def test_eval_gen_needs_target_kind(tmp_path):
    rec = _write_jsonl(tmp_path / "g.jsonl", _gen_rows(2))
    assert main(["eval", "gen", "--records", rec]) == 1


def test_seed_recorded(tmp_path, capsys):
    rec = _write_jsonl(tmp_path / "g.jsonl", _gen_rows(2))
    assert main(["eval", "gen", "--records", rec, "--target-kind", "molecule", "--seed", "7"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["provenance"]["seed"] == 7


def test_repeat_merge(tmp_path, capsys):
    rec = _write_jsonl(tmp_path / "g.jsonl", _gen_rows(4))
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    main(["eval", "gen", "--records", rec, "--target-kind", "molecule", "--out", str(r1)])
    main(["eval", "gen", "--records", rec, "--target-kind", "molecule", "--out", str(r2)])
    assert main(["eval", "gen", "--repeat-merge", str(r1), str(r2)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["runs"] == 2
    assert data["metrics"]["validity"]["mean"] == 1.0
    assert data["metrics"]["validity"]["std"] == 0.0


@pytest.mark.parametrize(
    "report, named",
    [
        ({"task": "eval-gen-molecule", "metrics": {"validity": None}}, "metric 'validity' is null, not a number"),
        ([{"task": "eval-gen-molecule"}], "not a report"),
        ({"task": "eval-gen-molecule", "metrics": [1]}, "metrics [1] is not an object"),
        ({"task": ["eval-gen-molecule"], "metrics": {}}, 'task ["eval-gen-molecule"] is not a string'),
    ],
    ids=["null-metric", "array", "metrics-list", "task-list"],
)
def test_repeat_merge_bad_report_is_data_error(tmp_path, capsys, report, named):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(report), encoding="utf-8")
    assert main(["eval", "gen", "--repeat-merge", str(bad), str(bad)]) == 2
    assert f"{bad}: {named}" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_saved_documents_refuse_non_finite_numbers(tmp_path, capsys, literal):
    # Python's json reads these as floats; a saved report writes null instead
    report = tmp_path / "r.json"
    report.write_text('{"task": "eval-property", "metrics": {"f1": %s, "mae": 1.0}}' % literal, encoding="utf-8")
    assert main(["eval", "property", "--repeat-merge", str(report), str(report)]) == 2
    assert f"data error: {report}: non-finite number {literal}" in capsys.readouterr().err
    saved = tmp_path / "matrix.json"
    saved.write_text('{"counts": [[1, %s], [3, 4]], "row_tokens": ["a", "b"], "col_tokens": ["x", "y"]}' % literal,
                     encoding="utf-8")
    assert main(["tokenmap", "build", "--matrix", str(saved)]) == 2
    assert f"data error: {saved}: non-finite number {literal}" in capsys.readouterr().err


def test_convert_round_trip(capsys):
    assert main(["convert", "--from", "smiles", "--to", "selfies", "C1=CC=CC=C1"]) == 0
    stream = capsys.readouterr().out.strip()
    assert stream == "[C][=C][C][=C][C][=C][Ring1][=Branch1]"
    assert main(["convert", "--from", "selfies", "--to", "smiles", stream]) == 0
    smiles = capsys.readouterr().out.strip()
    assert main(["parse", smiles]) == 0
    assert json.loads(capsys.readouterr().out)["molecules"][0]["valid"] is True


def test_convert_same_notation_is_usage_error():
    assert main(["convert", "--from", "smiles", "--to", "smiles", "CCO"]) == 1


def test_convert_bad_input_names_position(capsys):
    assert main(["convert", "--from", "smiles", "--to", "selfies", "CCO", "C1CC"]) == 2
    assert "input 2" in capsys.readouterr().err


def test_convert_unknown_extension_writes_plain_lines(tmp_path, capsys):
    out = tmp_path / "result.txt"
    assert main(["convert", "--from", "smiles", "--to", "selfies", "CCO", "C=C", "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text() == "[C][C][O]\n[C][=C]\n"


def test_convert_out_json_emits_payload(capsys):
    assert main(["convert", "--from", "smiles", "--to", "selfies", "CCO", "--out", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["task"] == "convert"
    assert data["results"] == [{"input": "CCO", "output": "[C][C][O]"}]
    assert data["counts"] == {"converted": 1}


def test_transition_build_default_emits_cells(tmp_path, capsys):
    rows = [{"input": "iupac", "output": "smiles", "metric": "bleu", "value": 0.5}]
    res = _write_jsonl(tmp_path / "res.jsonl", rows)
    assert main(["transition", "build", "--results", res]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["task"] == "transition-build"
    assert data["cells"]["iupac"]["smiles"]["value"] == 0.5
    assert set(data["cells"]) == set(data["modalities"])
    assert res in data["provenance"]["inputs"]


@pytest.mark.parametrize("command", ["parse", "profile", "tokenmap-build"])
def test_threads_flag_is_accepted_and_changes_nothing(tmp_path, capsys, command):
    if command == "parse":
        argv = ["parse", "CCO", "c1ccccc1", "C1CC"]
    elif command == "profile":
        rows = [{"id": str(i), "smiles": s} for i, s in enumerate(["CCO", "c1ccccc1", "CC(=O)O"])]
        argv = ["profile", "--records", _write_jsonl(tmp_path / "d.jsonl", rows)]
    else:
        argv = ["tokenmap", "build", "--pairs", _pairs_file(tmp_path)]
    assert main(argv) == 0
    plain = capsys.readouterr().out
    assert main(argv + ["--threads", "3"]) == 0
    assert capsys.readouterr().out == plain


def test_transition_build_csv_matches_library(tmp_path, capsys):
    rows = [
        {"input": "iupac", "output": "smiles", "metric": "bleu", "value": 0.881},
        {"input": "smiles", "output": "caption", "metric": "meteor", "value": 0.563},
    ]
    res = _write_jsonl(tmp_path / "res.jsonl", rows)
    assert main(["transition", "build", "--results", res, "--out", "csv"]) == 0
    printed = capsys.readouterr().out
    assert printed == export_matrix(build_matrix(read_results(res)))
    assert "iupac,0.881,0.881,0.881,0.881" in printed


def test_transition_build_provenance_file(tmp_path, capsys):
    rows = [{"input": "iupac", "output": "smiles", "metric": "bleu", "value": 0.5}]
    res = _write_jsonl(tmp_path / "res.jsonl", rows)
    prov = tmp_path / "prov.csv"
    assert main(["transition", "build", "--results", res, "--out", "csv", "--provenance", str(prov)]) == 0
    capsys.readouterr()
    text = prov.read_text()
    assert "measured(bleu)" in text
    assert "tool" in text


def test_transition_provenance_csv_quotes_commas(tmp_path, capsys):
    rows = [{"input": "iupac", "output": "smiles", "metric": "bleu,4", "value": 0.5}]
    res = _write_jsonl(tmp_path / "res.jsonl", rows)
    prov = tmp_path / "prov.csv"
    assert main(["transition", "build", "--results", res, "--out", "csv", "--provenance", str(prov)]) == 0
    capsys.readouterr()
    grid = list(csv.reader(io.StringIO(prov.read_text())))
    assert grid[0] == ["", *MODALITIES]
    assert [row[0] for row in grid[1:]] == list(MODALITIES)
    assert all(len(row) == 1 + len(MODALITIES) for row in grid)
    assert grid[1 + MODALITIES.index("iupac")][1 + MODALITIES.index("smiles")] == "measured(bleu,4)"


def test_transition_conflicting_results_data_error(tmp_path, capsys):
    rows = [
        {"input": "iupac", "output": "smiles", "metric": "bleu", "value": 0.5},
        {"input": "iupac", "output": "smiles", "metric": "meteor", "value": 0.6},
    ]
    res = _write_jsonl(tmp_path / "res.jsonl", rows)
    assert main(["transition", "build", "--results", res]) == 2


def test_transition_drops_lower_is_better_results(tmp_path, capsys):
    # an edit distance of 25 is no transfer probability: the cell stays empty
    rows = [{"input": "caption", "output": "smiles", "metric": "levenshtein", "value": 25}]
    res = _write_jsonl(tmp_path / "res.jsonl", rows)
    assert main(["transition", "build", "--results", res]) == 0
    cell = json.loads(capsys.readouterr().out)["cells"]["caption"]["smiles"]
    assert cell == {"value": None, "source": "missing"}


def test_transition_score_outside_unit_interval_is_data_error(tmp_path, capsys):
    rows = [
        {"input": "iupac", "output": "smiles", "metric": "bleu", "value": 0.5},
        {"input": "smiles", "output": "caption", "metric": "meteor", "value": 1.7},
    ]
    res = _write_jsonl(tmp_path / "res.jsonl", rows)
    assert main(["transition", "build", "--results", res]) == 2
    assert "data error: line 2: 'meteor' value 1.7 lies outside [0, 1]" in capsys.readouterr().err


def _pairs_file(tmp_path):
    rows = [
        {"input": "the acid smells sharp", "output": "box lic ."},
        {"input": "acid rain falls", "output": "box drop"},
        {"input": "salt and acid", "output": "lic box"},
        {"input": "the salt dissolves", "output": "drop crystal"},
    ]
    return _write_jsonl(tmp_path / "pairs.jsonl", rows)


def test_tokenmap_build_and_reload(tmp_path, capsys):
    pairs = _pairs_file(tmp_path)
    saved = tmp_path / "matrix.json"
    assert main(["tokenmap", "build", "--pairs", pairs, "--out", str(saved)]) == 0
    data = json.loads(saved.read_text())
    assert data["degraded"] is True  # far fewer than 20 tokens
    assert "." not in data["col_tokens"]  # default stoplist removes punctuation
    assert len(data["counts"]) == len(data["row_tokens"])
    assert max(max(row) for row in data["normalized"]) == 1.0
    # a saved matrix is a valid source for the other subcommands
    assert main(["tokenmap", "sweep", "--matrix", str(saved), "--grid", "0:2:0.5"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["T"] for r in rows] == [0.0, 0.5, 1.0, 1.5, 2.0]
    counts = [r["flag_count"] for r in rows]
    assert all(b <= a for a, b in zip(counts, counts[1:]))


@pytest.mark.parametrize(
    "key, labels", [("row_tokens", "ab"), ("col_tokens", [1, 2]), ("row_tokens", ["a", None])]
)
def test_saved_matrix_labels_must_be_lists_of_strings(tmp_path, capsys, key, labels):
    saved = tmp_path / "matrix.json"
    data = {"counts": [[1, 2], [3, 4]], "row_tokens": ["a", "b"], "col_tokens": ["x", "y"], key: labels}
    saved.write_text(json.dumps(data), encoding="utf-8")
    assert main(["tokenmap", "build", "--matrix", str(saved)]) == 2
    assert f"{key} must be a list of strings" in capsys.readouterr().err


@pytest.mark.parametrize(
    "change, named",
    [
        ({"counts": [["1", 2], [3, 4]]}, "counts must be a list of rows of numbers"),
        ({"counts": [[True, 2], [3, 4]]}, "counts must be a list of rows of numbers"),
        ({"row_tokens": ["a", "a"]}, "repeated label 'a' in row_tokens"),
        ({"col_tokens": ["y", "y"]}, "repeated label 'y' in col_tokens"),
        ({"counts": [[1e308, 1e308], [3, 4]]}, "counts too large"),
        ({"counts": [[1e200, 2], [3, 4]]}, "counts too large"),
        ({"counts": [[10**400, 2], [3, 4]]}, "int too large to convert to float"),
    ],
    ids=["string", "bool", "row-repeat", "col-repeat", "sum-overflow", "square-overflow", "huge-int"],
)
def test_saved_matrix_bad_values_are_data_errors(tmp_path, capsys, change, named):
    saved = tmp_path / "matrix.json"
    data = {"counts": [[1, 2], [3, 4]], "row_tokens": ["a", "b"], "col_tokens": ["x", "y"], **change}
    saved.write_text(json.dumps(data), encoding="utf-8")
    for command in (["build"], ["sweep", "--grid", "0:1:0.5"], ["select", "--T", "1"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning is no report
            assert main(["tokenmap", *command, "--matrix", str(saved)]) == 2
        assert f"{saved}: not a saved mapping matrix ({named}" in capsys.readouterr().err


def test_saved_matrix_invalid_json_names_file(tmp_path, capsys):
    saved = tmp_path / "matrix.json"
    saved.write_text('{"row_tokens": }', encoding="utf-8")
    assert main(["tokenmap", "build", "--matrix", str(saved)]) == 2
    assert f"data error: {saved}: invalid JSON: Expecting value: line 1 column 16" in capsys.readouterr().err


@pytest.mark.parametrize("degraded", ["no", 0, None])
def test_saved_matrix_degraded_must_be_boolean(tmp_path, capsys, degraded):
    saved = tmp_path / "matrix.json"
    data = {"counts": [[1, 2], [3, 4]], "row_tokens": ["a", "b"], "col_tokens": ["x", "y"], "degraded": degraded}
    saved.write_text(json.dumps(data), encoding="utf-8")
    assert main(["tokenmap", "build", "--matrix", str(saved)]) == 2
    want = f"{saved}: not a saved mapping matrix (degraded {json.dumps(degraded)} is not true or false)"
    assert want in capsys.readouterr().err
    data["degraded"] = True
    saved.write_text(json.dumps(data), encoding="utf-8")
    assert main(["tokenmap", "build", "--matrix", str(saved)]) == 0
    assert json.loads(capsys.readouterr().out)["degraded"] is True


def _small_matrix(tmp_path):
    saved = tmp_path / "matrix.json"
    counts = [[50, 3, 0], [2, 41, 7], [0, 9, 33]]
    saved.write_text(json.dumps({"counts": counts, "row_tokens": ["a", "b", "c"], "col_tokens": ["x", "y", "z"]}))
    return str(saved)


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "-1", "-0.5", "1e400", "high"])
def test_tokenmap_select_threshold_must_be_finite_and_not_negative(tmp_path, capsys, threshold):
    assert main(["tokenmap", "select", "--matrix", _small_matrix(tmp_path), f"--T={threshold}"]) == 1
    assert "usage error: --T must be" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    [["select", "--T", "1e308"], ["select", "--T", "1.7976931348623157e308"], ["sweep", "--grid", "0:1e308:1e307"]],
    ids=["select", "select-largest", "sweep"],
)
def test_tokenmap_huge_threshold_flags_nothing_without_warning(tmp_path, capsys, command):
    # a cutoff past the float range is inf: no cell is flagged or expected
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["tokenmap", *command, "--matrix", _small_matrix(tmp_path)]) == 0
    out = capsys.readouterr()
    assert out.err == ""
    data = json.loads(out.out)
    if command[0] == "select":
        assert data["pairs"] == [] and data["p_actual"] == 0.0 and data["p_expected"] == 0.0
    else:
        assert [row["flag_count"] for row in data["rows"][1:]] == [0] * 10


def test_tokenmap_build_csv_grid(tmp_path, capsys):
    pairs = _pairs_file(tmp_path)
    assert main(["tokenmap", "build", "--pairs", pairs, "--out", "csv"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header = lines[0].split(",")
    assert header[0] == ""  # corner cell empty, then column tokens
    n_cols = len(header) - 1
    assert all(len(line.split(",")) == n_cols + 1 for line in lines[1:])
    assert len(lines) >= 3  # at least two token rows


def test_tokenmap_select_groups(tmp_path, capsys):
    pairs = _pairs_file(tmp_path)
    assert main(["tokenmap", "select", "--pairs", pairs, "--T", "0.5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["threshold_T"] == 0.5
    assert all("group_key" in p for p in data["pairs"])
    assert all(set(g) == {"group_key", "members"} for g in data["groups"])


def test_tokenmap_select_needs_threshold(tmp_path):
    pairs = _pairs_file(tmp_path)
    assert main(["tokenmap", "select", "--pairs", pairs]) == 1


def test_tokenmap_needs_source():
    assert main(["tokenmap", "build"]) == 1


def test_tokenmap_bad_grid(tmp_path):
    pairs = _pairs_file(tmp_path)
    assert main(["tokenmap", "sweep", "--pairs", pairs, "--grid", "nope"]) == 1
    assert main(["tokenmap", "sweep", "--pairs", pairs, "--grid", "2:1:0.5"]) == 1
    # more than MAX_GRID_POINTS points, or no finite count at all, is
    # refused before any point is built
    for grid in ("0:1:1e-7", "0:10000:1", "0:inf:1", "nan:1:0.5", "0:1:nan", "-1:1:0.5", "-inf:0:1"):
        assert main(["tokenmap", "sweep", "--pairs", pairs, f"--grid={grid}"]) == 1


def test_grid_limit_is_inclusive():
    assert len(_parse_grid("0:9999:1")) == MAX_GRID_POINTS


def test_tokenmap_degenerate_matrix_is_data_error(tmp_path):
    saved = tmp_path / "m.json"
    saved.write_text(json.dumps({
        "row_tokens": ["a", "b"],
        "col_tokens": ["x", "y"],
        "counts": [[3.0, 3.0], [3.0, 3.0]],
    }))
    assert main(["tokenmap", "select", "--matrix", str(saved), "--T", "1.0"]) == 2


def test_config_defaults_and_flag_override(tmp_path, capsys):
    pairs = _pairs_file(tmp_path)
    config = tmp_path / "moleval.cfg"
    config.write_text("top-k = 3\ngrid = 0:1:0.5\n# comment\n")
    assert main(["tokenmap", "build", "--pairs", pairs, "--config", str(config)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["row_tokens"]) == 3
    # flag wins over config
    assert main(["tokenmap", "build", "--pairs", pairs, "--config", str(config), "--top-k", "2"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert len(data["row_tokens"]) == 2


def test_custom_stoplist(tmp_path, capsys):
    pairs = _pairs_file(tmp_path)
    stop = tmp_path / "stop.txt"
    stop.write_text("the\nand\n")
    assert main(["tokenmap", "build", "--pairs", pairs, "--stoplist", str(stop)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert "the" not in data["row_tokens"]
    assert "." in data["col_tokens"]  # custom stoplist replaces the default


@pytest.mark.parametrize("brk", ["\u2028", "\x0c"], ids=["u2028", "ff"])
def test_text_inputs_end_lines_only_at_newlines(tmp_path, brk):
    # a stoplist, config or --in line ends only at \n, \r\n or \r, as a
    # JSONL line does; other breaks stay inside the line
    path = tmp_path / "lines.txt"
    path.write_bytes(f"x{brk}y\nz\r\nw\r".encode("utf-8"))
    assert read_stoplist(path) == {f"x{brk}y", "z", "w"}
    args = argparse.Namespace(items=[], infile=str(path))
    assert cli_mod._input_strings(args) == [f"x{brk}y", "z", "w"]
    path.write_bytes(f"seed = 3{brk}top_k = 2\r\ngrid = 0:1:0.5\r".encode("utf-8"))
    assert cli_mod._read_config(path) == [f"--seed=3{brk}top_k = 2", "--grid=0:1:0.5"]


def _text_input(tmp_path, kind, path):
    """The argv that reads a text input of this kind from path, and a valid
    i-th line of it."""
    pairs = _pairs_file(tmp_path)
    targets = tmp_path / "t.csv"
    targets.write_text("a,1.0,0.0\nb,0.0,1.0\n", encoding="utf-8")
    gen = {"input_modality": "iupac", "output_modality": "caption", "prediction": "x", "references": ["y"]}
    path = str(path)
    return {
        "gen": (["eval", "gen", "--records", path, "--target-kind", "text"],
                lambda i: json.dumps({"id": f"r{i}", **gen})),
        "gold": (["eval", "retrieval", "--queries", str(targets), "--targets", str(targets), "--gold", path],
                 lambda i: json.dumps({"query": f"q{i}", "target": "a"})),
        "results": (["transition", "build", "--results", path],
                    lambda i: json.dumps({"input": "iupac", "output": "smiles", "metric": "bleu", "value": 0.5})),
        "property": (["eval", "property", "--records", path],
                     lambda i: json.dumps({"task": "t", "pred": i, "truth": 0})),
        "pairs": (["tokenmap", "build", "--pairs", path], lambda i: json.dumps({"input": f"a{i}", "output": "b"})),
        "profile": (["profile", "--records", path], lambda i: json.dumps({"id": f"r{i}", "smiles": "CCO"})),
        "stoplist": (["tokenmap", "build", "--pairs", pairs, "--stoplist", path], lambda i: f"w{i}"),
        "config": (["tokenmap", "build", "--pairs", pairs, "--config", path], lambda i: "top_k = 2"),
        "in": (["parse", "--in", path], lambda i: "CCO"),
    }[kind]


@pytest.mark.parametrize("before", [0, 2500], ids=["first-line", "past-first-chunk"])
@pytest.mark.parametrize("kind", ["gen", "gold", "results", "property", "pairs", "profile", "stoplist", "config", "in"])
def test_non_utf8_input_names_file_and_line(tmp_path, capsys, kind, before):
    path = tmp_path / "input.txt"
    argv, line = _text_input(tmp_path, kind, path)
    ends = ["\n", "\r\n", "\r"]
    text = "".join(line(i) + ends[i % 3] for i in range(before)).encode("utf-8")
    assert len(text) > 8192 or not before
    # a Latin-1 é inside a line, then more valid lines
    path.write_bytes(text + b"ab\xe9cd\n" + "".join(line(before + 1 + i) + "\n" for i in range(3)).encode("utf-8"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == f"data error: {path}: line {before + 1}: not valid UTF-8 (invalid continuation byte 0xe9)\n"


@pytest.mark.parametrize("kind", ["report", "matrix", "csv", "emb1"])
def test_non_utf8_document_or_embeddings_names_file_and_line(tmp_path, capsys, kind):
    # a saved JSON document and an embedding file are decoded by the rule of
    # the streamed inputs; in an EMB1 file the line counts id lines
    path = tmp_path / f"input.{kind}"
    if kind == "report":
        records = _write_jsonl(tmp_path / "g.jsonl", _gen_rows())
        assert main(["eval", "gen", "--records", records, "--target-kind", "molecule", "--out", str(path)]) == 0
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        argv = ["eval", "gen", "--repeat-merge", str(path), str(path)]
    elif kind == "matrix":
        assert main(["tokenmap", "build", "--pairs", _pairs_file(tmp_path), "--out", str(path)]) == 0
        argv = ["tokenmap", "build", "--matrix", str(path)]
    else:
        if kind == "csv":
            path.write_bytes(b"a,1.0,0.0\r\nb,0.0,1.0\rc,1.0,1.0\n")
        else:
            write_embeddings(path, EmbeddingMatrix(("a", "b", "c"), ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))))
        targets = tmp_path / "t.csv"
        targets.write_text("a,1.0,0.0\n", encoding="utf-8")
        gold = _write_jsonl(tmp_path / "gold.jsonl", [{"query": "a", "target": "a"}])
        argv = ["eval", "retrieval", "--queries", str(path), "--targets", str(targets), "--gold", gold]
    data = path.read_bytes()
    start = 12 + 3 * 2 * 4 if kind == "emb1" else 0  # the id block of an EMB1 file
    lines = data[start:].splitlines(keepends=True)
    lines[2] = b"\xff" + lines[2]
    path.write_bytes(data[:start] + b"".join(lines))
    assert main(argv) == 2
    assert capsys.readouterr().err == f"data error: {path}: line 3: not valid UTF-8 (invalid start byte 0xff)\n"


@pytest.mark.parametrize("kind, named", [("gen", "no records"), ("gold", "no gold pairs"), ("results", "no results"),
                                         ("property", "no property rows"), ("pairs", "no pairs"),
                                         ("profile", "no records")])
def test_empty_record_file_is_data_error_naming_it(tmp_path, capsys, kind, named):
    path = tmp_path / "empty.jsonl"
    path.write_bytes(b"")
    assert main(_text_input(tmp_path, kind, path)[0]) == 2
    assert capsys.readouterr().err == f"data error: {named} in {path}\n"


def _ring_label(number):
    return str(number) if number < 10 else f"%{number}"


# a valid 30 x 30 carbon grid: each grid row is a chain, bonded to the next
# row by ring bonds; its canonical form would need more than 99 open ring
# bonds, so the writer refuses it and its scaffold (the whole grid)
GRID = ".".join(
    "".join("C" + (_ring_label(j) if i else "") + (_ring_label(j) if i < 29 else "") for j in range(1, 31))
    for i in range(30)
)


def test_parse_reports_a_writer_refusal_on_its_line(capsys):
    assert main(["parse", GRID, "CCO"]) == 0
    data = json.loads(capsys.readouterr().out)
    grid, ethanol = data["molecules"]
    assert grid["parsed"] is True and grid["valid"] is True
    assert "canonical" not in grid
    assert grid["error"] == "more than 99 open ring bonds"
    assert (grid["heavy_atoms"], grid["rings"]) == (900, 841)
    assert ethanol["canonical"] == "CCO"
    assert data["counts"] == {"given": 2, "valid": 2}


def test_profile_leaves_a_refused_scaffold_out_of_the_counts(tmp_path, capsys):
    rows = [{"id": "grid", "smiles": GRID}, {"id": "toluene", "smiles": "Cc1ccccc1"}]
    rec = _write_jsonl(tmp_path / "d.jsonl", rows)
    assert main(["profile", "--records", rec]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"] == {"records": 2, "profiled": 2, "excluded": 0}
    assert data["scaffolds"] == [{"scaffold": "c1ccccc1", "count": 1}]
    assert data["descriptors"]["heavy_atoms"]["max"] == 900


def test_profile_cli(tmp_path, capsys):
    rows = [{"id": str(i), "smiles": "CCO"} for i in range(3)]
    rec = _write_jsonl(tmp_path / "d.jsonl", rows)
    assert main(["profile", "--records", rec]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["counts"]["profiled"] == 3


def test_long_chain_convert_and_profile(tmp_path, capsys):
    chain = "C" * 1500
    assert main(["convert", "--from", "smiles", "--to", "selfies", chain]) == 0
    assert capsys.readouterr().out == "[C]" * 1500 + "\n"
    rec = _write_jsonl(tmp_path / "d.jsonl", [{"id": "0", "smiles": chain}])
    assert main(["profile", "--records", rec]) == 0
    assert json.loads(capsys.readouterr().out)["counts"]["profiled"] == 1


def test_markdown_and_csv_output(tmp_path, capsys):
    rec = _write_jsonl(tmp_path / "g.jsonl", _gen_rows(2))
    assert main(["eval", "gen", "--records", rec, "--target-kind", "molecule", "--out", "md"]) == 0
    md = capsys.readouterr().out
    assert md.startswith("# eval-gen-molecule")
    assert main(["eval", "gen", "--records", rec, "--target-kind", "molecule", "--out", "csv"]) == 0
    csv_text = capsys.readouterr().out
    assert csv_text.splitlines()[0] == "key,value"
    assert "metrics.validity,1.0" in csv_text


def test_retrieval_cli(tmp_path, capsys):
    from moleval.harness.records import write_embeddings
    from moleval.predmetrics import EmbeddingMatrix

    matrix = EmbeddingMatrix(("a", "b"), ((1.0, 0.0), (0.0, 1.0)))
    qp = tmp_path / "q.emb"
    tp = tmp_path / "t.emb"
    write_embeddings(qp, matrix)
    write_embeddings(tp, matrix)
    gold = _write_jsonl(tmp_path / "gold.jsonl", [{"query": "a", "target": "a"}, {"query": "b", "target": "b"}])
    assert main(["eval", "retrieval", "--queries", str(qp), "--targets", str(tp), "--gold", gold]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["metrics"]["mrr"] == 1.0
    assert data["metrics"]["r@10"] == 1.0


def test_retrieval_non_finite_is_data_error(tmp_path, capsys):
    tp = tmp_path / "t.csv"
    tp.write_text("a,1.0,0.0\nb,nan,1.0\n")
    gold = _write_jsonl(tmp_path / "gold.jsonl", [{"query": "a", "target": "a"}])
    assert main(["eval", "retrieval", "--queries", str(tp), "--targets", str(tp), "--gold", gold]) == 2
    assert "non-finite value in row 'b'" in capsys.readouterr().err


def test_property_cli(tmp_path, capsys):
    rows = [
        {"task": "a", "label": 1, "score": 0.9},
        {"task": "a", "label": 0, "score": 0.1},
    ]
    rec = _write_jsonl(tmp_path / "p.jsonl", rows)
    assert main(["eval", "property", "--records", rec]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["metrics"]["roc-auc"] == 1.0


def test_property_squared_error_beyond_float_range_renders_null(tmp_path, capsys):
    # the mean square passes the float range, its root does not
    rec = _write_jsonl(tmp_path / "p.jsonl", [{"task": "a", "pred": 1e200, "truth": -1e200}])
    assert main(["eval", "property", "--records", rec]) == 0
    assert json.loads(capsys.readouterr().out)["metrics"] == {"mae": 2e200, "mse": None, "rmse": 2e200}


@pytest.mark.parametrize("tasks", [["t", "t"], ["t", "u"]], ids=["one-task", "two-tasks"])
def test_property_mean_of_errors_past_float_range(tmp_path, capsys, tasks):
    # each absolute error is finite and so is their mean, though their sum
    # (within a task, or of the task means) is not
    rows = [{"task": task, "pred": 1e308, "truth": 0} for task in tasks]
    rec = _write_jsonl(tmp_path / "p.jsonl", rows)
    assert main(["eval", "property", "--records", rec]) == 0
    assert json.loads(capsys.readouterr().out)["metrics"] == {"mae": 1e308, "mse": None, "rmse": 1e308}


def test_repeat_merge_mean_past_float_range(tmp_path, capsys):
    report = tmp_path / "r.json"
    report.write_text(json.dumps({"task": "eval-property", "metrics": {"mae": 1e308, "mse": 2.0}}))
    assert main(["eval", "property", "--repeat-merge", str(report), str(report)]) == 0
    assert json.loads(capsys.readouterr().out)["metrics"] == {
        "mae": {"mean": 1e308, "std": 0.0},
        "mse": {"mean": 2.0, "std": 0.0},
    }


def test_internal_error_exit_code(monkeypatch, tmp_path):
    rec = _write_jsonl(tmp_path / "g.jsonl", _gen_rows(2))
    import moleval.harness.cli as cli_mod

    def boom(*args, **kwargs):
        raise RuntimeError("synthetic failure")

    monkeypatch.setattr(cli_mod, "eval_generation", boom)
    assert main(["eval", "gen", "--records", rec, "--target-kind", "molecule"]) == 3


def test_convert_deeply_nested_selfies(capsys):
    stream = "[C]" + "[Branch3][P][P][P]" * 1100 + "[C]"
    assert main(["convert", "--from", "selfies", "--to", "smiles", stream]) == 0
    assert capsys.readouterr().out.strip() == "CC"


def _config(tmp_path, text):
    path = tmp_path / "moleval.cfg"
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    "command,key,flag,value",
    [
        ("tokenmap", "scheme", "--scheme", "words"),
        ("tokenmap", "count_mode", "--count-mode", "bogus"),
        ("gen", "target_kind", "--target-kind", "protein"),
        ("gen", "seed", "--seed", "x"),
    ],
)
def test_bad_config_value_exits_as_its_flag(tmp_path, capsys, command, key, flag, value):
    if command == "tokenmap":
        argv = ["tokenmap", "build", "--pairs", _pairs_file(tmp_path)]
    else:
        argv = ["eval", "gen", "--records", _write_jsonl(tmp_path / "g.jsonl", _gen_rows(2))]
    assert main(argv + [flag, value]) == 1
    assert main(argv + ["--config", _config(tmp_path, f"{key} = {value}\n")]) == 1
    assert "usage error" in capsys.readouterr().err


def test_config_key_is_the_flag_name(tmp_path, capsys):
    pairs = _pairs_file(tmp_path)
    assert main(["tokenmap", "select", "--pairs", pairs, "--config", _config(tmp_path, "T = 0.5\n")]) == 0
    assert json.loads(capsys.readouterr().out)["threshold_T"] == 0.5


@pytest.mark.parametrize(
    "config,flags",
    [
        ("T = 2.5\n", ["--T", "0.5"]),
        ("scheme = char\n", ["--scheme", "whitespace", "--T", "0.5"]),
    ],
)
def test_flag_beats_config(tmp_path, capsys, config, flags):
    argv = ["tokenmap", "select", "--pairs", _pairs_file(tmp_path)] + flags
    assert main(argv) == 0
    alone = capsys.readouterr().out
    assert main(argv + ["--config", _config(tmp_path, config)]) == 0
    assert capsys.readouterr().out == alone


def test_config_keys_the_subcommand_lacks_are_ignored(tmp_path, capsys):
    assert main(["parse", "CCO"]) == 0
    alone = capsys.readouterr().out
    # a value with a space under a key parse lacks is not read as a SMILES
    config = _config(tmp_path, "grid = 0:1:0.5\ntop-k = 3\nrepeat-merge = a.json b.json\n")
    assert main(["parse", "CCO", "--config", config]) == 0
    assert capsys.readouterr().out == alone


def test_abbreviated_flag_is_usage_error(tmp_path, capsys):
    rec = _write_jsonl(tmp_path / "g.jsonl", _gen_rows(2))
    assert main(["profile", "--rec", rec]) == 1
    assert "usage error" in capsys.readouterr().err


SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize(
    "argv,code",
    [
        (["parse", "CCO"], 0),
        (["parse", "CCO", "--config", "bad.cfg"], 1),
        (["profile", "--records", "missing.jsonl"], 2),
        (["eval", "gen", "--help"], 0),
    ],
)
def test_module_entry_exit_codes(tmp_path, argv, code):
    (tmp_path / "bad.cfg").write_text("seed = x\n", encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-m", "moleval.harness.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, timeout=60,
    )
    assert done.returncode == code, done.stderr


def test_main_builds_no_parser(tmp_path, capsys, monkeypatch):
    import argparse

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    pairs = _pairs_file(tmp_path)
    rec = _write_jsonl(tmp_path / "g.jsonl", _gen_rows(2))
    assert main(["parse", "CCO"]) == 0
    assert main(["tokenmap", "sweep", "--pairs", pairs]) == 0
    assert main(["eval", "gen", "--records", rec, "--target-kind", "text"]) == 0
    assert main(["eval", "gen", "--records", rec]) == 1
    assert main(["eval", "gen", "--help"]) == 0
    assert built == []
    # the counter sees a build: one parser per command and subcommand
    build_parser()
    assert len(built) == 14


def _alone(monkeypatch, capsys, argv):
    """Exit code, stdout and stderr of argv parsed by a parser no call has used."""
    with monkeypatch.context() as patch:
        patch.setattr(cli_mod, "PARSER", build_parser())
        code = main(argv)
    return code, capsys.readouterr()


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    pairs = _pairs_file(tmp_path)
    rec = _write_jsonl(tmp_path / "g.jsonl", _gen_rows(4))
    config = _config(tmp_path, "grid = 0:1:0.5\nT = 0.5\nseed = 7\n")
    calls = [
        ["tokenmap", "sweep", "--pairs", pairs, "--config", config],
        ["eval", "gen", "--records", rec, "--target-kind", "molecule", "--config", config],
        ["tokenmap", "select", "--pairs", pairs, "--config", config],
        ["tokenmap", "sweep", "--pairs", pairs, "--grid", "0:1"],
        ["eval", "gen", "--records", rec, "--target-kind", "molecule", "--seed", "x"],
        ["tokenmap", "select", "--pairs", pairs],
        ["tokenmap", "sweep", "--pairs", pairs],
        ["eval", "gen", "--records", rec, "--target-kind", "molecule"],
    ]
    alone = [_alone(monkeypatch, capsys, argv) for argv in calls]
    for argv, expected in zip(calls, alone):
        assert (main(argv), capsys.readouterr()) == expected, argv
    assert [code for code, _ in alone] == [0, 0, 0, 1, 1, 1, 0, 0]
    # the config's grid, T and seed stay with the calls that named the config
    assert json.loads(alone[1][1].out)["provenance"]["seed"] == 7
    assert "seed" not in json.loads(alone[7][1].out)["provenance"]
    assert "needs --T" in alone[5][1].err
    assert len(json.loads(alone[0][1].out)["rows"]) == 3
    assert [r["T"] for r in json.loads(alone[6][1].out)["rows"]] == [k * 0.25 for k in range(21)]


@pytest.mark.parametrize("argv", [[], ["eval", "gen"], ["tokenmap", "sweep"]])
def test_help_is_a_returned_exit_code(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + ["--help"])
    assert exc.value.code == 0
    expected = capsys.readouterr()
    assert expected.out.startswith("usage: moleval")
    assert main(argv + ["--help"]) == 0
    assert capsys.readouterr() == expected
