import builtins
import hashlib
import json
import math
import pathlib
import random
import struct
import weakref
from collections import Counter

import numpy as np
import pytest

import _oracles as oracle
from moleval.harness.evaluate import (
    Report,
    eval_generation,
    eval_property,
    eval_retrieval,
    merge_reports,
)
from moleval import selfies
from moleval.harness import profile as profile_module
from moleval.harness.cli import main
from moleval.molgraph import MolGraph, parse_smiles
from moleval.harness.profile import profile_dataset
from moleval.harness.records import (
    EmptyFile,
    FormatError,
    SchemaError,
    read_gen_records,
    read_embeddings,
    read_pairs,
    read_property_rows,
    write_embeddings,
)
from moleval.harness.reports import sha256_file, to_csv, to_json, to_md
from moleval.predmetrics import (
    DimMismatch,
    EmbeddingMatrix,
    MissingId,
    ScoredLabels,
    pr_auc,
    roc_auc,
)
from moleval.textmetrics import bleu, tokenize


def _write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return str(path)


def _gen_row(i, pred, refs, out="smiles"):
    return {
        "id": str(i),
        "input_modality": "iupac",
        "output_modality": out,
        "prediction": pred,
        "references": refs,
    }


def _count_opens(monkeypatch) -> Counter:
    """Counts the open and Path.open calls of each path until
    monkeypatch.undo()."""
    opened = Counter()
    path_open, builtin_open = pathlib.Path.open, builtins.open

    def count_path_open(self, *args, **kwargs):
        opened[str(self)] += 1
        return path_open(self, *args, **kwargs)

    def count_open(file, *args, **kwargs):
        opened[str(file)] += 1
        return builtin_open(file, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", count_path_open)
    monkeypatch.setattr(builtins, "open", count_open)
    return opened


def _write_mixed_endings(path, rows, seed=5):
    """JSON lines ending in \n, \r\n or \r at random, with non-ASCII text,
    over several of the reader's 8 KiB chunks."""
    rng = random.Random(seed)
    text = "".join(json.dumps(row, ensure_ascii=False) + rng.choice(["\n", "\r\n", "\r"]) for row in rows)
    path.write_bytes(text.encode("utf-8"))
    assert len(text) > 3 * 8192
    return str(path)


class TestGenRecords:
    def test_valid_file(self, tmp_path):
        path = _write_jsonl(tmp_path / "g.jsonl", [_gen_row(1, "CCO", ["CCO"])])
        records = read_gen_records(path)
        assert records[0].id == "1"
        assert records[0].references == ("CCO",)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text('{"id": "1", "input_modality": "iupac", "output_modality": "smiles", "prediction": "C", "references": ["C"]}\n{broken\n')
        with pytest.raises(SchemaError) as err:
            read_gen_records(str(path))
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_missing_field(self, tmp_path):
        row = _gen_row(1, "C", ["C"])
        del row["prediction"]
        path = _write_jsonl(tmp_path / "g.jsonl", [row])
        with pytest.raises(SchemaError, match="line 1.*prediction"):
            read_gen_records(path)

    def test_duplicate_id(self, tmp_path):
        path = _write_jsonl(
            tmp_path / "g.jsonl", [_gen_row(1, "C", ["C"]), _gen_row(1, "N", ["N"])]
        )
        with pytest.raises(SchemaError, match="line 2"):
            read_gen_records(path)

    def test_blank_line(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text(json.dumps(_gen_row(1, "C", ["C"])) + "\n\n" + json.dumps(_gen_row(2, "C", ["C"])) + "\n")
        with pytest.raises(SchemaError, match="line 2"):
            read_gen_records(str(path))

    def test_unknown_modality(self, tmp_path):
        row = _gen_row(1, "C", ["C"])
        row["output_modality"] = "video"
        path = _write_jsonl(tmp_path / "g.jsonl", [row])
        with pytest.raises(SchemaError, match="video"):
            read_gen_records(path)

    def test_empty_references(self, tmp_path):
        path = _write_jsonl(tmp_path / "g.jsonl", [_gen_row(1, "C", [])])
        with pytest.raises(SchemaError):
            read_gen_records(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "g.jsonl"
        path.write_text("")
        with pytest.raises(EmptyFile):
            read_gen_records(str(path))


class TestEvalGeneration:
    def test_identical_predictions(self, tmp_path):
        rows = [_gen_row(i, s, [s]) for i, s in enumerate(["CCO", "c1ccccc1", "CC(=O)O"])]
        path = _write_jsonl(tmp_path / "g.jsonl", rows)
        report = eval_generation(path, "molecule")
        assert report.metrics["exact-match"] == 1.0
        assert report.metrics["exact-match-raw"] == 1.0
        assert report.metrics["validity"] == 1.0
        assert report.metrics["levenshtein"] == 0.0
        assert report.metrics["rdk-fts"] == 1.0
        assert report.metrics["morgan-fts"] == 1.0
        assert report.metrics["bleu-2"] == 1.0
        assert report.counts == {"evaluated": 3, "skipped": 0}

    def test_canonical_equality(self, tmp_path):
        path = _write_jsonl(tmp_path / "g.jsonl", [_gen_row(1, "CCO", ["OCC"])])
        report = eval_generation(path, "molecule")
        assert report.metrics["exact-match"] == 1.0
        assert report.metrics["exact-match-raw"] == 0.0

    def test_unparseable_prediction(self, tmp_path):
        path = _write_jsonl(tmp_path / "g.jsonl", [_gen_row(1, "C1CC", ["CCC"])])
        report = eval_generation(path, "molecule")
        assert report.metrics["validity"] == 0.0
        assert report.metrics["rdk-fts"] == 0.0
        assert report.metrics["morgan-fts"] == 0.0
        assert report.details["unparseable_predictions"] == 1
        assert report.counts["evaluated"] == 1  # never dropped

    def test_bleu_matches_library(self, tmp_path):
        rows = [
            _gen_row(1, "CCO", ["CCN"]),
            _gen_row(2, "c1ccccc1C", ["c1ccccc1N"]),
            _gen_row(3, "CC(C)C", ["CC(C)C"]),
        ]
        path = _write_jsonl(tmp_path / "g.jsonl", rows)
        report = eval_generation(path, "molecule")
        cands = [tokenize(r["prediction"], "smiles_regex") for r in rows]
        refs = [tokenize(r["references"][0], "smiles_regex") for r in rows]
        assert report.metrics["bleu-2"] == bleu(cands, refs, 2)
        assert report.metrics["bleu-4"] == bleu(cands, refs, 4)
        assert "sentence_level" in report.details

    def test_text_bundle(self, tmp_path):
        rows = [
            _gen_row(1, "the cat sat on the mat", ["the cat sat on a mat"], out="caption"),
            _gen_row(2, "molecules are small", ["molecules can be small"], out="caption"),
        ]
        path = _write_jsonl(tmp_path / "g.jsonl", rows)
        report = eval_generation(path, "text")
        for name in ("bleu-2", "bleu-4", "rouge-1", "rouge-2", "rouge-l", "meteor"):
            assert name in report.metrics
            assert 0.0 <= report.metrics[name] <= 1.0
        assert "exact-match" not in report.metrics

    @pytest.mark.parametrize("target_kind", ["text", "molecule"])
    def test_bleu_and_rouge_match_oracles(self, tmp_path, target_kind):
        # names each report key: a swapped corpus/sentence or order key fails
        rng = random.Random(11)
        if target_kind == "text":
            words = "the acid is a ring of".split()
            scheme = "whitespace"
            make = lambda k: " ".join(rng.choice(words) for _ in range(k))
        else:
            words = ["C", "O", "N", "Cl", "Br", "(C)", "=O", "c1ccccc1", "[NH3+]"]
            scheme = "smiles_regex"
            make = lambda k: "".join(rng.choice(words) for _ in range(k))
        rows = [
            _gen_row(i, make(rng.randint(0, 12)), [make(rng.randint(1, 12))])
            for i in range(40)
        ]
        report = eval_generation(_write_jsonl(tmp_path / "g.jsonl", rows), target_kind)
        cands = [tokenize(r["prediction"], scheme).tokens for r in rows]
        refs = [tokenize(r["references"][0], scheme).tokens for r in rows]
        sentence = report.details["sentence_level"]
        for max_n in (2, 4):
            assert report.metrics[f"bleu-{max_n}"] == pytest.approx(
                oracle.bleu_reference(cands, refs, max_n), abs=1e-9
            )
            assert sentence[f"bleu-{max_n}"] == pytest.approx(
                oracle.bleu_sentence_reference(cands, refs, max_n), abs=1e-9
            )
        if target_kind == "text":
            for n in (1, 2):
                want = sum(oracle.rouge_n_reference(c, r, n) for c, r in zip(cands, refs))
                assert report.metrics[f"rouge-{n}"] == pytest.approx(
                    want / len(rows), abs=1e-9
                )
            want = sum(oracle.rouge_l_reference(c, r) for c, r in zip(cands, refs))
            assert report.metrics["rouge-l"] == pytest.approx(want / len(rows), abs=1e-9)
            want = sum(oracle.meteor_reference(c, r) for c, r in zip(cands, refs))
            assert report.metrics["meteor"] == pytest.approx(want / len(rows), abs=1e-9)
        else:
            distances = [
                oracle.levenshtein_full_matrix(r["prediction"], r["references"][0])
                for r in rows
            ]
            assert report.metrics["levenshtein"] == sum(distances) / len(rows)

    @pytest.mark.parametrize("target_kind, per_record", [("text", 2), ("molecule", 2)])
    def test_one_ngram_count_per_pair(self, tmp_path, monkeypatch, target_kind, per_record):
        # one Counter per side holds orders 1-4 for all four BLEU values;
        # ROUGE-1/2 on text read the same counts
        import moleval.textmetrics as textmetrics

        built = []

        class CountingCounter(Counter):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(textmetrics, "Counter", CountingCounter)
        if target_kind == "text":
            pairs = [("the cat sat on the mat", "a cat sat"), ("acid", "an acid")]
        else:
            pairs = [("CCO", "OCC"), ("C1CC", "c1ccccc1"), ("CC(=O)O", "CC(=O)O")]
        rows = [_gen_row(i, pred, [ref]) for i, (pred, ref) in enumerate(pairs)]
        eval_generation(_write_jsonl(tmp_path / "g.jsonl", rows), target_kind)
        assert len(built) == per_record * len(rows)

    def test_threads_do_not_change_result(self, tmp_path):
        # --threads is accepted for compatibility; the report must not depend on it
        rows = [_gen_row(i, f"{'C' * (i % 5 + 1)}O", ["CCO"]) for i in range(20)]
        path = _write_jsonl(tmp_path / "g.jsonl", rows)
        reports = []
        for threads in ("1", "4"):
            out = tmp_path / f"r{threads}.json"
            argv = ["eval", "gen", "--records", path, "--target-kind", "molecule",
                    "--threads", threads, "--out", str(out)]
            assert main(argv) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_each_smiles_parsed_once(self, tmp_path, monkeypatch):
        import moleval.harness.evaluate as evaluate
        import moleval.textmetrics as textmetrics

        parsed = []

        def counting_parse(text):
            parsed.append(text)
            return parse_smiles(text)

        for module in (evaluate, textmetrics):
            monkeypatch.setattr(module, "parse_smiles", counting_parse)
        rows = [_gen_row(1, "CCO", ["OCC"]), _gen_row(2, "C1CC", ["c1ccccc1"])]
        report = eval_generation(_write_jsonl(tmp_path / "g.jsonl", rows), "molecule")
        assert sorted(parsed) == sorted(["CCO", "OCC", "C1CC", "c1ccccc1"])
        assert report.metrics["exact-match"] == 0.5

    def test_one_parse_check_and_fingerprint_per_distinct_side(self, tmp_path, monkeypatch):
        import moleval.fingerprint as fingerprint
        import moleval.harness.evaluate as evaluate
        import moleval.molgraph.props as props
        import moleval.textmetrics as textmetrics
        from moleval.molgraph import MolGraph, SmilesError, canonical_smiles

        rng = random.Random(1313)
        spellings = [("OCC", "CCO"), ("c1ccc(O)cc1", "Oc1ccccc1"), ("OC(C)=O", "CC(=O)O"),
                     ("CC(C)N", "NC(C)C"), ("O1CCCC1", "C1CCOC1")]
        pairs = []
        for _ in range(8):
            ref = canonical_smiles(oracle.random_molecule(rng))
            pairs += [(ref, ref), (ref.replace("C", "N", 1), ref), (ref + "(", ref)]
            pairs.append(rng.choice(spellings))
        # bracket hydrogens, a stereo mark, and a pred == ref graph that
        # parses but has no Kekulé form
        pairs += [("[OH]CC", "OCC"), ("C[C@H](N)O", "CC(N)O"), ("[NH4+]", "[NH4+]"),
                  ("c1cccc1", "c1cccc1")]
        rng.shuffle(pairs)
        want = [oracle.molecule_record_reference(pred, ref) for pred, ref in pairs]

        def parses(text):
            try:
                return parse_smiles(text)
            except SmilesError:
                return None

        sides = [(pred,) if pred == ref else (pred, ref) for pred, ref in pairs]
        graphs = [[parses(text) for text in side] for side in sides]
        # an exact match is fingerprinted once, like a prediction equal to
        # its reference, bracket hydrogens or not
        fingerprinted = sum(
            1 if w["exact-match"] else len(g) for g, w in zip(graphs, want) if None not in g
        )
        assert fingerprinted < sum(len(g) for g in graphs if None not in g)
        canonicalized = sum(
            len(g) for g in graphs if None not in g and all(map(oracle.validity_reference, g))
        )
        # the validity metric checks each parsed prediction; exact match
        # also checks a distinct parsed reference once the prediction passes
        checked = sum(
            1 + (len(g) == 2 and g[1] is not None and oracle.validity_reference(g[0]))
            for g in graphs
            if g[0] is not None
        )
        assert sum(pred == ref for pred, ref in pairs) >= 8

        calls = Counter()
        per_graph = {"codes": Counter(), "bare_h": Counter(), "valid": Counter()}
        alive = []  # keeps counted graphs alive so no id is reused

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for module in (evaluate, textmetrics):
            monkeypatch.setattr(module, "parse_smiles", counting("parse_smiles", parse_smiles))
        monkeypatch.setattr(evaluate, "path_fp", counting("path_fp", fingerprint.path_fp))
        monkeypatch.setattr(evaluate, "morgan_fp", counting("morgan_fp", fingerprint.morgan_fp))
        monkeypatch.setattr(
            textmetrics, "canonical_smiles", counting("canonical_smiles", canonical_smiles)
        )
        initial_codes = fingerprint._initial_codes
        bare_h_rule = MolGraph._bare_h_rule

        def counted_codes(graph):
            alive.append(graph)
            per_graph["codes"][id(graph)] += 1
            return initial_codes(graph)

        def counted_bare_h(graph):
            alive.append(graph)
            per_graph["bare_h"][id(graph)] += 1
            return bare_h_rule(graph)

        valence_check = props._valence_check

        def counted_valid(graph):
            alive.append(graph)
            per_graph["valid"][id(graph)] += 1
            return valence_check(graph)

        monkeypatch.setattr(fingerprint, "_initial_codes", counted_codes)
        monkeypatch.setattr(props, "_valence_check", counted_valid)
        monkeypatch.setattr(MolGraph, "_bare_h_rule", counted_bare_h)
        rows = [_gen_row(i, pred, [ref]) for i, (pred, ref) in enumerate(pairs)]
        report = eval_generation(_write_jsonl(tmp_path / "g.jsonl", rows), "molecule")

        for name in want[0]:
            assert report.metrics[name] == pytest.approx(
                sum(w[name] for w in want) / len(want), abs=1e-12
            ), name
        assert calls == {
            "parse_smiles": sum(map(len, sides)),
            "path_fp": fingerprinted,
            "morgan_fp": fingerprinted,
            "canonical_smiles": canonicalized,
        }
        assert len(per_graph["codes"]) == fingerprinted
        assert set(per_graph["codes"].values()) == {1}
        assert per_graph["bare_h"] and set(per_graph["bare_h"].values()) == {1}
        assert len(per_graph["valid"]) == checked
        assert set(per_graph["valid"].values()) == {1}

    def test_shared_fingerprints_match_the_oracle(self, tmp_path, monkeypatch):
        # an exact match shares its reference's fingerprints; every record
        # must still score as the oracle scores it, each side fingerprinted
        # on its own
        import moleval.harness.evaluate as evaluate
        from moleval.molgraph.canon import _write

        rng = random.Random(2020)

        def rewritten(graph):
            # the graph written from random atom ranks, components shuffled
            parts = []
            for links, tokens, _ in oracle.canonical_inputs_reference(graph):
                ranks = list(range(len(tokens)))
                rng.shuffle(ranks)
                parts.append(_write(links, tokens, ranks))
            rng.shuffle(parts)
            return ".".join(parts)

        pairs = []
        for _ in range(40):
            graph = oracle.random_molecule(rng, max_atoms=rng.choice((8, 16)))
            ref = oracle.canonical_smiles_reference(graph)
            pairs += [(rewritten(graph), ref), (ref, rewritten(graph))]
        pairs += [
            # Kekulé against aromatic spellings, and aromatic rewrites
            ("C1=CC=CC=C1", "c1ccccc1"), ("Cn1cnc2c1c(=O)n(C)c(=O)n2C", "CN1C=NC2=C1C(=O)N(C)C(=O)N2C"),
            ("c1ccc(O)cc1", "Oc1ccccc1"), ("c1ccccc1:c1ccccc1", "c1ccccc1c1ccccc1"),
            ("c1ccccc1-c1ccccc1", "c1ccccc1c1ccccc1"),
            # salts
            ("[Na+].[Cl-]", "[Cl-].[Na+]"), ("CC(=O)[O-].[Na+]", "[Na+].[O-]C(C)=O"),
            ("[NH4+].[Cl-]", "[Cl-].[NH4+]"),
            # stereo marks
            ("F/C=C/F", "F/C=C\\F"), ("C[C@@](F)(Cl)Br", "C[C@](F)(Cl)Br"), ("C[C@H](N)O", "CC(N)O"),
            # bracket hydrogens
            ("[OH]CC", "OCC"), ("c1cc[nH]c1", "[nH]1cccc1"), ("c1cc[nH]c1", "C1=CNC=C1"),
            ("C[NH3+]", "[NH3+]C"), ("[NH3+]CC(=O)[O-]", "[O-]C(=O)C[NH3+]"), ("[CH3]O", "CO"),
        ]

        want = [oracle.molecule_record_reference(pred, ref) for pred, ref in pairs]
        shared = [pred != ref and w["exact-match"] == 1.0 for (pred, ref), w in zip(pairs, want)]
        bracket_h = [
            s and any(atom.explicit_h for text in pair for atom in parse_smiles(text).atoms)
            for pair, s in zip(pairs, shared)
        ]
        assert sum(shared) >= 60 and sum(bracket_h) >= 6

        fingerprinted = []
        path_fp = evaluate.path_fp

        def counting_path_fp(graph):
            fingerprinted.append(graph)
            return path_fp(graph)

        monkeypatch.setattr(evaluate, "path_fp", counting_path_fp)
        names = {"validity": "valid", "exact-match": "exact", "exact-match-raw": "exact_raw",
                 "levenshtein": "lev", "rdk-fts": "rdk", "morgan-fts": "morgan"}
        for (pred, ref), w, share in zip(pairs, want, shared):
            del fingerprinted[:]
            got = evaluate._molecule_record(pred, ref)
            for name, key in names.items():
                assert got[key] == pytest.approx(w[name], abs=1e-12), (pred, ref, name)
            assert len(fingerprinted) == (1 if share or pred == ref else 2), (pred, ref)
        rows = [_gen_row(i, pred, [ref]) for i, (pred, ref) in enumerate(pairs)]
        report = eval_generation(_write_jsonl(tmp_path / "g.jsonl", rows), "molecule")
        for name in names:
            assert report.metrics[name] == pytest.approx(
                sum(w[name] for w in want) / len(want), abs=1e-12
            ), name

    @pytest.mark.parametrize("target_kind", ["molecule", "text"])
    def test_record_file_read_once(self, tmp_path, monkeypatch, target_kind):
        # provenance hashes the bytes the reader parsed, whatever the line ends
        rows = [_gen_row(i, f"CC{'O' * (i % 5)}", ["OCC"], "caption") for i in range(400)]
        rows[7]["references"] = ["éthanol — ç"]
        path = _write_mixed_endings(tmp_path / "g.jsonl", rows)
        opened = _count_opens(monkeypatch)
        report = eval_generation(path, target_kind)
        monkeypatch.undo()
        assert opened[path] == 1
        assert report.provenance["inputs"] == {path: sha256_file(path)}
        assert report.counts["evaluated"] == 400

    def test_deterministic_rendering(self, tmp_path):
        rows = [_gen_row(i, "CCO", ["OCC"]) for i in range(5)]
        path = _write_jsonl(tmp_path / "g.jsonl", rows)
        first = to_json(eval_generation(path, "molecule").payload())
        second = to_json(eval_generation(path, "molecule").payload())
        assert first == second

    def test_unknown_target_kind(self, tmp_path):
        path = _write_jsonl(tmp_path / "g.jsonl", [_gen_row(1, "C", ["C"])])
        with pytest.raises(ValueError):
            eval_generation(path, "protein")

    @pytest.mark.parametrize("target_kind", ["text", "molecule"])
    def test_full_report_is_pinned(self, tmp_path, monkeypatch, target_kind):
        _gen_set(tmp_path, target_kind)
        monkeypatch.chdir(tmp_path)
        assert eval_generation("g.jsonl", target_kind).payload() == _PINNED_GEN[target_kind]


_GEN_WORDS = ("the", "molecule", "is", "a", "an", "acid", "acids", "ring", "rings", "coating",
              "coated", "group", "groups", "with", "of")
_GEN_SMILES = ("CCO", "OCC", "c1ccccc1", "C1=CC=CC=C1", "CC(=O)O", "c1ccncc1", "C1CCCCC1N",
               "CC(C)N", "C1CC", "C(C)(C)(C)(C)C", "c1cccc1", "CCCCO", "O=C(O)c1ccccc1O", "")


def _gen_set(directory, target_kind):
    """Writes g.jsonl, 30 seeded records: for text, captions with shared
    stems, some predictions equal to their reference, some perturbed, one
    empty; for molecules, SMILES with equal, re-written, unparseable
    (`C1CC`, empty) and invalid (`C(C)(C)(C)(C)C`, `c1cccc1`) sides."""
    rng = random.Random(1818)
    rows = []
    for i in range(30):
        if target_kind == "text":
            ref = rng.choices(_GEN_WORDS, k=rng.randint(1, 16))
            roll = rng.random()
            if roll < 0.2:
                pred = list(ref)
            elif roll < 0.6:
                pred = [w if rng.random() < 0.7 else rng.choice(_GEN_WORDS) for w in ref]
            else:
                pred = rng.choices(_GEN_WORDS, k=rng.randint(0 if i == 7 else 1, 16))
            if i == 7:
                pred = []
            rows.append(_gen_row(i, " ".join(pred), [" ".join(ref)], out="caption"))
        else:
            ref = rng.choice(_GEN_SMILES[:-1])
            pred = ref if rng.random() < 0.25 else rng.choice(_GEN_SMILES)
            rows.append(_gen_row(i, pred, [ref]))
    _write_jsonl(directory / "g.jsonl", rows)


def test_report_rejects_unknown_metric():
    with pytest.raises(ValueError, match="vocabulary"):
        Report("t", {"made-up": 1.0}, {}, {})


class TestEmbeddings:
    def test_binary_round_trip(self, tmp_path):
        matrix = EmbeddingMatrix(
            ("a", "b"), ((1.0, 0.5, -0.25), (0.125, 2.0, 3.5))
        )
        path = tmp_path / "e.emb"
        write_embeddings(path, matrix)
        loaded, _ = read_embeddings(str(path))
        assert loaded.ids == ("a", "b")
        # values chosen exactly representable in f32
        assert loaded.vectors.tolist() == matrix.vectors.tolist()

    def test_csv_reader(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("q1,1.0,0.0\nq2,0.0,1.0\n")
        loaded, _ = read_embeddings(str(path))
        assert loaded.ids == ("q1", "q2")
        assert loaded.vectors[1].tolist() == [0.0, 1.0]

    def test_truncated_binary(self, tmp_path):
        path = tmp_path / "e.emb"
        matrix = EmbeddingMatrix(("a",), ((1.0, 2.0),))
        write_embeddings(path, matrix)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 6])
        with pytest.raises(FormatError):
            read_embeddings(str(path))

    def test_ragged_csv(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("a,1.0,2.0\nb,3.0\n")
        with pytest.raises(FormatError):
            read_embeddings(str(path))

    def test_non_numeric_csv(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("a,1.0,zap\n")
        with pytest.raises(FormatError):
            read_embeddings(str(path))

    def test_duplicate_ids(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("a,1.0\na,2.0\n")
        with pytest.raises(FormatError):
            read_embeddings(str(path))


    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_binary_names_row(self, tmp_path, bad):
        path = tmp_path / "e.emb"
        matrix = EmbeddingMatrix(("a", "b", "c"), ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0)))
        write_embeddings(path, matrix)
        data = bytearray(path.read_bytes())
        struct.pack_into("<f", data, 12 + 3 * 4, bad)  # row "b", column 1
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match="non-finite value in row 'b'"):
            read_embeddings(str(path))

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_csv_names_row(self, tmp_path, bad):
        path = tmp_path / "e.csv"
        path.write_text(f"a,1.0,2.0\nb,{bad},0.5\n")
        with pytest.raises(FormatError, match="non-finite value in row 'b'"):
            read_embeddings(str(path))

    def test_ragged_csv_is_dimension_error(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("a,1.0,2.0\nb,3.0,4.0\nc,5.0\n")
        with pytest.raises(FormatError, match="rows differ in dimension"):
            read_embeddings(str(path))

    def test_reader_widens_f32_values(self, tmp_path):
        path = tmp_path / "e.emb"
        write_embeddings(path, EmbeddingMatrix(("a",), ((0.1, -1e-3),)))
        loaded, _ = read_embeddings(str(path))
        assert loaded.vectors.dtype == np.float64 and loaded.vectors.flags.c_contiguous
        want = np.array([[0.1, -1e-3]], dtype=np.float32).astype(np.float64)
        assert loaded.vectors.tobytes() == want.tobytes()

    def test_write_rejects_values_beyond_f32(self, tmp_path):
        with pytest.raises(FloatingPointError):
            write_embeddings(tmp_path / "e.emb", EmbeddingMatrix(("a",), ((1e300,),)))

    @pytest.mark.parametrize(
        "brk", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"],
        ids=["u2028", "u2029", "nel", "vt", "ff", "fs", "gs", "rs"],
    )
    def test_ids_keep_other_line_breaks(self, tmp_path, brk):
        # an id line ends only at \n, \r\n or \r, in both formats
        ids = (f"a{brk}b", f"{brk}c", f"d{brk}")
        matrix = EmbeddingMatrix(ids, ((1.0, 0.5), (0.25, 2.0), (3.0, -4.0)))
        binary = tmp_path / "e.emb"
        write_embeddings(binary, matrix)
        loaded, digest = read_embeddings(str(binary))
        assert loaded.ids == ids and loaded.vectors.tolist() == matrix.vectors.tolist()
        assert digest == hashlib.sha256(binary.read_bytes()).hexdigest()
        csv = tmp_path / "e.csv"
        csv.write_bytes(
            f"{ids[0]},1.0,0.5\n{ids[1]},0.25,2.0\r\n{ids[2]},3.0,-4.0\r".encode("utf-8")
        )
        loaded, digest = read_embeddings(str(csv))
        assert loaded.ids == ids and loaded.vectors.tolist() == matrix.vectors.tolist()
        assert digest == hashlib.sha256(csv.read_bytes()).hexdigest()

    @pytest.mark.parametrize("brk", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_write_rejects_ids_with_line_ends(self, tmp_path, brk):
        with pytest.raises(ValueError, match="line break"):
            write_embeddings(tmp_path / "e.emb", EmbeddingMatrix((f"a{brk}b",), ((1.0,),)))
        assert not (tmp_path / "e.emb").exists()

class TestEvalRetrieval:
    def _files(self, tmp_path, queries, targets, gold):
        qp = tmp_path / "q.emb"
        tp = tmp_path / "t.emb"
        gp = tmp_path / "gold.jsonl"
        write_embeddings(qp, queries)
        write_embeddings(tp, targets)
        _write_jsonl(gp, [{"query": q, "target": t} for q, t in gold.items()])
        return str(qp), str(tp), str(gp)

    def test_identity(self, tmp_path):
        matrix = EmbeddingMatrix(
            ("x", "y", "z"),
            ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)),
        )
        qp, tp, gp = self._files(tmp_path, matrix, matrix, {"x": "x", "y": "y", "z": "z"})
        report = eval_retrieval(qp, tp, gp)
        assert report.metrics["mrr"] == 1.0
        assert report.metrics["r@1"] == 1.0

    def test_mixed_ranks(self, tmp_path):
        targets = EmbeddingMatrix(
            ("t1", "t2", "t3", "t4"),
            ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0),
             (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)),
        )
        queries = EmbeddingMatrix(
            ("q1", "q2"),
            ((1.0, 0.0, 0.0, 0.0), (0.9, 0.8, 0.7, 0.1)),
        )
        qp, tp, gp = self._files(tmp_path, queries, targets, {"q1": "t1", "q2": "t4"})
        report = eval_retrieval(qp, tp, gp)
        assert report.metrics["r@1"] == 0.5
        assert report.metrics["r@5"] == 1.0
        assert report.details["ranks"] == [1, 4]
        assert report.metrics["mrr"] == pytest.approx((1.0 + 0.25) / 2)

    def test_missing_gold_id(self, tmp_path):
        matrix = EmbeddingMatrix(("x",), ((1.0, 0.0),))
        qp, tp, gp = self._files(tmp_path, matrix, matrix, {"x": "nope"})
        with pytest.raises(MissingId):
            eval_retrieval(qp, tp, gp)

    def test_dim_mismatch(self, tmp_path):
        queries = EmbeddingMatrix(("x",), ((1.0, 0.0),))
        targets = EmbeddingMatrix(("x",), ((1.0, 0.0, 0.0),))
        qp, tp, gp = self._files(tmp_path, queries, targets, {"x": "x"})
        with pytest.raises(DimMismatch):
            eval_retrieval(qp, tp, gp)

    def test_each_embedding_file_read_once(self, tmp_path, monkeypatch):
        # provenance hashes the bytes the reader parsed
        _retrieval_set(tmp_path)
        paths = [str(tmp_path / name) for name in ("q.emb", "t.csv", "gold.jsonl")]
        opened = _count_opens(monkeypatch)
        report = eval_retrieval(*paths)
        monkeypatch.undo()
        assert [opened[p] for p in paths] == [1, 1, 1]
        assert report.provenance["inputs"] == {p: sha256_file(p) for p in paths}

    def test_full_report_is_pinned(self, tmp_path, monkeypatch):
        _retrieval_set(tmp_path)
        monkeypatch.chdir(tmp_path)
        report = to_json(eval_retrieval("q.emb", "t.csv", "gold.jsonl").payload())
        assert json.loads(report) == _PINNED_RETRIEVAL


class TestEvalProperty:
    def test_classification(self, tmp_path):
        rows = []
        task_a = {"labels": [1, 1, 0, 0], "scores": [0.9, 0.8, 0.3, 0.2]}
        task_b = {"labels": [1, 0], "scores": [0.4, 0.6]}
        for name, data in (("a", task_a), ("b", task_b)):
            for label, score in zip(data["labels"], data["scores"]):
                rows.append({"task": name, "label": label, "score": score})
        path = _write_jsonl(tmp_path / "p.jsonl", rows)
        report = eval_property(path)
        expect_roc = (
            roc_auc(ScoredLabels((1, 1, 0, 0), (0.9, 0.8, 0.3, 0.2)))
            + roc_auc(ScoredLabels((1, 0), (0.4, 0.6)))
        ) / 2
        assert report.metrics["roc-auc"] == pytest.approx(expect_roc)
        expect_pr = (
            pr_auc(ScoredLabels((1, 1, 0, 0), (0.9, 0.8, 0.3, 0.2)))
            + pr_auc(ScoredLabels((1, 0), (0.4, 0.6)))
        ) / 2
        assert report.metrics["pr-auc"] == pytest.approx(expect_pr)
        assert "f1" in report.metrics
        assert report.counts["evaluated"] == 2

    def test_degenerate_task_counted(self, tmp_path):
        rows = [
            {"task": "a", "label": 1, "score": 0.9},
            {"task": "a", "label": 0, "score": 0.1},
            {"task": "single", "label": 1, "score": 0.5},
        ]
        path = _write_jsonl(tmp_path / "p.jsonl", rows)
        report = eval_property(path)
        assert report.details["skip_reasons"]["degenerate-roc-auc"] == 1
        assert report.counts["skipped"] >= 1

    def test_regression(self, tmp_path):
        rows = [
            {"task": "t", "pred": 0.0, "truth": 1.0},
            {"task": "t", "pred": 2.0, "truth": 1.0},
        ]
        path = _write_jsonl(tmp_path / "p.jsonl", rows)
        report = eval_property(path)
        assert report.metrics["mse"] == 1.0
        assert report.metrics["rmse"] == 1.0
        assert report.metrics["mae"] == 1.0

    def test_mixed_kinds_rejected(self, tmp_path):
        rows = [
            {"task": "a", "label": 1, "score": 0.9},
            {"task": "b", "pred": 1.0, "truth": 1.0},
        ]
        path = _write_jsonl(tmp_path / "p.jsonl", rows)
        with pytest.raises(SchemaError, match="line 2"):
            eval_property(path)

    def test_bad_label(self, tmp_path):
        path = _write_jsonl(tmp_path / "p.jsonl", [{"task": "a", "label": 2, "score": 0.9}])
        with pytest.raises(SchemaError):
            read_property_rows(path)


class TestMergeReports:
    def test_mean_and_std(self):
        a = {"task": "eval-gen-molecule", "metrics": {"validity": 0.4}}
        b = {"task": "eval-gen-molecule", "metrics": {"validity": 0.6}}
        merged = merge_reports([a, b], provenance={})
        assert merged["metrics"]["validity"]["mean"] == pytest.approx(0.5)
        assert merged["metrics"]["validity"]["std"] == pytest.approx(0.1)
        assert merged["counts"]["runs"] == 2

    def test_task_mismatch(self):
        a = {"task": "x", "metrics": {"f1": 0.4}}
        b = {"task": "y", "metrics": {"f1": 0.6}}
        with pytest.raises(ValueError):
            merge_reports([a, b], provenance={})

    def test_needs_two(self):
        with pytest.raises(ValueError):
            merge_reports([{"task": "x", "metrics": {}}], provenance={})


class TestProfile:
    def _rows(self):
        rows = []
        for i in range(8):
            rows.append({"id": f"t{i}", "smiles": "CCO", "split": "train"})
        rows.append({"id": "v0", "smiles": "CCO", "split": "validation"})
        rows.append({"id": "s0", "smiles": "CCO", "split": "test"})
        return rows

    def test_basic_profile(self, tmp_path):
        path = _write_jsonl(tmp_path / "d.jsonl", self._rows())
        payload = profile_dataset(path)
        assert payload["counts"] == {"records": 10, "profiled": 10, "excluded": 0}
        assert payload["scaffolds"] == [{"scaffold": "", "count": 10}]
        assert payload["descriptors"]["mol_weight"]["median"] == pytest.approx(46.069, abs=1e-3)
        assert payload["split_check"]["passes"] is True

    def test_split_failure(self, tmp_path):
        rows = [{"id": str(i), "smiles": "CCO", "split": "train" if i < 5 else "test"} for i in range(10)]
        path = _write_jsonl(tmp_path / "d.jsonl", rows)
        payload = profile_dataset(path)
        assert payload["split_check"]["passes"] is False

    def test_exclusions(self, tmp_path):
        rows = [
            {"id": "ok", "smiles": "CCO"},
            {"id": "aromatic_n", "smiles": "c1ccncc1"},
            {"id": "odd_ring", "smiles": "c1cccc1"},  # no Kekulé form
            {"id": "badvalence", "smiles": "C(C)(C)(C)(C)C"},
            {"id": "broken", "smiles": "C1CC"},
            {"id": "two_parts", "smiles": "CC.O"},
        ]
        path = _write_jsonl(tmp_path / "d.jsonl", rows)
        payload = profile_dataset(path)
        assert payload["exclusions"]["selfies_unencodable"] == ["two_parts"]
        assert payload["exclusions"]["invalid_smiles"] == ["badvalence", "odd_ring"]
        assert payload["exclusions"]["unparseable_smiles"] == ["broken"]
        assert payload["counts"]["profiled"] == 3  # ok + aromatic_n + two_parts

    def test_length_blocks(self, tmp_path):
        rows = [
            {"id": "1", "smiles": "CCO", "caption": "an alcohol molecule"},
            {"id": "2", "smiles": "CCN", "caption": "an amine"},
        ]
        path = _write_jsonl(tmp_path / "d.jsonl", rows)
        payload = profile_dataset(path)
        assert payload["lengths"]["smiles"]["records"] == 2
        assert "whitespace" in payload["lengths"]["caption"]["tokens"]
        assert "iupac" not in payload["lengths"]

    @pytest.mark.parametrize(
        "splits, split_check",
        [
            (
                ["train"] * 16 + ["valid"] * 2 + ["test"] * 2,
                {"proportions": {"test": 0.1, "train": 0.8, "valid": 0.1}, "passes": True},
            ),
            (
                ["train"] * 10 + ["valid"] * 5 + ["test"] * 5,
                {"proportions": {"test": 0.25, "train": 0.5, "valid": 0.25}, "passes": False},
            ),
        ],
        ids=["split-passes", "split-fails"],
    )
    def test_full_report_is_pinned(self, tmp_path, splits, split_check):
        path = _write_jsonl(tmp_path / "d.jsonl", _profile_rows(7, splits))
        payload = profile_dataset(path)
        digest = hashlib.sha256(tmp_path.joinpath("d.jsonl").read_bytes()).hexdigest()
        assert payload.pop("provenance")["inputs"] == {path: digest}
        assert payload == dict(_PINNED_PROFILE, split_check=split_check)

    @pytest.mark.parametrize("brk", ["\u2028", "\x85"], ids=["u2028", "nel"])
    def test_line_breaks_json_allows_in_strings(self, tmp_path, brk):
        # JSON allows these raw inside a string; a record must not end there
        rows = [{"id": "1", "smiles": "CCO", "caption": f"an alcohol{brk}molecule"},
                {"id": "2", "smiles": "CCN", "caption": "an amine"}]
        path = tmp_path / "d.jsonl"
        path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                        encoding="utf-8")
        payload = profile_dataset(str(path))
        assert payload["counts"]["records"] == 2
        assert payload["lengths"]["caption"]["chars"] == [[0, 1], [10, 1]]
        gen = tmp_path / "g.jsonl"
        gen.write_text("".join(json.dumps(_gen_row(i, f"a{brk}b", ["ab"], out="caption"),
                                          ensure_ascii=False) + "\n" for i in range(2)),
                       encoding="utf-8")
        assert [r.prediction for r in read_gen_records(str(gen))] == [f"a{brk}b"] * 2

    def test_no_graph_outlives_its_row(self, tmp_path, monkeypatch):
        # whole-file memory: at each parse, at most the previous row's graph
        # may still be alive
        graphs = []
        alive = []

        def parse(text):
            alive.append(sum(ref() is not None for ref in graphs))
            graph = parse_smiles(text)
            graphs.append(weakref.ref(graph))
            return graph

        monkeypatch.setattr(profile_module, "parse_smiles", parse)
        profile_dataset(_write_jsonl(tmp_path / "d.jsonl", _profile_rows(7, ["train"] * 100)))
        assert len(alive) == 100
        assert max(alive) <= 1

    def test_row_file_read_once(self, tmp_path, monkeypatch):
        rows = _profile_rows(7, ["train"] * 400)
        rows[3]["caption"] = "éthanol — ç"
        path = _write_mixed_endings(tmp_path / "d.jsonl", rows)
        opened = _count_opens(monkeypatch)
        payload = profile_dataset(path)
        monkeypatch.undo()
        assert opened[path] == 1
        assert payload["provenance"]["inputs"] == {path: sha256_file(path)}
        assert payload["counts"]["records"] == 400

    def test_selfies_writer_runs_only_above_the_size_bound(self, tmp_path, monkeypatch):
        # below atoms + 4 * bonds <= 4096 the SELFIES verdict needs no
        # stream, so only the 1500-atom chain enters the writer; each graph,
        # parsed row or scaffold, has its bare H counts filled once
        written = []
        bare_h = Counter()
        alive = []  # keeps counted graphs alive so no id is reused
        write, bare_h_rule = selfies._write_selfies, MolGraph._bare_h_rule

        def counted_write(graph, orders):
            written.append(len(graph.atoms))
            return write(graph, orders)

        def counted_bare_h(graph):
            alive.append(graph)
            bare_h[id(graph)] += 1
            return bare_h_rule(graph)

        rows = _profile_rows(7, ["train"] * 60) + [{"id": "chain", "smiles": "C" * 1500}]
        parsed = [parse_smiles(row["smiles"]) for row in rows if row["id"] != "unparseable"]
        scaffolds = sum(bool(graph.rings()) for graph in parsed if oracle.validity_reference(graph))
        monkeypatch.setattr(selfies, "_write_selfies", counted_write)
        monkeypatch.setattr(MolGraph, "_bare_h_rule", counted_bare_h)
        payload = profile_dataset(_write_jsonl(tmp_path / "d.jsonl", rows))
        assert payload["exclusions"]["selfies_unencodable"] == ["salt"]
        assert written == [1500]
        assert len(bare_h) == len(parsed) + scaffolds
        assert set(bare_h.values()) == {1}

    def test_malformed_last_line_names_it(self, tmp_path):
        path = tmp_path / "d.jsonl"
        _write_jsonl(path, _profile_rows(7, ["train"] * 20))
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"id": "last", "smiles": ')
        with pytest.raises(SchemaError, match=r"^line 21: invalid JSON"):
            profile_dataset(path)


_PROFILE_SMILES = (
    "c1ccccc1O", "C1CCCCC1N", "c1ccncc1", "CC(=O)Oc1ccccc1C(=O)O", "c1ccc2ccccc2c1",
    "CCCCO", "CC(C)N",
)
_PROFILE_WORDS = ("the", "molecule", "is", "a", "benzene", "ring", "with", "an", "acid", "group")


def _profile_rows(seed, splits):
    """One row per split label: a row for every exclusion class, an acyclic
    row, rows with all four text fields (one SELFIES the selfies_bracket
    scheme refuses) and seeded filler rows, shuffled."""
    rng = random.Random(seed)
    rows = [
        {"id": "unparseable", "smiles": "C1CC"},
        {"id": "invalid", "smiles": "C(C)(C)(C)(C)C"},
        {"id": "salt", "smiles": "CC(=O)[O-].[Na+]"},
        {"id": "acyclic", "smiles": "CCO", "selfies": "[C][C][O]", "iupac": "ethanol",
         "caption": "The molecule is ethanol."},
        {"id": "refused", "smiles": "c1ccccc1", "selfies": "[C][=C][C", "iupac": "benzene",
         "caption": "The molecule is benzene."},
    ]
    while len(rows) < len(splits):
        words = rng.choices(_PROFILE_WORDS, k=rng.randint(2, 12))
        rows.append({"id": f"r{len(rows)}", "smiles": rng.choice(_PROFILE_SMILES),
                     "caption": " ".join(words)})
    rng.shuffle(rows)
    for row, split in zip(rows, splits):
        row["split"] = split
    return rows


_CAPTION_HIST = [[10, 6], [20, 3], [30, 3], [40, 2], [50, 1], [60, 2]]
_PINNED_PROFILE = {
    "task": "profile",
    "counts": {"records": 20, "profiled": 18, "excluded": 2},
    "lengths": {
        "smiles": {
            "records": 20,
            "chars": [[0, 15], [10, 5]],
            "tokens": {
                "whitespace": {"hist": [[0, 20]]},
                "smiles_regex": {"hist": [[0, 16], [10, 4]]},
                "selfies_bracket": {"hist": [], "untokenizable": 20},
                "char": {"hist": [[0, 15], [10, 5]]},
            },
        },
        "selfies": {
            "records": 2,
            "chars": [[0, 2]],
            "tokens": {
                "whitespace": {"hist": [[0, 2]]},
                "smiles_regex": {"hist": [[0, 2]]},
                "selfies_bracket": {"hist": [[0, 1]], "untokenizable": 1},
                "char": {"hist": [[0, 2]]},
            },
        },
        "iupac": {
            "records": 2,
            "chars": [[0, 2]],
            "tokens": {
                "whitespace": {"hist": [[0, 2]]},
                "smiles_regex": {"hist": [[0, 2]]},
                "selfies_bracket": {"hist": [], "untokenizable": 2},
                "char": {"hist": [[0, 2]]},
            },
        },
        "caption": {
            "records": 17,
            "chars": _CAPTION_HIST,
            "tokens": {
                "whitespace": {"hist": [[0, 14], [10, 3]]},
                "smiles_regex": {"hist": _CAPTION_HIST},
                "selfies_bracket": {"hist": [], "untokenizable": 17},
                "char": {"hist": _CAPTION_HIST},
            },
        },
    },
    "scaffolds": [
        {"scaffold": "", "count": 5},
        {"scaffold": "C1CCCCC1", "count": 5},
        {"scaffold": "c1ccncc1", "count": 4},
        {"scaffold": "c1ccc2ccccc2c1", "count": 3},
        {"scaffold": "c1ccccc1", "count": 1},
    ],
    "descriptors": {
        "mol_weight": {"min": 46.069, "median": 80.56799999999998, "max": 128.17399999999998},
        "heavy_atoms": {"min": 3, "median": 6.0, "max": 10},
        "rings": {"min": 0, "median": 1.0, "max": 2},
        "aromatic_rings": {"min": 0, "median": 0.0, "max": 2},
    },
    "exclusions": {
        "unparseable_smiles": ["unparseable"],
        "invalid_smiles": ["invalid"],
        "selfies_unencodable": ["salt"],
    },
}


class TestRendering:
    def test_six_significant_digits(self):
        text = to_json({"value": 0.123456789, "big": 1234567.89})
        data = json.loads(text)
        assert data["value"] == 0.123457
        assert data["big"] == 1234570.0

    def test_nan_becomes_null(self):
        data = json.loads(to_json({"z": math.nan, "inf": math.inf}))
        assert data["z"] is None
        assert data["inf"] is None

    def test_sorted_keys(self):
        text = to_json({"beta": 1, "alpha": 2})
        assert text.index('"alpha"') < text.index('"beta"')

    def test_md_and_csv_render(self):
        payload = {"task": "demo", "metrics": {"f1": 0.5}, "items": [1, 2]}
        md = to_md(payload)
        assert md.startswith("# demo")
        csv_text = to_csv(payload)
        assert "metrics.f1,0.5" in csv_text
        assert csv_text.splitlines()[0] == "key,value"


def test_read_pairs_forms(tmp_path):
    rows = [
        {"input": "a b", "output": "x y"},
        {"input": ["pre", "tok"], "output": ["out"]},
    ]
    path = _write_jsonl(tmp_path / "p.jsonl", rows)
    pairs = read_pairs(path, "whitespace")
    assert pairs[0] == (["a", "b"], ["x", "y"])
    assert pairs[1] == (["pre", "tok"], ["out"])
    bad = _write_jsonl(tmp_path / "bad.jsonl", [{"input": 5, "output": "x"}])
    with pytest.raises(SchemaError):
        read_pairs(bad, "whitespace")


def _retrieval_set(directory):
    """Writes q.emb (EMB1), t.csv (float64 CSV) and gold.jsonl: 24 targets of
    dimension 16 with duplicated rows, a -0.0 twin, a zero row, permutations
    of one row (equal sums) and rows whose float64 sum overflows to NaN or
    +-inf, and 12 queries, some equal to a duplicated target."""
    rng = random.Random(1717)
    dim = 16
    rows = [[float(rng.randint(-4, 4)) for _ in range(dim)] for _ in range(24)]
    rows[5] = list(rows[1])
    rows[9] = list(rows[1])
    rows[11] = list(rows[3])
    rows[6] = [0.0] * dim
    rows[2][0] = rows[2][7] = 0.0
    rows[13] = [-0.0 if x == 0.0 else x for x in rows[2]]
    rows[14] = rows[4][::-1]
    rows[15] = rows[4][3:] + rows[4][:3]
    big = 1.5e308
    rows[20] = [big, -big] + [0.0] * 6 + [big, -big] + [0.0] * 6
    rows[21] = [big] + [1.0] * 7 + [big] + [0.0] * 7
    rows[22] = list(rows[20])
    rows[23] = [-big] + [0.0] * 7 + [-big] + [2.0] * 7
    t_ids = [f"t{(7 * i) % 24:02d}" for i in range(24)]
    (directory / "t.csv").write_text(
        "".join(f"{i}," + ",".join(map(repr, row)) + "\n" for i, row in zip(t_ids, rows))
    )
    golds = [1, 5, 9, 3, 11, 6, 13, 2, 14, 20, 22, 17]
    q_vecs = []
    for n, g in enumerate(golds):
        if g >= 20:  # an overflow row: the query is unrelated to it
            q_vecs.append([float(rng.randint(-4, 4)) for _ in range(dim)])
        elif n in (0, 2, 4, 6, 8):  # equal to its gold, so ties decide its rank
            q_vecs.append(list(rows[g]))
        else:
            q_vecs.append([x + rng.randint(-4, 4) / 2 for x in rows[g]])
    q_ids = [f"q{n:02d}" for n in range(len(golds))]
    write_embeddings(directory / "q.emb", EmbeddingMatrix(q_ids, q_vecs))
    _write_jsonl(directory / "gold.jsonl",
                 [{"query": q, "target": t_ids[g]} for q, g in zip(q_ids, golds)])


_PINNED_RETRIEVAL = {
    "task": "eval-retrieval",
    "counts": {"evaluated": 12, "skipped": 0},
    "details": {"ranks": [1, 2, 3, 2, 1, 18, 2, 1, 1, 20, 22, 1]},
    "metrics": {"mrr": 0.582029, "r@1": 0.416667, "r@5": 0.75, "r@10": 0.75},
    "provenance": {
        "inputs": {
            "gold.jsonl": "fbcd83c4bde58c717b9c9fb31a89ee814e00bdd1e93c3676068503591d748d68",
            "q.emb": "0b0792dc0457731449f57bfb2b0289115f52c0a3c742ad4d9f19b329d732ce53",
            "t.csv": "ccba1dea347de87f31a7a96c4de09c62283a36ba55100cf3c9a9d062de437e1c",
        },
        "tool": {"name": "moleval", "version": "0.1.0"},
    },
}


_PINNED_GEN = {
    "text": {
        "task": "eval-gen-text",
        "metrics": {
            "bleu-2": 0.4915094081663211,
            "bleu-4": 0.4020947888179653,
            "rouge-1": 0.6348862330479977,
            "rouge-2": 0.46722222222222226,
            "rouge-l": 0.6067268923886571,
            "meteor": 0.5611188585580055,
        },
        "counts": {"evaluated": 30, "skipped": 0},
        "provenance": {
            "inputs": {"g.jsonl": "d023ace34d2985171a7340bc91e1cdee162bd42d2500c463436c6b760b4b9cfc"},
            "tool": {"name": "moleval", "version": "0.1.0"},
        },
        "details": {"sentence_level": {"bleu-2": 0.49995787018659127, "bleu-4": 0.2341920676978506}},
    },
    "molecule": {
        "task": "eval-gen-molecule",
        "metrics": {
            "bleu-2": 0.5666308547418543,
            "bleu-4": 0.5221520632805555,
            "exact-match": 0.4,
            "exact-match-raw": 0.4,
            "levenshtein": 3.9,
            "validity": 0.9,
            "rdk-fts": 0.4779487179487179,
            "morgan-fts": 0.4958173690932312,
        },
        "counts": {"evaluated": 30, "skipped": 0},
        "provenance": {
            "inputs": {"g.jsonl": "7d98e6a15313d4efd8508838a400f03067d73c9dc82164d997fb6b672b3757a7"},
            "tool": {"name": "moleval", "version": "0.1.0"},
        },
        "details": {
            "sentence_level": {"bleu-2": 0.5359597236513097, "bleu-4": 0.33671273344082925},
            "unparseable_predictions": 2,
        },
    },
}


class TestCommandInputsReadOnce:
    """transition build, the tokenmap subcommands and --repeat-merge hash
    each input from the one read that parses it; the provenance digests stay
    those of the files' bytes, whatever the line ends."""

    def _run(self, monkeypatch, capsys, argv, paths):
        opened = _count_opens(monkeypatch)
        assert main(argv) == 0
        monkeypatch.undo()
        assert [opened[p] for p in paths] == [1] * len(paths)
        payload = json.loads(capsys.readouterr().out)
        assert payload["provenance"]["inputs"] == {p: sha256_file(p) for p in paths}
        return payload

    def test_transition_build(self, tmp_path, monkeypatch, capsys):
        rows = [{"input": "iupac", "output": "smiles", "metric": "bleu", "value": i / 2000, "note": "é — ç"}
                for i in range(900)]
        path = _write_mixed_endings(tmp_path / "results.jsonl", rows)
        self._run(monkeypatch, capsys, ["transition", "build", "--results", path], [path])

    def _sources(self, tmp_path):
        rows = [{"input": f"the acid {i % 7} smells é", "output": f"box lic {i % 5} ."} for i in range(900)]
        pairs = _write_mixed_endings(tmp_path / "pairs.jsonl", rows)
        stoplist = tmp_path / "stop.txt"
        stoplist.write_bytes("the\r\nand\rç\n".encode("utf-8"))
        return pairs, str(stoplist)

    @pytest.mark.parametrize("sub, extra", [("build", []), ("sweep", ["--grid", "0:2:0.5"]),
                                            ("select", ["--T", "0.5"])])
    def test_tokenmap_from_pairs(self, tmp_path, monkeypatch, capsys, sub, extra):
        pairs, stoplist = self._sources(tmp_path)
        argv = ["tokenmap", sub, "--pairs", pairs, "--stoplist", stoplist, *extra]
        self._run(monkeypatch, capsys, argv, [pairs, stoplist])

    @pytest.mark.parametrize("sub, extra", [("build", []), ("sweep", ["--grid", "0:2:0.5"]),
                                            ("select", ["--T", "0.5"])])
    def test_tokenmap_from_saved_matrix(self, tmp_path, monkeypatch, capsys, sub, extra):
        # the provenance also names the --pairs and --stoplist given beside
        # a saved matrix, which the command does not otherwise read
        pairs, stoplist = self._sources(tmp_path)
        saved = str(tmp_path / "matrix.json")
        assert main(["tokenmap", "build", "--pairs", pairs, "--out", saved]) == 0
        saved_text = pathlib.Path(saved).read_text(encoding="utf-8")
        pathlib.Path(saved).write_bytes(saved_text.replace("\n", "\r\n").encode("utf-8"))
        argv = ["tokenmap", sub, "--matrix", saved, "--pairs", pairs, "--stoplist", stoplist, *extra]
        self._run(monkeypatch, capsys, argv, [pairs, saved, stoplist])

    def test_repeat_merge(self, tmp_path, monkeypatch, capsys):
        records = _write_jsonl(tmp_path / "g.jsonl", [_gen_row(i, "CCO", ["OCC"]) for i in range(3)])
        reports = [str(tmp_path / f"r{i}.json") for i in range(3)]
        for report in reports:
            assert main(["eval", "gen", "--records", records, "--target-kind", "molecule",
                         "--out", report]) == 0
        payload = self._run(monkeypatch, capsys, ["eval", "gen", "--repeat-merge", *reports], reports)
        assert payload["counts"] == {"runs": 3}
