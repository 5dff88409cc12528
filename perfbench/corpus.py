"""Deterministic corpus generators, one per workload.

Each generator takes the workload seed, writes the input files under a
work directory and returns a Plan: the ops of one pass in order, a small
warm-up op, and the corpus sizes. The same seed always gives the same bytes.
The hostile set is fixed and does not depend on the seed.
"""

from __future__ import annotations

import json
import random
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import library as lib

GEN_RECORDS = 3300  # ChEBI-20 test split
GEN_MOL_SHARD = 10
GEN_TEXT_SHARD = 50
TARGETS = 1000
QUERIES = 1000
EMB_DIM = 256
QUERY_SHARD = 10
DUPLICATE_TARGETS = 100  # rows that copy the vector of another target
PROPERTY_ROWS = 250
DATASET_ROWS = 3300  # ChEBI-20 test split
DATASET_SHARD = 100
TOKENMAP_PAIRS = 600
PARSE_LINES = 200


@dataclass
class Op:
    """One call of the moleval CLI. `role` is primary (a shard whose items
    count toward throughput), secondary (run once per pass) or probe (a
    shard of the fixed hostile set)."""

    name: str
    argv: list[str]
    role: str
    kind: str
    items: int = 0
    expect: dict = field(default_factory=dict)


@dataclass
class Plan:
    ops: list[Op]
    warmup: Op
    sizes: dict


def _jsonl(path: Path, rows) -> None:
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows), encoding="utf-8")


def _out(work: Path, name: str, suffix: str = "json") -> str:
    return str(work / "out" / f"{name.replace('/', '-')}.{suffix}")


# -- molecules -------------------------------------------------------------

def draws(rng, items):
    """Endless draws that use every item once per shuffled round, so each
    seed's corpus holds the same mix of molecules."""
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


_SUBSTITUTE = {"C": "N", "N": "C", "O": "S", "S": "O", "F": "Cl", "Cl": "Br", "Br": "F",
               "c": "n", "n": "c", "o": "s", "s": "o"}
_BROKEN_SUFFIXES = ("(", "%99", ")")


def one_token_edit(smiles: str, rng) -> str:
    """Substitute, delete or duplicate one token of a SMILES string."""
    toks = lib.tokens(smiles)
    while True:
        i = rng.randrange(len(toks))
        mode = rng.choice(("substitute", "delete", "duplicate"))
        edited = list(toks)
        if mode == "substitute":
            if toks[i] not in _SUBSTITUTE:
                continue
            edited[i] = _SUBSTITUTE[toks[i]]
        elif mode == "delete":
            del edited[i]
        else:
            if not lib.is_atom_token(toks[i]):
                continue
            edited.insert(i, toks[i])
        text = "".join(edited)
        if text and text != smiles:
            return text


def broken(smiles: str, rng) -> str:
    """A string that no SMILES reader accepts: an unclosed branch or ring,
    or a branch closed before it was opened."""
    suffix = rng.choice(_BROKEN_SUFFIXES)
    return ")" + smiles if suffix == ")" else smiles + suffix


# records per 10 of each prediction kind in a gen_mol shard
_MOL_MIX = (("same", 2), ("reordered", 2), ("edited", 3), ("other", 1), ("broken", 2))


def _mol_shard(rng, molecules, start: int, size: int) -> tuple[list[dict], dict]:
    kinds = [k for k, n in _MOL_MIX for _ in range(n)]
    kinds = (kinds * (size // len(kinds) + 1))[:size]
    rng.shuffle(kinds)
    rows = []
    for offset, kind in enumerate(kinds):
        mol = next(molecules)
        ref = lib.reorder(mol, rng)
        if kind == "same":
            pred = ref
        elif kind == "reordered":
            pred = lib.reorder(mol, rng)
        elif kind == "edited":
            pred = one_token_edit(ref, rng)
        elif kind == "other":
            pred = lib.reorder(lib.LIBRARY[(lib.LIBRARY.index(mol) + rng.randrange(1, len(lib.LIBRARY)))
                                           % len(lib.LIBRARY)], rng)
        else:
            pred = broken(ref, rng)
        rows.append(_gen_row(start + offset, pred, ref, "caption", "smiles"))
    return rows, _mol_expect(rows, kinds)


def _gen_row(index: int, pred: str, ref: str, src: str, dst: str) -> dict:
    return {"id": f"r{index:05d}", "input_modality": src, "output_modality": dst,
            "prediction": pred, "references": [ref]}


def _mol_expect(rows, kinds) -> dict:
    raw = sum(r["prediction"] == r["references"][0] for r in rows)
    return {
        "records": len(rows),
        "exact_match_raw": raw / len(rows),
        "broken": kinds.count("broken"),
        "edited": kinds.count("edited"),
    }


_HOSTILE_GEN = (
    ("chain", [(lib.CHAIN_1500, lib.CHAIN_1500)]),
    ("tetra-tert-butylmethane", [(lib.TETRA_TERT_BUTYLMETHANE_REORDERED, lib.TETRA_TERT_BUTYLMETHANE)]),
    ("c60-and-c1cccc1", [(lib.reorder(lib.C60, random.Random(0)), lib.C60),
                         (lib.NON_KEKULIZABLE, "c1ccccc1")]),
)


def gen_mol(work: Path, seed: int, nproc: int) -> Plan:
    rng = random.Random(seed)
    data = work / "data"

    def op(name, path, rows, expect, role, items):
        argv = ["eval", "gen", "--records", str(path), "--target-kind", "molecule",
                "--threads", str(nproc), "--out", _out(work, name)]
        return Op(name, argv, role, "gen_molecule", items, expect)

    molecules = draws(rng, lib.LIBRARY)
    ops = []
    for name, pairs in _HOSTILE_GEN:
        rows = [_gen_row(90000 + i, p, r, "caption", "smiles") for i, (p, r) in enumerate(pairs)]
        path = data / f"hostile-{name}.jsonl"
        _jsonl(path, rows)
        expect = _mol_expect(rows, ["hostile"] * len(rows))
        ops.append(op(f"probe/{name}", path, rows, expect, "probe", len(rows)))
    for shard in range(GEN_RECORDS // GEN_MOL_SHARD):
        rows, expect = _mol_shard(rng, molecules, shard * GEN_MOL_SHARD, GEN_MOL_SHARD)
        path = data / f"shard-{shard:03d}.jsonl"
        _jsonl(path, rows)
        ops.append(op(f"shard/{shard:03d}", path, rows, expect, "primary", len(rows)))
    warm = random.Random(seed + 1)
    rows, expect = _mol_shard(warm, draws(warm, lib.LIBRARY), 80000, 5)
    _jsonl(data / "warmup.jsonl", rows)
    warmup = op("warmup", data / "warmup.jsonl", rows, expect, "primary", len(rows))
    return Plan(ops, warmup, {"records": GEN_RECORDS, "shard_records": GEN_MOL_SHARD,
                              "hostile_records": sum(len(p) for _, p in _HOSTILE_GEN)})


# -- captions --------------------------------------------------------------

_CLASSES = (
    "monocarboxylic acid", "aromatic ketone", "tertiary amino compound", "primary alcohol",
    "organic heterobicyclic compound", "3-oxo steroid", "hydroxyflavone", "alpha-amino acid",
    "benzamides", "sulfonamide", "long-chain fatty acid", "beta-lactam antibiotic",
    "member of phenols", "organochlorine compound", "dicarboxylic acid", "piperidines",
    "indoles", "carboxylic ester", "secondary alcohol", "benzodiazepine",
)
_PARENTS = (
    "acetic acid", "benzoic acid", "propanoic acid", "ethanol", "piperazine", "indole",
    "cholesterol", "naphthalene", "phenol", "glycine", "butanoic acid", "tryptamine",
    "catechol", "pyrrolidine", "cyclohexanol", "salicylic acid",
)
_GROUPS = ("hydroxy", "methyl", "amino", "chloro", "methoxy", "oxo", "carboxy", "fluoro",
           "ethyl", "phenyl", "sulfo", "acetyl")
_ROLES = (
    "metabolite", "plant metabolite", "human xenobiotic metabolite", "antibacterial agent",
    "anti-inflammatory agent", "non-steroidal anti-inflammatory drug", "analgesic",
    "antioxidant", "neurotransmitter", "vasodilator agent", "antineoplastic agent",
    "EC 1.14.99.1 (prostaglandin-endoperoxide synthase) inhibitor", "anticonvulsant",
    "sedative", "mouse metabolite", "Escherichia coli metabolite",
)
_POSITIONS = ("2", "3", "4", "5", "6", "7", "alpha", "beta", "N", "O")


def _sentence(rng) -> str:
    pick = rng.choice
    templates = (
        lambda: f"The molecule is a {pick(_CLASSES)} that is {pick(_PARENTS)} in which the "
                f"hydrogen at position {pick(_POSITIONS)} has been replaced by a {pick(_GROUPS)} group.",
        lambda: f"It has a role as a {pick(_ROLES)}, a {pick(_ROLES)} and a {pick(_ROLES)}.",
        lambda: f"It is a {pick(_CLASSES)}, a {pick(_CLASSES)} and a {pick(_CLASSES)}.",
        lambda: f"It is functionally related to a {pick(_PARENTS)} and a {pick(_PARENTS)}.",
        lambda: f"It is a conjugate acid of a {pick(_PARENTS)}ate anion.",
        lambda: f"It derives from a {pick(_PARENTS)} and is substituted by {pick(_GROUPS)} "
                f"groups at positions {pick(_POSITIONS)} and {pick(_POSITIONS)} respectively.",
        lambda: f"It is an enantiomer of a {pick(_CLASSES)} and is used as a {pick(_ROLES)} "
                f"acting on {pick(_PARENTS)} receptors.",
    )
    return pick(templates)()


CAPTION_WORDS = range(20, 121)


def caption(rng, lengths) -> str:
    """ChEBI-20-like description; its word count is the next of `lengths`."""
    target = next(lengths)
    words: list[str] = []
    while len(words) < target:
        words.extend(_sentence(rng).split())
    words = words[:target]
    if not words[-1].endswith("."):
        words[-1] += "."
    return " ".join(words)


_INFLECT = (("ing", ""), ("", "ing"), ("s", ""), ("", "s"), ("ed", ""), ("", "ed"), ("", "ly"))


def reinflect(word: str, rng) -> str:
    for _ in range(4):
        old, new = rng.choice(_INFLECT)
        if old and word.endswith(old) and len(word) > len(old) + 2:
            return word[: -len(old)] + new
        if not old and word.isalpha():
            return word + new
    return word + "s"


def perturb_caption(text: str, rng) -> str:
    """Drop, swap or re-inflect words so that exact, stem and order-sensitive
    matching all have work to do."""
    words = text.split()
    for _ in range(max(1, len(words) // 8)):
        action = rng.random()
        i = rng.randrange(len(words))
        if action < 0.35 and len(words) > 5:
            del words[i]
        elif action < 0.6 and i + 1 < len(words):
            words[i], words[i + 1] = words[i + 1], words[i]
        else:
            words[i] = reinflect(words[i], rng)
    return " ".join(words)


def gen_text(work: Path, seed: int, nproc: int) -> Plan:
    rng = random.Random(seed)
    data = work / "data"

    lengths = draws(rng, CAPTION_WORDS)

    def shard_rows(r, start, size):
        rows = []
        for i in range(size):
            ref = caption(r, lengths)
            roll = r.random()
            if roll < 0.1:
                pred = ref
            elif roll < 0.2:
                pred = caption(r, lengths)
            else:
                pred = perturb_caption(ref, r)
            rows.append(_gen_row(start + i, pred, ref, "smiles", "caption"))
        return rows

    def op(name, path, rows, role):
        argv = ["eval", "gen", "--records", str(path), "--target-kind", "text",
                "--out", _out(work, name)]
        expect = {"records": len(rows),
                  "identical": sum(r["prediction"] == r["references"][0] for r in rows)}
        return Op(name, argv, role, "gen_text", len(rows), expect)

    ops = []
    for shard in range(GEN_RECORDS // GEN_TEXT_SHARD):
        rows = shard_rows(rng, shard * GEN_TEXT_SHARD, GEN_TEXT_SHARD)
        path = data / f"shard-{shard:03d}.jsonl"
        _jsonl(path, rows)
        ops.append(op(f"shard/{shard:03d}", path, rows, "primary"))
    rows = shard_rows(random.Random(seed + 1), 80000, 10)
    _jsonl(data / "warmup.jsonl", rows)
    return Plan(ops, op("warmup", data / "warmup.jsonl", rows, "primary"),
                {"records": GEN_RECORDS, "shard_records": GEN_TEXT_SHARD})


# -- embeddings and property rows -----------------------------------------

def write_emb1(path: Path, ids: list[str], vectors: np.ndarray) -> None:
    """EMB1: magic, u32 rows, u32 dim, little-endian f32 values, ids."""
    body = np.ascontiguousarray(vectors, dtype="<f4").tobytes()
    path.write_bytes(b"EMB1" + struct.pack("<II", *vectors.shape) + body
                     + "".join(i + "\n" for i in ids).encode("utf-8"))


def retrieval(work: Path, seed: int, nproc: int) -> Plan:
    rng = np.random.default_rng(seed)
    data = work / "data"
    targets = rng.standard_normal((TARGETS, EMB_DIM)).astype(np.float32)
    # copies of other rows, so that equal scores fall to the id tie rule
    copies = rng.choice(TARGETS, size=2 * DUPLICATE_TARGETS, replace=False)
    targets[copies[:DUPLICATE_TARGETS]] = targets[copies[DUPLICATE_TARGETS:]]
    target_ids = [f"t{i:04d}" for i in range(TARGETS)]
    write_emb1(data / "targets.emb", target_ids, targets)
    gold = rng.permutation(TARGETS)[:QUERIES]
    noise = rng.standard_normal((QUERIES, EMB_DIM)).astype(np.float32) * np.float32(3.0)
    queries = targets[gold] + noise

    def query_op(name, rows, role):
        ids = [f"q{i:04d}" for i in rows]
        q_path, g_path = data / f"{name.replace('/', '-')}.emb", data / f"{name.replace('/', '-')}.gold.jsonl"
        write_emb1(q_path, ids, queries[rows])
        _jsonl(g_path, [{"query": q, "target": target_ids[gold[i]]} for q, i in zip(ids, rows)])
        argv = ["eval", "retrieval", "--queries", str(q_path), "--targets", str(data / "targets.emb"),
                "--gold", str(g_path), "--out", _out(work, name)]
        expect = {"queries": str(q_path), "targets": str(data / "targets.emb"), "gold": str(g_path),
                  "records": len(rows)}
        return Op(name, argv, role, "retrieval", len(rows), expect)

    ops = [_property_op(work, rng, "classification"), _property_op(work, rng, "regression")]
    for shard in range(QUERIES // QUERY_SHARD):
        ops.append(query_op(f"shard/{shard:03d}", list(range(shard * QUERY_SHARD, (shard + 1) * QUERY_SHARD)),
                            "primary"))
    warmup = query_op("warmup", [0, 1], "primary")
    return Plan(ops, warmup, {"targets": TARGETS, "queries": QUERIES, "dim": EMB_DIM,
                              "shard_queries": QUERY_SHARD, "duplicate_targets": DUPLICATE_TARGETS,
                              "property_rows": PROPERTY_ROWS * 16})


def _property_op(work: Path, rng, kind: str) -> Op:
    rows = []
    tasks = 12 if kind == "classification" else 4
    for t in range(tasks):
        if kind == "classification":
            labels = (rng.random(PROPERTY_ROWS) < 0.3).astype(int)
            # two decimals, so many scores tie
            scores = np.clip(np.round(0.35 * labels + 0.65 * rng.random(PROPERTY_ROWS), 2), 0, 1)
            rows += [{"task": f"task{t:02d}", "label": int(y), "score": float(s)} for y, s in zip(labels, scores)]
        else:
            truth = np.round(rng.normal(2.0, 1.5, PROPERTY_ROWS), 1)
            pred = np.round(truth + rng.normal(0, 0.5, PROPERTY_ROWS), 1)
            rows += [{"task": f"task{t:02d}", "pred": float(p), "truth": float(y)} for p, y in zip(pred, truth)]
    path = work / "data" / f"property-{kind}.jsonl"
    _jsonl(path, rows)
    argv = ["eval", "property", "--records", str(path), "--out", _out(work, f"property-{kind}")]
    return Op(f"property/{kind}", argv, "secondary", f"property_{kind}", 0,
              {"tasks": tasks, "path": str(path)})


# -- dataset ---------------------------------------------------------------

_SPLITS = ["train"] * 80 + ["valid"] * 10 + ["test"] * 10


def _dataset_rows(rng, draw, start: int, count: int) -> list[dict]:
    """`draw` holds the molecule and caption-length draws of one corpus."""
    molecules, lengths = draw
    splits = (_SPLITS * (count // len(_SPLITS) + 1))[:count]
    rng.shuffle(splits)
    return [{"id": f"CHEBI:{start + i}", "smiles": lib.reorder(next(molecules), rng),
             "caption": caption(rng, lengths), "split": split} for i, split in enumerate(splits)]


_HOSTILE_ROWS = (
    ("chain", [lib.CHAIN_1500]),
    ("tbu-c60-c1cccc1", [lib.TETRA_TERT_BUTYLMETHANE, lib.C60, lib.NON_KEKULIZABLE]),
)


def dataset(work: Path, seed: int, nproc: int) -> Plan:
    rng = random.Random(seed)
    data = work / "data"

    def profile_op(name, path, rows, role):
        argv = ["profile", "--records", str(path), "--out", _out(work, name)]
        return Op(name, argv, role, "profile", len(rows), {"records": len(rows), "split": role == "primary"})

    draw = (draws(rng, lib.LIBRARY), draws(rng, CAPTION_WORDS))
    sample = _dataset_rows(rng, draw, 0, max(TOKENMAP_PAIRS, PARSE_LINES))
    ops = _dataset_secondary(work, rng, sample)
    for name, smiles in _HOSTILE_ROWS:
        rows = [{"id": f"HOSTILE:{i}", "smiles": s, "caption": "The molecule is a hostile input.",
                 "split": "test"} for i, s in enumerate(smiles)]
        path = data / f"hostile-{name}.jsonl"
        _jsonl(path, rows)
        ops.append(profile_op(f"probe/{name}", path, rows, "probe"))
    for shard in range(DATASET_ROWS // DATASET_SHARD):
        rows = _dataset_rows(rng, draw, 1000 + shard * DATASET_SHARD, DATASET_SHARD)
        path = data / f"shard-{shard:03d}.jsonl"
        _jsonl(path, rows)
        ops.append(profile_op(f"shard/{shard:03d}", path, rows, "primary"))
    warm = random.Random(seed + 1)
    rows = _dataset_rows(warm, (draws(warm, lib.LIBRARY), draws(warm, CAPTION_WORDS)), 90000, 10)
    _jsonl(data / "warmup.jsonl", rows)
    warmup = profile_op("warmup", data / "warmup.jsonl", rows, "primary")
    return Plan(ops, warmup, {"rows": DATASET_ROWS, "shard_rows": DATASET_SHARD,
                              "tokenmap_pairs": TOKENMAP_PAIRS, "parse_lines": PARSE_LINES,
                              "hostile_rows": sum(len(s) for _, s in _HOSTILE_ROWS)})


def _dataset_secondary(work: Path, rng, sample: list[dict]) -> list[Op]:
    data = work / "data"
    ops = []

    lines = [row["smiles"] for row in sample[:PARSE_LINES]]
    parsed = [True] * len(lines)
    for i in rng.sample(range(len(lines)), len(lines) // 20):
        lines[i] = broken(lines[i], rng)
        parsed[i] = False
    (data / "parse.txt").write_text("".join(s + "\n" for s in lines), encoding="utf-8")
    argv = ["parse", "--in", str(data / "parse.txt"), "--out", _out(work, "parse")]
    ops.append(Op("parse", argv, "secondary", "parse", 0, {"parsed": parsed}))

    convert = [lib.reorder(m, rng) for m in lib.LIBRARY if lib.convertible(m)]
    (data / "convert.txt").write_text("".join(s + "\n" for s in convert), encoding="utf-8")
    argv = ["convert", "--from", "smiles", "--to", "selfies", "--in", str(data / "convert.txt"),
            "--out", _out(work, "convert")]
    ops.append(Op("convert", argv, "secondary", "convert", 0, {"inputs": convert}))

    pairs = [{"input": lib.tokens(row["smiles"]), "output": row["caption"].lower().split()}
             for row in sample[:TOKENMAP_PAIRS]]
    _jsonl(data / "pairs.jsonl", pairs)
    source = ["--pairs", str(data / "pairs.jsonl"), "--top-k", "24"]
    for sub, extra in (("build", []), ("sweep", ["--grid", "0:3:0.25"]), ("select", ["--T", "1.0"])):
        argv = ["tokenmap", sub, *source, *extra, "--out", _out(work, f"tokenmap-{sub}")]
        ops.append(Op(f"tokenmap/{sub}", argv, "secondary", f"tokenmap_{sub}", 0, {"top_k": 24}))

    modalities = ("smiles", "inchi", "selfies", "graph", "image", "iupac", "caption", "property")
    metric_for = {"smiles": "bleu-4", "caption": "meteor", "property": "roc-auc"}
    results = []
    for src in modalities[:-1]:
        for dst in modalities:
            if src != dst and rng.random() < 0.6:
                metric = metric_for.get(dst, "exact-match")
                results += [{"input": src, "output": dst, "metric": metric, "value": round(rng.random(), 4)}
                            for _ in range(3)]
    _jsonl(data / "results.jsonl", results)
    argv = ["transition", "build", "--results", str(data / "results.jsonl"),
            "--provenance", _out(work, "transition-provenance", "csv"),
            "--out", _out(work, "transition", "csv")]
    ops.append(Op("transition/build", argv, "secondary", "transition", 0, {"modalities": modalities}))
    return ops


GENERATORS = {"gen_mol": gen_mol, "gen_text": gen_text, "retrieval": retrieval, "dataset": dataset}


def build(workload: str, work: Path, seed: int, nproc: int) -> Plan:
    for sub in ("data", "out"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    return GENERATORS[workload](work, seed, nproc)
