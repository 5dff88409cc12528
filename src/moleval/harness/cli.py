"""Command line interface.

Exit codes: 0 success, 1 usage error, 2 data error (malformed or
impossible input files), 3 internal error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from .. import interpret
from ..molgraph import (
    SmilesError,
    UnsupportedFeature,
    canonical_smiles,
    descriptors,
    parse_smiles,
    validity,
)
from ..selfies import decode_selfies, encode_selfies
from ..textmetrics import SCHEMES
from ..transition import MODALITIES, build_matrix, export_matrix, export_provenance
from .evaluate import eval_generation, eval_property, eval_retrieval, merge_reports
from .profile import profile_dataset
from .records import (
    DEFAULT_STOPLIST, _read_bytes, _text_lines, read_mapping_matrix, read_pairs, read_report, read_results,
    read_stoplist,
)
from .reports import RENDERERS, provenance_of, render, resolve_out


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        # a flag, and so a config key, must be named in full
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(message)


def _read_config(path) -> list[str]:
    """The `key = value` lines of a config file as `--key=value` words."""
    words = []
    for lineno, line in enumerate(_text_lines(path), 1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise UsageError(f"{path}: line {lineno} is not key=value")
        key, value = body.split("=", 1)
        words.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return words


def _input_strings(args) -> list[str]:
    items = list(args.items)
    if args.infile:
        items += [text for line in _text_lines(args.infile) if (text := line.strip())]
    if not items:
        raise UsageError("no input strings given (positional arguments or --in)")
    return items


def _cmd_parse(args):
    molecules = []
    valid_count = 0
    for text in _input_strings(args):
        entry: dict = {"smiles": text}
        try:
            graph = parse_smiles(text)
        except SmilesError as exc:
            entry.update({"parsed": False, "valid": False, "error": str(exc)})
            molecules.append(entry)
            continue
        entry["parsed"] = True
        entry["valid"] = validity(graph)
        if entry["valid"]:
            valid_count += 1
            try:
                entry["canonical"] = canonical_smiles(graph)
            except UnsupportedFeature as exc:
                entry["error"] = str(exc)
            entry.update(descriptors(graph))
        molecules.append(entry)
    return {
        "task": "parse",
        "molecules": molecules,
        "counts": {"given": len(molecules), "valid": valid_count},
    }


def _cmd_convert(args):
    if args.source == args.target:
        raise UsageError("--from and --to must differ")
    results = []
    for index, text in enumerate(_input_strings(args), 1):
        try:
            if args.source == "smiles":
                converted = encode_selfies(parse_smiles(text)).text()
            else:
                converted = canonical_smiles(decode_selfies(text))
        except ValueError as exc:
            raise ValueError(f"input {index}: {exc}") from None
        results.append({"input": text, "output": converted})
    _, path = resolve_out(args.out)
    if args.out is None or (path is not None and Path(path).suffix.lstrip(".").lower() not in RENDERERS):
        return "".join(r["output"] + "\n" for r in results)
    return {"task": "convert", "results": results, "counts": {"converted": len(results)}}


def _cmd_profile(args):
    return profile_dataset(args.records)


def _cmd_eval(args):
    if args.repeat_merge:
        inputs = {}
        payloads = [read_report(path, inputs) for path in args.repeat_merge]
        return merge_reports(payloads, provenance_of(inputs))
    if args.eval_command == "gen":
        if args.records is None:
            raise UsageError("eval gen needs --records (or --repeat-merge)")
        if args.target_kind is None:
            raise UsageError("eval gen needs --target-kind molecule|text")
        report = eval_generation(args.records, args.target_kind)
    elif args.eval_command == "retrieval":
        if not (args.queries and args.targets and args.gold):
            raise UsageError("eval retrieval needs --queries, --targets and --gold")
        report = eval_retrieval(args.queries, args.targets, args.gold)
    else:
        if args.records is None:
            raise UsageError("eval property needs --records (or --repeat-merge)")
        report = eval_property(args.records)
    payload = report.payload()
    if args.seed is not None:
        payload["provenance"]["seed"] = args.seed
    return payload


def _cmd_transition_build(args):
    inputs = {}
    results = read_results(args.results, inputs)
    matrix = build_matrix(results)
    if args.provenance:
        Path(args.provenance).write_text(export_provenance(matrix), encoding="utf-8")
    if resolve_out(args.out)[0] == "csv":
        return export_matrix(matrix)
    cells = {}
    for row in MODALITIES:
        cells[row] = {
            col: {
                "value": matrix.entries[(row, col)],
                "source": matrix.provenance[(row, col)],
            }
            for col in MODALITIES
        }
    return {
        "task": "transition-build",
        "modalities": list(MODALITIES),
        "cells": cells,
        "provenance": provenance_of(inputs),
    }


def _load_mapping_matrix(args) -> tuple[interpret.MappingMatrix, dict]:
    """The matrix and the provenance of every source given (--pairs,
    --matrix, --stoplist), each source hashed from the one read of it."""
    inputs = {}
    if args.matrix:
        matrix = read_mapping_matrix(args.matrix, inputs)
        # a saved matrix is used as it is, but the provenance still names
        # the --pairs and --stoplist given beside it
        for path in (args.pairs, args.stoplist):
            if path:
                _read_bytes(path, inputs)
    else:
        if not args.pairs:
            raise UsageError("tokenmap needs --pairs or --matrix")
        pairs = read_pairs(args.pairs, args.scheme, inputs)
        if args.stoplist is not None:
            stoplist = read_stoplist(args.stoplist, inputs)
        else:
            stoplist = DEFAULT_STOPLIST
        matrix = interpret.build_mapping_matrix(
            pairs, top_k=args.top_k, stoplist=stoplist, count_mode=args.count_mode
        )
    return matrix, provenance_of(inputs)


def _cmd_tokenmap_build(args):
    matrix, provenance = _load_mapping_matrix(args)
    matrix = interpret.sort_matrix(matrix)
    if resolve_out(args.out)[0] == "csv":
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow([""] + list(matrix.col_tokens))
        for token, row in zip(matrix.row_tokens, matrix.counts):
            writer.writerow([token] + [f"{v:g}" for v in row])
        return buffer.getvalue()
    peak = float(matrix.counts.max())
    normalized = matrix.counts / peak if peak > 0 else matrix.counts
    return {
        "task": "tokenmap-build",
        "row_tokens": list(matrix.row_tokens),
        "col_tokens": list(matrix.col_tokens),
        "counts": matrix.counts.tolist(),
        # display form only; the filter always consumes raw counts
        "normalized": normalized.tolist(),
        "degraded": matrix.degraded,
        "provenance": provenance,
    }


# a sweep costs about 0.1 ms a threshold, so the largest grid takes about 1 s
MAX_GRID_POINTS = 10_000


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"grid values must be numbers, got {text!r}") from None
    # negated comparisons also reject NaN, which no loop bound would stop
    if not start >= 0 or not step > 0 or not stop >= start:
        raise UsageError("grid needs start >= 0, step > 0 and stop >= start")
    if not (stop - start) / step < MAX_GRID_POINTS:
        raise UsageError(f"grid has more than {MAX_GRID_POINTS} points")
    values = []
    k = 0
    while True:
        value = start + k * step
        if value > stop + 1e-9:
            break
        values.append(round(value, 10))
        k += 1
    return values


def _parse_threshold(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise UsageError(f"--T must be a number, got {text!r}") from None
    # a negated comparison also refuses NaN
    if not 0 <= value < math.inf:
        raise UsageError(f"--T must be finite and at least 0, got {text!r}")
    return value


def _cmd_tokenmap_sweep(args):
    matrix, provenance = _load_mapping_matrix(args)
    rows = interpret.sweep_threshold(matrix, args.grid)
    return {
        "task": "tokenmap-sweep",
        "rows": [
            {
                "T": r.threshold_T,
                "flag_count": r.flag_count,
                "unique_pair_count": r.unique_pair_count,
                "z": r.z,
                "confidence": r.confidence,
            }
            for r in rows
        ],
        "provenance": provenance,
    }


def _cmd_tokenmap_select(args):
    matrix, provenance = _load_mapping_matrix(args)
    if args.t is None:
        raise UsageError("tokenmap select needs --T")
    stats = interpret.local_filter(matrix, args.t)
    pairs = []
    groups: dict = {}  # group key -> members, in order of first appearance
    for p in interpret.select_pairs(matrix, stats):
        member = {"input_token": p.input_token, "output_token": p.output_token, "value": p.value}
        groups.setdefault(p.group_key, []).append(member)
        pairs.append({**member, "group_key": p.group_key})
    return {
        "task": "tokenmap-select",
        "threshold_T": stats.threshold_T,
        "z": stats.z,
        "confidence": stats.confidence,
        "p_actual": stats.p_actual,
        "p_expected": stats.p_expected,
        "pairs": pairs,
        "groups": [{"group_key": key, "members": members} for key, members in groups.items()],
        "provenance": provenance,
    }


def _add_common(parser):
    parser.add_argument("--out", default=None, help="json|md|csv for stdout, or an output path")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted for compatibility; evaluation runs sequentially")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--config", default=None, help="flat key=value defaults, overridden by flags")


def _add_tokenmap_source(parser):
    parser.add_argument("--pairs", default=None, help="JSONL of {input, output} token records")
    parser.add_argument("--matrix", default=None, help="saved tokenmap-build JSON")
    parser.add_argument("--scheme", default="whitespace", choices=SCHEMES)
    parser.add_argument("--top-k", dest="top_k", type=int, default=20)
    parser.add_argument("--stoplist", default=None, help="file of tokens to drop, one per line")
    parser.add_argument("--count-mode", dest="count_mode", default="presence", choices=("presence", "occurrence"))


def build_parser() -> _Parser:
    parser = _Parser(prog="moleval", description="molecular language model evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and describe molecules")
    p.add_argument("items", nargs="*", metavar="SMILES")
    p.add_argument("--in", dest="infile", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("convert", help="convert between line notations")
    p.add_argument("items", nargs="*", metavar="STRING")
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--from", dest="source", required=True, choices=("smiles", "selfies"))
    p.add_argument("--to", dest="target", required=True, choices=("smiles", "selfies"))
    _add_common(p)
    p.set_defaults(handler=_cmd_convert)

    p = sub.add_parser("profile", help="profile a dataset file")
    p.add_argument("--records", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_profile)

    ev = sub.add_parser("eval", help="evaluate model outputs")
    ev_sub = ev.add_subparsers(dest="eval_command", required=True)

    p = ev_sub.add_parser("gen", help="generation records")
    p.add_argument("--records", default=None)
    p.add_argument("--target-kind", dest="target_kind", default=None, choices=("molecule", "text"))
    p.add_argument("--repeat-merge", dest="repeat_merge", nargs="+", default=None,
                   help="merge previously produced JSON reports (mean and std)")
    _add_common(p)
    p.set_defaults(handler=_cmd_eval)

    p = ev_sub.add_parser("retrieval", help="embedding retrieval")
    p.add_argument("--queries", default=None)
    p.add_argument("--targets", default=None)
    p.add_argument("--gold", default=None)
    p.add_argument("--repeat-merge", dest="repeat_merge", nargs="+", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_eval)

    p = ev_sub.add_parser("property", help="property prediction records")
    p.add_argument("--records", default=None)
    p.add_argument("--repeat-merge", dest="repeat_merge", nargs="+", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_eval)

    tr = sub.add_parser("transition", help="modal transition matrix")
    tr_sub = tr.add_subparsers(dest="transition_command", required=True)
    p = tr_sub.add_parser("build", help="build the matrix from task results")
    p.add_argument("--results", required=True)
    p.add_argument("--provenance", default=None, help="also write the cell source table here")
    _add_common(p)
    p.set_defaults(handler=_cmd_transition_build)

    tm = sub.add_parser("tokenmap", help="token mapping analysis")
    tm_sub = tm.add_subparsers(dest="tokenmap_command", required=True)

    p = tm_sub.add_parser("build", help="build and sort the mapping matrix")
    _add_tokenmap_source(p)
    _add_common(p)
    p.set_defaults(handler=_cmd_tokenmap_build)

    p = tm_sub.add_parser("sweep", help="threshold sweep")
    _add_tokenmap_source(p)
    p.add_argument("--grid", type=_parse_grid, default="0:5:0.25", help="start:stop:step")
    _add_common(p)
    p.set_defaults(handler=_cmd_tokenmap_sweep)

    p = tm_sub.add_parser("select", help="flagged pair selection at one threshold")
    _add_tokenmap_source(p)
    p.add_argument("--T", dest="t", type=_parse_threshold, default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_tokenmap_select)

    return parser


# Built once, at import, so a process that calls main() many times (a test
# suite, a notebook, each forked op of the benchmark) does not rebuild it per
# call. main() only parses with it. The parser holds just the _cmd_* handlers,
# and they find every layer function through this module's globals at call
# time, so a monkeypatched or span-wrapped layer function still takes effect.
PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = PARSER.parse_args(argv)
        if args.config:
            # config words go right after the subcommand words, so later flags
            # win, each value gets its flag's checks and a word naming no flag
            # of the subcommand is left over
            argv = sys.argv[1:] if argv is None else list(argv)
            # one subcommand word per subparsers dest: command, eval_command, ...
            depth = sum(key.endswith("command") for key in vars(args))
            known, _ = PARSER.parse_known_args(argv[:depth] + _read_config(args.config) + argv[depth:])
            # positionals come from the command line only: argparse takes a
            # left-over word holding a space for one
            if "items" in vars(args):
                known.items = args.items
            args = known
        result = args.handler(args)
        fmt, path = resolve_out(args.out)
        text = result if isinstance(result, str) else render(result, fmt)
        if path is None:
            sys.stdout.write(text)
        else:
            Path(path).write_text(text, encoding="utf-8")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        raise
    except SystemExit as exc:  # --help: argparse printed it and exits 0
        return exc.code
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
