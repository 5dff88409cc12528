"""Spans around the calls into each layer of moleval, recorded by the
benchmark's own code in the traced replay.

In the forked child of a traced op, `Tracer.install` replaces every
reference that moleval's modules hold to a layer function with a wrapper
that records a span, then the op runs. Spans stay in memory and go back to
the parent with the op's result; the parent turns them into per-layer
metrics and writes them out at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
import time

from runner import OpTimeout

# layer (a moleval module or package) -> functions traced in it
LAYERS = {
    "fingerprint": ("path_fp", "morgan_fp", "tanimoto"),
    "molgraph": ("parse_smiles", "validity", "canonical_smiles", "descriptors", "murcko_scaffold"),
    "textmetrics": ("tokenize", "bleu", "bleu_sentence", "rouge", "meteor_lite", "levenshtein",
                    "exact_match"),
    "predmetrics": ("retrieval_eval", "roc_auc", "pr_auc", "f1_mean", "regression_metrics"),
    "harness": ("read_gen_records", "read_embeddings", "read_gold", "read_profile_rows",
                "read_pairs", "render"),
    "selfies": ("encode_selfies",),
    "interpret": ("build_mapping_matrix", "sort_matrix", "sweep_threshold", "local_filter",
                  "select_pairs"),
    "transition": ("build_matrix", "export_matrix"),
}
# functions whose span name carries the variant argument
_BY_VARIANT = {"rouge": ("r1", "r2", "rl")}
# spans called once per item: also report the median call time
PER_ITEM = frozenset({
    "molgraph.parse_smiles", "molgraph.canonical_smiles", "fingerprint.path_fp",
    "fingerprint.morgan_fp", "textmetrics.exact_match", "textmetrics.levenshtein",
    "textmetrics.rouge_r1", "textmetrics.rouge_r2", "textmetrics.rouge_rl",
    "textmetrics.meteor_lite", "selfies.encode_selfies", "molgraph.murcko_scaffold",
})
# spans whose callee may refuse an input: also report the share accepted
REFUSABLE = frozenset({"molgraph.parse_smiles", "selfies.encode_selfies"})


def span_names() -> list[str]:
    names = []
    for layer, functions in LAYERS.items():
        for fn in functions:
            variants = _BY_VARIANT.get(fn)
            names += [f"{layer}.{fn}_{v}" for v in variants] if variants else [f"{layer}.{fn}"]
    return names


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = []
    for span in span_names():
        specs += [(f"{span}.calls", "count", "higher"), (f"{span}.self_ms", "ms", "lower"),
                  (f"{span}.failed", "count", "lower")]
        if span in PER_ITEM:
            specs.append((f"{span}.us_p50", "us", "lower"))
        if span in REFUSABLE:
            specs.append((f"{span}.ok_frac", "frac", "higher"))
    specs.append(("trace.gap_frac", "frac", "lower"))
    return specs


class Tracer:
    """Records spans as [id, parent, name, start_ns, end_ns, failure]."""

    def __init__(self, root: str):
        self.root = root
        self.spans: list = []
        self._stacks: dict[int, list[int]] = {}

    def install(self) -> None:
        for layer, functions in LAYERS.items():
            module = importlib.import_module(f"moleval.{layer}")
            for fn_name in functions:
                original = getattr(module, fn_name, None)
                if original is None:
                    continue
                wrapper = self._wrap(f"{layer}.{fn_name}", original, fn_name in _BY_VARIANT)
                for name, loaded in list(sys.modules.items()):
                    if loaded is None or not (name == "moleval" or name.startswith("moleval.")):
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, attr, wrapper)
        self.spans.append([0, None, self.root, time.perf_counter_ns(), None, None])
        self._stacks[threading.get_ident()] = [0]

    def close(self, failure: str | None) -> None:
        self.spans[0][4] = time.perf_counter_ns()
        self.spans[0][5] = failure

    def _wrap(self, name: str, fn, by_variant: bool):
        spans = self.spans
        stacks = self._stacks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if by_variant:
                label = f"{name}_{args[2] if len(args) > 2 else kwargs.get('variant')}"
            stack = stacks.setdefault(threading.get_ident(), [0])
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(span_id)
            failure = None
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            except OpTimeout:
                failure = "timeout"
                raise
            except BaseException as exc:
                failure = type(exc).__name__
                raise
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[span_id] = [span_id, parent, label, start, end, failure]

        return traced


class Aggregate:
    """Per-layer totals over the spans of every traced op of a run."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.failed: dict[str, int] = {}
        self.durations: dict[str, list[int]] = {}
        self.lines: list[dict] = []

    def add(self, op_seq: int, op_name: str, spans: list) -> None:
        spans = [s for s in spans if s is not None and s[4] is not None]
        child_ns: dict[int, int] = {}
        for span_id, parent, _, start, end, _ in spans:
            if parent is not None:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        origin = spans[0][3] if spans else 0
        for span_id, parent, name, start, end, failure in spans:
            dur = end - start
            own = dur - child_ns.get(span_id, 0)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            self.failed[name] = self.failed.get(name, 0) + (failure is not None)
            self.durations.setdefault(name, []).append(dur)
            self.lines.append({"op": op_seq, "op_name": op_name, "span": span_id, "parent": parent,
                               "name": name, "start_us": (start - origin) / 1e3, "dur_us": dur / 1e3,
                               "self_us": own / 1e3, "failed": failure})

    def metrics(self, gap_frac: float) -> dict[str, tuple[float, str]]:
        """Every metric of metric_specs() as (value, unit); a span that was
        never called reads 0."""
        values: dict[str, float] = {"trace.gap_frac": gap_frac}
        for span in span_names():
            calls = self.calls.get(span, 0)
            failed = self.failed.get(span, 0)
            durations = self.durations.get(span)
            values[f"{span}.calls"] = calls
            values[f"{span}.self_ms"] = self.self_ns.get(span, 0) / 1e6
            values[f"{span}.failed"] = failed
            values[f"{span}.us_p50"] = statistics.median(durations) / 1e3 if durations else 0.0
            values[f"{span}.ok_frac"] = (calls - failed) / calls if calls else 0.0
        return {name: (values[name], unit) for name, unit, _ in metric_specs()}

    def table(self) -> str:
        """Self time per span, largest first, with its share of all op time."""
        total = sum(self.self_ns.values()) or 1
        rows = [f"{'span':38} {'calls':>8} {'self_ms':>11} {'share':>7} {'failed':>7} {'us_p50':>10}"]
        for name in sorted(self.self_ns, key=lambda n: -self.self_ns[n]):
            durations = self.durations[name]
            rows.append(f"{name:38} {self.calls[name]:8d} {self.self_ns[name] / 1e6:11.1f} "
                        f"{self.self_ns[name] / total:7.1%} {self.failed[name]:7d} "
                        f"{statistics.median(durations) / 1e3:10.1f}")
        return "\n".join(rows) + "\n"
