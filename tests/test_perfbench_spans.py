import importlib
import sys
from pathlib import Path

PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")

# traced by the benchmark but gone from moleval, so their spans read 0:
# sentence BLEU now comes from sentence_bleu, and exact match is
# moleval.molgraph.exact_match_graphs over graphs the harness parsed
# (the string-level textmetrics.exact_match had no caller). Both stay
# until the benchmark's span list changes
KNOWN_STALE = {"textmetrics.bleu_sentence", "textmetrics.exact_match"}


def _spans_module():
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module("spans")
    finally:
        sys.path.remove(PERFBENCH)


def test_every_traced_layer_function_resolves():
    # the traced replay wraps moleval functions by name: a renamed or
    # deleted function would quietly read 0 calls
    unresolved = {
        f"{layer}.{name}"
        for layer, names in _spans_module().LAYERS.items()
        for name in names
        if getattr(importlib.import_module(f"moleval.{layer}"), name, None) is None
    }
    assert unresolved == KNOWN_STALE
