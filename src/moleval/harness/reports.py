"""Deterministic report rendering.

Reports must be byte-identical across runs on identical inputs: keys are
sorted, floats carry 6 significant digits, non-finite values become null,
and nothing time- or host-dependent is ever embedded.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .. import __version__


def provenance_of(inputs: dict[str, str]) -> dict:
    """Provenance of the inputs a reader hashed: sha256 hex digests by path."""
    return {"inputs": inputs, "tool": {"name": "moleval", "version": __version__}}


def _clean(value):
    if isinstance(value, bool):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return float(f"{value:.6g}")
    if isinstance(value, dict):
        return {str(k): _clean(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_clean(v) for v in value]
    return value


def to_json(payload: dict) -> str:
    return json.dumps(_clean(payload), sort_keys=True, indent=2) + "\n"


def _md_lines(value, depth: int, lines: list[str]):
    indent = "  " * depth
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                lines.append(f"{indent}- **{key}**:")
                _md_lines(inner, depth + 1, lines)
            else:
                lines.append(f"{indent}- **{key}**: {_scalar(inner)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{indent}-")
                _md_lines(item, depth + 1, lines)
            else:
                lines.append(f"{indent}- {_scalar(item)}")
    else:
        lines.append(f"{indent}- {_scalar(value)}")


def _scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def to_md(payload: dict) -> str:
    payload = _clean(payload)
    title = payload.get("task", "report")
    lines = [f"# {title}", ""]
    _md_lines(payload, 0, lines)
    return "\n".join(lines) + "\n"


def _flatten(value, prefix: str, rows: list[tuple[str, str]]):
    if isinstance(value, dict):
        for key in sorted(value):
            path = f"{prefix}.{key}" if prefix else str(key)
            _flatten(value[key], path, rows)
    elif isinstance(value, list):
        for idx, item in enumerate(value):
            _flatten(item, f"{prefix}[{idx}]", rows)
    else:
        rows.append((prefix, _scalar(value)))


def to_csv(payload: dict) -> str:
    import csv
    import io

    rows: list[tuple[str, str]] = []
    _flatten(_clean(payload), "", rows)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in rows:
        writer.writerow([key, value])
    return buffer.getvalue()


RENDERERS = {"json": to_json, "md": to_md, "csv": to_csv}


def render(payload: dict, fmt: str) -> str:
    if fmt not in RENDERERS:
        raise ValueError(f"unknown output format {fmt!r}")
    return RENDERERS[fmt](payload)


def resolve_out(out: str | None) -> tuple[str, str | None]:
    """--out accepts a bare format name (written to stdout) or a path whose
    extension picks the format; default is JSON to stdout."""
    if out is None:
        return "json", None
    if out in RENDERERS:
        return out, None
    suffix = Path(out).suffix.lstrip(".").lower()
    return (suffix if suffix in RENDERERS else "json"), out
