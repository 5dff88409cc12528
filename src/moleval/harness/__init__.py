"""Record ingestion, evaluation reports, dataset profiling, and the CLI."""

from ..metrics import METRIC_NAMES
from .evaluate import (
    Report,
    eval_generation,
    eval_property,
    eval_retrieval,
    merge_reports,
)
from .profile import profile_dataset
from .records import (
    DEFAULT_STOPLIST,
    EmptyFile,
    FormatError,
    GenRecord,
    SchemaError,
    read_embeddings,
    read_gen_records,
    read_gold,
    read_pairs,
    read_profile_rows,
    read_property_rows,
    read_results,
    read_stoplist,
    write_embeddings,
)
from .reports import render, resolve_out, to_csv, to_json, to_md

__all__ = [
    "DEFAULT_STOPLIST",
    "EmptyFile",
    "FormatError",
    "GenRecord",
    "METRIC_NAMES",
    "Report",
    "SchemaError",
    "eval_generation",
    "eval_property",
    "eval_retrieval",
    "merge_reports",
    "profile_dataset",
    "read_embeddings",
    "read_gen_records",
    "read_gold",
    "read_pairs",
    "read_profile_rows",
    "read_property_rows",
    "read_results",
    "read_stoplist",
    "render",
    "resolve_out",
    "to_csv",
    "to_json",
    "to_md",
    "write_embeddings",
]
