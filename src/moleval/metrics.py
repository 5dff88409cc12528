"""The metric names a report may carry, and those where lower is better."""

METRIC_NAMES = frozenset(
    {
        "bleu-2", "bleu-4", "rouge-1", "rouge-2", "rouge-l", "meteor",
        "exact-match", "exact-match-raw", "levenshtein", "validity",
        "rdk-fts", "morgan-fts", "mrr", "r@1", "r@5", "r@10",
        "roc-auc", "pr-auc", "f1", "mse", "rmse", "mae",
    }
)
LOWER_IS_BETTER = frozenset({"levenshtein", "mse", "rmse", "mae"})
