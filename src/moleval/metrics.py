"""The metric names a report may carry, those where lower is better, and
the F-measure that F1 and ROUGE share."""

METRIC_NAMES = frozenset(
    {
        "bleu-2", "bleu-4", "rouge-1", "rouge-2", "rouge-l", "meteor",
        "exact-match", "exact-match-raw", "levenshtein", "validity",
        "rdk-fts", "morgan-fts", "mrr", "r@1", "r@5", "r@10",
        "roc-auc", "pr-auc", "f1", "mse", "rmse", "mae",
    }
)
LOWER_IS_BETTER = frozenset({"levenshtein", "mse", "rmse", "mae"})


def f_measure(hits: int, predicted: int, actual: int) -> float:
    """F1, the harmonic mean of precision hits/predicted and recall
    hits/actual; 0 when there are no hits."""
    if hits == 0:
        return 0.0
    p = hits / predicted
    r = hits / actual
    return 2 * p * r / (p + r)
