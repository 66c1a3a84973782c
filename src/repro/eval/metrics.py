"""Top-k ranking metrics used throughout the paper's evaluation.

All metrics operate on one leave-one-out trial: a score array whose first
entry is the held-out positive item and whose remaining entries are sampled
negatives (:class:`repro.data.negative_sampling.EvalInstance` layout).

Ties are handled with the mid-rank convention so that a constant scorer gets
AUC 0.5 and chance-level HR, rather than an arbitrary 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def rank_of_positive(scores: np.ndarray) -> float:
    """1-based rank of the positive (index 0), mid-rank for ties."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 1 or scores.size < 1:
        raise ValueError("scores must be a non-empty 1-D array")
    pos = scores[0]
    higher = float(np.sum(scores[1:] > pos))
    ties = float(np.sum(scores[1:] == pos))
    return 1.0 + higher + 0.5 * ties


def hit_ratio(scores: np.ndarray, k: int) -> float:
    """1.0 if the positive ranks within the top-``k``, else 0.0."""
    _check_k(k)
    return 1.0 if rank_of_positive(scores) <= k else 0.0


def mrr(scores: np.ndarray, k: int) -> float:
    """Reciprocal rank if the positive is within top-``k``, else 0."""
    _check_k(k)
    rank = rank_of_positive(scores)
    return 1.0 / rank if rank <= k else 0.0


def ndcg(scores: np.ndarray, k: int) -> float:
    """NDCG@k for a single relevant item: ``1 / log2(rank + 1)`` inside top-k.

    With exactly one relevant item the ideal DCG is 1, so no normalization
    constant is needed.
    """
    _check_k(k)
    rank = rank_of_positive(scores)
    return float(1.0 / np.log2(rank + 1.0)) if rank <= k else 0.0


def auc(scores: np.ndarray) -> float:
    """Fraction of negatives ranked below the positive (ties count half)."""
    scores = np.asarray(scores, dtype=float)
    n_neg = scores.size - 1
    if n_neg == 0:
        return 0.5
    pos = scores[0]
    wins = float(np.sum(scores[1:] < pos))
    ties = float(np.sum(scores[1:] == pos))
    return (wins + 0.5 * ties) / n_neg


def _check_k(k: int) -> None:
    if k <= 0:
        raise ValueError("k must be positive")


def _batch_rank_stats(
    score_lists: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-trial ``(rank, wins, ties, length)`` computed as one matrix op.

    Trials are padded into a single matrix with NaN; NaN compares false
    against the positive exactly like the scalar helpers treat out-of-range
    (or genuinely NaN) scores, so padding never shifts a rank.  This is the
    aggregation hot path every grid cell pays — one whole-array pass instead
    of four Python loops over the trial list.
    """
    arrays = []
    for scores in score_lists:
        scores = np.asarray(scores, dtype=float)
        if scores.ndim != 1 or scores.size < 1:
            raise ValueError("scores must be a non-empty 1-D array")
        arrays.append(scores)
    lengths = np.array([a.size for a in arrays], dtype=np.int64)
    matrix = np.full((len(arrays), int(lengths.max())), np.nan)
    for row, scores in enumerate(arrays):
        matrix[row, : scores.size] = scores
    pos = matrix[:, :1]
    negatives = matrix[:, 1:]
    higher = np.sum(negatives > pos, axis=1)
    ties = np.sum(negatives == pos, axis=1)
    wins = np.sum(negatives < pos, axis=1)
    ranks = 1.0 + higher + 0.5 * ties
    return ranks, wins.astype(float), ties.astype(float), lengths


@dataclass(frozen=True)
class MetricSet:
    """The four headline metrics of Table III, averaged over trials."""

    hr: float
    mrr: float
    ndcg: float
    auc: float
    n_trials: int
    k: int = 10

    @staticmethod
    def from_score_lists(score_lists: list[np.ndarray], k: int = 10) -> "MetricSet":
        """Aggregate metrics over many leave-one-out trials in one array pass."""
        _check_k(k)
        if not score_lists:
            return MetricSet(hr=0.0, mrr=0.0, ndcg=0.0, auc=0.0, n_trials=0, k=k)
        ranks, wins, ties, lengths = _batch_rank_stats(score_lists)
        in_k = ranks <= k
        n_neg = (lengths - 1).astype(float)
        auc_per_trial = np.where(
            n_neg > 0, (wins + 0.5 * ties) / np.maximum(n_neg, 1.0), 0.5
        )
        return MetricSet(
            hr=float(np.mean(in_k)),
            mrr=float(np.mean(np.where(in_k, 1.0 / ranks, 0.0))),
            ndcg=float(np.mean(np.where(in_k, 1.0 / np.log2(ranks + 1.0), 0.0))),
            auc=float(np.mean(auc_per_trial)),
            n_trials=len(score_lists),
            k=k,
        )

    def as_row(self, label: str) -> str:
        return (
            f"{label:<12} HR@{self.k}={self.hr:.4f}  MRR@{self.k}={self.mrr:.4f}  "
            f"NDCG@{self.k}={self.ndcg:.4f}  AUC={self.auc:.4f}  (n={self.n_trials})"
        )


def ndcg_curve(score_lists: list[np.ndarray], ks: list[int]) -> dict[int, float]:
    """NDCG@k for several cutoffs — the series plotted in Figs. 3–5.

    Ranks are computed once and reused across every cutoff.
    """
    for k in ks:
        _check_k(k)
    if not score_lists:
        return {k: 0.0 for k in ks}
    ranks, _, _, _ = _batch_rank_stats(score_lists)
    gains = 1.0 / np.log2(ranks + 1.0)
    return {k: float(np.mean(np.where(ranks <= k, gains, 0.0))) for k in ks}
