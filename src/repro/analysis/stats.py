"""Distribution summaries for physical-state analysis.

Used by the Fig. 1(d) threshold-voltage benchmark and by the ablation
studies: compact summaries of per-cell quantities (threshold voltages,
crossing times) and a separation metric between two populations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DistributionSummary",
    "summarize",
    "separation_d_prime",
    "overlap_fraction",
    "ks_statistic",
]


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-plus summary of a sample."""

    n: int
    mean: float
    std: float
    minimum: float
    p05: float
    median: float
    p95: float
    maximum: float

    def as_row(self) -> tuple:
        """Cells for a :func:`repro.analysis.tables.format_table` row."""
        return (
            self.n,
            self.mean,
            self.std,
            self.minimum,
            self.p05,
            self.median,
            self.p95,
            self.maximum,
        )


def summarize(sample: np.ndarray) -> DistributionSummary:
    """Summarise a 1-D sample."""
    sample = np.asarray(sample, dtype=np.float64).ravel()
    if sample.size == 0:
        raise ValueError("empty sample")
    p05, median, p95 = np.percentile(sample, [5, 50, 95])
    return DistributionSummary(
        n=int(sample.size),
        mean=float(sample.mean()),
        std=float(sample.std()),
        minimum=float(sample.min()),
        p05=float(p05),
        median=float(median),
        p95=float(p95),
        maximum=float(sample.max()),
    )


def separation_d_prime(a: np.ndarray, b: np.ndarray) -> float:
    """d' sensitivity index between two samples.

    ``|mean_a - mean_b| / sqrt((var_a + var_b) / 2)`` — how separable the
    programmed/erased threshold distributions (Fig. 1d) or the good/bad
    crossing-time distributions are.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    pooled = float(np.sqrt((a.var() + b.var()) / 2.0))
    if pooled == 0.0:
        return float("inf") if a.mean() != b.mean() else 0.0
    return float(abs(a.mean() - b.mean()) / pooled)


def overlap_fraction(a: np.ndarray, b: np.ndarray) -> float:
    """Empirical overlap between two samples' value ranges.

    Fraction of the pooled sample falling between the 5th percentile of
    the higher distribution and the 95th percentile of the lower one —
    0 for cleanly separated populations.  Complements
    :func:`separation_d_prime` for the heavy-tailed crossing times where
    a Gaussian d' understates the tail collisions; uses a
    Kolmogorov-Smirnov-style pooling rather than density estimation.
    """
    a = np.asarray(a, dtype=np.float64).ravel()
    b = np.asarray(b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("empty sample")
    lo_dist, hi_dist = (a, b) if np.median(a) <= np.median(b) else (b, a)
    lo_edge = float(np.percentile(hi_dist, 5))
    hi_edge = float(np.percentile(lo_dist, 95))
    if hi_edge <= lo_edge:
        return 0.0
    pooled = np.concatenate([a, b])
    inside = np.count_nonzero((pooled >= lo_edge) & (pooled <= hi_edge))
    return float(inside / pooled.size)


def ks_statistic(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic (scipy-backed)."""
    from scipy.stats import ks_2samp

    return float(ks_2samp(a, b).statistic)
