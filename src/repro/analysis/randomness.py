"""Lightweight randomness tests for the flash TRNG baseline.

Three classic NIST-style checks, enough to sanity-test a hardware
entropy source: the monobit (frequency) test, the runs test, and a
chi-square uniformity test over bytes.  Each returns a p-value; a
healthy source stays above a significance level of ~0.01.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["monobit_test", "runs_test", "byte_chi_square_test"]


def monobit_test(bits: np.ndarray) -> float:
    """NIST SP 800-22 frequency test; returns the p-value."""
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size < 100:
        raise ValueError("monobit test needs at least 100 bits")
    s = abs(int((2 * bits - 1).sum()))
    return math.erfc(s / math.sqrt(2.0 * bits.size))


def runs_test(bits: np.ndarray) -> float:
    """NIST SP 800-22 runs test; returns the p-value.

    Counts maximal runs of identical bits; too few runs means sticky
    bits, too many means oscillation.
    """
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size < 100:
        raise ValueError("runs test needs at least 100 bits")
    pi = bits.mean()
    # Prerequisite frequency check from the NIST spec.
    if abs(pi - 0.5) >= 2.0 / math.sqrt(bits.size):
        return 0.0
    runs = 1 + int(np.count_nonzero(np.diff(bits)))
    expected = 2.0 * bits.size * pi * (1 - pi)
    denom = 2.0 * math.sqrt(2.0 * bits.size) * pi * (1 - pi)
    return math.erfc(abs(runs - expected) / denom)


def byte_chi_square_test(bits: np.ndarray) -> float:
    """Chi-square uniformity over bytes; returns the p-value."""
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    n_bytes = bits.size // 8
    if n_bytes < 256:
        raise ValueError("chi-square test needs at least 2048 bits")
    values = np.packbits(bits[: n_bytes * 8], bitorder="little")
    counts = np.bincount(values, minlength=256)
    from scipy.stats import chisquare

    return float(chisquare(counts).pvalue)
