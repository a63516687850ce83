"""Shipment screening utilities: blind detection and batch verification.

Two integrator-side conveniences built on the core procedures:

* :func:`detect_watermark_presence` — decide whether a chip carries
  *any* Flashmark imprint without knowing the watermark format: after a
  partial erase long enough that every fresh cell has crossed, only
  stress-imprinted cells still read programmed.  Useful as a cheap
  triage step before full verification, and against gray-market chips
  of unknown provenance.
* :func:`screen_shipment` — run a verifier over a batch of chips and
  aggregate verdicts, per-chip timing and (when ground truth is
  supplied) a confusion matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..device.mcu import Microcontroller
from .extract import extract_segment
from .verifier import VerificationReport, Verdict, WatermarkVerifier

__all__ = [
    "PresenceResult",
    "detect_watermark_presence",
    "ShipmentReport",
    "screen_shipment",
]


@dataclass(frozen=True)
class PresenceResult:
    """Outcome of a blind watermark-presence probe."""

    #: True when the segment shows a stress imprint.
    has_watermark: bool
    #: Fraction of cells still reading programmed past the fresh window.
    stressed_fraction: float
    #: Cells still programmed (out of the segment size).
    stressed_cells: int
    #: Binomial-test p-value against the blank-chip residual rate.
    p_value: float
    #: Partial-erase time used for the probe [us].
    t_probe_us: float


def detect_watermark_presence(
    chip: Microcontroller,
    segment: int = 0,
    t_probe_us: float = 34.0,
    blank_residual_rate: float = 0.002,
    alpha: float = 1e-6,
    n_reads: int = 3,
) -> PresenceResult:
    """Blind-probe a segment for a stress imprint.

    ``t_probe_us`` must sit past the fresh population's full-erase time
    (the family characterisation's 0 K curve); ``blank_residual_rate``
    is the fraction of cells a *blank* chip may still show programmed
    there (slow-tail process outliers plus read noise).  A chip whose
    stressed-cell count is binomially incompatible with that rate
    carries an imprint.

    The probe needs no knowledge of the watermark format and costs one
    extraction round (~35 ms).
    """
    if not 0.0 <= blank_residual_rate < 1.0:
        raise ValueError("blank_residual_rate must be in [0, 1)")
    extraction = extract_segment(
        chip.flash, segment, t_probe_us, n_reads=n_reads
    )
    n = extraction.raw_bits.size
    stressed = int(np.count_nonzero(extraction.raw_bits == 0))
    from scipy.stats import binomtest

    test = binomtest(
        stressed, n, blank_residual_rate, alternative="greater"
    )
    return PresenceResult(
        has_watermark=test.pvalue < alpha,
        stressed_fraction=stressed / n,
        stressed_cells=stressed,
        p_value=float(test.pvalue),
        t_probe_us=t_probe_us,
    )


@dataclass
class ShipmentReport:
    """Aggregated outcome of screening a batch of chips."""

    #: Per-chip (label, verdict) in input order.
    outcomes: List[Tuple[str, VerificationReport]] = field(
        default_factory=list
    )
    #: Verdict counts.
    tally: Dict[Verdict, int] = field(default_factory=dict)
    #: Confusion counts when ground truth was supplied.
    confusion: Dict[str, int] = field(default_factory=dict)
    #: Total verifier device time across the batch [ms].
    total_verify_ms: float = 0.0

    @property
    def n_chips(self) -> int:
        return len(self.outcomes)

    @property
    def accept_fraction(self) -> float:
        if not self.outcomes:
            raise ValueError("empty shipment report")
        return self.tally.get(Verdict.AUTHENTIC, 0) / self.n_chips

    def is_clean(self) -> bool:
        """True when ground truth was given and screening made no error."""
        if not self.confusion:
            raise ValueError("no ground truth was supplied")
        return (
            self.confusion.get("false_accept", 0) == 0
            and self.confusion.get("false_reject", 0) == 0
        )


def screen_shipment(
    chips: Sequence[Microcontroller],
    verifier: WatermarkVerifier,
    genuine_truth: Optional[Sequence[bool]] = None,
    segment: int = 0,
    labels: Optional[Sequence[str]] = None,
) -> ShipmentReport:
    """Verify every chip of a shipment and aggregate the results.

    Parameters
    ----------
    chips:
        The shipment.
    verifier:
        Configured with the published family parameters.
    genuine_truth:
        Optional per-chip ground truth (True = should verify) enabling
        the confusion matrix.
    labels:
        Optional per-chip labels for the report (defaults to die ids).
    """
    if genuine_truth is not None and len(genuine_truth) != len(chips):
        raise ValueError("genuine_truth length must match chips")
    if labels is not None and len(labels) != len(chips):
        raise ValueError("labels length must match chips")
    report = ShipmentReport()
    for i, chip in enumerate(chips):
        label = (
            labels[i] if labels is not None else f"0x{chip.die_id:012X}"
        )
        result = verifier.verify(chip.flash, segment)
        report.outcomes.append((label, result))
        report.tally[result.verdict] = (
            report.tally.get(result.verdict, 0) + 1
        )
        report.total_verify_ms += result.decoded.extraction.duration_ms
        if genuine_truth is not None:
            should = bool(genuine_truth[i])
            did = result.verdict is Verdict.AUTHENTIC
            key = {
                (True, True): "true_accept",
                (True, False): "false_reject",
                (False, True): "false_accept",
                (False, False): "true_reject",
            }[(should, did)]
            report.confusion[key] = report.confusion.get(key, 0) + 1
    return report
