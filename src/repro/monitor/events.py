"""The per-verification outcome event the fleet monitor consumes.

Every verify request a :class:`~repro.service.server.VerificationServer`
or a :class:`~repro.fleet.router.FleetRouter` answers becomes one
:class:`VerificationEvent`: the family it verified against, how the
request ended (``ok`` / ``error`` / ``rejected``, see
:func:`outcome_for`), the verdict and **decision statistic** for OK
responses, the client-observed service latency and the registry
history sequence.  The monitor never
looks at chips or payloads — population health is entirely a property
of this event stream.

The decision statistic
----------------------

Flashmark's accept/reject decision ultimately rests on
``stressed_outliers`` — raw cells persistently reading stressed where
the decoded watermark says they are good — against the calibrated
``stressed_outlier_limit`` (see
:class:`~repro.core.verifier.VerificationReport`).  The monitor tracks
the *normalized* statistic::

    statistic = stressed_outliers / stressed_outlier_limit
    margin    = 1 - statistic          # head-room to misclassification

Genuine unworn populations sit near 0.5; P/E-cycle wear pushes the
statistic toward 1.0 long before any verdict flips, which is exactly
the silent drift the detectors watch for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = [
    "OUTCOME_OK",
    "OUTCOME_ERROR",
    "OUTCOME_REJECTED",
    "VerificationEvent",
    "outcome_for",
]

#: The request produced a verdict.
OUTCOME_OK = "ok"
#: The request failed with an error frame (4xx / 5xx).
OUTCOME_ERROR = "error"
#: The request was shed as load (428: proof-of-work metering,
#: 429: overload / rate limit).
OUTCOME_REJECTED = "rejected"


def outcome_for(code: Optional[int]) -> str:
    """The outcome of an error frame with wire code ``code``.

    One rule for every front end: 428 and 429 are drops (load turned
    away on purpose; the drop-rate SLO), anything else is an error —
    a 503 from a router with no healthy shard included, so it burns
    the availability SLO like any other 5xx.
    """
    return OUTCOME_REJECTED if code in (428, 429) else OUTCOME_ERROR


@dataclass(frozen=True)
class VerificationEvent:
    """One verification outcome, as the monitor sees it."""

    #: Family the request verified against ("" when admission failed
    #: before the family was known).
    family: str
    #: ``ok`` / ``error`` / ``rejected``.
    outcome: str
    #: Verdict string for OK outcomes (``authentic`` / ``counterfeit``
    #: / ``tampered``), else None.
    verdict: Optional[str] = None
    #: Normalized decision statistic (``stressed_outliers / limit``);
    #: None when the response did not carry one.
    statistic: Optional[float] = None
    #: Server-observed request latency [s] (admission -> response).
    latency_s: Optional[float] = None
    #: Registry history sequence the verdict landed at (None when the
    #: registry degraded or recording is off).
    registry_seq: Optional[int] = None
    #: Wire error code for error/rejected outcomes.
    error_code: Optional[int] = None
    #: Requesting client id.
    client: Optional[str] = None
    #: Unix stamp of the event (alert records inherit it).
    unix_s: float = 0.0
    #: Free-form extras (kept out of the hot aggregation path).
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def margin(self) -> Optional[float]:
        """Head-room to the decision threshold (1 - statistic)."""
        if self.statistic is None:
            return None
        return 1.0 - self.statistic

    @property
    def is_server_error(self) -> bool:
        """True for 5xx-class failures (the availability SLO's burn)."""
        return (
            self.outcome == OUTCOME_ERROR
            and self.error_code is not None
            and self.error_code >= 500
        )

    @property
    def is_failure(self) -> bool:
        """True for any non-OK outcome (the error-rate SLO's burn)."""
        return self.outcome != OUTCOME_OK

    @property
    def is_dropped(self) -> bool:
        """True when the request was shed as load (428 / 429)."""
        return self.outcome == OUTCOME_REJECTED

    def to_dict(self) -> dict:
        out: Dict[str, Any] = {
            "family": self.family,
            "outcome": self.outcome,
            "unix_s": self.unix_s,
        }
        for key in (
            "verdict",
            "statistic",
            "latency_s",
            "registry_seq",
            "error_code",
            "client",
        ):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        if self.attrs:
            out["attrs"] = dict(self.attrs)
        return out
