"""Flashmark core: the paper's primary contribution.

Watermark construction (:class:`Watermark`, :class:`WatermarkPayload`),
imprinting (Fig. 7), extraction (Fig. 8), replication + decoding
(Figs. 10/11), family calibration, verification, and the high-level
:class:`FlashmarkSession` workflow.
"""

from .bits import (
    bit_error_rate,
    bits_to_bytes,
    bits_to_text,
    bytes_to_bits,
    hamming_distance,
    is_balanced,
    manchester_decode,
    manchester_encode,
    ones_fraction,
    random_bits,
    text_to_bits,
)
from .calibration import FamilyCalibration
from .crc import crc16_ccitt
from .decoder import (
    AsymmetricDecoder,
    ErrorAsymmetry,
    majority_vote,
    measure_asymmetry,
)
from .ecc import Hamming74, RepetitionCode
from .extract import (
    DecodedWatermark,
    ExtractionResult,
    extract_segment,
    extract_watermark,
)
from .imprint import ImprintReport, imprint_pattern, imprint_watermark
from .multiround import SoftExtraction, extract_watermark_soft
from .payload import (
    PAYLOAD_BYTES,
    ChipStatus,
    PayloadError,
    WatermarkPayload,
)
from .pipeline import FlashmarkSession
from .planner import (
    DesignPoint,
    DesignSpace,
    explore_design_space,
    plan_imprint,
)
from .replication import ReplicaLayout
from .screening import (
    PresenceResult,
    ShipmentReport,
    detect_watermark_presence,
    screen_shipment,
)
from .signature import SignatureScheme, SignedWatermark
from .throughput import ImprintTester, ThroughputEstimate
from .verifier import (
    VerificationReport,
    Verdict,
    WatermarkFormat,
    WatermarkVerifier,
)
from .watermark import Watermark

__all__ = [
    "Watermark",
    "WatermarkPayload",
    "ChipStatus",
    "PayloadError",
    "PAYLOAD_BYTES",
    "ImprintReport",
    "imprint_pattern",
    "imprint_watermark",
    "ExtractionResult",
    "DecodedWatermark",
    "extract_segment",
    "extract_watermark",
    "ReplicaLayout",
    "SoftExtraction",
    "extract_watermark_soft",
    "SignatureScheme",
    "SignedWatermark",
    "majority_vote",
    "ErrorAsymmetry",
    "measure_asymmetry",
    "AsymmetricDecoder",
    "FamilyCalibration",
    "Verdict",
    "VerificationReport",
    "WatermarkFormat",
    "WatermarkVerifier",
    "FlashmarkSession",
    "DesignPoint",
    "DesignSpace",
    "explore_design_space",
    "plan_imprint",
    "PresenceResult",
    "detect_watermark_presence",
    "ShipmentReport",
    "screen_shipment",
    "ImprintTester",
    "ThroughputEstimate",
    "RepetitionCode",
    "Hamming74",
    "crc16_ccitt",
    "text_to_bits",
    "bits_to_text",
    "bytes_to_bits",
    "bits_to_bytes",
    "random_bits",
    "hamming_distance",
    "bit_error_rate",
    "ones_fraction",
    "is_balanced",
    "manchester_encode",
    "manchester_decode",
]
