"""Hashcash-style proof-of-work tickets for the open verify endpoint.

The token buckets in :mod:`repro.service.server` meter *named* clients;
an anonymous flash-crowd can sidestep them by rotating client ids.  PoW
meters by compute instead: before the server even decodes a chip blob,
the request must carry a ticket whose hash

    SHA256(client_id | endpoint | body_hash | nonce)

has at least ``difficulty`` leading zero *bits*.  ``body_hash`` is the
hex SHA-256 of the request excluding the ``pow`` field itself and the
router-rewritten ``trace`` field: for a binary verify frame, the
canonical JSON of its header followed by the raw chip bytes of its
body; for a JSON request (the base64 form earlier clients send), the
canonical JSON of the whole request.  A ticket thus binds to one exact
request — replaying it with a different chip, family or request id
changes ``body_hash`` and invalidates the ticket.  Replaying it with
the *same* body is caught by the server-side replay cache: each ticket
digest is accepted exactly once.

``difficulty`` counts bits, so each +1 doubles expected minting work;
0 disables the gate entirely (the server then never answers 428).
Rejections use the dedicated ``428 POW_REQUIRED`` wire code — distinct
from ``429`` so a client can tell "mint harder" apart from "back off".
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Optional, Tuple

__all__ = [
    "POW_ENDPOINT_VERIFY",
    "body_hash",
    "ticket_digest",
    "leading_zero_bits",
    "mint_ticket",
    "check_ticket",
    "PowGate",
]

#: Endpoint label verify tickets bind to — stable whether the request
#: lands on a lone server, a shard, or travels through the router.
POW_ENDPOINT_VERIFY = "verify"

#: Wire fields excluded from the body hash: the ticket itself, plus
#: ``trace`` — the fleet router re-parents the traceparent before
#: forwarding, so binding PoW to it would invalidate every ticket that
#: crosses the router.  Trace context is observability metadata, not
#: request semantics; excluding it costs nothing security-wise.
_EXCLUDED_FIELDS = ("pow", "nonce", "difficulty", "trace")


def body_hash(body: dict) -> str:
    """Hex SHA-256 of a request body, excluding the ticket fields.

    Raw chip bytes (a binary frame's body, under ``chip_b64``) are
    hashed as they are, after the canonical header — never JSON-dumped.
    """
    trimmed = {
        k: v for k, v in body.items() if k not in _EXCLUDED_FIELDS
    }
    chip = b""
    if isinstance(trimmed.get("chip_b64"), bytes):
        chip = trimmed.pop("chip_b64")
    header = json.dumps(trimmed, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(header.encode("utf-8"))
    digest.update(chip)
    return digest.hexdigest()


def ticket_digest(
    client_id: str, endpoint: str, body_hash_hex: str, nonce: int
) -> bytes:
    """The hashcash digest a ticket is judged (and replay-keyed) by."""
    blob = f"{client_id}|{endpoint}|{body_hash_hex}|{int(nonce)}"
    return hashlib.sha256(blob.encode("utf-8")).digest()


def leading_zero_bits(digest: bytes) -> int:
    """Number of leading zero bits of a digest."""
    bits = 0
    for byte in digest:
        if byte == 0:
            bits += 8
            continue
        # 7 - floor(log2(byte)) leading zeros within this byte.
        bits += 8 - byte.bit_length()
        break
    return bits


def mint_ticket(
    client_id: str,
    body: dict,
    difficulty: int,
    *,
    endpoint: str = POW_ENDPOINT_VERIFY,
    start_nonce: int = 0,
    max_iterations: Optional[int] = None,
) -> dict:
    """Search nonces until the digest clears ``difficulty`` bits.

    Returns the wire ticket ``{"nonce": n, "difficulty": d}``.  Expected
    work is ``2**difficulty`` hashes; ``max_iterations`` bounds a search
    that cannot finish (raises ``RuntimeError`` when exhausted).
    """
    if difficulty < 0:
        raise ValueError("difficulty must be >= 0")
    bh = body_hash(body)
    nonce = int(start_nonce)
    remaining = max_iterations
    while True:
        digest = ticket_digest(client_id, endpoint, bh, nonce)
        if leading_zero_bits(digest) >= difficulty:
            return {"nonce": nonce, "difficulty": int(difficulty)}
        nonce += 1
        if remaining is not None:
            remaining -= 1
            if remaining <= 0:
                raise RuntimeError(
                    f"no nonce cleared difficulty {difficulty} within "
                    f"{max_iterations} iterations"
                )


def check_ticket(
    client_id: str,
    body: dict,
    nonce: int,
    difficulty: int,
    *,
    endpoint: str = POW_ENDPOINT_VERIFY,
) -> bool:
    """True when ``nonce`` clears ``difficulty`` bits for this body."""
    digest = ticket_digest(client_id, endpoint, body_hash(body), nonce)
    return leading_zero_bits(digest) >= difficulty


class PowGate:
    """Server-side ticket checker with an exactly-once replay cache.

    ``difficulty == 0`` disables the gate: :meth:`evaluate` always
    accepts and records nothing, so a server configured without PoW
    behaves byte-identically to one predating the feature.

    The replay cache is a bounded FIFO over accepted ticket digests —
    a ticket is spendable exactly once within the cache horizon.  The
    bound keeps memory flat under sustained anonymous load; an attacker
    who waits for eviction must still re-mint against a fresh nonce
    for less total throughput than honest minting.
    """

    #: Rejection reasons, also used as telemetry counter suffixes.
    MISSING = "missing"
    MALFORMED = "malformed"
    WEAK = "weak"
    REPLAYED = "replayed"

    def __init__(self, difficulty: int, *, replay_cache: int = 4096):
        if difficulty < 0:
            raise ValueError("difficulty must be >= 0")
        if replay_cache < 1:
            raise ValueError("replay_cache must be >= 1")
        self.difficulty = int(difficulty)
        self.replay_cache = int(replay_cache)
        self._seen: "OrderedDict[bytes, None]" = OrderedDict()

    @property
    def enabled(self) -> bool:
        return self.difficulty > 0

    def evaluate(
        self,
        client_id: str,
        body: dict,
        *,
        endpoint: str = POW_ENDPOINT_VERIFY,
    ) -> Tuple[bool, Optional[str]]:
        """``(accepted, rejection_reason)`` for one request body.

        The ticket is read from ``body["pow"]`` (``{"nonce": int}``);
        acceptance spends it — an identical ticket on an identical body
        is rejected as ``"replayed"`` afterwards.
        """
        if not self.enabled:
            return True, None
        ticket = body.get("pow")
        if ticket is None:
            return False, self.MISSING
        if not isinstance(ticket, dict) or not isinstance(
            ticket.get("nonce"), int
        ):
            return False, self.MALFORMED
        nonce = ticket["nonce"]
        digest = ticket_digest(
            client_id, endpoint, body_hash(body), nonce
        )
        if leading_zero_bits(digest) < self.difficulty:
            return False, self.WEAK
        if digest in self._seen:
            return False, self.REPLAYED
        self._seen[digest] = None
        while len(self._seen) > self.replay_cache:
            self._seen.popitem(last=False)
        return True, None
