"""WatermarkRegistry: the manufacturer's published-parameter store.

Section V's deployment story splits the world in two: the manufacturer
*publishes* family parameters (the t_PEW window of Section IV plus the
watermark format), and downstream integrators *verify* chips against
them at incoming inspection.  The registry is that published surface,
backed by SQLite so it survives process restarts and serves concurrent
readers:

* ``families`` — published :class:`FamilyCalibration` + format per
  device family, with the fingerprint (never the key) of the signing
  key when the family imprints keyed signatures;
* ``verifications`` — per-chip verification history, the audit trail an
  integrator consults before trusting a die id it has seen before;
* ``audit_log`` — append-only, hash-chained record of every mutation;
  :meth:`WatermarkRegistry.verify_audit_chain` detects any rewrite.

Schema-versioned as ``flashmark.registry/v1``; opening a database with
a different schema raises :class:`RegistryError` rather than guessing.
"""

from __future__ import annotations

import hashlib
import json
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import (
    Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union,
)

from ..core.calibration import FamilyCalibration
from ..core.verifier import WatermarkFormat
from ..engine.cache import calibration_from_dict, calibration_to_dict
from ..faults import fault_point

__all__ = [
    "REGISTRY_SCHEMA",
    "RegistryError",
    "FamilyRecord",
    "VerificationRecord",
    "WatermarkRegistry",
]

REGISTRY_SCHEMA = "flashmark.registry/v1"

#: Chain anchor for the first audit entry.
_GENESIS = hashlib.sha256(REGISTRY_SCHEMA.encode("utf-8")).hexdigest()

_TABLES = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS families (
    family_id            TEXT PRIMARY KEY,
    model                TEXT NOT NULL,
    calibration_json     TEXT NOT NULL,
    format_json          TEXT NOT NULL,
    sign_key_fingerprint TEXT,
    verify_key           TEXT,
    verify_algorithm     TEXT,
    published_unix_s     REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS verifications (
    seq            INTEGER PRIMARY KEY AUTOINCREMENT,
    family_id      TEXT NOT NULL,
    die_id         TEXT NOT NULL,
    verdict        TEXT NOT NULL,
    ber            REAL,
    reason         TEXT,
    client         TEXT,
    created_unix_s REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_verifications_die
    ON verifications (die_id);
CREATE TABLE IF NOT EXISTS audit_log (
    seq            INTEGER PRIMARY KEY AUTOINCREMENT,
    created_unix_s REAL NOT NULL,
    actor          TEXT NOT NULL,
    action         TEXT NOT NULL,
    detail_json    TEXT NOT NULL,
    prev_hash      TEXT NOT NULL,
    entry_hash     TEXT NOT NULL
);
"""


class RegistryError(RuntimeError):
    """The registry file is missing, foreign, or the request is invalid."""


@dataclass(frozen=True)
class FamilyRecord:
    """One published device family."""

    family_id: str
    model: str
    calibration: FamilyCalibration
    format: WatermarkFormat
    #: SHA-256 hex of the manufacturer signing key (None when unsigned).
    sign_key_fingerprint: Optional[str]
    published_unix_s: float
    #: Publishable receipt *verifying* key (raw bytes; None when the
    #: family issues no receipts).  Unlike the watermark signing key —
    #: of which only a fingerprint is stored — this key is public by
    #: design: anyone may hold it to check receipts offline.
    verify_key: Optional[bytes] = None
    #: Receipt algorithm of ``verify_key`` ("ed25519" / "hmac-sha256").
    verify_algorithm: Optional[str] = None


@dataclass(frozen=True)
class VerificationRecord:
    """One row of per-chip verification history."""

    seq: int
    family_id: str
    die_id: str
    verdict: str
    ber: Optional[float]
    reason: Optional[str]
    client: Optional[str]
    created_unix_s: float


def _die_key(die_id: Union[int, str]) -> str:
    """The stored form of a die id: 12 hex digits for ints."""
    return f"0x{die_id:012X}" if isinstance(die_id, int) else str(die_id)


def _format_to_dict(fmt: WatermarkFormat) -> dict:
    return asdict(fmt)


def _format_from_dict(raw: dict) -> WatermarkFormat:
    try:
        return WatermarkFormat(**raw)
    except TypeError as exc:
        raise RegistryError(f"malformed stored format: {exc}") from exc


class WatermarkRegistry:
    """SQLite-backed store of published families and verification history.

    Parameters
    ----------
    path:
        Database file, or ``":memory:"`` for an ephemeral registry.
    create:
        Initialize the schema when the database is new.  With
        ``create=False``, opening a file without the registry schema
        raises :class:`RegistryError` (guards against typo'd paths).

    The connection is shared across threads behind one lock: the
    verification server records history from executor threads while the
    event loop answers reads.
    """

    def __init__(
        self,
        path: Union[str, Path] = ":memory:",
        *,
        create: bool = True,
    ):
        self.path = str(path)
        self._lock = threading.RLock()
        self._conn = sqlite3.connect(
            self.path, check_same_thread=False
        )
        self._conn.row_factory = sqlite3.Row
        self._init_schema(create)

    # -- lifecycle --------------------------------------------------------

    def _init_schema(self, create: bool) -> None:
        with self._lock:
            row = self._conn.execute(
                "SELECT name FROM sqlite_master "
                "WHERE type='table' AND name='meta'"
            ).fetchone()
            if row is None:
                if not create:
                    raise RegistryError(
                        f"{self.path}: not a flashmark registry "
                        "(no schema table)"
                    )
                self._conn.executescript(_TABLES)
                with self._transaction():
                    self._conn.execute(
                        "INSERT INTO meta (key, value) "
                        "VALUES ('schema', ?)",
                        (REGISTRY_SCHEMA,),
                    )
                    self._append_audit(
                        self._head_hash(),
                        "registry",
                        "registry.init",
                        {"path": self.path},
                    )
                return
            stored = self._conn.execute(
                "SELECT value FROM meta WHERE key='schema'"
            ).fetchone()
            schema = stored["value"] if stored is not None else None
            if schema != REGISTRY_SCHEMA:
                raise RegistryError(
                    f"{self.path}: schema {schema!r} is not "
                    f"{REGISTRY_SCHEMA!r}"
                )
            self._migrate_families()

    def _migrate_families(self) -> None:
        """Add receipt-key columns to pre-receipt v1 files in place.

        Registries written before receipts existed lack the
        ``verify_key`` / ``verify_algorithm`` columns; ``ALTER TABLE
        ADD COLUMN`` fills them with NULL, which is exactly the
        pre-migration meaning (no receipt key published).  Pure schema
        widening — no data mutates, so no audit entry is chained.
        """
        columns = {
            row["name"]
            for row in self._conn.execute(
                "PRAGMA table_info(families)"
            ).fetchall()
        }
        migrated = False
        for column in ("verify_key", "verify_algorithm"):
            if column not in columns:
                self._conn.execute(
                    f"ALTER TABLE families ADD COLUMN {column} TEXT"
                )
                migrated = True
        if migrated:
            self._conn.commit()

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "WatermarkRegistry":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- keys -------------------------------------------------------------

    @staticmethod
    def fingerprint(key: bytes) -> str:
        """Public fingerprint of a manufacturer signing key."""
        return hashlib.sha256(bytes(key)).hexdigest()

    # -- families ---------------------------------------------------------

    def publish_family(
        self,
        family_id: str,
        calibration: FamilyCalibration,
        format: WatermarkFormat,
        *,
        sign_key: Optional[bytes] = None,
        verify_key: Optional[bytes] = None,
        verify_algorithm: Optional[str] = None,
        actor: str = "manufacturer",
        replace: bool = False,
    ) -> FamilyRecord:
        """Publish (or with ``replace=True`` re-publish) a family.

        ``verify_key`` is the family's receipt *verifying* key —
        public material stored verbatim (hex) so downstream holders of
        a registry snapshot can check receipt signatures offline;
        ``verify_algorithm`` names its scheme.  The watermark signing
        key stays fingerprint-only, as before.
        """
        if not family_id:
            raise RegistryError("family_id must be non-empty")
        if verify_key is not None and verify_algorithm is None:
            raise RegistryError(
                "publishing a verify_key requires verify_algorithm"
            )
        fingerprint = (
            self.fingerprint(sign_key) if sign_key is not None else None
        )
        now = time.time()
        with self._transaction():
            existing = self._conn.execute(
                "SELECT family_id FROM families WHERE family_id=?",
                (family_id,),
            ).fetchone()
            if existing is not None and not replace:
                raise RegistryError(
                    f"family {family_id!r} is already published "
                    "(pass replace=True to supersede it)"
                )
            self._conn.execute(
                "INSERT OR REPLACE INTO families "
                "(family_id, model, calibration_json, format_json, "
                " sign_key_fingerprint, verify_key, verify_algorithm, "
                " published_unix_s) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    family_id,
                    calibration.model,
                    json.dumps(calibration_to_dict(calibration)),
                    json.dumps(_format_to_dict(format)),
                    fingerprint,
                    verify_key.hex() if verify_key is not None else None,
                    verify_algorithm,
                    now,
                ),
            )
            # Family row and its audit entry commit together: a failed
            # append leaves neither behind.
            self._append_audit(
                self._head_hash(),
                actor,
                "family.republish" if existing else "family.publish",
                {
                    "family_id": family_id,
                    "model": calibration.model,
                    "t_pew_us": calibration.t_pew_us,
                    "signed": fingerprint is not None,
                    "receipts": verify_key is not None,
                },
            )
        return self.get_family(family_id)

    def get_family(self, family_id: str) -> FamilyRecord:
        """The published record for ``family_id`` (raises if unknown)."""
        with self._lock:
            row = self._conn.execute(
                "SELECT * FROM families WHERE family_id=?", (family_id,)
            ).fetchone()
        if row is None:
            raise RegistryError(f"unknown family {family_id!r}")
        return FamilyRecord(
            family_id=row["family_id"],
            model=row["model"],
            calibration=calibration_from_dict(
                json.loads(row["calibration_json"])
            ),
            format=_format_from_dict(json.loads(row["format_json"])),
            sign_key_fingerprint=row["sign_key_fingerprint"],
            published_unix_s=row["published_unix_s"],
            verify_key=(
                bytes.fromhex(row["verify_key"])
                if row["verify_key"]
                else None
            ),
            verify_algorithm=row["verify_algorithm"],
        )

    def families(self) -> List[FamilyRecord]:
        """All published families, oldest first."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT family_id FROM families ORDER BY published_unix_s"
            ).fetchall()
        return [self.get_family(r["family_id"]) for r in rows]

    # -- verification history --------------------------------------------

    def record_verification(
        self,
        family_id: str,
        die_id: Union[int, str],
        verdict: str,
        *,
        ber: Optional[float] = None,
        reason: Optional[str] = None,
        client: Optional[str] = None,
    ) -> int:
        """Append one verification outcome; returns its sequence number.

        The one-record case of :meth:`record_verifications`: the
        history row and its ``verification.record`` audit entry commit
        together or not at all.
        """
        [(seq, _)] = self.record_verifications(
            [
                {
                    "family_id": family_id,
                    "die_id": die_id,
                    "verdict": verdict,
                    "ber": ber,
                    "reason": reason,
                    "client": client,
                }
            ]
        )
        return seq

    def record_verifications(
        self, records: Iterable[Mapping[str, Any]]
    ) -> List[Tuple[int, str]]:
        """Append many verification outcomes in one transaction.

        Each record is a mapping of :meth:`record_verification`'s
        arguments (``family_id``, ``die_id``, ``verdict`` and optionally
        ``ber``, ``reason``, ``client``).  Records are appended in
        order, each history row followed by its chained
        ``verification.record`` audit entry, and the whole batch commits
        once — so a batch costs one fsync, not two per record.  Returns
        ``(seq, entry_hash)`` per record: the history row's sequence
        number and the hash of its own audit entry (what a receipt for
        that verdict anchors on).

        Any exception rolls the whole batch back, leaving neither
        history rows nor audit entries behind, so a retry records each
        die exactly once.  May raise ``sqlite3.OperationalError`` (e.g.
        ``database is locked``) under concurrent writers; the
        verification server retries with backoff and degrades to
        unrecorded history rather than failing the verdict.
        """
        # Injection point: a scheduled sqlite3.OperationalError here
        # reproduces a locked registry deterministically (once per
        # transaction attempt).
        fault_point("service.registry")
        appended: List[Tuple[int, str]] = []
        with self._transaction():
            prev_hash = self._head_hash()
            for record in records:
                die = _die_key(record["die_id"])
                verdict = record["verdict"]
                client = record.get("client")
                cur = self._conn.execute(
                    "INSERT INTO verifications "
                    "(family_id, die_id, verdict, ber, reason, client, "
                    " created_unix_s) VALUES (?, ?, ?, ?, ?, ?, ?)",
                    (
                        record["family_id"],
                        die,
                        verdict,
                        record.get("ber"),
                        record.get("reason"),
                        client,
                        time.time(),
                    ),
                )
                seq = int(cur.lastrowid)
                prev_hash = self._append_audit(
                    prev_hash,
                    client or "verifier",
                    "verification.record",
                    {"seq": seq, "die_id": die, "verdict": verdict},
                )
                appended.append((seq, prev_hash))
        return appended

    def history(
        self,
        die_id: Optional[Union[int, str]] = None,
        *,
        family_id: Optional[str] = None,
        limit: int = 100,
    ) -> List[VerificationRecord]:
        """Verification history, newest first, optionally filtered."""
        clauses, params = [], []
        if die_id is not None:
            clauses.append("die_id=?")
            params.append(_die_key(die_id))
        if family_id is not None:
            clauses.append("family_id=?")
            params.append(family_id)
        where = f"WHERE {' AND '.join(clauses)}" if clauses else ""
        with self._lock:
            rows = self._conn.execute(
                f"SELECT * FROM verifications {where} "
                "ORDER BY seq DESC LIMIT ?",
                (*params, int(limit)),
            ).fetchall()
        return [
            VerificationRecord(
                seq=r["seq"],
                family_id=r["family_id"],
                die_id=r["die_id"],
                verdict=r["verdict"],
                ber=r["ber"],
                reason=r["reason"],
                client=r["client"],
                created_unix_s=r["created_unix_s"],
            )
            for r in rows
        ]

    # -- audit log --------------------------------------------------------

    @staticmethod
    def _entry_hash(
        prev_hash: str, ts: float, actor: str, action: str, detail: str
    ) -> str:
        blob = json.dumps(
            [prev_hash, ts, actor, action, detail],
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @contextmanager
    def _transaction(self) -> Iterator[None]:
        """One write transaction under the lock: commit on success,
        roll back on any exception.

        ``BEGIN IMMEDIATE`` takes SQLite's write lock before the chain
        head is read, so no other connection can append between that
        read and this transaction's own entries.
        """
        with self._lock:
            self._conn.execute("BEGIN IMMEDIATE")
            try:
                yield
            except BaseException:
                self._conn.rollback()
                raise
            self._conn.commit()

    def _head_hash(self) -> str:
        """The newest entry's hash, genesis if empty (caller holds the
        lock)."""
        last = self._conn.execute(
            "SELECT entry_hash FROM audit_log ORDER BY seq DESC LIMIT 1"
        ).fetchone()
        return last["entry_hash"] if last is not None else _GENESIS

    def _append_audit(
        self,
        prev_hash: str,
        actor: str,
        action: str,
        detail: Dict[str, Any],
    ) -> str:
        """Chain one audit entry onto ``prev_hash``; returns its hash.

        Runs inside the caller's :meth:`_transaction`, which commits it
        together with the mutation it records.
        """
        detail_json = json.dumps(detail, sort_keys=True)
        now = time.time()
        entry_hash = self._entry_hash(
            prev_hash, now, actor, action, detail_json
        )
        self._conn.execute(
            "INSERT INTO audit_log "
            "(created_unix_s, actor, action, detail_json, prev_hash, "
            " entry_hash) VALUES (?, ?, ?, ?, ?, ?)",
            (now, actor, action, detail_json, prev_hash, entry_hash),
        )
        return entry_hash

    def audit_head(self) -> str:
        """The chain head: the newest entry's hash (genesis if empty).

        Receipts anchor on this value at issuance; because the chain is
        append-only, every historical head remains discoverable as some
        entry's ``entry_hash`` in any later snapshot.
        """
        with self._lock:
            return self._head_hash()

    def audit_entries(self, limit: Optional[int] = None) -> List[dict]:
        """Audit entries, oldest first."""
        sql = "SELECT * FROM audit_log ORDER BY seq"
        if limit is not None:
            sql += f" LIMIT {int(limit)}"
        with self._lock:
            rows = self._conn.execute(sql).fetchall()
        return [
            {
                "seq": r["seq"],
                "created_unix_s": r["created_unix_s"],
                "actor": r["actor"],
                "action": r["action"],
                "detail": json.loads(r["detail_json"]),
                "prev_hash": r["prev_hash"],
                "entry_hash": r["entry_hash"],
            }
            for r in rows
        ]

    def verify_audit_chain(self) -> int:
        """Recompute the hash chain; returns the entry count.

        Raises :class:`RegistryError` at the first break — a deleted,
        reordered or edited entry changes every downstream hash.
        """
        with self._lock:
            rows = self._conn.execute(
                "SELECT * FROM audit_log ORDER BY seq"
            ).fetchall()
        prev = _GENESIS
        for r in rows:
            if r["prev_hash"] != prev:
                raise RegistryError(
                    f"audit chain broken at seq {r['seq']}: "
                    "prev_hash mismatch"
                )
            expected = self._entry_hash(
                r["prev_hash"],
                r["created_unix_s"],
                r["actor"],
                r["action"],
                r["detail_json"],
            )
            if r["entry_hash"] != expected:
                raise RegistryError(
                    f"audit chain broken at seq {r['seq']}: "
                    "entry_hash mismatch"
                )
            prev = r["entry_hash"]
        return len(rows)

    # -- stats ------------------------------------------------------------

    def counts(self) -> dict:
        """Row counts per table (for /healthz and the CLI)."""
        with self._lock:
            families = self._conn.execute(
                "SELECT COUNT(*) AS n FROM families"
            ).fetchone()["n"]
            verifications = self._conn.execute(
                "SELECT COUNT(*) AS n FROM verifications"
            ).fetchone()["n"]
            audit = self._conn.execute(
                "SELECT COUNT(*) AS n FROM audit_log"
            ).fetchone()["n"]
        return {
            "families": int(families),
            "verifications": int(verifications),
            "audit_entries": int(audit),
        }
