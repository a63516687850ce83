"""Tests for the persistent watermark registry."""

import itertools
import sqlite3
from collections import Counter
from types import SimpleNamespace

import pytest

from repro.service import registry as registry_module
from repro.service import (
    REGISTRY_SCHEMA,
    FamilyRecord,
    RegistryError,
    WatermarkRegistry,
)
from tests.service.conftest import FAMILY


class TestLifecycle:
    def test_creates_schema(self, tmp_path):
        path = tmp_path / "reg.db"
        with WatermarkRegistry(path) as reg:
            counts = reg.counts()
        assert path.exists()
        assert counts["families"] == 0
        assert counts["verifications"] == 0
        assert counts["audit_entries"] == 1  # registry.init

    def test_reopen_persists(self, registry, family_calibration):
        path = registry.path
        registry.close()
        with WatermarkRegistry(path, create=False) as reg:
            record = reg.get_family(FAMILY)
        assert record.calibration.t_pew_us == pytest.approx(
            family_calibration.t_pew_us
        )

    def test_missing_file_without_create_raises(self, tmp_path):
        with pytest.raises(RegistryError):
            WatermarkRegistry(tmp_path / "nope.db", create=False)

    def test_foreign_database_rejected(self, tmp_path):
        path = tmp_path / "foreign.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE meta (key TEXT, value TEXT)")
        conn.execute(
            "INSERT INTO meta VALUES ('schema', 'something/else')"
        )
        conn.commit()
        conn.close()
        with pytest.raises(RegistryError, match=REGISTRY_SCHEMA):
            WatermarkRegistry(path)


class TestFamilies:
    def test_publish_roundtrip(self, registry, traffic_spec):
        record = registry.get_family(FAMILY)
        assert isinstance(record, FamilyRecord)
        assert record.format == traffic_spec.population.format
        assert record.sign_key_fingerprint is None

    def test_duplicate_publish_rejected(
        self, registry, family_calibration, traffic_spec
    ):
        with pytest.raises(RegistryError, match="already published"):
            registry.publish_family(
                FAMILY, family_calibration, traffic_spec.population.format
            )

    def test_replace_supersedes(
        self, registry, family_calibration, traffic_spec
    ):
        registry.publish_family(
            FAMILY,
            family_calibration,
            traffic_spec.population.format,
            sign_key=b"new key",
            replace=True,
        )
        record = registry.get_family(FAMILY)
        assert record.sign_key_fingerprint == WatermarkRegistry.fingerprint(
            b"new key"
        )

    def test_unknown_family_raises(self, registry):
        with pytest.raises(RegistryError, match="unknown family"):
            registry.get_family("never-published")

    def test_families_listing(self, registry):
        assert [f.family_id for f in registry.families()] == [FAMILY]

    def test_sign_key_fingerprint_published(
        self, registry, family_calibration, traffic_spec
    ):
        record = registry.publish_family(
            "signed-family",
            family_calibration,
            traffic_spec.population.format,
            sign_key=bytes.fromhex("deadbeef"),
        )
        assert record.sign_key_fingerprint == WatermarkRegistry.fingerprint(
            bytes.fromhex("deadbeef")
        )


class TestHistory:
    def test_record_and_filter(self, registry):
        registry.record_verification(
            FAMILY, 0xA1, "authentic", ber=0.01, client="lab-1"
        )
        registry.record_verification(
            FAMILY, 0xB2, "counterfeit", client="lab-2"
        )
        registry.record_verification(FAMILY, 0xA1, "authentic")
        by_die = registry.history(0xA1)
        assert len(by_die) == 2
        assert all(r.die_id == "0x0000000000A1" for r in by_die)
        # Newest first.
        assert by_die[0].seq > by_die[1].seq
        assert len(registry.history(family_id=FAMILY)) == 3
        assert registry.history(0xA1, limit=1)[0].seq == by_die[0].seq

    def test_string_die_id(self, registry):
        registry.record_verification(FAMILY, "0x0000000000C3", "tampered")
        assert registry.history("0x0000000000C3")[0].verdict == "tampered"


class TestAuditChain:
    def test_chain_verifies(self, registry):
        registry.record_verification(FAMILY, 1, "authentic")
        n = registry.verify_audit_chain()
        assert n == registry.counts()["audit_entries"]
        actions = [e["action"] for e in registry.audit_entries()]
        assert "registry.init" in actions
        assert "family.publish" in actions
        assert "verification.record" in actions

    def test_tampered_entry_detected(self, registry):
        registry.record_verification(FAMILY, 1, "authentic")
        # An attacker rewrites history: flip a recorded verdict behind
        # the registry's back.
        registry._conn.execute(
            "UPDATE audit_log SET detail_json = "
            "replace(detail_json, 'authentic', 'counterfeit')"
            " WHERE action = 'verification.record'"
        )
        registry._conn.commit()
        with pytest.raises(RegistryError, match="audit"):
            registry.verify_audit_chain()

    def test_deleted_entry_detected(self, registry):
        registry.record_verification(FAMILY, 1, "authentic")
        registry._conn.execute(
            "DELETE FROM audit_log WHERE seq = 2"
        )
        registry._conn.commit()
        with pytest.raises(RegistryError):
            registry.verify_audit_chain()


def _flaky_entry_hash(monkeypatch, fail_on: int):
    """Make the ``fail_on``-th audit hash computation raise, as a failed
    audit insert would; every other call hashes normally."""
    real = WatermarkRegistry._entry_hash
    calls = itertools.count(1)

    def flaky(*args):
        if next(calls) == fail_on:
            raise sqlite3.OperationalError("disk I/O error")
        return real(*args)

    monkeypatch.setattr(
        WatermarkRegistry, "_entry_hash", staticmethod(flaky)
    )


def _records_per_seq(registry) -> Counter:
    """``history seq -> number of verification.record audit entries``."""
    return Counter(
        e["detail"]["seq"]
        for e in registry.audit_entries()
        if e["action"] == "verification.record"
    )


RECORDS = [
    {"family_id": FAMILY, "die_id": 0xA1, "verdict": "authentic",
     "ber": 0.01, "client": "lab-1"},
    {"family_id": FAMILY, "die_id": "0x0000000000B2",
     "verdict": "counterfeit", "reason": "too few outliers"},
    {"family_id": FAMILY, "die_id": 0xA1, "verdict": "authentic",
     "client": "lab-2"},
    {"family_id": FAMILY, "die_id": 0xC3, "verdict": "tampered",
     "ber": 0.2, "reason": "signature mismatch", "client": "lab-1"},
]


class TestBatchedRecords:
    """``record_verifications``: one transaction per batch, the same
    rows and chain as one call per record, all or nothing."""

    def _fresh(self, monkeypatch, family_calibration, traffic_spec):
        """An in-memory registry on a deterministic clock that ticks
        once per ``time.time()`` read."""
        clock = itertools.count(1_000_000)
        monkeypatch.setattr(
            registry_module,
            "time",
            SimpleNamespace(time=lambda: float(next(clock))),
        )
        reg = WatermarkRegistry(":memory:")
        reg.publish_family(
            FAMILY, family_calibration, traffic_spec.population.format
        )
        return reg

    def _rows(self, reg):
        return [
            tuple(row)
            for row in reg._conn.execute(
                "SELECT * FROM verifications ORDER BY seq"
            ).fetchall()
        ]

    def test_batch_is_byte_identical_to_one_call_per_record(
        self, monkeypatch, family_calibration, traffic_spec
    ):
        batched = self._fresh(monkeypatch, family_calibration, traffic_spec)
        written = batched.record_verifications(RECORDS)
        single = self._fresh(monkeypatch, family_calibration, traffic_spec)
        seqs = [
            single.record_verification(
                r["family_id"],
                r["die_id"],
                r["verdict"],
                ber=r.get("ber"),
                reason=r.get("reason"),
                client=r.get("client"),
            )
            for r in RECORDS
        ]
        assert [seq for seq, _ in written] == seqs
        assert self._rows(batched) == self._rows(single)
        # created_unix_s, prev_hash and entry_hash included.
        assert batched.audit_entries() == single.audit_entries()
        assert batched.verify_audit_chain() == len(RECORDS) + 2

    def test_returns_each_records_own_audit_entry(self, registry):
        written = registry.record_verifications(RECORDS)
        by_seq = {
            e["detail"]["seq"]: e["entry_hash"]
            for e in registry.audit_entries()
            if e["action"] == "verification.record"
        }
        assert [(seq, by_seq[seq]) for seq, _ in written] == written
        # The last record's entry is the chain head.
        assert written[-1][1] == registry.audit_head()

    def test_failed_audit_append_leaves_no_history_row(
        self, registry, monkeypatch
    ):
        """A record whose audit insert fails must not keep its history
        row: the retry would otherwise record the die twice, the first
        time with no audit entry."""
        before = registry.counts()
        _flaky_entry_hash(monkeypatch, fail_on=1)
        with pytest.raises(sqlite3.OperationalError):
            registry.record_verification(FAMILY, 0xA1, "authentic")
        registry.record_verification(FAMILY, 0xA1, "authentic")  # retry
        after = registry.counts()
        assert after["verifications"] == before["verifications"] + 1
        assert after["audit_entries"] == before["audit_entries"] + 1
        seqs = [r.seq for r in registry.history(limit=1000)]
        assert _records_per_seq(registry) == Counter(seqs)
        registry.verify_audit_chain()

    def test_failure_mid_batch_rolls_back_the_whole_batch(
        self, registry, monkeypatch
    ):
        before = registry.counts()
        head = registry.audit_head()
        _flaky_entry_hash(monkeypatch, fail_on=3)
        with pytest.raises(sqlite3.OperationalError):
            registry.record_verifications(RECORDS)
        assert registry.counts() == before
        assert registry.audit_head() == head
        written = registry.record_verifications(RECORDS)
        assert len(written) == len(RECORDS)
        assert _records_per_seq(registry) == Counter(
            seq for seq, _ in written
        )
        registry.verify_audit_chain()

    def test_empty_batch_writes_nothing(self, registry):
        before = registry.counts()
        assert registry.record_verifications([]) == []
        assert registry.counts() == before


class TestPublishAtomicity:
    def test_failed_audit_append_leaves_family_unpublished(
        self, tmp_path, monkeypatch, family_calibration, traffic_spec
    ):
        """The family row and its audit entry commit together, so a
        failed append can be retried without ``replace=True``."""
        with WatermarkRegistry(tmp_path / "reg.db") as reg:
            before = reg.counts()
            _flaky_entry_hash(monkeypatch, fail_on=1)
            with pytest.raises(sqlite3.OperationalError):
                reg.publish_family(
                    FAMILY, family_calibration, traffic_spec.population.format
                )
            assert reg.counts() == before
            with pytest.raises(RegistryError, match="unknown family"):
                reg.get_family(FAMILY)
            reg.publish_family(
                FAMILY, family_calibration, traffic_spec.population.format
            )
            actions = [e["action"] for e in reg.audit_entries()]
            assert actions == ["registry.init", "family.publish"]
            reg.verify_audit_chain()

    def test_clock_reads_keep_their_order(
        self, monkeypatch, family_calibration, traffic_spec
    ):
        """One clock read stamps the family row, the next its audit
        entry — the order the chain was always written in."""
        clock = itertools.count(100)
        monkeypatch.setattr(
            registry_module,
            "time",
            SimpleNamespace(time=lambda: float(next(clock))),
        )
        with WatermarkRegistry(":memory:") as reg:
            record = reg.publish_family(
                FAMILY, family_calibration, traffic_spec.population.format
            )
            init, publish = reg.audit_entries()
        assert init["created_unix_s"] == 100.0
        assert record.published_unix_s == 101.0
        assert publish["created_unix_s"] == 102.0
        assert publish["prev_hash"] == init["entry_hash"]


class TestReceiptKeyMigration:
    """Satellite: pre-receipt flashmark.registry/v1 files migrate in
    place on open — columns widen, nothing else changes."""

    def _age_to_pre_receipt(self, registry):
        """Strip the receipt columns, simulating a v1 file written
        before receipts existed (same schema string, narrower table)."""
        path = registry.path
        registry.record_verification(FAMILY, 1, "authentic")
        registry.close()
        conn = sqlite3.connect(path)
        conn.execute("ALTER TABLE families DROP COLUMN verify_key")
        conn.execute("ALTER TABLE families DROP COLUMN verify_algorithm")
        conn.commit()
        conn.close()
        return path

    def _columns(self, registry):
        rows = registry._conn.execute(
            "PRAGMA table_info(families)"
        ).fetchall()
        return {row["name"] for row in rows}

    def test_reopen_widens_schema(self, registry):
        path = self._age_to_pre_receipt(registry)
        with WatermarkRegistry(path, create=False) as reg:
            columns = self._columns(reg)
            assert {"verify_key", "verify_algorithm"} <= columns
            record = reg.get_family(FAMILY)
        assert record.verify_key is None
        assert record.verify_algorithm is None

    def test_migration_leaves_audit_chain_intact(self, registry):
        path = self._age_to_pre_receipt(registry)
        with WatermarkRegistry(path, create=False) as reg:
            before = reg.counts()["audit_entries"]
            # Schema widening is not history: no entry is chained.
            assert reg.verify_audit_chain() == before
        # Idempotent: a second open neither alters nor re-migrates.
        with WatermarkRegistry(path, create=False) as reg:
            assert reg.verify_audit_chain() == before

    def test_publish_verify_key_after_migration(
        self, registry, family_calibration, traffic_spec
    ):
        path = self._age_to_pre_receipt(registry)
        key = bytes(range(32))
        with WatermarkRegistry(path, create=False) as reg:
            reg.publish_family(
                "msp430-migrated",
                family_calibration,
                traffic_spec.population.format,
                verify_key=key,
                verify_algorithm="hmac-sha256",
            )
        with WatermarkRegistry(path, create=False) as reg:
            record = reg.get_family("msp430-migrated")
        assert record.verify_key == key
        assert record.verify_algorithm == "hmac-sha256"

    def test_verify_key_requires_algorithm(
        self, registry, family_calibration, traffic_spec
    ):
        with pytest.raises(RegistryError, match="verify_algorithm"):
            registry.publish_family(
                "msp430-keyed",
                family_calibration,
                traffic_spec.population.format,
                verify_key=bytes(32),
            )
