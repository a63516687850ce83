"""Registry history written once per micro-batch group.

The server records a group's verdicts in one registry transaction,
inside the group's executor job.  These tests drive groups of several
requests through one engine call and check what that transaction
leaves behind: receipts anchored on each request's own audit entry,
and retry/degrade semantics that apply per group attempt.
"""

import asyncio
from collections import Counter

import pytest

from repro.faults import FaultInjector, FaultPlan, FaultSpec
from repro.receipts import (
    AnchorIndex,
    ReceiptSigner,
    check_anchor,
    verify_receipt,
)
from repro.service import ServerConfig, VerificationClient, VerificationServer
from repro.workloads.traffic import TrafficGenerator
from tests.service.conftest import FAMILY

KEY = bytes(range(32))
GROUP = 4

LOCKED = {
    "exception": "sqlite3.OperationalError",
    "message": "database is locked",
}


def serve_group(registry, items, *, signer=None, receipt=False):
    """Send ``items`` concurrently so they share one micro-batch group;
    returns ``(results, service counters)``."""

    async def main():
        async with VerificationServer(
            registry,
            config=ServerConfig(batch_window_s=0.2),
            receipt_signer=signer,
        ) as server:

            async def one(item):
                async with await VerificationClient.connect(
                    server.endpoint
                ) as client:
                    return await client.verify_chip(
                        item.chip,
                        FAMILY,
                        request_id=item.index,
                        client=f"lab-{item.index}",
                        receipt=receipt,
                    )

            results = await asyncio.gather(*(one(i) for i in items))
            return results, server.stats()["counters"]

    return asyncio.run(main())


@pytest.fixture
def items(traffic_spec):
    return TrafficGenerator(traffic_spec, seed=81).draw(GROUP)


def _record_entries(registry) -> dict:
    """``history seq -> its verification.record audit entry``."""
    entries = {}
    for entry in registry.audit_entries():
        if entry["action"] == "verification.record":
            seq = entry["detail"]["seq"]
            assert seq not in entries, f"seq {seq} recorded twice"
            entries[seq] = entry
    return entries


class TestGroupReceipts:
    def test_each_receipt_anchors_on_its_own_entry(
        self, registry, items
    ):
        signer = ReceiptSigner(KEY)
        results, counters = serve_group(
            registry, items, signer=signer, receipt=True
        )
        assert counters["service.batches"] == 1  # one group, one write
        entries = _record_entries(registry)
        index = AnchorIndex(registry.audit_entries())
        for result in results:
            receipt = result["receipt"]
            seq = result["history_seq"]
            assert receipt["history_seq"] == seq
            # Not the batch-final head: the request's own entry, as
            # one-at-a-time issuance would have anchored it.
            assert receipt["audit_head"] == entries[seq]["entry_hash"]
            verify_receipt(receipt, signer.verify_key)
            check_anchor(receipt, index)
        heads = {r["receipt"]["audit_head"] for r in results}
        assert len(heads) == GROUP
        registry.verify_audit_chain()


class TestLockedRegistryDuringGroup:
    @pytest.mark.parametrize(
        "failing, retries, errors",
        [((1,), 1, 0), ((1, 2), 2, 0), ((1, 2, 3), 2, 1)],
    )
    def test_fault_fires_once_per_group_attempt(
        self, registry, items, failing, retries, errors
    ):
        before = registry.counts()
        plan = FaultPlan(
            [
                FaultSpec("service.registry", "error", at=k, params=LOCKED)
                for k in failing
            ]
        )
        with FaultInjector(plan) as chaos:
            results, counters = serve_group(registry, items)
        assert counters["service.batches"] == 1
        # One group: one transaction attempt per fired fault, plus the
        # one that succeeds while the retry budget lasts.
        assert chaos.hits("service.registry") == min(len(failing) + 1, 3)
        assert len(chaos.records) == len(failing)
        assert counters.get("service.registry_retries", 0) == retries
        assert counters.get("service.errors.registry", 0) == errors
        # Every verdict is served either way.
        served = [r["die_id"] for r in results]
        assert sorted(served) == sorted(
            f"0x{item.chip.die_id:012X}" for item in items
        )
        added = registry.counts()["verifications"] - before["verifications"]
        if errors:
            assert all(r["history_seq"] is None for r in results)
            assert added == 0
        else:
            # Each die recorded exactly once, with one audit entry each.
            assert added == GROUP
            seqs = [r["history_seq"] for r in results]
            history = {h.seq: h.die_id for h in registry.history()}
            assert Counter(history[s] for s in seqs) == Counter(served)
            assert set(seqs) <= set(_record_entries(registry))
        assert registry.verify_audit_chain() == (
            before["audit_entries"] + added
        )

    def test_degraded_receipts_fall_back_to_chain_head(
        self, registry, items
    ):
        signer = ReceiptSigner(KEY)
        plan = FaultPlan(
            [
                FaultSpec("service.registry", "error", at=k, params=LOCKED)
                for k in (1, 2, 3)
            ]
        )
        head = registry.audit_head()
        with FaultInjector(plan):
            results, _ = serve_group(
                registry, items, signer=signer, receipt=True
            )
        index = AnchorIndex(registry.audit_entries())
        for result in results:
            receipt = result["receipt"]
            assert receipt["history_seq"] is None
            assert receipt["audit_head"] == head
            verify_receipt(receipt, signer.verify_key)
            check_anchor(receipt, index)
