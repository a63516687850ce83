"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.device import load_chip


@pytest.fixture
def chip_file(tmp_path):
    path = tmp_path / "chip.npz"
    assert main(["make", str(path), "--seed", "3"]) == 0
    return path


class TestMake:
    def test_creates_file(self, chip_file):
        assert chip_file.exists()
        chip = load_chip(chip_file)
        assert chip.seed == 3

    def test_model_and_segments(self, tmp_path):
        path = tmp_path / "c.npz"
        main(
            [
                "make",
                str(path),
                "--model",
                "MSP430F5529",
                "--segments",
                "2",
            ]
        )
        chip = load_chip(path)
        assert chip.model == "MSP430F5529"
        assert chip.geometry.n_segments == 2


class TestLifecycle:
    def test_imprint_wipe_verify(self, chip_file, capsys):
        assert main(["imprint", str(chip_file)]) == 0
        assert main(["wipe", str(chip_file)]) == 0
        assert main(["verify", str(chip_file)]) == 0
        out = capsys.readouterr().out
        assert "verdict: authentic" in out
        assert "status=ACCEPT" in out

    def test_blank_chip_fails_verification(self, chip_file, capsys):
        assert main(["verify", str(chip_file)]) == 2
        assert "counterfeit" in capsys.readouterr().out

    def test_reject_chip_fails_verification(self, chip_file, capsys):
        main(["imprint", str(chip_file), "--status", "REJECT"])
        assert main(["verify", str(chip_file)]) == 2
        out = capsys.readouterr().out
        assert "REJECT" in out

    def test_info(self, chip_file, capsys):
        main(["imprint", str(chip_file)])
        assert main(["info", str(chip_file)]) == 0
        out = capsys.readouterr().out
        assert "die id" in out
        assert "worn cells" in out

    def test_characterize(self, chip_file, capsys):
        assert main(["characterize", str(chip_file)]) == 0
        out = capsys.readouterr().out
        assert "full-erase time" in out


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])


class TestExtendedCommands:
    def test_detect_on_blank_chip(self, chip_file, capsys):
        assert main(["detect", str(chip_file)]) == 2
        assert "watermark present: no" in capsys.readouterr().out

    def test_detect_on_marked_chip(self, chip_file, capsys):
        main(["imprint", str(chip_file)])
        assert main(["detect", str(chip_file)]) == 0
        assert "watermark present: yes" in capsys.readouterr().out

    def test_age(self, chip_file, capsys):
        assert main(["age", str(chip_file), "--years", "2"]) == 0
        assert "aged 2.0 year(s)" in capsys.readouterr().out
        chip = load_chip(chip_file)
        assert chip.trace.now_s > 2 * 365 * 24 * 3000

    def test_temp(self, chip_file, capsys):
        assert main(["temp", str(chip_file), "85"]) == 0
        assert load_chip(chip_file).temperature_c == 85.0

    def test_estimate_wear(self, chip_file, capsys):
        import numpy as np

        chip = load_chip(chip_file)
        chip.flash.bulk_pe_cycles(
            0, np.zeros(4096, dtype=np.uint8), 30_000
        )
        from repro.device import save_chip

        save_chip(chip, chip_file)
        assert main(["estimate-wear", str(chip_file)]) == 0
        out = capsys.readouterr().out
        assert "estimated prior stress" in out


class TestTelemetryCli:
    def test_selftest(self, capsys):
        assert main(["telemetry", "--selftest"]) == 0
        out = capsys.readouterr().out
        assert "telemetry selftest: OK" in out
        assert "stage coverage" in out

    def test_imprint_writes_manifest(self, chip_file, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        assert (
            main(["imprint", str(chip_file), "--manifest", str(manifest)])
            == 0
        )
        from repro.telemetry import load_manifest

        data = load_manifest(manifest)
        assert data["kind"] == "session"
        assert "imprint" in {s["name"] for s in data["stages"]}

    def test_verify_writes_manifest(self, chip_file, tmp_path, capsys):
        main(["imprint", str(chip_file)])
        manifest = tmp_path / "verify.json"
        assert (
            main(["verify", str(chip_file), "--manifest", str(manifest)])
            == 0
        )
        from repro.telemetry import load_manifest

        data = load_manifest(manifest)
        assert data["kind"] == "verify"
        assert data["verdict"] == "authentic"

    def test_summarize(self, chip_file, tmp_path, capsys):
        manifest = tmp_path / "run.json"
        main(["imprint", str(chip_file), "--manifest", str(manifest)])
        capsys.readouterr()
        assert main(["telemetry", "summarize", str(manifest)]) == 0
        out = capsys.readouterr().out
        assert "run manifest" in out
        assert "imprint" in out

    def test_diff(self, chip_file, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["imprint", str(chip_file), "--manifest", str(a)])
        main(
            [
                "imprint",
                str(chip_file),
                "--n-pe",
                "50000",
                "--manifest",
                str(b),
            ]
        )
        capsys.readouterr()
        assert main(["telemetry", "diff", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "manifest diff" in out
        assert "imprint" in out

    def test_summarize_arity_error(self, capsys):
        assert main(["telemetry", "summarize"]) == 1
        assert "exactly one" in capsys.readouterr().err

    def test_diff_arity_error(self, tmp_path, capsys):
        assert main(["telemetry", "diff", "only-one.json"]) == 1
        assert "exactly two" in capsys.readouterr().err

    def test_no_action_prints_usage(self, capsys):
        assert main(["telemetry"]) == 1
        assert "usage" in capsys.readouterr().err


class TestSignedCli:
    KEY = "00112233445566778899aabbccddeeff"

    def test_signed_imprint_and_verify(self, chip_file, capsys):
        assert (
            main(
                ["imprint", str(chip_file), "--sign-key", self.KEY]
            )
            == 0
        )
        assert (
            main(["verify", str(chip_file), "--sign-key", self.KEY]) == 0
        )
        assert "authentic" in capsys.readouterr().out

    def test_wrong_key_fails(self, chip_file, capsys):
        main(["imprint", str(chip_file), "--sign-key", self.KEY])
        wrong = "ff" * 16
        assert (
            main(["verify", str(chip_file), "--sign-key", wrong]) == 2
        )

    def test_temperature_compensated_verify(self, chip_file, capsys):
        main(["imprint", str(chip_file)])
        main(["temp", str(chip_file), "85"])
        assert (
            main(["verify", str(chip_file), "--temperature", "85"]) == 0
        )
        assert "authentic" in capsys.readouterr().out


class TestBatchEngineCli:
    """`produce --workers` and `calibrate --cache` paths."""

    def test_produce_workers_deterministic(self, tmp_path, capsys):
        args = ["produce", "--count", "4", "--seed", "5"]
        assert main(args + ["--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        serial_ids = [l for l in serial.splitlines() if "0x" in l]
        parallel_ids = [l for l in parallel.splitlines() if "0x" in l]
        assert serial_ids == parallel_ids
        assert "2 worker(s)" in parallel

    def test_produce_out_dir_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "dies"
        manifest = tmp_path / "batch.json"
        assert (
            main(
                [
                    "produce",
                    "--count",
                    "2",
                    "--out-dir",
                    str(out),
                    "--manifest",
                    str(manifest),
                ]
            )
            == 0
        )
        assert sorted(p.name for p in out.glob("*.npz")) == [
            "die_000.npz",
            "die_001.npz",
        ]
        assert manifest.exists()

    def test_produce_bad_count(self, capsys):
        assert main(["produce", "--count", "0"]) == 1
        assert "count" in capsys.readouterr().err

    def test_calibrate_cache_hit_on_second_run(self, tmp_path, capsys):
        cache = tmp_path / "cal.json"
        args = ["calibrate", "--cache", str(cache)]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "swept 1 chip(s)" in first
        assert "1 miss(es)" in first
        assert cache.exists()
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "cache hit" in second
        assert "1 hit(s)" in second

    def test_calibrate_corrupt_cache_recovers(self, tmp_path, capsys):
        cache = tmp_path / "cal.json"
        cache.write_text("{garbage")
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert main(["calibrate", "--cache", str(cache)]) == 0
        assert "family calibration" in capsys.readouterr().out


class TestServiceCli:
    """registry / loadgen commands and registry-backed verify."""

    @pytest.fixture
    def published(self, tmp_path):
        reg = tmp_path / "reg.db"
        assert (
            main(
                [
                    "registry",
                    "publish",
                    "--registry",
                    str(reg),
                    "--family",
                    "msp430",
                ]
            )
            == 0
        )
        return reg

    def test_registry_init(self, tmp_path, capsys):
        reg = tmp_path / "reg.db"
        assert main(["registry", "init", "--registry", str(reg)]) == 0
        assert "registry ready" in capsys.readouterr().out
        assert reg.exists()

    def test_registry_publish_and_audit(self, published, capsys):
        capsys.readouterr()
        assert (
            main(["registry", "audit", "--registry", str(published)])
            == 0
        )
        out = capsys.readouterr().out
        assert "family.publish" in out
        assert "audit chain intact" in out

    def test_registry_publish_requires_family(self, tmp_path, capsys):
        reg = tmp_path / "reg.db"
        assert main(["registry", "publish", "--registry", str(reg)]) == 1
        assert "--family" in capsys.readouterr().err

    def test_registry_duplicate_publish_fails(self, published, capsys):
        assert (
            main(
                [
                    "registry",
                    "publish",
                    "--registry",
                    str(published),
                    "--family",
                    "msp430",
                ]
            )
            == 1
        )
        assert "already published" in capsys.readouterr().err

    def test_registry_history_empty(self, published, capsys):
        capsys.readouterr()
        assert (
            main(["registry", "history", "--registry", str(published)])
            == 0
        )
        assert "verification history" in capsys.readouterr().out

    def test_registry_missing_file_fails(self, tmp_path, capsys):
        assert (
            main(
                [
                    "registry",
                    "history",
                    "--registry",
                    str(tmp_path / "nope.db"),
                ]
            )
            == 1
        )
        assert "registry" in capsys.readouterr().err

    def test_verify_against_registry(
        self, chip_file, published, capsys
    ):
        assert main(["imprint", str(chip_file)]) == 0
        assert (
            main(
                [
                    "verify",
                    str(chip_file),
                    "--registry",
                    str(published),
                    "--family",
                    "msp430",
                ]
            )
            == 0
        )
        assert "verdict: authentic" in capsys.readouterr().out

    def test_verify_registry_unknown_family(
        self, chip_file, published, capsys
    ):
        assert (
            main(
                [
                    "verify",
                    str(chip_file),
                    "--registry",
                    str(published),
                    "--family",
                    "never-published",
                ]
            )
            == 1
        )
        assert "unknown family" in capsys.readouterr().err

    def test_verify_registry_requires_family(self, chip_file, capsys):
        assert (
            main(["verify", str(chip_file), "--registry", "reg.db"])
            == 1
        )
        assert "go together" in capsys.readouterr().err

    def test_loadgen_unreachable_server_fails(self, capsys):
        assert (
            main(
                [
                    "loadgen",
                    "--port",
                    "9",
                    "--family",
                    "msp430",
                    "--requests",
                    "1",
                ]
            )
            == 1
        )
        assert "loadgen" in capsys.readouterr().err


class TestTraceCli:
    @pytest.fixture
    def span_log(self, tmp_path):
        """A synthetic one-request span log (client + server sides)."""
        import json as _json

        tid = "ab" * 16
        spans = [
            ("client.request", "c" * 16, None, 0.0, 0.100),
            ("server.request", "5" * 16, "c" * 16, 0.005, 0.090),
            ("server.engine", "e" * 16, "5" * 16, 0.020, 0.060),
            ("verify.chip", "f" * 16, "e" * 16, 0.021, 0.055),
        ]
        path = tmp_path / "spans.jsonl"
        with open(path, "w") as fh:
            for name, sid, parent, t0, wall in spans:
                fh.write(
                    _json.dumps(
                        {
                            "type": "span",
                            "name": name,
                            "trace_id": tid,
                            "span_id": sid,
                            "parent_id": parent,
                            "t0_unix_s": t0,
                            "wall_s": wall,
                        }
                    )
                    + "\n"
                )
        return path

    def test_show(self, span_log, capsys):
        assert main(["trace", "show", str(span_log)]) == 0
        out = capsys.readouterr().out
        assert "1 trace(s) assembled from 4 span(s)" in out
        assert "1 complete, 0 orphan span(s)" in out
        assert "verify.chip" in out

    def test_critical_path_check_passes(self, span_log, capsys):
        assert (
            main(["trace", "critical-path", str(span_log), "--check"])
            == 0
        )
        out = capsys.readouterr().out
        assert "critical path" in out
        assert "stage breakdown" in out

    def test_check_fails_on_orphans(self, span_log, tmp_path, capsys):
        import json as _json

        broken = tmp_path / "broken.jsonl"
        kept = [
            _json.loads(line)
            for line in span_log.read_text().splitlines()
        ]
        with open(broken, "w") as fh:
            for rec in kept:
                if rec["name"] != "server.request":
                    fh.write(_json.dumps(rec) + "\n")
        assert main(["trace", "show", str(broken), "--check"]) == 3
        assert "CHECK FAILED" in capsys.readouterr().out

    def test_export_writes_artifacts(self, span_log, tmp_path, capsys):
        import json as _json

        flame = tmp_path / "flame.txt"
        chrome = tmp_path / "chrome.json"
        docs = tmp_path / "docs.json"
        assert (
            main(
                [
                    "trace", "export", str(span_log),
                    "--flame", str(flame),
                    "--chrome", str(chrome),
                    "--json", str(docs),
                ]
            )
            == 0
        )
        assert "client.request;server.request" in flame.read_text()
        assert _json.loads(chrome.read_text())["traceEvents"]
        loaded = _json.loads(docs.read_text())
        assert loaded[0]["schema"] == "flashmark.trace/v1"

    def test_export_without_output_fails(self, span_log, capsys):
        assert main(["trace", "export", str(span_log)]) == 1
        assert "export needs" in capsys.readouterr().err

    def test_trace_id_filter_no_match(self, span_log, capsys):
        assert (
            main(["trace", "show", str(span_log), "--trace-id", "ffff"])
            == 1
        )
        assert "no traces" in capsys.readouterr().out

    def test_missing_log_fails(self, tmp_path, capsys):
        assert main(["trace", "show", str(tmp_path / "nope.jsonl")]) == 1
        assert "trace" in capsys.readouterr().err


class TestMonitorCommand:
    def alerts_file(self, tmp_path, with_drift=True):
        from repro.monitor.alerts import ALERTS_SCHEMA

        def rec(event, key, source, severity="warning"):
            return {
                "schema": ALERTS_SCHEMA,
                "event": event,
                "alert": {
                    "key": key, "name": key, "severity": severity,
                    "source": source, "family": "fam-a",
                    "state": "resolved" if event == "resolved" else "firing",
                    "opened_unix_s": 10.0, "resolved_unix_s": None,
                    "value": 1.0, "threshold": 0.5, "message": "",
                    "re_fires": 0,
                },
            }

        records = [rec("fired", "slo:error-rate", "slo", "critical")]
        if with_drift:
            records.append(
                rec("fired", "drift:ewma:statistic:fam-a", "drift")
            )
        records.append({
            "schema": ALERTS_SCHEMA, "event": "snapshot",
            "snapshot": {"status": "degraded", "events": 50,
                         "slo": {"objectives": []}},
        })
        path = tmp_path / "alerts.jsonl"
        path.write_text(
            "junk line\n"
            + "\n".join(json.dumps(r) for r in records)
            + "\n"
        )
        return path

    def test_report_markdown_to_stdout(self, tmp_path, capsys):
        path = self.alerts_file(tmp_path)
        assert main(["monitor", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "drift:ewma:statistic:fam-a" in out
        assert "slo:error-rate" in out

    def test_report_html_artifact_and_check_pass(self, tmp_path, capsys):
        path = self.alerts_file(tmp_path)
        out_html = tmp_path / "report.html"
        assert main([
            "monitor", "report", str(path),
            "-o", str(out_html), "--check",
        ]) == 0
        assert out_html.read_text().lstrip().lower().startswith(
            "<!doctype html>"
        )
        assert "check: drift alert fired" in capsys.readouterr().out

    def test_check_fails_without_drift_alerts(self, tmp_path, capsys):
        path = self.alerts_file(tmp_path, with_drift=False)
        assert main(["monitor", "report", str(path), "--check"]) == 3
        assert "CHECK FAILED" in capsys.readouterr().err

    def test_report_with_manifest(self, tmp_path, capsys):
        path = self.alerts_file(tmp_path)
        manifest = tmp_path / "load.json"
        manifest.write_text(json.dumps(
            {"kind": "loadgen", "requests": 50}
        ))
        assert main([
            "monitor", "report", str(path),
            "--manifest", str(manifest),
        ]) == 0
        assert "loadgen" in capsys.readouterr().out

    def test_watch_requires_endpoint(self, capsys):
        assert main(["monitor", "watch"]) == 1
        err = capsys.readouterr().err
        assert "requires --endpoint host:port (or --port)" in err

    def test_missing_alerts_file_fails(self, tmp_path, capsys):
        assert main([
            "monitor", "report", str(tmp_path / "nope.jsonl")
        ]) == 1
        assert "monitor" in capsys.readouterr().err


class TestReceiptCli:
    """receipt verify/show, pow mint, registry audit --check."""

    KEY = bytes(range(32))
    FAMILY = "msp430"

    @pytest.fixture
    def keyed_registry(self, tmp_path, capsys):
        reg = tmp_path / "reg.db"
        assert main([
            "registry", "publish",
            "--registry", str(reg),
            "--family", self.FAMILY,
            "--receipt-key", self.KEY.hex(),
            "--receipt-algorithm", "hmac-sha256",
        ]) == 0
        assert "receipts: hmac-sha256" in capsys.readouterr().out
        return reg

    @pytest.fixture
    def receipts_file(self, keyed_registry, tmp_path):
        """One receipt signed and anchored exactly as a server would."""
        from dataclasses import asdict

        from repro.engine.cache import calibration_to_dict
        from repro.receipts import (
            ReceiptSigner,
            build_receipt,
            params_hash,
            write_receipts,
        )
        from repro.service import WatermarkRegistry

        with WatermarkRegistry(keyed_registry, create=False) as reg:
            seq = reg.record_verification(
                self.FAMILY, 0xC3, "authentic", client="lab"
            )
            record = reg.get_family(self.FAMILY)
            receipt = build_receipt(
                ReceiptSigner(self.KEY, algorithm="hmac-sha256"),
                family=self.FAMILY,
                die_id=f"0x{0xC3:012X}",
                decision="authentic",
                statistic=0.125,
                params_hash=params_hash(
                    record.family_id,
                    record.model,
                    calibration_to_dict(record.calibration),
                    asdict(record.format),
                ),
                history_seq=seq,
                audit_head=reg.audit_head(),
            )
        path = tmp_path / "receipts.jsonl"
        write_receipts([receipt], path)
        return path

    def test_verify_anchored_against_registry(
        self, keyed_registry, receipts_file, capsys
    ):
        assert main([
            "receipt", "verify", str(receipts_file),
            "--registry", str(keyed_registry),
        ]) == 0
        assert "1/1 verified (anchored)" in capsys.readouterr().out

    def test_verify_tampered_receipt_exits_3(
        self, keyed_registry, receipts_file, capsys
    ):
        receipt = json.loads(receipts_file.read_text())
        receipt["decision"] = "counterfeit"
        receipts_file.write_text(json.dumps(receipt) + "\n")
        assert main([
            "receipt", "verify", str(receipts_file),
            "--registry", str(keyed_registry),
        ]) == 3
        err = capsys.readouterr().err
        assert "CHECK FAILED" in err

    def test_verify_with_explicit_key(self, receipts_file, capsys):
        # Signature-only path: no registry, key given on the command
        # line — anchor checks are skipped.
        assert main([
            "receipt", "verify", str(receipts_file),
            "--key", self.KEY.hex(),
            "--algorithm", "hmac-sha256",
        ]) == 0
        assert "signature only" in capsys.readouterr().out

    def test_verify_report_artifact(
        self, keyed_registry, receipts_file, tmp_path, capsys
    ):
        report = tmp_path / "report.json"
        assert main([
            "receipt", "verify", str(receipts_file),
            "--registry", str(keyed_registry),
            "--report", str(report),
        ]) == 0
        doc = json.loads(report.read_text())
        assert doc["schema"] == "flashmark.receipt-check/v1"
        assert doc["ok"] == doc["checked"] == 1

    def test_verify_without_keys_fails(self, receipts_file, capsys):
        assert main(["receipt", "verify", str(receipts_file)]) == 1
        assert "key" in capsys.readouterr().err

    def test_show(self, receipts_file, capsys):
        assert main(["receipt", "show", str(receipts_file)]) == 0
        out = capsys.readouterr().out
        assert self.FAMILY in out
        assert "authentic" in out

    def test_missing_file_fails(self, tmp_path, capsys):
        assert main([
            "receipt", "show", str(tmp_path / "nope.jsonl")
        ]) == 1
        assert "receipt" in capsys.readouterr().err

    def test_pow_mint_ticket_checks_out(self, capsys):
        from repro.receipts import check_ticket

        assert main([
            "pow", "mint", "--client", "lab", "--difficulty", "8"
        ]) == 0
        ticket = json.loads(capsys.readouterr().out)
        assert ticket["difficulty"] == 8
        assert check_ticket("lab", {}, ticket["nonce"], 8)

    def test_pow_mint_with_body_file(self, tmp_path, capsys):
        from repro.receipts import check_ticket

        body = {"op": "verify", "family": "msp430", "id": 7}
        body_file = tmp_path / "body.json"
        body_file.write_text(json.dumps(body))
        assert main([
            "pow", "mint", str(body_file),
            "--client", "lab", "--difficulty", "8",
        ]) == 0
        ticket = json.loads(capsys.readouterr().out)
        assert check_ticket("lab", body, ticket["nonce"], 8)

    def test_audit_check_broken_chain_exits_3(
        self, keyed_registry, capsys
    ):
        import sqlite3

        conn = sqlite3.connect(keyed_registry)
        conn.execute(
            "UPDATE audit_log SET detail_json = '{\"forged\": true}' "
            "WHERE action = 'family.publish'"
        )
        conn.commit()
        conn.close()
        assert main([
            "registry", "audit",
            "--registry", str(keyed_registry), "--check",
        ]) == 3
        assert "CHECK FAILED" in capsys.readouterr().err

    def test_audit_check_intact_chain_passes(
        self, keyed_registry, capsys
    ):
        assert main([
            "registry", "audit",
            "--registry", str(keyed_registry), "--check",
        ]) == 0
        out = capsys.readouterr().out
        assert "audit chain intact" in out
        # A CI gate prints its verdict, not the whole log.
        assert len(out.splitlines()) == 1

    def test_audit_broken_chain_without_check_exits_1(
        self, keyed_registry, capsys
    ):
        import sqlite3

        conn = sqlite3.connect(keyed_registry)
        conn.execute("DELETE FROM audit_log WHERE seq = 1")
        conn.commit()
        conn.close()
        assert main([
            "registry", "audit", "--registry", str(keyed_registry),
        ]) == 1
        assert "registry" in capsys.readouterr().err
