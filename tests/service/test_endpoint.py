"""Tests for the unified Endpoint address spec: parsing, coercion, and
the one-value form every client surface takes."""

import pytest

from repro.monitor import fetch_snapshot, watch
from repro.service import Endpoint, LoadClient, VerificationClient


class TestParse:
    def test_host_port(self):
        assert Endpoint.parse("10.0.0.7:7793") == Endpoint("10.0.0.7", 7793)

    def test_bare_port_defaults_loopback(self):
        assert Endpoint.parse(":7793") == Endpoint("127.0.0.1", 7793)

    def test_hostname(self):
        ep = Endpoint.parse("router.internal:80")
        assert (ep.host, ep.port) == ("router.internal", 80)

    def test_ipv6_bracket_form(self):
        ep = Endpoint.parse("[::1]:7793")
        assert (ep.host, ep.port) == ("::1", 7793)

    def test_str_round_trips(self):
        for spec in ("127.0.0.1:7793", "[::1]:7793", "host.example:1"):
            assert str(Endpoint.parse(spec)) == spec

    @pytest.mark.parametrize(
        "bad", ["7793", "host:", "host:abc", "[::1]7793", "[::1"]
    )
    def test_malformed_specs_rejected(self, bad):
        with pytest.raises(ValueError):
            Endpoint.parse(bad)

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            Endpoint.parse(7793)


class TestValidation:
    def test_port_range(self):
        with pytest.raises(ValueError):
            Endpoint("h", 65536)
        with pytest.raises(ValueError):
            Endpoint("h", -1)

    def test_bool_port_rejected(self):
        with pytest.raises(ValueError):
            Endpoint("h", True)

    def test_empty_host_rejected(self):
        with pytest.raises(ValueError):
            Endpoint("", 7793)

    def test_ephemeral_bind_spec_allowed(self):
        assert Endpoint("127.0.0.1", 0).port == 0


class TestFromAny:
    def test_identity(self):
        ep = Endpoint("h", 1)
        assert Endpoint.from_any(ep) is ep

    def test_string(self):
        assert Endpoint.from_any("h:1") == Endpoint("h", 1)

    def test_tuple_and_list(self):
        assert Endpoint.from_any(("h", 1)) == Endpoint("h", 1)
        assert Endpoint.from_any(["h", 1]) == Endpoint("h", 1)

    def test_as_tuple(self):
        assert Endpoint("h", 1).as_tuple() == ("h", 1)

    def test_garbage_rejected(self):
        with pytest.raises(TypeError):
            Endpoint.from_any(object())


class TestCoerceDeprecation:
    """The two-positional ``(host, port)`` forms deprecated before 2.0
    are gone: each entry point takes one endpoint value."""

    def test_two_positional_forms_rejected(self):
        with pytest.raises(TypeError):
            VerificationClient.connect("127.0.0.1", 7793)
        with pytest.raises(TypeError):
            LoadClient("127.0.0.1", 7793, "fam")
        with pytest.raises(TypeError):
            fetch_snapshot("127.0.0.1", 7793)
        with pytest.raises(TypeError):
            watch("127.0.0.1", 7793)

    def test_load_client_endpoint_form_is_silent(self, recwarn):
        load = LoadClient("127.0.0.1:7793", "fam")
        assert load.endpoint == Endpoint("127.0.0.1", 7793)
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, DeprecationWarning)
        ]

    def test_load_client_needs_family(self):
        with pytest.raises(TypeError, match="family"):
            LoadClient("127.0.0.1:7793")

    def test_load_client_too_many_positionals(self):
        with pytest.raises(TypeError, match="positional"):
            LoadClient("127.0.0.1", 7793, "fam", "extra")
