"""Endpoint: one address spec for every client-facing surface.

Before the fleet existed, every caller addressed the service as a
``(host, port)`` pair threaded positionally through
:meth:`~repro.service.client.VerificationClient.connect`,
:class:`~repro.service.client.LoadClient` and the CLI's ``--host`` /
``--port`` flags.  With a router tier in front of N shards the *thing
being addressed* varies — a lone server, one shard, or the fleet router
— but the way of addressing it should not.  :class:`Endpoint` is that
single spec: a frozen ``(host, port)`` value object that parses from
the ``"host:port"`` strings humans type, accepts a ``(host, port)``
tuple as one value, and renders back to the canonical string form.

Every client entry point takes exactly one of::

    Endpoint("127.0.0.1", 7793)      # the value object
    "127.0.0.1:7793"                 # the CLI string form
    ("127.0.0.1", 7793)              # one tuple, e.g. server.address
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

__all__ = ["Endpoint", "EndpointLike"]


@dataclass(frozen=True, order=True)
class Endpoint:
    """One service address: where a server, shard, or router listens.

    ``port=0`` is a valid *bind* spec (ephemeral port) but not a valid
    *dial* spec; servers resolve it to the real port before exposing
    their :attr:`~repro.service.server.VerificationServer.endpoint`.
    """

    host: str = "127.0.0.1"
    port: int = 0

    def __post_init__(self):
        if not isinstance(self.host, str) or not self.host:
            raise ValueError("endpoint host must be a non-empty string")
        port = self.port
        if not isinstance(port, int) or isinstance(port, bool):
            raise ValueError(f"endpoint port must be an int, got {port!r}")
        if not 0 <= port <= 65535:
            raise ValueError(f"endpoint port {port} outside [0, 65535]")

    # -- construction ------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> "Endpoint":
        """Parse the ``"host:port"`` string form.

        IPv6 literals use the bracket form (``"[::1]:7793"``).  A bare
        ``":7793"`` keeps the default loopback host.
        """
        if not isinstance(spec, str):
            raise TypeError(f"endpoint spec must be a string, got {spec!r}")
        text = spec.strip()
        if text.startswith("["):  # [v6-literal]:port
            close = text.find("]")
            if close < 0 or not text[close + 1 :].startswith(":"):
                raise ValueError(
                    f"malformed IPv6 endpoint {spec!r}; "
                    "expected '[host]:port'"
                )
            host, port_text = text[1:close], text[close + 2 :]
        else:
            host, sep, port_text = text.rpartition(":")
            if not sep:
                raise ValueError(
                    f"endpoint {spec!r} has no port; expected 'host:port'"
                )
        try:
            port = int(port_text)
        except ValueError:
            raise ValueError(
                f"endpoint {spec!r} has a non-integer port {port_text!r}"
            ) from None
        return cls(host or "127.0.0.1", port)

    @classmethod
    def from_any(cls, value: "EndpointLike") -> "Endpoint":
        """Coerce any accepted endpoint form to an :class:`Endpoint`.

        Accepts an :class:`Endpoint`, a ``"host:port"`` string, or a
        ``(host, port)`` tuple/list (so ``server.address`` works when
        passed as one value).
        """
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls.parse(value)
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return cls(str(value[0]), int(value[1]))
        raise TypeError(
            f"cannot interpret {value!r} as an endpoint; expected "
            "Endpoint, 'host:port', or a (host, port) pair"
        )

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        if ":" in self.host:  # IPv6 literal round-trips through parse()
            return f"[{self.host}]:{self.port}"
        return f"{self.host}:{self.port}"

    def as_tuple(self) -> Tuple[str, int]:
        return (self.host, self.port)


#: Anything :meth:`Endpoint.from_any` accepts.
EndpointLike = Union[Endpoint, str, Tuple[str, int]]
