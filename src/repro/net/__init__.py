"""Networked deployment: the DO and SP as separate processes.

The demo runs on two machines -- ``MDO`` with the SDB proxy and ``MSP``
with the engine.  This package provides that deployment shape:

* :mod:`repro.net.protocol` -- length-prefixed JSON framing with a codec
  for every value that crosses the trust boundary (shares, dates,
  SIES ciphertexts, whole relations);
* :mod:`repro.net.server` -- a threaded TCP daemon wrapping an
  :class:`repro.core.server.SDBServer`;
* :mod:`repro.net.client` -- :class:`RemoteServer`, a drop-in replacement
  for the in-process server object, so ``SDBProxy(RemoteServer(...))``
  works unchanged.

Only ciphertext and rewritten queries travel on this wire; the security
analysis of :mod:`repro.core.security` applies verbatim to a wire-tapper.
"""

from repro.net.client import RemoteServer
from repro.net.protocol import NetError, RemoteError, decode_value, encode_value
from repro.net.server import SDBNetServer, start_server

__all__ = [
    "RemoteServer",
    "SDBNetServer",
    "start_server",
    "NetError",
    "RemoteError",
    "encode_value",
    "decode_value",
]
