"""SDB core: the paper's contribution.

* :mod:`repro.core.meta` -- logical value types and per-column metadata.
* :mod:`repro.core.protocols` -- the secure-operator protocol suite and its
  leakage profiles (multiplication, key update, addition, comparison,
  tokens, aggregation).
* :mod:`repro.core.udfs` -- the SP-side UDFs (all operate on shares mod n).
* :mod:`repro.core.keystore` -- the DO-side key store (demo step 1).
* :mod:`repro.core.encryptor` -- the upload pipeline.
* :mod:`repro.core.rewriter` -- SQL rewriting to UDF form (Section 2.2).
* :mod:`repro.core.decryptor` -- result decryption at the proxy.
* :mod:`repro.core.proxy` / :mod:`repro.core.server` -- the two-party
  architecture of Figure 2; every DO -> SP call goes through the
  :class:`repro.api.backend.Backend` protocol, in process or over
  :mod:`repro.net`.
* :mod:`repro.core.security` -- DB/CPA/QR attacker simulations (Section 2.3).
"""

from repro.core.meta import ColumnMeta, SensitivityProfile, TableMeta, ValueType
from repro.core.proxy import SDBProxy
from repro.core.server import SDBServer

__all__ = [
    "ValueType",
    "ColumnMeta",
    "TableMeta",
    "SensitivityProfile",
    "SDBProxy",
    "SDBServer",
]
