"""Load generated TPC-H data into an SDB deployment and/or a plain engine."""

from __future__ import annotations

from typing import Optional

from repro.core.meta import SensitivityProfile, ValueType
from repro.core.proxy import SDBProxy
from repro.engine import Catalog, Engine, Table
from repro.engine.schema import ColumnSpec, DataType, Schema
from repro.workloads.tpch.dbgen import generate
from repro.workloads.tpch.schema import TABLES
from repro.workloads.tpch.sensitivity import FINANCIAL_PROFILE, sensitive_columns

_DTYPE = {
    "int": DataType.INT,
    "decimal": DataType.DECIMAL,
    "date": DataType.DATE,
    "string": DataType.STRING,
    "bool": DataType.BOOL,
}


def plain_schema(table: str) -> Schema:
    specs = []
    for name, vtype in TABLES[table]:
        dtype = _DTYPE[vtype.kind]
        scale = vtype.scale if dtype is DataType.DECIMAL else 0
        specs.append(ColumnSpec(name, dtype, scale=scale))
    return Schema(tuple(specs))


def load_plain(data: dict) -> Engine:
    """A plaintext engine over generated TPC-H data (the ground truth)."""
    catalog = Catalog()
    for table, rows in data.items():
        catalog.create(table, Table.from_rows(plain_schema(table), rows))
    return Engine(catalog)


#: Natural shard keys for a clustered TPC-H load: the two big fact tables
#: partition by their join keys; dimension tables stay primary-resident.
DEFAULT_SHARD_COLUMNS = {
    "lineitem": "l_orderkey",
    "orders": "o_orderkey",
}

#: Default colocation groups: orders and lineitem shard by the same join
#: key, so routing them through one group subkey co-locates each order
#: with its line items -- the layout co-sharded joins run shard-local on.
DEFAULT_COLOCATION = {
    "lineitem": "orderkey",
    "orders": "orderkey",
}


def load_encrypted(
    proxy: SDBProxy,
    data: dict,
    profile: SensitivityProfile = FINANCIAL_PROFILE,
    rng=None,
    shard_by: Optional[dict] = None,
    colocate: Optional[dict] = None,
) -> None:
    """Encrypt and upload generated TPC-H data through the proxy.

    ``shard_by`` maps table name -> shard-key column for cluster
    deployments (tables not in the map stay on the primary shard);
    pass :data:`DEFAULT_SHARD_COLUMNS` for a sensible split.
    ``colocate`` maps table name -> colocation group (defaults to
    :data:`DEFAULT_COLOCATION`, restricted to the tables actually
    sharded); pass ``{}`` to shard without colocation.
    """
    shard_by = shard_by or {}
    if colocate is None:
        colocate = DEFAULT_COLOCATION
    for table, rows in data.items():
        sharded_column = shard_by.get(table)
        proxy.create_table(
            table,
            TABLES[table],
            rows,
            sensitive=sensitive_columns(profile, table, TABLES[table]),
            rng=rng,
            shard_by=sharded_column,
            colocate=(
                colocate.get(table) if sharded_column is not None else None
            ),
        )


def tpch_deployment(
    scale_factor: float = 0.002,
    seed: int = 19920101,
    profile: SensitivityProfile = FINANCIAL_PROFILE,
    proxy_rng=None,
    modulus_bits: int = 256,
):
    """Convenience: (proxy, plain_engine, data) over the same TPC-H data."""
    from repro.core.server import SDBServer

    data = generate(scale_factor=scale_factor, seed=seed)
    server = SDBServer()
    proxy = SDBProxy(server, modulus_bits=modulus_bits, value_bits=64, rng=proxy_rng)
    load_encrypted(proxy, data, profile=profile, rng=proxy_rng)
    plain = load_plain(data)
    return proxy, plain, data
