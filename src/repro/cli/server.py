"""``sdb-server``: run the service provider as a standalone daemon.

This is machine MSP of the demo: an unmodified engine plus the SDB UDFs,
listening for proxies.  ``--durable DIR`` adds disk persistence with
write-ahead logging, so the daemon recovers its (encrypted) state after a
restart.
"""

from __future__ import annotations

import argparse
from typing import Optional


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdb-server", description="SDB service-provider daemon"
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=9753)
    parser.add_argument("--durable", metavar="DIR",
                        help="persist tables and WAL under DIR")
    parser.add_argument("--shard-id", type=int, default=None, metavar="I",
                        help="identity within a sharded cluster (see repro.cluster)")
    parser.add_argument("--max-session-queue", type=int, default=64, metavar="N",
                        help="admission control: max in-flight requests per "
                             "session before replying 'server busy' (0: off)")
    parser.add_argument("--slow-query-ms", type=float, default=None,
                        metavar="MS",
                        help="log wire operations slower than MS milliseconds "
                             "to the daemon slow-query log (off by default)")
    parser.add_argument("--metrics", action="store_true",
                        help="print a Prometheus-text metrics snapshot on "
                             "SIGINT shutdown")
    args = parser.parse_args(argv)

    if args.durable:
        from repro.storage import DurableServer

        sdb_server = DurableServer(args.durable)
        if sdb_server.recovered_statements:
            print(f"recovered {sdb_server.recovered_statements} WAL statements")
        if args.shard_id is not None:  # else keep any recovered identity
            sdb_server.shard_id = args.shard_id
    else:
        from repro.core.server import SDBServer

        sdb_server = SDBServer(shard_id=args.shard_id)

    from repro.net.server import SDBNetServer

    slow_query_s = (
        args.slow_query_ms / 1000.0 if args.slow_query_ms is not None else None
    )
    server = SDBNetServer(
        (args.host, args.port), sdb_server=sdb_server,
        max_session_queue=args.max_session_queue,
        slow_query_s=slow_query_s,
    )
    shard = "" if args.shard_id is None else f" (shard {args.shard_id})"
    print(f"sdb-server listening on {args.host}:{server.port}{shard}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        if args.metrics:
            from repro.obs.metrics import global_metrics, render_prometheus

            print(render_prometheus(global_metrics().snapshot()), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
