"""Cost-based route selection and plan trees for the cluster coordinator.

The coordinator can run a provably co-shardable join two ways: push the
join to every shard (broadcasting full copies of any unsharded tables) or
gather the sharded tables' slices onto the primary and join there.  Which
is cheaper depends on the table cardinalities: a tiny fact table joined
against a huge dimension is cheaper to gather than the dimension is to
broadcast.  :func:`choose_coshard_or_fallback` makes that call from the
shards' live row counts (cached per cluster epoch), and
:func:`build_route_plan` renders any route -- primary, scatter, co-shard,
fallback -- as a :class:`~repro.engine.planner.PlanNode` tree for the
EXPLAIN surfaces.

The model is deliberately coarse: moving an encrypted row across the
cluster costs a fixed multiple of probing it in a local hash join, network
volume dominates, and per-shard work runs in parallel while primary-side
work is serial.  It only has to order two concrete alternatives, not
predict wall-clock times.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine.planner import PlanNode

#: Relative price of moving one (encrypted) row between shards versus
#: streaming it through a local hash join.  Shares are 256..2048-bit
#: integers serialized over a wire or copied between catalogs; several
#: local probes per transferred row is conservative.
NETWORK_WEIGHT = 4.0

#: Relative price of one row of local join work.
COMPUTE_WEIGHT = 1.0


@dataclass(frozen=True)
class RouteChoice:
    """The cost comparison behind a coshard-vs-fallback decision."""

    route: str            # 'coshard' | 'fallback'
    coshard_cost: float
    fallback_cost: float
    reason: str


def choose_coshard_or_fallback(
    info, cardinalities: dict, num_shards: int
) -> RouteChoice:
    """Pick the cheaper execution of a provably co-shardable join.

    ``info`` is the coordinator's ``CoshardInfo`` proof; ``cardinalities``
    maps table name -> total row count (unknown tables count as 0, which
    biases toward the parallel route -- the right default when nothing is
    known).  Costs:

    * **coshard** -- broadcast every dim to the other ``N-1`` shards, then
      each shard joins its ``1/N`` slice of the sharded tables against the
      full dims, in parallel.
    * **fallback** -- gather the sharded tables' remote slices (about
      ``(N-1)/N`` of their rows) onto the primary, then join everything
      there, serially.

    Broadcast and gather copies are cached between queries, so this static
    estimate overstates the steady-state network cost of both routes
    equally; ties prefer coshard for the parallel join work.
    """
    n = max(1, int(num_shards))
    dim_rows = sum(cardinalities.get(name, 0) for name in info.dims)
    sharded_rows = sum(cardinalities.get(name, 0) for name in info.sharded)

    coshard_cost = (
        NETWORK_WEIGHT * dim_rows * (n - 1)
        + COMPUTE_WEIGHT * (sharded_rows / n + dim_rows)
    )
    fallback_cost = (
        NETWORK_WEIGHT * sharded_rows * (n - 1) / n
        + COMPUTE_WEIGHT * (sharded_rows + dim_rows)
    )
    if coshard_cost <= fallback_cost:
        route = "coshard"
        reason = (
            f"shard-local join is cheaper (est. {coshard_cost:.0f} vs "
            f"gather {fallback_cost:.0f})"
        )
    else:
        route = "fallback"
        reason = (
            f"gather is cheaper (est. {fallback_cost:.0f} vs broadcasting "
            f"{dim_rows} dim row(s) to {n - 1} shard(s): {coshard_cost:.0f})"
        )
    return RouteChoice(
        route=route,
        coshard_cost=coshard_cost,
        fallback_cost=fallback_cost,
        reason=reason,
    )


def build_route_plan(coordinator, query, route: tuple) -> PlanNode:
    """The coordinator's execution of ``query`` under ``route``, as a tree.

    Never contacts the shards beyond (cached) row counts; safe to call for
    EXPLAIN without executing anything.
    """
    kind, extra = route
    cards = coordinator._cardinalities()
    num_shards = len(coordinator.shards)
    if kind == "primary":
        return PlanNode(
            op="primary",
            detail="runs wholly on the primary shard",
            props={"shards": 1},
        )
    if kind == "scatter":
        split = coordinator._plan_scatter(query, route)
        report = coordinator._report(query, route, split)
        table = query.from_clause.name.lower()
        return PlanNode(
            op="scatter",
            detail=report.reason,
            props={"shards": num_shards},
            leakage=report.leakage,
            children=(
                PlanNode(
                    op="partial",
                    detail=f"{split.kind} over each shard's slice of {table}",
                    props={"rows": cards.get(table, 0)},
                ),
                _merge_node(split, num_shards),
            ),
        )
    if kind == "coshard":
        info = extra
        split = coordinator._plan_scatter(query, route)
        report = coordinator._report(query, route, split)
        choice = choose_coshard_or_fallback(info, cards, num_shards)
        children = [
            PlanNode(
                op="broadcast",
                detail=f"full (encrypted) copy of {name} to every shard",
                props={"rows": cards.get(name, 0), "shards": num_shards},
            )
            for name in info.dims
        ]
        props = {"shards": num_shards}
        if info.group:
            props["group"] = info.group
        children.append(
            PlanNode(
                op="partial",
                detail=(
                    f"{split.kind} over shard-local join of "
                    + " ⋈ ".join(info.sharded + info.dims)
                ),
                props={
                    "rows": sum(cards.get(t, 0) for t in info.sharded),
                },
            )
        )
        children.append(_merge_node(split, num_shards))
        return PlanNode(
            op="coshard-join",
            detail=report.reason,
            props=props,
            leakage=report.leakage,
            children=tuple(children),
            notes=(choice.reason,),
        )
    # fallback: gather every sharded table to the primary and run there
    sharded_names = tuple(sorted(extra))
    children = tuple(
        PlanNode(
            op="gather",
            detail=f"full (encrypted) copy of {name} to the primary shard",
            props={"rows": cards.get(name, 0), "shards": num_shards},
        )
        for name in sharded_names
    )
    notes = ()
    info = coordinator._coshard_info(query)
    if info is not None:
        # co-shardable, but the cost model picked the gather
        choice = choose_coshard_or_fallback(info, cards, num_shards)
        notes = (choice.reason,)
    return PlanNode(
        op="gather-join",
        detail=(
            "non-shardable or gather-cheaper query; "
            f"{', '.join(sharded_names)} gathered to the primary shard"
        ),
        props={"shards": num_shards},
        leakage=coordinator._report(query, route, None).leakage,
        children=children
        + (
            PlanNode(
                op="execute",
                detail="single-node join on the primary shard",
                props={"rows": sum(cards.get(t, 0) for t in sharded_names)},
            ),
        ),
        notes=notes,
    )


def _merge_node(split, num_shards: int) -> PlanNode:
    if split.kind == "group-pushdown":
        detail = f"concatenate {num_shards} shard-final partials"
    else:
        detail = f"re-{split.kind} {num_shards} partials on the coordinator"
    return PlanNode(op="merge", detail=detail, props={"partials": num_shards})
