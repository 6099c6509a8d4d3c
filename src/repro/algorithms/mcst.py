"""Minimum cost spanning tree/forest (Borůvka with edge contraction).

Each Borůvka round runs two GAS jobs over the current (contracted)
edge list and then rewrites the edges:

1. **Min-edge pick** (one iteration): every vertex selects its
   minimum-weight incident edge under a globally consistent total order
   on edges — the key ``(weight, min endpoint, max endpoint)`` — which
   guarantees the chosen-edge graph is a pseudo-forest whose only cycles
   are mutual pairs.

2. **Hook-propagate** (to quiescence): component labels flow down the
   chosen-edge trees.  A vertex adopts the label of its chosen parent;
   the smaller endpoint of each mutual pair is the tree root and keeps
   its own id.  At quiescence every tree member holds the root's id.

The driver then adds each non-root's chosen edge to the forest (exactly
the n−1 tree edges per component), relabels edge endpoints with the new
component ids, drops self-loops, and repeats until no edges remain.
Edge rewriting between rounds is the model extension the paper notes in
Section 6.1 (footnote 2); its streaming cost is charged as the next
round's pre-processing pass.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.algorithms.drivers import DriverResult
from repro.core.config import ClusterConfig
from repro.core.gas import GasAlgorithm, GraphContext, State
from repro.core.runtime import ChaosCluster
from repro.graph.edgelist import EdgeList

_PICK_DTYPE = np.dtype(
    [("weight", np.float64), ("k1", np.int64), ("k2", np.int64), ("src", np.int64)]
)
_HOOK_DTYPE = np.dtype(
    [("src", np.int64), ("src_chosen", np.int64), ("comp", np.int64)]
)


class _MinEdgePick(GasAlgorithm):
    """Round phase 1: per-vertex minimum incident edge (one iteration)."""

    name = "MCST/pick"
    needs_undirected = True
    needs_weights = True
    update_bytes = 16
    vertex_bytes = 16
    accum_bytes = 16
    max_iterations = 1

    def init_values(self, ctx: GraphContext) -> State:
        return {
            "vid": np.arange(ctx.num_vertices, dtype=np.int64),
            "chosen": np.full(ctx.num_vertices, -1, dtype=np.int64),
            "chosen_weight": np.full(ctx.num_vertices, np.inf, dtype=np.float64),
        }

    def scatter(self, values, src_local, dst, weight, iteration):
        src_vid = values["vid"][src_local]
        payload = np.empty(len(dst), dtype=_PICK_DTYPE)
        payload["weight"] = weight
        payload["k1"] = np.minimum(src_vid, dst)
        payload["k2"] = np.maximum(src_vid, dst)
        payload["src"] = src_vid
        return dst, payload

    def make_accumulator(self, n: int) -> np.ndarray:
        accum = np.empty(n, dtype=_PICK_DTYPE)
        accum["weight"] = np.inf
        accum["k1"] = accum["k2"] = accum["src"] = -1
        return accum

    @staticmethod
    def _better(
        w, k1, k2, accum_w, accum_k1, accum_k2
    ) -> np.ndarray:
        """Lexicographic (weight, k1, k2) comparison, vectorized."""
        return (
            (w < accum_w)
            | ((w == accum_w) & (k1 < accum_k1))
            | ((w == accum_w) & (k1 == accum_k1) & (k2 < accum_k2))
        )

    def gather(self, accum, dst_local, values, state=None) -> None:
        # Reduce the chunk to one candidate per destination first
        # (sorted by dst, then edge key, then sender, so a tie is broken
        # by value and not by arrival), then compare against accum.
        order = np.lexsort(
            (values["src"], values["k2"], values["k1"], values["weight"], dst_local)
        )
        sorted_dst = dst_local[order]
        unique_dst, first = np.unique(sorted_dst, return_index=True)
        best = values[order[first]]
        better = self._better(
            best["weight"],
            best["k1"],
            best["k2"],
            accum["weight"][unique_dst],
            accum["k1"][unique_dst],
            accum["k2"][unique_dst],
        )
        accum[unique_dst[better]] = best[better]

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        picked = np.isfinite(accum["weight"])
        values["chosen"][picked] = accum["src"][picked]
        values["chosen_weight"][picked] = accum["weight"][picked]
        return int(np.count_nonzero(picked))


class _HookPropagate(GasAlgorithm):
    """Round phase 2: propagate root labels down the chosen-edge trees."""

    name = "MCST/hook"
    needs_undirected = True
    update_bytes = 16
    vertex_bytes = 16
    accum_bytes = 16
    max_iterations = None

    def __init__(self, chosen: np.ndarray):
        self._chosen = chosen

    def init_values(self, ctx: GraphContext) -> State:
        return {
            "vid": np.arange(ctx.num_vertices, dtype=np.int64),
            "chosen": self._chosen.copy(),
            "comp": np.arange(ctx.num_vertices, dtype=np.int64),
            # Every vertex that picked an edge announces in iteration 0.
            "active": self._chosen >= 0,
        }

    def scatter(self, values, src_local, dst, weight, iteration):
        selected = values["active"][src_local]
        if not selected.any():
            return None
        index = src_local[selected]
        payload = np.empty(int(selected.sum()), dtype=_HOOK_DTYPE)
        payload["src"] = values["vid"][index]
        payload["src_chosen"] = values["chosen"][index]
        payload["comp"] = values["comp"][index]
        return dst[selected], payload

    def make_accumulator(self, n: int) -> np.ndarray:
        accum = np.empty(n, dtype=_HOOK_DTYPE)
        accum["src"] = accum["src_chosen"] = accum["comp"] = -1
        return accum

    def gather(self, accum, dst_local, values, state=None) -> None:
        if state is None:
            raise ValueError("hook propagation needs the vertex state")
        # Accept only the message from the destination's chosen parent.
        from_parent = state["chosen"][dst_local] == values["src"]
        index = dst_local[from_parent]
        accum[index] = values[from_parent]

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        has_parent = accum["src"] != -1
        mutual_root = (
            has_parent
            & (accum["src_chosen"] == values["vid"])
            & (values["vid"] < accum["src"])
        )
        adopt = has_parent & ~mutual_root
        changed = adopt & (values["comp"] != accum["comp"])
        values["comp"][changed] = accum["comp"][changed]
        values["active"][:] = changed
        return int(np.count_nonzero(changed))


def run_mcst(
    edges: EdgeList,
    config: Optional[ClusterConfig] = None,
    tracer=None,
    **config_overrides,
) -> DriverResult:
    """Compute the minimum spanning forest of an undirected weighted graph.

    ``edges`` must contain both orientations of every undirected edge
    (use :func:`repro.graph.convert.to_undirected`).  The result's
    ``values`` hold the total forest weight (``mst_weight``) and the
    final component label of every vertex (``component``).
    """
    if config is None:
        config = ClusterConfig(**config_overrides)
    elif config_overrides:
        config = config.with_(**config_overrides)
    if not edges.weighted:
        raise ValueError("MCST requires edge weights")

    num_vertices = edges.num_vertices
    comp_global = np.arange(num_vertices, dtype=np.int64)
    current = edges
    total_weight = 0.0
    tree_edges = 0
    jobs = []
    rounds = 0

    while current.num_edges > 0:
        rounds += 1
        cluster = ChaosCluster(config, tracer=tracer)
        pick_job = cluster.run(_MinEdgePick(), current)
        jobs.append(pick_job)
        chosen = pick_job.values["chosen"]
        chosen_weight = pick_job.values["chosen_weight"]

        hook_job = ChaosCluster(config, tracer=tracer).run(
            _HookPropagate(chosen), current
        )
        jobs.append(hook_job)
        comp_round = hook_job.values["comp"]

        # Every non-root with a chosen edge contributes exactly one tree
        # edge (its parent pointer).
        non_root = (chosen >= 0) & (
            comp_round != np.arange(num_vertices, dtype=np.int64)
        )
        total_weight += float(chosen_weight[non_root].sum())
        tree_edges += int(np.count_nonzero(non_root))

        # Contract: relabel endpoints with component ids, drop self-loops.
        comp_global = comp_round[comp_global]
        new_src = comp_round[current.src]
        new_dst = comp_round[current.dst]
        keep = new_src != new_dst
        current = EdgeList(
            num_vertices=num_vertices,
            src=new_src[keep],
            dst=new_dst[keep],
            weight=current.weight[keep],
        )

    runtime = sum(job.runtime for job in jobs)
    return DriverResult(
        algorithm="MCST",
        machines=config.machines,
        runtime=runtime,
        rounds=rounds,
        jobs=jobs,
        values={
            "mst_weight": total_weight,
            "tree_edges": tree_edges,
            "component": comp_global,
        },
    )
