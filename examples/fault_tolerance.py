#!/usr/bin/env python
"""Fault tolerance: checkpoints, failure, recovery (Section 6.6).

Chaos checkpoints the vertex values — the entire computation state — at
every phase barrier with a two-phase protocol, so a transient machine
failure costs only the partial iteration since the last barrier plus a
checkpoint restore.

This example:

1. measures the checkpointing overhead (the Figure 13 experiment);
2. crashes a machine mid-run inside the simulation and lets the
   cluster roll back and re-execute, showing the measured timeline
   decomposition and that the recovered result is bit-identical;
3. shows vertex-set replication (the paper's suggested extension for
   *storage* failures) and its write-amplification cost.

Run:  python examples/fault_tolerance.py
"""

import numpy as np

from repro import ClusterConfig, PageRank, rmat_graph
from repro.core.runtime import ChaosCluster, run_algorithm
from repro.faults import FaultPlan


def main() -> None:
    graph = rmat_graph(scale=12, seed=11)
    print(f"graph: {graph}")
    base_config = ClusterConfig(
        machines=8, chunk_bytes=32 * 1024, partitions_per_machine=1
    )

    # -- 1. Checkpointing overhead (Figure 13) ----------------------------
    plain = run_algorithm(PageRank(iterations=5), graph, base_config)
    checkpointed_config = base_config.with_(checkpointing=True)
    checkpointed = run_algorithm(
        PageRank(iterations=5), graph, checkpointed_config
    )
    overhead = checkpointed.runtime / plain.runtime - 1.0
    print(
        f"\n[checkpointing] {checkpointed.checkpoints} checkpoints, "
        f"{overhead:+.1%} runtime (paper: under 6%)"
    )

    # -- 2. Failure and recovery ------------------------------------------
    # Machine 1 fail-stops as iteration 3 starts.  The failure detector
    # notices the missed heartbeats, every machine rolls back to the last
    # durable checkpoint, machine 1 is rebooted, the vertex sets are read
    # back through the real transport and devices, and the job resumes.
    # The undisturbed twin is the checkpointed run from step 1.
    cluster = ChaosCluster(checkpointed_config)
    recovered = cluster.run(
        PageRank(iterations=5),
        graph,
        fault_plan=FaultPlan.parse(["crash:1@iter=3"]),
    )
    timeline = cluster.last_fault_timeline
    round_ = timeline.rounds[0]
    print("\n[recovery] machine 1 lost during iteration 3 (measured):")
    print(f"  useful work:                 {timeline.useful_seconds * 1000:.1f} ms")
    print(f"  lost work (re-executed):     {timeline.lost_seconds * 1000:.1f} ms")
    print(f"  detect-to-resume restore:    {timeline.restore_seconds * 1000:.1f} ms "
          f"(resumed at iteration {round_.resume_iteration})")
    print(f"  total: {recovered.runtime * 1000:.1f} ms vs undisturbed "
          f"{checkpointed.runtime * 1000:.1f} ms "
          f"({recovered.runtime / checkpointed.runtime - 1.0:+.1%})")

    identical = all(
        np.array_equal(recovered.values[name], checkpointed.values[name])
        for name in checkpointed.values
    )
    print(f"  recovered ranks identical to undisturbed run: {identical}")

    # -- 3. Vertex-set replication (storage-failure tolerance) -------------
    replicated = run_algorithm(
        PageRank(iterations=5), graph, base_config.with_(vertex_replicas=2)
    )
    write_amplification = replicated.storage_bytes / plain.storage_bytes
    print(
        f"\n[replication] 2x vertex replicas: storage I/O x"
        f"{write_amplification:.2f}, runtime "
        f"{replicated.runtime / plain.runtime - 1.0:+.1%} "
        "(vertex sets are small next to edges/updates)"
    )


if __name__ == "__main__":
    main()
