"""Loopy belief propagation (binary pairwise MRF), fixed iterations.

A simplified sum-product BP matching the X-Stream benchmark's structure:
each vertex holds a belief (log-odds of a binary variable); each
iteration every vertex broadcasts a message derived from its belief over
its outgoing edges, and the new belief combines the vertex prior with
the damped sum of incoming messages.  Edge weights (when present) act as
coupling strengths.

This is the "broadcast" approximation of BP — messages are not
individualized per edge (no division by the reverse message), which is
the standard simplification for edge-centric engines where per-edge
message state would double storage.  The reference implementation in
the tests applies the identical update rule densely, so functional
correctness is exact with respect to this variant.
"""

from __future__ import annotations

import numpy as np

from repro.core.gas import GasAlgorithm, GraphContext, State, exact_add_at


class BeliefPropagation(GasAlgorithm):
    """Damped log-domain belief propagation, fixed iteration count."""

    name = "BP"
    update_bytes = 8
    vertex_bytes = 8
    accum_bytes = 4

    def __init__(
        self,
        iterations: int = 5,
        coupling: float = 0.5,
        damping: float = 0.5,
        prior_seed: int = 0,
    ):
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        self.max_iterations = iterations
        self.coupling = coupling
        self.damping = damping
        self.prior_seed = prior_seed

    def init_values(self, ctx: GraphContext) -> State:
        rng = np.random.default_rng(self.prior_seed)
        prior = rng.normal(0.0, 1.0, size=ctx.num_vertices)
        return {"prior": prior, "belief": prior.copy()}

    def _message(self, belief: np.ndarray) -> np.ndarray:
        # Pairwise potential folded into a tanh attenuation of the
        # sender's belief (the standard log-domain BP message for a
        # symmetric binary potential with strength `coupling`).
        return 2.0 * np.arctanh(
            np.tanh(self.coupling) * np.tanh(belief / 2.0)
        )

    def scatter(self, values, src_local, dst, weight, iteration):
        message = self._message(values["belief"][src_local])
        if weight is not None:
            message = message * weight
        return dst, message

    def make_accumulator(self, n: int) -> np.ndarray:
        return np.zeros(n, dtype=np.float64)

    def gather(self, accum, dst_local, values, state=None) -> None:
        exact_add_at(accum, dst_local, values)

    def combine_updates(self, dst, values):
        from repro.algorithms.combiners import combine_by_sum

        return combine_by_sum(dst, values)

    def apply(self, values: State, accum: np.ndarray, iteration: int) -> int:
        new_belief = (1.0 - self.damping) * values["belief"] + self.damping * (
            values["prior"] + accum
        )
        changed = int(np.count_nonzero(new_belief != values["belief"]))
        values["belief"][:] = new_belief
        return changed
