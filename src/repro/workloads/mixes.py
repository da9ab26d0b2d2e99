"""Shared helpers for composing transactional access mixes."""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.common.rng import RandomStream
from repro.htm.isa import Op, Txn, compute, fault, load, store


def make_txn(
    rng: RandomStream,
    reads: Sequence[int],
    writes: Sequence[Tuple[int, int]],
    pre_compute: int = 10,
    per_op_compute: int = 2,
    tag: str = "",
    fault_at: Optional[int] = None,
    fault_persistent: bool = False,
    rmw_pairs: Sequence[Tuple[int, int]] = (),
) -> Txn:
    """Build a transaction interleaving reads, writes and compute.

    ``reads`` are byte addresses; ``writes`` are (address, delta) pairs.
    The combined stream is shuffled so conflict windows are realistic.
    ``rmw_pairs`` are (address, delta) read-modify-writes whose load and
    store stay *adjacent* (an atomic counter / queue-pointer update —
    keeping them adjacent keeps the upgrade window tight, as real code
    does).  ``fault_at`` injects an exception before the op at that index
    of the combined stream.
    """
    ops: List[Op] = []
    if pre_compute > 0:
        ops.append(compute(pre_compute))
    step = compute(per_op_compute) if per_op_compute > 0 else None
    stream: List[object] = [load(a) for a in reads] + [
        store(a, d) for a, d in writes
    ] + [("rmw", a, d) for a, d in rmw_pairs]
    if len(stream) > 1:
        order = rng.permutation(len(stream))
        stream = [stream[i] for i in order]
    for i, op in enumerate(stream):
        if fault_at is not None and i == fault_at:
            ops.append(fault(persistent=fault_persistent))
        if step is not None:
            ops.append(step)
        if op[0] == "rmw":
            ops.append(load(op[1]))
            ops.append(store(op[1], op[2]))
        else:
            ops.append(op)
    if fault_at is not None and fault_at >= len(stream):
        ops.append(fault(persistent=fault_persistent))
    return Txn(ops, tag=tag)


def pick_lines(
    rng: RandomStream, universe: int, count: int
) -> List[int]:
    """``count`` distinct line indices out of ``universe``."""
    count = min(count, universe)
    if count * 3 < universe:
        # Rejection-free fast path for sparse picks.
        picks = rng.choice(universe, size=count, replace=False)
    else:
        picks = rng.permutation(universe)[:count]
    return picks

