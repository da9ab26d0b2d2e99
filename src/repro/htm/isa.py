"""Micro-op ISA and program representation for the simulated cores.

A thread program is a list of :class:`Segment`; each segment is either
:class:`Plain` (non-transactional work) or :class:`Txn` (a critical
section).  How a ``Txn`` executes depends on the machine: coarse-grained
lock (CGL), best-effort HTM with the Listing-1 elision loop, or the
LockillerTM variants (Listing 2).

Micro-ops are plain tuples ``(opcode, a, b)`` of ints, interpreted by
:mod:`repro.sim.cpu`.  Keeping them as tuples (not objects) keeps the
interpreter loop allocation-free, per the HPC guidance.

Opcodes
=======

``OP_COMPUTE n``
    ``n`` cycles of single-issue ALU work (CPI = 1, so also ``n``
    committed instructions for the insts-based priority).
``OP_LOAD addr``
    Read one word; tracked in the transaction read set when speculative.
``OP_STORE addr delta``
    Read-modify-write adding ``delta`` to the word at ``addr``.  Additive
    semantics make the final memory state order-independent, so the
    workloads can assert exact functional invariants regardless of the
    commit interleaving.
``OP_FAULT persistent``
    Raise an exception at this point.  Aborts a speculative transaction
    (reason ``fault``); survivable in any lock mode.  ``persistent=0``
    models a page fault that is resolved once taken (retries do not fault
    again); ``persistent=1`` re-faults on every speculative attempt.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

OP_COMPUTE = 0
OP_LOAD = 1
OP_STORE = 2
OP_FAULT = 3

#: One micro-op: (opcode, a, b).
Op = Tuple[int, int, int]

OP_NAMES = {
    OP_COMPUTE: "COMPUTE",
    OP_LOAD: "LOAD",
    OP_STORE: "STORE",
    OP_FAULT: "FAULT",
}


#: Most distinct cycle counts :data:`_COMPUTE_OPS` holds.  The nine
#: workloads use a few hundred; past the cap, ops are built fresh.
MAX_COMPUTE_OPS = 4096

#: One shared ``compute(n)`` op per exact-``int`` cycle count.  Ops are
#: immutable, so every program can hold the same tuple.  Only exact
#: ints are interned: ``2``, ``2.0`` and ``True`` are equal dict keys,
#: and sharing would hand one caller another's operand type.
_COMPUTE_OPS: Dict[int, Op] = {}


def compute(cycles: int) -> Op:
    """``cycles`` cycles of local computation (one shared op per count)."""
    exact = type(cycles) is int
    if exact:
        op = _COMPUTE_OPS.get(cycles)
        if op is not None:
            return op
    if cycles <= 0:
        raise ValueError("compute must take at least 1 cycle")
    op = (OP_COMPUTE, cycles, 0)
    if exact and len(_COMPUTE_OPS) < MAX_COMPUTE_OPS:
        _COMPUTE_OPS[cycles] = op
    return op


def load(addr: int) -> Op:
    """Read the word at byte address ``addr``."""
    if addr < 0:
        raise ValueError("negative address")
    return (OP_LOAD, addr, 0)


def store(addr: int, delta: int = 0) -> Op:
    """Add ``delta`` to the word at ``addr`` (read-modify-write)."""
    if addr < 0:
        raise ValueError("negative address")
    return (OP_STORE, addr, delta)


def fault(persistent: bool = False) -> Op:
    """Exception point (page fault by default: resolved after one trip)."""
    return (OP_FAULT, 1 if persistent else 0, 0)


_OP0 = itemgetter(0)


@dataclass
class Segment:
    """Base class for program segments."""

    ops: List[Op]

    def __post_init__(self) -> None:
        self._validate(self.ops)
        #: The ops as the CPU steps them (:func:`coalesce_ops`); segments
        #: are not mutated after construction.  :func:`op_layout`
        #: overrides it on its copies.
        self._bursts = coalesce_ops(self.ops)

    @staticmethod
    def _validate(ops: List[Op]) -> None:
        # Structural validation at C speed: three map/set sweeps instead
        # of a per-op Python loop (workload builds create tens of
        # thousands of ops per program).  Only a failed sweep pays for
        # the precise per-op error below.
        if not ops:
            return
        try:
            if (
                set(map(type, ops)) == {tuple}
                and set(map(len, ops)) == {3}
                and set(map(_OP0, ops)).issubset(OP_NAMES)
            ):
                return
        except Exception:
            pass
        for op in ops:
            if not (isinstance(op, tuple) and len(op) == 3):
                raise ValueError(f"malformed op {op!r}")
            if op[0] not in OP_NAMES:
                raise ValueError(f"unknown opcode {op[0]}")

    @property
    def num_ops(self) -> int:
        return len(self.ops)


@dataclass
class Plain(Segment):
    """Non-transactional work; time billed to the ``non_tran`` category."""


@dataclass
class Txn(Segment):
    """A critical section (transaction).

    ``tag`` is free-form workload metadata (useful in traces/tests).
    """

    tag: str = ""


    def read_lines(self) -> set:
        """Distinct cache lines read (including RMW stores)."""
        return {op[1] >> 6 for op in self.ops if op[0] in (OP_LOAD, OP_STORE)}

    def write_lines(self) -> set:
        return {op[1] >> 6 for op in self.ops if op[0] == OP_STORE}


Program = List[Segment]

#: One coalesced burst: ``(compute_cycles, steps, terminal_op, last_step)``.
#:
#: * ``compute_cycles`` — total OP_COMPUTE cycles elided into the burst;
#: * ``steps`` — tuple of ``(offset, n)`` pairs, one per elided compute
#:   op: the op starts ``offset`` cycles after the burst's anchor and
#:   retires ``n`` instructions ``n`` cycles later (prefix sums, so
#:   ``offset + n`` is the next op's offset);
#: * ``terminal_op`` — the memop/fault ending the burst, or ``None`` for
#:   a trailing compute-only burst at the end of a segment;
#: * ``last_step`` — cycle count of the final elided compute (0 when
#:   ``steps`` is empty): the interval between the last elided
#:   continuation's allocation and the burst event's fire time, i.e. the
#:   ``fire - vdelay`` gap the CPU passes to the engine so same-cycle
#:   ordering matches the one-op layout's event chain (:func:`op_layout`).
Burst = Tuple[int, Tuple[Tuple[int, int], ...], "Op | None", int]


#: Most distinct step patterns each of :data:`_ONE_STEP` and
#: :data:`_STEPS` holds.  The nine workloads use a few hundred;
#: :mod:`repro.sim.fuzz` draws many more.  Past the cap, patterns are
#: built fresh.
MAX_STEP_PATTERNS = 8192

#: Shared single-step ``steps`` tuples ``((0, n),)``, keyed by ``n``.
#: Most bursts have one elided compute, so this table serves them
#: without building the pair.  Exact-``int`` ``n`` only (see
#: :data:`_COMPUTE_OPS`).
_ONE_STEP: Dict[int, Tuple[Tuple[int, int], ...]] = {}

#: Shared multi-step ``steps`` tuples, keyed by themselves; every ``n``
#: in a key is an exact ``int``.
_STEPS: Dict[Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]] = {}


def _one_step(n: int) -> Tuple[Tuple[int, int], ...]:
    if type(n) is not int:
        return ((0, n),)
    steps = _ONE_STEP.get(n)
    if steps is None:
        steps = ((0, n),)
        if len(_ONE_STEP) < MAX_STEP_PATTERNS:
            _ONE_STEP[n] = steps
    return steps


def _multi_step(pairs: List[Tuple[int, int]]) -> Tuple[Tuple[int, int], ...]:
    steps = tuple(pairs)
    if all(type(n) is int for _, n in steps):
        shared = _STEPS.get(steps)
        if shared is not None:
            return shared
        if len(_STEPS) < MAX_STEP_PATTERNS:
            _STEPS[steps] = steps
    return steps


def coalesce_ops(ops: Sequence[Op]) -> Tuple[Burst, ...]:
    """Flatten an op stream into compute bursts.

    Each burst is a (possibly empty) run of OP_COMPUTE ops followed by
    at most one terminal memop/fault.  The CPU model schedules one
    continuation per burst instead of one per op; ``steps`` preserves
    every elided boundary so instruction retirement (priority input) and
    abort/replay points are bit-identical to the one-op layout.  Equal
    ``steps`` tuples are shared across segments and builds.
    """
    bursts: List[Burst] = []
    c = 0  # compute cycles elided so far
    k = 0  # compute ops elided so far
    last = 0  # cycles of the last elided compute
    pairs: List[Tuple[int, int]] = []  # (offset, n) once k >= 2
    for op in ops:
        if op[0] == OP_COMPUTE:
            n = op[1]
            if k == 1:
                pairs = [(0, last), (c, n)]
            elif k:
                pairs.append((c, n))
            c += n
            k += 1
            last = n
            continue
        if k == 0:
            bursts.append((0, (), op, 0))
            continue
        steps = _one_step(last) if k == 1 else _multi_step(pairs)
        bursts.append((c, steps, op, last))
        c = k = last = 0
    if k:
        steps = _one_step(last) if k == 1 else _multi_step(pairs)
        bursts.append((c, steps, None, last))
    return tuple(bursts)


def op_layout(programs: Sequence[Sequence[Segment]]) -> List[List[Segment]]:
    """Fresh copies of ``programs`` in the one-op-per-burst layout.

    Each copied segment's ``_bursts`` is set to one burst per op,
    compute ops included, so the CPU schedules one event per op: the
    schedule :func:`coalesce_ops` elides.  Running a program in both
    layouts and comparing the results checks the elision (tests,
    :mod:`repro.sim.fuzz`).  The inputs are left alone; workload builds
    share their segments, which already carry the coalesced layout.
    """
    copies: List[List[Segment]] = []
    for program in programs:
        segments = []
        for seg in program:
            seg = replace(seg)
            seg._bursts = tuple((0, (), op, 0) for op in seg.ops)
            segments.append(seg)
        copies.append(segments)
    return copies


def program_stats(program: Sequence[Segment]) -> dict:
    """Quick structural summary used by workload tests."""
    txns = [s for s in program if isinstance(s, Txn)]
    loads = sum(
        1 for s in program for op in s.ops if op[0] == OP_LOAD
    )
    stores = sum(
        1 for s in program for op in s.ops if op[0] == OP_STORE
    )
    faults = sum(
        1 for s in program for op in s.ops if op[0] == OP_FAULT
    )
    return {
        "segments": len(program),
        "txns": len(txns),
        "loads": loads,
        "stores": stores,
        "faults": faults,
        "mean_tx_ops": (
            sum(len(t.ops) for t in txns) / len(txns) if txns else 0.0
        ),
    }
