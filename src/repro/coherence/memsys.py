"""The memory subsystem: private L1s, shared inclusive LLC + directory,
transactional conflict detection, and the LockillerTM mechanisms.

Every memory access resolves *event-atomically* at its issue event: the
directory lookup, conflict resolution, state transitions and victim
aborts all happen at once, and the caller receives the total latency to
schedule its continuation.  Because the event engine totally orders
events, this preserves the blocking-directory semantics (per-line
``busy_until`` models the transient-state window) while keeping the
simulator fast.

Conflict detection is eager (on the request path), exactly like the
modeled best-effort HTM: the global ``tx_readers`` / ``tx_writers`` maps
index which cores hold each line transactionally, and the two LLC
overflow signatures cover the HTMLock-mode transaction's spilled lines.

The tracking maps store **core bitmasks** (one int per line, bit
``1 << core``), mirroring how limited-set HTMs keep per-line sharer
metadata as compact bit vectors: the conflict pre-check is two dict
probes and an integer compare, membership updates are bit ops with no
set allocation, and holder enumeration walks the set bits in ascending
core order — which equals the CPython small-int set iteration order the
previous representation exposed for the modeled core counts (see
docs/PERFORMANCE.md PR 8 for the determinism argument).  The conflict
manager's :class:`~repro.core.conflict.Resolution` API still receives
materialized :class:`HolderInfo` records, so ``repro.core.conflict`` is
untouched.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.errors import ProtocolInvariantError
from repro.common.events import TraceEvent
from repro.common.params import SystemParams
from repro.common.stats import AbortReason, CoreStats
from repro.coherence.cachearray import CacheArray
from repro.coherence.directory import DirEntry, Directory, cores_of
from repro.coherence.states import MESI
from repro.core.conflict import (
    ConflictManager,
    HolderInfo,
    RequesterInfo,
    Resolution,
)
from repro.core.signatures import BloomSignature
from repro.htm.txstate import TxMode, TxState
from repro.interconnect.network import NetworkModel
from repro.interconnect.topology import MeshTopology

# Access outcome statuses.
GRANT = 0
REJECT = 1
OVERFLOW = 2

#: TxMode members as module constants: an enum attribute lookup costs
#: several times a global read on the per-access hot path.
_HTM = TxMode.HTM
_TL = TxMode.TL
_STL = TxMode.STL
#: The irrevocable HTMLock modes (``TxMode.is_lock_mode``, inlined).
_LOCK_MODES = (_TL, _STL)
#: Modes whose accesses are tracked in read/write sets.
_TRACK_MODES = (_HTM, _TL, _STL)
#: MESI states as module constants, for the same reason.
_I = MESI.I
_S = MESI.S
_E = MESI.E
_M = MESI.M


class AccessResult:
    """Outcome of one access: status, total latency and NACK details.

    Immutable (assigning a field raises): results are shared.  Every L1
    hit returns one instance, and every grant of the same latency
    returns the same one (:meth:`MemorySystem.access`).
    """

    __slots__ = (
        "status",
        "latency",
        "hit",
        "reject_holder",
        "reject_by_lock",
    )

    def __init__(
        self,
        status: int,
        latency: int,
        hit: bool = False,
        reject_holder: int = -1,
        reject_by_lock: bool = False,
    ) -> None:
        init = object.__setattr__
        init(self, "status", status)
        init(self, "latency", latency)
        init(self, "hit", hit)
        init(self, "reject_holder", reject_holder)
        init(self, "reject_by_lock", reject_by_lock)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"AccessResult is immutable: {name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"AccessResult is immutable: {name}")


class PriceRow:
    """Fused NoC pricing of a (requester core, home tile) pair.

    With stateless pricing every leg between two tiles is a pure
    function of their hop counts, so a machine builds its rows once
    from the network's hop and latency tables (:meth:`table`) and the
    directory miss path reads one row instead of re-deriving each leg.

    * ``req`` — L1 lookup plus the request's control leg to the home;
    * ``ctrl`` / ``data`` — the home's control (NACK) and data legs
      back to the requester, and ``hops``, their hop count;
    * ``flits`` / ``rt_hops`` — NoC counter increments of the direct
      request/data round trip (a NACK round trip has the same hops).

    The row of a requester and a *tile* other than its home prices the
    cache-to-cache legs too: ``_rows[owner][home].ctrl`` is the home's
    forward to an owner, ``_rows[core][owner_tile].data`` the owner's
    data to the requester.
    """

    __slots__ = ("req", "ctrl", "data", "hops", "flits", "rt_hops")

    def __init__(
        self,
        network: NetworkModel,
        l1_latency: int,
        hops_up: int,
        hops_down: int,
    ) -> None:
        self.req = l1_latency + network._ctrl_by_hops[hops_up]
        self.ctrl = network._ctrl_by_hops[hops_down]
        self.data = network._data_by_hops[hops_down]
        self.hops = hops_down
        self.flits = network._ctrl_tail + network._data_tail + 2
        self.rt_hops = hops_up + hops_down

    @staticmethod
    def table(
        network: NetworkModel, l1_latency: int, tiles: List[int]
    ) -> List[List["PriceRow"]]:
        """``table[i][home]`` prices tile ``tiles[i]`` against ``home``.

        A row depends only on the pair's two hop counts, so pairs at
        the same distances share one row: a machine builds a few dozen
        rows, not one per pair.
        """
        n_tiles = network._n_tiles
        hops = network._hops_table
        shared: Dict[tuple, PriceRow] = {}
        table = []
        for tile in tiles:
            row = []
            # Hops from the tile to every home, and back.
            up = hops[tile * n_tiles:(tile + 1) * n_tiles]
            down = hops[tile::n_tiles]
            for pair in zip(up, down):
                price = shared.get(pair)
                if price is None:
                    price = shared[pair] = PriceRow(network, l1_latency, *pair)
                row.append(price)
            table.append(row)
        return table


class MemorySystem:
    """All caches plus the functional memory image."""

    def __init__(
        self,
        params: SystemParams,
        topology: MeshTopology,
        network: NetworkModel,
        manager: ConflictManager,
        tile_of_core: Callable[[int], int],
    ) -> None:
        self.params = params
        self.topology = topology
        self.network = network
        self.manager = manager
        self.tile_of_core = tile_of_core
        n = params.num_cores
        #: Hot-path constants: core->tile map and tile count, lifted out
        #: of the per-access method calls on the directory miss path.
        self._tile_of = [tile_of_core(c) for c in range(n)]
        self._n_tiles = topology.num_tiles
        #: Per-core pinned-line predicates, cached against the identity
        #: of the TxState's read set (the sets are cleared in place, so
        #: one closure per TxState lifetime suffices).
        self._pinned_preds: Dict[int, tuple] = {}
        self.l1s: List[CacheArray] = [CacheArray(params.l1) for _ in range(n)]
        #: MESI-Three-Level-HTM mode (§IV-A): a private middle cache per
        #: core maintains the transactional data.  None = two-level.
        self.l2s: Optional[List[CacheArray]] = None
        if params.l2private is not None:
            self.l2s = [CacheArray(params.l2private) for _ in range(n)]
            #: The one result every middle-cache hit returns.
            self._l2_hit = AccessResult(
                GRANT,
                params.l1.hit_latency + params.l2private.hit_latency,
                hit=True,
            )
        #: Live views of the L1s' line -> state maps and LRU set lists
        #: (``reset`` clears them in place): the access path's L1 probe,
        #: the two-level miss path's inline fill and the abort path's
        #: flash-invalidation, without a call.
        self._l1_states = [l1.state_map() for l1 in self.l1s]
        self._l1_sets = [l1.set_lists() for l1 in self.l1s]
        self._l1_nsets = params.l1.num_sets
        self._l1_assoc = params.l1.assoc
        self.llc = CacheArray(params.llc)
        #: Live views of the LLC's state map and set lists: the miss
        #: path's presence test and its fill into a free way.
        self._llc_states = self.llc.state_map()
        self._llc_sets = self.llc.set_lists()
        self._llc_nsets = params.llc.num_sets
        self._llc_assoc = params.llc.assoc
        self._l1_latency = params.l1.hit_latency
        #: Data-source latency of a miss: an LLC hit, or an LLC miss
        #: that also reads memory.
        self._llc_latency = params.llc.hit_latency
        self._mem_latency = params.llc.hit_latency + params.memory.latency
        #: Shared results (immutable, so the paths that return them
        #: allocate nothing): the one every L1 hit returns, and one per
        #: distinct grant latency of the miss path.
        self._l1_hit = AccessResult(GRANT, params.l1.hit_latency, hit=True)
        self._grants: Dict[int, AccessResult] = {}
        #: Fused pricing rows, ``_rows[core][home]`` (see
        #: :class:`PriceRow`); pure functions of the geometry, so they
        #: survive ``reset``.  Only stateless pricing reads them.
        self._rows = PriceRow.table(
            network, params.l1.hit_latency, self._tile_of
        )
        #: Flits of the fused outcomes other than the direct round trip.
        ctrl_flits = network._ctrl_tail + 1
        data_flits = network._data_tail + 1
        self._nack_flits = 2 * ctrl_flits
        self._forward_flits = 2 * ctrl_flits + data_flits
        self._victim_flits = 3 * ctrl_flits + data_flits
        #: The outermost private level, which holds the transactional
        #: lines: its set lists, set count and ways (the overflow
        #: pre-check's occupancy read).
        outer = self.l1s if self.l2s is None else self.l2s
        self._outer_sets = [arr.set_lists() for arr in outer]
        self._outer_nsets = outer[0].params.num_sets
        self._outer_assoc = outer[0].params.assoc
        self.directory = Directory()
        #: The directory's own line -> DirEntry map (cleared in place by
        #: ``Directory.reset``), probed inline on the miss path.
        self._dir_entries: Dict[int, DirEntry] = self.directory._entries
        #: Committed functional memory image (word address -> value).
        self.memory: Dict[int, int] = {}
        #: line -> bitmask of cores holding it in a transactional read
        #: set (bit ``1 << core``); absent line == empty mask.
        self.tx_readers: Dict[int, int] = {}
        self.tx_writers: Dict[int, int] = {}
        #: HTMLock overflow signatures; valid while ``sig_owner >= 0``.
        self.of_rd_sig = BloomSignature(
            params.htm.signature_bits, params.htm.signature_hashes, seed=1
        )
        self.of_wr_sig = BloomSignature(
            params.htm.signature_bits, params.htm.signature_hashes, seed=2
        )
        #: Victim-abort callback, wired by Machine:
        #: abort_core(core, reason, now).
        self.abort_core: Callable[[int, AbortReason, int], None] = (
            self._unwired_abort
        )
        self.reset([])

    @staticmethod
    def _unwired_abort(core: int, reason: AbortReason, now: int) -> None:
        raise ProtocolInvariantError("abort callback not wired")

    def reset(self, core_stats: List[CoreStats]) -> None:
        """Set the run state, charging the run's accesses to ``core_stats``.

        Caches, directory, functional memory, tracking maps, signatures,
        counters and the telemetry and fault-injection slots all start
        over; the caller wires ``tx_states`` after building its CPUs.
        The pricing rows and the shared grant results are pure functions
        of the geometry and survive.
        """
        self.core_stats = core_stats
        for l1 in self.l1s:
            l1.reset()
        if self.l2s is not None:
            for l2 in self.l2s:
                l2.reset()
        self.llc.reset()
        self.directory.reset()
        self.memory.clear()
        self.tx_readers.clear()
        self.tx_writers.clear()
        #: Registered per-core transactional state (wired by Machine).
        self.tx_states: List[TxState] = []
        self._pinned_preds.clear()
        self.of_rd_sig.reset()
        self.of_wr_sig.reset()
        self.sig_owner: int = -1
        #: Debug mode: run SWMR checks after every access (slow).
        self.paranoid = False
        self.signature_spills = 0
        self.signature_rejects = 0
        #: Fault injector (reject storm), wired by the Machine when a
        #: FaultPlan is armed; None = no injection, zero overhead.
        self.chaos = None
        #: Telemetry event slot, set while a telemetry session is
        #: attached (see :mod:`repro.telemetry.session`).
        self._emit = None

    # ------------------------------------------------------------------
    # Functional value plane
    # ------------------------------------------------------------------

    def functional_load(self, core: int, addr: int) -> int:
        tx = self.tx_states[core]
        val = self.memory.get(addr, 0)
        if tx.mode is _HTM:
            val += tx.write_buffer.get(addr, 0)
        return val

    def functional_store(self, core: int, addr: int, delta: int) -> None:
        tx = self.tx_states[core]
        if tx.mode is _HTM:
            tx.buffer_store(addr, delta)
        else:
            # Lock modes (TL/STL/FALLBACK) and plain accesses write
            # through: they are irrevocable.
            if delta:
                self.memory[addr] = self.memory.get(addr, 0) + delta

    def publish(self, tx: TxState) -> None:
        """Commit: apply the speculative write buffer to memory."""
        mem = self.memory
        for addr, delta in tx.write_buffer.items():
            if delta:
                mem[addr] = mem.get(addr, 0) + delta
        tx.write_buffer.clear()

    # ------------------------------------------------------------------
    # Transactional tracking
    # ------------------------------------------------------------------

    def _track(self, core: int, line: int, is_write: bool, tx: TxState) -> None:
        if is_write:
            tx.write_set.add(line)
            holders = self.tx_writers
            holders[line] = holders.get(line, 0) | (1 << core)
        else:
            tx.read_set.add(line)
            holders = self.tx_readers
            holders[line] = holders.get(line, 0) | (1 << core)

    def discard_tx(self, core: int) -> None:
        """Drop all transactional tracking for ``core`` (abort path).

        The abort flash-clears every speculatively-accessed line from the
        L1 — written lines hold discarded data, and the modeled gem5
        MESI-HTM protocols flush read-marked lines as well (§IV-A notes
        the ARM protocol invalidates L1 transactional data wholesale), so
        an aborted attempt gives its retry no L1 warm-up.  HTMLock
        signatures are cleared if this core owned them.
        """
        tx = self.tx_states[core]
        tx.last_write_count = len(tx.write_set)
        nbit = ~(1 << core)
        entries = self._dir_entries
        states = self._l1_states[core]
        sets = self._l1_sets[core]
        nsets = self._l1_nsets
        l2 = self.l2s[core] if self.l2s is not None else None
        for holders, lines in (
            (self.tx_readers, tx.read_set),
            (self.tx_writers, tx.write_set),
        ):
            for line in lines:
                m = holders.get(line)
                if m is not None:
                    m &= nbit
                    if m:
                        holders[line] = m
                    else:
                        del holders[line]
                # Inline _purge_private and Directory.remove_copy.
                if states.pop(line, _I) != _I:
                    sets[line % nsets].remove(line)
                if l2 is not None:
                    l2.invalidate(line)
                e = entries.get(line)
                if e is not None:
                    if e.owner == core:
                        e.owner = -1
                    e.sharers &= nbit
        tx.read_set.clear()
        tx.write_set.clear()
        if self.sig_owner == core:
            self.clear_signatures(core)

    def retire_tx(self, core: int) -> None:
        """Commit: clear tracking, keeping cache lines (now committed)."""
        tx = self.tx_states[core]
        nbit = ~(1 << core)
        for holders, lines in (
            (self.tx_readers, tx.read_set),
            (self.tx_writers, tx.write_set),
        ):
            for line in lines:
                m = holders.get(line)
                if m is not None:
                    m &= nbit
                    if m:
                        holders[line] = m
                    else:
                        del holders[line]
        tx.read_set.clear()
        tx.write_set.clear()
        if self.sig_owner == core:
            self.clear_signatures(core)

    def clear_signatures(self, core: int) -> None:
        if self.sig_owner != core:
            raise ProtocolInvariantError(
                f"core {core} clearing signatures owned by {self.sig_owner}"
            )
        self.of_rd_sig.clear()
        self.of_wr_sig.clear()
        self.sig_owner = -1

    def spill_to_signature(self, core: int, line: int, now: int) -> None:
        """HTMLock overflow (Fig. 5 ②): move a set entry to the LLC sigs."""
        if self._emit is not None:
            self._emit(now, TraceEvent.SPILL, core, line)
        tx = self.tx_states[core]
        if tx.mode not in _LOCK_MODES:
            raise ProtocolInvariantError(
                f"core {core} spilling in mode {tx.mode}"
            )
        if self.sig_owner not in (-1, core):
            raise ProtocolInvariantError(
                f"signatures already owned by {self.sig_owner}"
            )
        self.sig_owner = core
        spilled = False
        nbit = ~(1 << core)
        if line in tx.write_set:
            self.of_wr_sig.insert(line)
            tx.write_set.discard(line)
            m = self.tx_writers.get(line)
            if m is not None:
                m &= nbit
                if m:
                    self.tx_writers[line] = m
                else:
                    del self.tx_writers[line]
            spilled = True
        if line in tx.read_set:
            self.of_rd_sig.insert(line)
            tx.read_set.discard(line)
            m = self.tx_readers.get(line)
            if m is not None:
                m &= nbit
                if m:
                    self.tx_readers[line] = m
                else:
                    del self.tx_readers[line]
            spilled = True
        if not spilled:
            raise ProtocolInvariantError(
                f"core {core} spilling untracked line {line:#x}"
            )
        self._purge_private(core, line)
        self.directory.remove_copy(line, core)
        self.signature_spills += 1

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------

    def priority_of(self, core: int, now: int) -> int:
        return self.manager.priority_provider.priority_of(
            self.tx_states[core], now
        )

    def _pinned_pred(self, core: int, tx: TxState) -> Callable[[int], bool]:
        """``core``'s "line is in a tracked set" predicate.

        The sets are cleared in place across transactions, so one
        closure per TxState lifetime suffices; the identity check
        invalidates the cache if the TxState is ever swapped out.
        """
        rs, ws = tx.read_set, tx.write_set
        cached = self._pinned_preds.get(core)
        if cached is not None and cached[0] is rs:
            return cached[1]
        pred = lambda line: line in rs or line in ws  # noqa: E731
        self._pinned_preds[core] = (rs, pred)
        return pred

    def _collect_holders(
        self, core: int, line: int, is_write: bool, now: int
    ) -> List[HolderInfo]:
        holders: List[HolderInfo] = []
        provider = self.manager.priority_provider
        own_bit = 1 << core
        wmask = self.tx_writers.get(line, 0)
        m = wmask & ~own_bit
        while m:
            low = m & -m
            m -= low
            c = low.bit_length() - 1
            tx = self.tx_states[c]
            holders.append(
                HolderInfo(
                    c,
                    tx.mode,
                    provider.priority_of(tx, now),
                    holds_as_writer=True,
                )
            )
        if is_write:
            # Readers not already reported as writers, ascending core id.
            m = self.tx_readers.get(line, 0) & ~own_bit & ~wmask
            while m:
                low = m & -m
                m -= low
                c = low.bit_length() - 1
                tx = self.tx_states[c]
                holders.append(
                    HolderInfo(
                        c,
                        tx.mode,
                        provider.priority_of(tx, now),
                        holds_as_writer=False,
                    )
                )
        # HTMLock overflow signatures (§III-B): checked at the LLC while
        # an HTMLock-mode transaction is live.
        sig_owner = self.sig_owner
        if sig_owner >= 0 and sig_owner != core:
            if not any(h.core == sig_owner for h in holders):
                conflict = False
                as_writer = False
                if self.of_wr_sig.test(line):
                    conflict, as_writer = True, True
                elif self.of_rd_sig.test(line):
                    if is_write:
                        conflict = True
                    elif not self.directory.has_other_copies(line, core):
                        # Granting exclusive data would let the requester
                        # store silently; the paper rejects this case.
                        conflict = True
                if conflict:
                    tx = self.tx_states[sig_owner]
                    holders.append(
                        HolderInfo(
                            sig_owner,
                            tx.mode,
                            provider.priority_of(tx, now),
                            holds_as_writer=as_writer,
                            via_signature=True,
                        )
                    )
                    self.signature_rejects += 1
        return holders

    def access(
        self, core: int, addr: int, is_write: bool, now: int
    ) -> AccessResult:
        """Resolve one load/store; returns status + total latency."""
        line = addr >> 6
        tx = self.tx_states[core]
        l1 = self.l1s[core]
        stats = self.core_stats[core]
        l2s = self.l2s

        # -- L1 hit with sufficient permission --------------------------
        # One probe serves both the hit test and, on a miss, the
        # two-level fill decision below.
        l1_states = self._l1_states[core]
        st = l1_states.get(line, _I)
        if st != _I and (st != _S or not is_write):
            l1.touch(line)
            if is_write and st == _E:
                l1.set_state(line, _M)  # silent E->M upgrade
                if l2s is not None:
                    l2s[core].insert(line, _M)  # keep inclusion
            stats.l1_hits += 1
            if tx.mode in _TRACK_MODES:
                # Inline _track: add to the set and this core's mask bit.
                if is_write:
                    tx.write_set.add(line)
                    holders = self.tx_writers
                else:
                    tx.read_set.add(line)
                    holders = self.tx_readers
                holders[line] = holders.get(line, 0) | (1 << core)
            return self._l1_hit

        stats.l1_misses += 1

        # -- Private middle cache (MESI-Three-Level-HTM mode) ------------
        if l2s is None:
            outer = l1
            needs_insert = st == _I
        else:
            outer = l2 = l2s[core]
            st2 = l2.probe(line)
            if st2 != _I and (not is_write or st2 in (_E, _M)):
                l2.touch(line)
                new_state = st2
                if is_write and st2 == _E:
                    new_state = _M
                    l2.set_state(line, _M)
                elif is_write:
                    new_state = _M
                # Promote into the L1; its victim silently drops back
                # (the copy remains in the inclusive middle cache).
                l1.insert(line, new_state, pinned=None)
                stats.l2_hits += 1
                if tx.mode in _TRACK_MODES:
                    self._track(core, line, is_write, tx)
                return self._l2_hit
            needs_insert = st2 == _I

        # -- Overflow pre-check (Fig. 6): need a way, all ways pinned ----
        # Transactional data is maintained at the outermost private
        # level: the L1 in two-level mode, the middle cache in
        # three-level mode (which is exactly why the ARM protocol added
        # it, §IV-A).  Pinning only matters to a transaction that has
        # tracked lines, and only for a full set: nothing between here
        # and the fill below adds a line to this core's caches, so a set
        # with a free way never evicts and needs no predicate.  (With
        # nothing tracked, no predicate selects the same LRU victim as
        # an always-false one.)
        pinned = None
        if (
            needs_insert
            and tx.mode in _TRACK_MODES
            and (tx.read_set or tx.write_set)
            and len(self._outer_sets[core].get(line % self._outer_nsets, ()))
            >= self._outer_assoc
        ):
            pinned = self._pinned_pred(core, tx)
            if outer.find_unpinned_victim(line, pinned) is None:
                if tx.mode in _LOCK_MODES:
                    # HTMLock mode survives overflow: spill the LRU set
                    # entry into the LLC signatures and continue.
                    spill_line = outer.lru_line(line)
                    self.spill_to_signature(core, spill_line, now)
                    # charge the notification to the LLC (Fig. 5 (2))
                    extra = self.network.control_latency(
                        self._tile_of[core],
                        self.topology.home_tile(spill_line),
                    )
                    res = self.access(core, addr, is_write, now)
                    return AccessResult(
                        res.status,
                        res.latency + extra,
                        res.hit,
                        res.reject_holder,
                        res.reject_by_lock,
                    )
                if self._emit is not None:
                    self._emit(now, TraceEvent.OVERFLOW, core, line)
                return AccessResult(OVERFLOW, self._l1_latency)

        # -- Miss path: to the home directory ----------------------------
        # Fused pricing: with stateless pricing and no chaos hook armed,
        # every message of this directory transaction is a pure table
        # lookup and the NoC counters are order-insensitive sums, so
        # the requester/home legs come from one PriceRow and each
        # outcome adds its messages to the counters once.  Chaos or
        # link-contention modeling takes the per-message calls instead,
        # preserving RNG draw order and link reservation order exactly.
        # Modeled latencies, message counts and orderings are identical
        # either way.
        net = self.network
        home = line % self._n_tiles
        fused = net.chaos is None and net._stateless
        if fused:
            row = self._rows[core][home]
            req_lat = row.req
        else:
            req_lat = self._l1_latency + net.control_latency(
                self._tile_of[core], home
            )
        entries = self._dir_entries
        entry = entries.get(line)
        if entry is None:
            entry = entries[line] = DirEntry()
        arrive = now + req_lat
        start = arrive if arrive > entry.busy_until else entry.busy_until

        # -- Fault injection: adversarial reject storm -------------------
        # The directory NACKs the speculative request outright, exactly
        # as if a higher-priority holder had won; the requester's policy
        # machinery (SelfAbort / RetryLater / WaitWakeup) must absorb it.
        if (
            self.chaos is not None
            and tx.mode is _HTM
            and len(self.core_stats) > 1
            and self.chaos.storm_reject()
        ):
            phantom = (core + 1) % len(self.core_stats)
            return self._nack(
                core, line, home, fused, entry, start, now, phantom, False
            )

        # No-conflict pre-check: on the overwhelmingly common
        # conflict-free miss the full holder/priority/resolution
        # machinery allocates three objects just to conclude "granted,
        # no victims" — detect that case directly from the tracking
        # masks (two dict probes + integer compares).  Any other core's
        # bit, or live overflow signatures, takes the full resolution
        # path (which also owns the signature_rejects accounting).
        own_bit = 1 << core
        writers = self.tx_writers.get(line)
        conflict_free = not writers or writers == own_bit
        if conflict_free and is_write:
            readers = self.tx_readers.get(line)
            conflict_free = not readers or readers == own_bit
        if conflict_free and self.sig_owner >= 0 and self.sig_owner != core:
            conflict_free = False

        if conflict_free:
            self.manager.grants += 1
            victim_cores = ()
        else:
            holders = self._collect_holders(core, line, is_write, now)
            req = RequesterInfo(
                core,
                tx.mode,
                self.manager.priority_provider.priority_of(tx, now),
                is_write,
            )
            resolution: Resolution = self.manager.resolve(req, holders)

            if not resolution.granted:
                return self._nack(
                    core,
                    line,
                    home,
                    fused,
                    entry,
                    start,
                    now,
                    resolution.reject_holder,
                    resolution.reject_by_lock,
                )

            # -- Granted: abort victims before moving data ---------------
            victim_cores = set()
            for vcore, reason in resolution.victims:
                victim_cores.add(vcore)
                self.abort_core(vcore, reason, now)

        owner_before = entry.owner
        llc_hit = line in self._llc_states
        data_lat = self._llc_latency if llc_hit else self._mem_latency

        if owner_before >= 0 and owner_before != core:
            owner_tile = self._tile_of[owner_before]
            if owner_before in victim_cores:
                # Fig. 3 NACK path: the aborting owner invalidated
                # itself; the directory sources the data.
                if fused:
                    # Home -> owner, owner -> home (the owner's request
                    # leg without its L1 lookup), home -> requester.
                    fwd = self._rows[owner_before][home]
                    data_lat += (
                        fwd.ctrl + (fwd.req - self._l1_latency) + row.data
                    )
                    net.messages_sent += 4
                    net.flits_sent += self._victim_flits
                    net.hops_traversed += row.rt_hops + fwd.rt_hops
                else:
                    data_lat += (
                        net.control_latency(home, owner_tile)
                        + net.control_latency(owner_tile, home)
                        + net.data_latency(home, self._tile_of[core])
                    )
            else:
                # Normal cache-to-cache forward.
                if fused:
                    fwd = self._rows[owner_before][home]
                    src = self._rows[core][owner_tile]
                    data_lat += fwd.ctrl + src.data
                    net.messages_sent += 3
                    net.flits_sent += self._forward_flits
                    net.hops_traversed += (
                        row.rt_hops - row.hops + fwd.hops + src.hops
                    )
                else:
                    data_lat += net.control_latency(
                        home, owner_tile
                    ) + net.data_latency(owner_tile, self._tile_of[core])
                if is_write:
                    self._purge_private(owner_before, line)
                    entry.owner = -1
                    entry.sharers &= ~(1 << owner_before)
                else:
                    # Inline Directory.demote_owner_to_sharer, and in
                    # two-level mode _demote_private: the owner's L1
                    # copy turns S.
                    if l2s is None:
                        owner_states = self._l1_states[owner_before]
                        if line in owner_states:
                            owner_states[line] = _S
                    else:
                        self._demote_private(owner_before, line)
                    entry.owner = -1
                    entry.sharers |= 1 << owner_before
        elif fused:
            # The direct round trip: request in, data back.
            data_lat += row.data
            net.messages_sent += 2
            net.flits_sent += row.flits
            net.hops_traversed += row.rt_hops
        else:
            data_lat += net.data_latency(home, self._tile_of[core])

        if is_write:
            # Invalidate every other copy (mask arithmetic on the held
            # entry; entries are never replaced, so the reference stays
            # current across the nested calls above).
            owner_now = entry.owner
            if owner_now >= 0:
                if owner_now != core:
                    self._purge_private(owner_now, line)
                    entry.owner = -1
                    entry.sharers &= ~(1 << owner_now)
            else:
                others = entry.sharers & ~own_bit
                if others:
                    entry.sharers &= own_bit
                    for c in cores_of(others):
                        self._purge_private(c, line)

        # Inclusive LLC fill.  A set with a free way takes the line
        # inline (CacheArray.insert's non-evicting case); a full set
        # evicts through insert and back-invalidates the victim.
        if not llc_hit:
            idx = line % self._llc_nsets
            ways = self._llc_sets.get(idx)
            if ways is None:
                self._llc_sets[idx] = [line]
                self._llc_states[line] = _M
            elif len(ways) < self._llc_assoc:
                ways.append(line)
                self._llc_states[line] = _M
            else:
                self._back_invalidate(self.llc.insert(line, _M).line, now)

        # Private fill / upgrade + directory stable state.
        if needs_insert:
            if is_write:
                new_state = _M
            else:
                # Inline directory.has_other_copies on the held entry.
                owner_now = entry.owner
                if owner_now >= 0:
                    other = owner_now != core
                else:
                    other = entry.sharers & ~own_bit
                new_state = _S if other else _E
            if l2s is None:
                # Inline CacheArray.insert of an absent line into the L1,
                # dropping the victim's directory copy.  Pinned lines are
                # skipped in LRU order, as insert does.
                sets = self._l1_sets[core]
                idx = line % self._l1_nsets
                ways = sets.get(idx)
                if ways is None:
                    sets[idx] = [line]
                else:
                    if len(ways) >= self._l1_assoc:
                        if pinned is None:
                            victim = ways[0]
                        else:
                            for victim in ways:
                                if not pinned(victim):
                                    break
                            else:
                                raise ProtocolInvariantError(
                                    "pinned victim after overflow pre-check"
                                )
                        ways.remove(victim)
                        del l1_states[victim]
                        l1.evictions += 1
                        ve = entries.get(victim)
                        if ve is not None:
                            if ve.owner == core:
                                ve.owner = -1
                            ve.sharers &= ~own_bit
                    ways.append(line)
                l1_states[line] = new_state
            else:
                victim = outer.insert(line, new_state, pinned)
                if victim is not None:
                    if victim.was_pinned:
                        raise ProtocolInvariantError(
                            "pinned victim after overflow pre-check"
                        )
                    l1.invalidate(victim.line)  # inclusion
                    self.directory.remove_copy(victim.line, core)
                # Fill the L1 too; its victim stays in the middle cache.
                l1.insert(line, new_state, pinned=None)
        else:
            new_state = _M if is_write else outer.probe(line)
            outer.set_state(line, new_state)
            outer.touch(line)
            if l2s is not None:
                if l1.probe(line) != _I:
                    l1.set_state(line, new_state)
                    l1.touch(line)
                else:
                    l1.insert(line, new_state, pinned=None)

        if is_write or new_state == _E:
            # Inline directory.set_exclusive on the held entry.
            entry.owner = core
            entry.sharers = 0
        elif entry.owner != core:
            # Inline directory.add_sharer on the held entry.
            if entry.owner >= 0:
                raise ProtocolInvariantError(
                    f"adding sharer {core} to owned line {line:#x}"
                )
            entry.sharers |= own_bit

        # Blocking directory: the line stays in its transient state until
        # the requester's unblock arrives — i.e. the whole data path.
        entry.busy_until = start + data_lat
        if tx.mode in _TRACK_MODES and not tx.aborted:
            # Inline _track (see the hit path).
            if is_write:
                tx.write_set.add(line)
                holders = self.tx_writers
            else:
                tx.read_set.add(line)
                holders = self.tx_readers
            holders[line] = holders.get(line, 0) | own_bit

        if self.paranoid:
            self.directory.check_swmr(l2s if l2s is not None else self.l1s)
        latency = (start - now) + data_lat
        res = self._grants.get(latency)
        if res is None:
            res = self._grants[latency] = AccessResult(GRANT, latency)
        return res

    def _nack(
        self,
        core: int,
        line: int,
        home: int,
        fused: bool,
        entry: DirEntry,
        start: int,
        now: int,
        holder: int,
        by_lock: bool,
    ) -> AccessResult:
        """The home rejects the request after its LLC lookup.

        The line stays busy for the lookup and a control NACK returns
        to the requester; ``holder`` is billed for issuing it.
        """
        if self._emit is not None:
            self._emit(now, TraceEvent.REJECT, core, line, holder)
        entry.busy_until = start + self._llc_latency
        net = self.network
        if fused:
            row = self._rows[core][home]
            back = row.ctrl
            net.messages_sent += 2
            net.flits_sent += self._nack_flits
            net.hops_traversed += row.rt_hops
        else:
            back = net.control_latency(home, self._tile_of[core])
        self.core_stats[core].rejects_received += 1
        self.core_stats[holder].rejects_issued += 1
        return AccessResult(
            REJECT,
            (start - now) + self._llc_latency + back,
            reject_holder=holder,
            reject_by_lock=by_lock,
        )

    # ------------------------------------------------------------------

    def _purge_private(self, core: int, line: int) -> None:
        """Invalidate a line from every private level of ``core``."""
        self.l1s[core].invalidate(line)  # a no-op when absent
        if self.l2s is not None:
            self.l2s[core].invalidate(line)

    def _demote_private(self, core: int, line: int) -> None:
        """Downgrade a three-level owner to shared.

        (Two-level, the L1 copy simply turns S, inline in ``access``.)
        This reproduces the gem5 protocol's odd behaviour §IV-A
        criticizes: the L1 copy is *flushed to the middle cache*
        (invalidated) even though the remote request was only a load,
        leaving the middle-cache copy in S — subsequent local reads pay
        the L2 latency again.
        """
        self.l1s[core].invalidate(line)
        if self.l2s[core].probe(line) != _I:
            self.l2s[core].set_state(line, _S)
        else:  # pragma: no cover - inclusion guarantees presence
            self.l2s[core].insert(line, _S)

    def _back_invalidate(self, line: int, now: int) -> None:
        """Inclusion victim: purge upstream copies; tx holders overflow."""
        # Snapshot the holders in ascending core order: the
        # purge/spill/abort calls below mutate the entry.
        e = self._dir_entries.get(line)
        if e is None:
            return
        if e.owner >= 0:
            cores = (e.owner,)
        elif e.sharers:
            cores = list(cores_of(e.sharers))
        else:
            return
        for c in cores:
            tx = self.tx_states[c]
            in_tx_set = line in tx.read_set or line in tx.write_set
            if in_tx_set:
                if tx.mode in _LOCK_MODES:
                    self.spill_to_signature(c, line, now)
                    continue
                if tx.mode is _HTM and not tx.aborted:
                    self.abort_core(c, AbortReason.OVERFLOW, now)
                    continue  # abort path invalidated the written lines
            self._purge_private(c, line)
            self.directory.remove_copy(line, c)

    # ------------------------------------------------------------------
    # Validation helpers (tests, end-of-run sanity)
    # ------------------------------------------------------------------

    def publish_telemetry(self, registry) -> None:
        """Publish memory-system state under ``mem.*``/``dir.*``/``htm.*``.

        Pull-model: a census over current directory/cache state plus the
        cumulative counters the protocol already maintains — the access
        hot path carries no metric calls.
        """
        mem = registry.scope("mem")
        mem.set("memory_words", len(self.memory))
        mem.set("llc_lines", len(self.llc))
        for i, l1 in enumerate(self.l1s):
            mem.set(f"l1.{i}.lines", len(l1))
        if self.l2s is not None:
            for i, l2 in enumerate(self.l2s):
                mem.set(f"l2.{i}.lines", len(l2))

        # Directory bank census (address-interleaved home tiles).
        dir_scope = registry.scope("dir")
        dir_scope.set("entries", len(self.directory))
        per_bank: Dict[int, List[int]] = {}
        for line in self.directory.lines():
            entry = self.directory.peek(line)
            if entry is None or entry.is_idle:
                continue
            bank = self.topology.home_tile(line)
            stats = per_bank.setdefault(bank, [0, 0])
            stats[0] += 1
            stats[1] += bin(entry.sharers).count("1")
        for bank, (lines, sharers) in sorted(per_bank.items()):
            bank_scope = dir_scope.scope(f"bank.{bank}")
            bank_scope.set("lines", lines)
            bank_scope.set("sharers", sharers)

        htm = registry.scope("htm")
        htm.set("tx_read_lines", len(self.tx_readers))
        htm.set("tx_write_lines", len(self.tx_writers))
        sig = htm.scope("signature")
        sig.set("spills", self.signature_spills)
        sig.set("rejects", self.signature_rejects)
        sig.set("owner", self.sig_owner)
        sig.set("rd_fill_bits", self.of_rd_sig.popcount)
        sig.set("wr_fill_bits", self.of_wr_sig.popcount)
        sig.set("rd_fp_rate", self.of_rd_sig.false_positive_rate())
        sig.set("wr_fp_rate", self.of_wr_sig.false_positive_rate())

    def check_quiescent(self) -> List[str]:
        """Invariants that must hold when no transaction is running."""
        problems: List[str] = []
        if self.tx_readers:
            problems.append(f"stale tx_readers: {len(self.tx_readers)} lines")
        if self.tx_writers:
            problems.append(f"stale tx_writers: {len(self.tx_writers)} lines")
        if self.sig_owner >= 0:
            problems.append(f"signatures still owned by {self.sig_owner}")
        if not self.of_rd_sig.empty or not self.of_wr_sig.empty:
            problems.append("signatures not cleared")
        try:
            # SWMR is checked at the outermost private level; in
            # three-level mode the L1s are strict subsets of the middle
            # caches (inclusion, checked below).
            self.directory.check_swmr(
                self.l2s if self.l2s is not None else self.l1s
            )
        except ProtocolInvariantError as exc:
            problems.append(str(exc))
        for i, l1 in enumerate(self.l1s):
            try:
                l1.check_invariants()
            except ProtocolInvariantError as exc:
                problems.append(f"L1[{i}]: {exc}")
        if self.l2s is not None:
            for i, l2 in enumerate(self.l2s):
                try:
                    l2.check_invariants()
                except ProtocolInvariantError as exc:
                    problems.append(f"L2[{i}]: {exc}")
                for line in list(self.l1s[i].resident_lines()):
                    if l2.probe(line) == _I:
                        problems.append(
                            f"inclusion violated: L1[{i}] holds "
                            f"{line:#x} absent from its middle cache"
                        )
                        break
        return problems
