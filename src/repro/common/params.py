"""System model parameters (paper Table I) and the sensitivity configs.

The defaults mirror Table I of the paper:

===================  =================================================
Component            Value
===================  =================================================
Number of cores      32
Frequency            2 GHz (cycles are the simulation unit)
Core                 in-order, single-issue (CPI = 1 for compute)
Cache line           64 bytes
L1 I&D               private, 32 KB, 4-way, 2-cycle hit
L2 (LLC)             shared, 8 MB, 16-way, 12-cycle hit, inclusive
Memory               8 GB, 100-cycle latency
Coherence            MESI, directory based
Topology / routing   2-D mesh 4x8, X-Y
Flit / message       16 B flits; data = 5 flits, control = 1 flit
Link                 1 cycle / 1 flit per cycle
===================  =================================================

Section IV-B(e) additionally evaluates a *small* configuration (8 KB L1,
1 MB LLC) and a *large* one (128 KB L1, 32 MB LLC); helpers below build
those.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.common.types import LINE_SIZE


@dataclass(frozen=True)
class CacheParams:
    """Geometry and hit latency of one cache level."""

    size_bytes: int
    assoc: int
    hit_latency: int
    line_size: int = LINE_SIZE

    def __post_init__(self) -> None:
        if self.size_bytes <= 0 or self.assoc <= 0:
            raise ValueError("cache size and associativity must be positive")
        if self.size_bytes % (self.assoc * self.line_size) != 0:
            raise ValueError(
                f"cache of {self.size_bytes} B is not divisible into "
                f"{self.assoc}-way sets of {self.line_size} B lines"
            )

    @property
    def num_lines(self) -> int:
        return self.size_bytes // self.line_size

    @property
    def num_sets(self) -> int:
        return self.num_lines // self.assoc

    def set_index(self, line: int) -> int:
        """Map a line address to its set (power-of-two fast path)."""
        return line % self.num_sets


@dataclass(frozen=True)
class NetworkParams:
    """2-D mesh network parameters (Table I bottom rows)."""

    mesh_cols: int = 4
    mesh_rows: int = 8
    link_latency: int = 1
    router_latency: int = 1
    flit_bytes: int = 16
    data_flits: int = 5
    control_flits: int = 1
    #: EXTENSION (off by default — see DESIGN.md "known simplifications"):
    #: model per-link occupancy along the X-Y route, serializing messages
    #: that share a directional link.  The ablation bench
    #: ``bench_ext_noc_contention.py`` verifies the paper-shape results
    #: are insensitive to this, justifying the hop-latency default.
    model_contention: bool = False

    @property
    def num_tiles(self) -> int:
        return self.mesh_cols * self.mesh_rows


@dataclass(frozen=True)
class MemoryParams:
    """Off-chip memory model."""

    size_bytes: int = 8 << 30
    latency: int = 100


@dataclass(frozen=True)
class HtmParams:
    """Best-effort HTM / fallback-path tunables (Listing 1 semantics)."""

    #: TME_MAX_RETRIES in Listing 1 — speculative attempts before falling
    #: back to the lock path.
    max_retries: int = 8
    #: Extra speculative retries granted after a *capacity* abort before
    #: taking the fallback path (elision handlers treat the capacity bit
    #: as near-deterministic and bail out quickly).
    capacity_retries: int = 1
    #: Fixed cost of a commit (publishing + set clear), cycles.
    commit_latency: int = 6
    #: Abort penalty: base + per-written-line restore (eager undo-log).
    abort_base_penalty: int = 20
    abort_per_write_penalty: int = 4
    #: Randomised exponential backoff cap applied between retries.
    backoff_base: int = 16
    backoff_cap: int = 1024
    #: Safety net for parked WaitWakeup requesters (lost-wakeup guard).
    wakeup_timeout: int = 50_000
    #: SelfRetryLater: pause before re-issuing a rejected request.
    retry_delay: int = 48
    #: Retry pause for a rejected *plain* (non-transactional) access.
    plain_retry_delay: int = 96
    #: Cost of taking an exception on a non-speculative path.
    trap_latency: int = 250
    #: Cost of xbegin/hlbegin-style mode entry at the core.
    xbegin_latency: int = 3
    #: Signature size (bits) for the two LLC overflow signatures (§III-B).
    signature_bits: int = 2048
    signature_hashes: int = 4


@dataclass(frozen=True)
class SystemParams:
    """Complete machine description (paper Table I)."""

    num_cores: int = 32
    l1: CacheParams = field(
        default_factory=lambda: CacheParams(32 * 1024, 4, 2)
    )
    #: Optional *private middle cache* — arms the MESI-Three-Level-HTM
    #: protocol the ARM team shipped in gem5 and §IV-A replaces with the
    #: streamlined two-level one.  Transactional data is then maintained
    #: in the middle cache (bigger capacity before overflow) at the cost
    #: of slower hits and the protocol's odd L1-flush-on-remote-load
    #: behaviour.  ``None`` (the default) is the paper's two-level model.
    l2private: Optional[CacheParams] = None
    llc: CacheParams = field(
        default_factory=lambda: CacheParams(8 * 1024 * 1024, 16, 12)
    )
    network: NetworkParams = field(default_factory=NetworkParams)
    memory: MemoryParams = field(default_factory=MemoryParams)
    htm: HtmParams = field(default_factory=HtmParams)

    def __post_init__(self) -> None:
        if self.num_cores > self.network.num_tiles:
            raise ValueError(
                f"{self.num_cores} cores do not fit on a "
                f"{self.network.mesh_cols}x{self.network.mesh_rows} mesh"
            )
        if (
            self.l2private is not None
            and self.l2private.size_bytes < self.l1.size_bytes
        ):
            raise ValueError(
                "private middle cache must be at least L1-sized (inclusive)"
            )


def typical_params(**overrides) -> SystemParams:
    """Table I configuration (32 KB L1 / 8 MB LLC)."""
    return replace(SystemParams(), **overrides) if overrides else SystemParams()


def small_cache_params(**overrides) -> SystemParams:
    """Sensitivity: 8 KB L1, 1 MB LLC (Fig. 13 'small')."""
    base = SystemParams(
        l1=CacheParams(8 * 1024, 4, 2),
        llc=CacheParams(1024 * 1024, 16, 12),
    )
    return replace(base, **overrides) if overrides else base


def large_cache_params(**overrides) -> SystemParams:
    """Sensitivity: 128 KB L1, 32 MB LLC (Fig. 13 'large')."""
    base = SystemParams(
        l1=CacheParams(128 * 1024, 4, 2),
        llc=CacheParams(32 * 1024 * 1024, 16, 12),
    )
    return replace(base, **overrides) if overrides else base


def three_level_params(**overrides) -> SystemParams:
    """The gem5 ARM MESI-Three-Level-HTM arrangement §IV-A starts from:
    Table-I L1 plus a private 128 KB, 8-way, 8-cycle middle cache that
    maintains the transactional data."""
    base = SystemParams(
        l2private=CacheParams(128 * 1024, 8, 8),
    )
    return replace(base, **overrides) if overrides else base
