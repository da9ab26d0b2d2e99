"""Conflict managers: requester-wins baseline and the recovery mechanism.

The directory detects a conflict when an external request touches a line
in another core's transactional read/write set (or hits the HTMLock
overflow signatures).  The conflict manager then decides (Fig. 4):

* **grant** the request and abort the conflicting holders (classic
  requester-wins, or a lower-priority holder under recovery); or
* **reject** the request with a data-less REJECT/NACK response and leave
  every holder untouched (recovery, when a holder outranks the
  requester).

Abort *reasons* recorded on victims follow the Fig. 10 taxonomy and
depend on what the requester was: another HTM transaction (``mc``), an
HTMLock-mode lock transaction (``lock``), the classic fallback path
(``mutex``), or a plain non-transactional access (``non_tran``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import ProtocolInvariantError
from repro.common.stats import AbortReason
from repro.core.policies import SystemSpec
from repro.core.priority import PriorityProvider, make_priority_provider
from repro.htm.txstate import TxMode


@dataclass(frozen=True)
class RequesterInfo:
    core: int
    mode: TxMode          # NONE for a plain access
    priority: int         # snapshot carried on the request (ARUSER)
    is_write: bool


@dataclass(frozen=True)
class HolderInfo:
    core: int
    mode: TxMode          # HTM, TL or STL
    priority: int         # live value at the directory
    holds_as_writer: bool  # conflict against the holder's write set?
    #: True when the conflict came from an LLC signature hit rather than
    #: an exact L1 set (can be a Bloom false positive; still rejected).
    via_signature: bool = False


@dataclass
class Resolution:
    granted: bool
    #: (victim core, abort reason) for each holder to abort — only when
    #: granted.
    victims: List[Tuple[int, AbortReason]] = field(default_factory=list)
    #: Core to park on / retry after, when rejected: the winning holder.
    reject_holder: int = -1
    #: Whether the winning holder is an irrevocable lock transaction;
    #: decides the reason a SelfAbort requester records.
    reject_by_lock: bool = False


def _victim_reason(req: RequesterInfo) -> AbortReason:
    """Fig. 10 attribution of an abort caused by this requester."""
    if req.mode is TxMode.HTM:
        return AbortReason.CONFLICT_HTM
    if req.mode in (TxMode.TL, TxMode.STL):
        return AbortReason.CONFLICT_LOCK
    if req.mode is TxMode.FALLBACK:
        return AbortReason.MUTEX
    return AbortReason.CONFLICT_NON_TRAN


class ConflictManager:
    """Decides the fate of a conflicting request."""

    def __init__(self, spec: SystemSpec) -> None:
        self.spec = spec
        self.priority_provider: PriorityProvider = make_priority_provider(
            spec.priority_kind
        )
        self.reset()

    def reset(self) -> None:
        """Set the run state: decision counters zeroed.  The spec and
        priority provider are stateless and survive."""
        self.grants = 0
        self.rejects = 0

    def resolve(
        self, req: RequesterInfo, holders: List[HolderInfo]
    ) -> Resolution:
        if not holders:
            self.grants += 1
            return Resolution(granted=True)
        self._validate(req, holders)
        res = self._decide(req, holders)
        if res.granted:
            self.grants += 1
        else:
            self.rejects += 1
        return res

    @staticmethod
    def _validate(req: RequesterInfo, holders: List[HolderInfo]) -> None:
        lock_holders = [h for h in holders if h.mode.is_lock_mode]
        if len(lock_holders) > 1:
            raise ProtocolInvariantError(
                "two HTMLock-mode transactions hold conflicting state: "
                f"{[h.core for h in lock_holders]}"
            )
        if any(h.core == req.core for h in holders):
            raise ProtocolInvariantError(
                f"core {req.core} conflicting with itself"
            )
        if req.mode.is_lock_mode and lock_holders:
            raise ProtocolInvariantError(
                "lock transaction conflicting with another lock transaction"
            )

    def _decide(
        self, req: RequesterInfo, holders: List[HolderInfo]
    ) -> Resolution:
        raise NotImplementedError


class RequesterWinsManager(ConflictManager):
    """Best-effort baseline: the requester always wins; holders abort.

    Lock-mode holders cannot exist in a baseline machine (the fallback
    path is exclusive), but the class still refuses to abort one if a
    mis-wired configuration produces it.
    """

    def _decide(
        self, req: RequesterInfo, holders: List[HolderInfo]
    ) -> Resolution:
        lock_holder = next((h for h in holders if h.mode.is_lock_mode), None)
        if lock_holder is not None:
            raise ProtocolInvariantError(
                "requester-wins machine saw an HTMLock-mode holder "
                f"(core {lock_holder.core})"
            )
        reason = _victim_reason(req)
        return Resolution(
            granted=True, victims=[(h.core, reason) for h in holders]
        )


class RecoveryConflictManager(ConflictManager):
    """The paper's recovery mechanism (Fig. 4 decision flow).

    * Irrevocable lock-mode holders (TL/STL, including signature hits)
      always win: the request is rejected.
    * A plain (non-transactional) or lock-mode *requester* always beats
      speculative holders — commercial HTMs guarantee strong isolation,
      and the HTMLock-mode transaction carries the top global priority.
    * Between speculative transactions, the user-defined priority
      decides; the requester must outrank **every** holder to win, else
      the request is withdrawn and the state recovered.
    """

    def _decide(
        self, req: RequesterInfo, holders: List[HolderInfo]
    ) -> Resolution:
        lock_holder = next((h for h in holders if h.mode.is_lock_mode), None)
        if lock_holder is not None:
            return Resolution(
                granted=False,
                reject_holder=lock_holder.core,
                reject_by_lock=True,
            )
        if req.mode is not TxMode.HTM:
            # Plain access, classic fallback, or a lock transaction:
            # speculative holders lose unconditionally.
            reason = _victim_reason(req)
            return Resolution(
                granted=True, victims=[(h.core, reason) for h in holders]
            )
        beats = self.priority_provider.beats
        blocking: Optional[HolderInfo] = None
        for h in holders:
            if not beats(req.priority, req.core, h.priority, h.core):
                if blocking is None or beats(
                    h.priority, h.core, blocking.priority, blocking.core
                ):
                    blocking = h
        if blocking is not None:
            return Resolution(
                granted=False,
                reject_holder=blocking.core,
                reject_by_lock=False,
            )
        reason = _victim_reason(req)
        return Resolution(
            granted=True, victims=[(h.core, reason) for h in holders]
        )


def build_conflict_manager(spec: SystemSpec) -> ConflictManager:
    if spec.is_cgl:
        # CGL never produces transactional holders; requester-wins is a
        # harmless identity here.
        return RequesterWinsManager(spec)
    if spec.recovery:
        return RecoveryConflictManager(spec)
    return RequesterWinsManager(spec)
