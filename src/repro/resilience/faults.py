"""Deterministic fault injection: composable plans and the injector.

A :class:`FaultPlan` declares *what* to perturb — interconnect message
delay-jitter and duplication, dropped wake-up and NACK messages
(forcing the ``WaitWakeup``/``SelfRetryLater`` timeout paths), transient
core stalls, signature false-positive storms, and an adversarial
directory reject storm.  A :class:`FaultInjector` turns a plan plus a
run seed into the callable hooks the components consume; every draw
comes from a per-component :class:`~repro.common.rng.SplitMix64` seeded
through :func:`repro.common.rng.substream`, so a chaos run is exactly as
bit-reproducible as a clean one: same ``(seed, plan)`` → same events.

Hook points (wired by :meth:`FaultInjector.wire` from the Machine):

* ``NetworkModel.chaos`` — latency perturbation (jitter/duplication);
* ``WakeupTable.chaos_drop`` — wake-up message loss;
* ``BloomSignature.chaos_fp`` — spurious signature hits;
* ``MemorySystem.chaos`` — the directory reject storm;
* ``CPU._chaos`` — NACK loss, transient stalls, the bounded-retry
  escape hatch, and the (test-only) wake-up timeout kill switch.

The plans are *plans*, not mocks: the functional contract (every
transaction commits, the memory image matches, quiescence holds) must
survive any plan whose knobs leave a recovery path open — that is the
whole point of the chaos fuzz campaign.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.rng import SplitMix64, substream

#: Fault-plan knobs that are probabilities (validated to [0, 1]).
_PROB_FIELDS = (
    "msg_jitter_prob",
    "msg_duplicate_prob",
    "drop_wakeup_prob",
    "drop_nack_prob",
    "stall_prob",
    "sig_false_positive_prob",
    "reject_storm_prob",
)


@dataclass(frozen=True)
class FaultPlan:
    """Declarative, composable description of the injected faults.

    The default instance injects nothing — a machine armed with an empty
    plan behaves (and times) *identically* to one with no plan at all.
    """

    name: str = "none"

    # -- interconnect -------------------------------------------------
    #: Probability a message picks up extra delay, and its max (cycles).
    msg_jitter_prob: float = 0.0
    msg_jitter_max: int = 16
    #: Probability a message is duplicated: the receiver waits for the
    #: retransmission, doubling the delivery latency.
    msg_duplicate_prob: float = 0.0

    # -- wake-up / NACK delivery --------------------------------------
    #: Probability a wake-up message is lost (the parked requester must
    #: recover through its ``wakeup_timeout`` guard).
    drop_wakeup_prob: float = 0.0
    #: Probability a NACK (reject response) is lost: the requester never
    #: learns it was rejected and re-issues after ``nack_loss_delay``
    #: cycles — the SelfRetryLater-shaped timeout path.
    drop_nack_prob: float = 0.0
    nack_loss_delay: int = 2_000
    #: TEST ONLY: disable the parked requester's timeout guard so a lost
    #: wake-up genuinely strands it (used to provoke DeadlockError).
    disable_wakeup_timeout: bool = False

    # -- core ---------------------------------------------------------
    #: Probability of a transient core stall between program segments,
    #: and its maximum length (cycles).
    stall_prob: float = 0.0
    stall_max: int = 100

    # -- LLC signatures ------------------------------------------------
    #: Probability a signature membership test spuriously reports a hit
    #: (a Bloom false-positive storm; conservative, so always safe).
    sig_false_positive_prob: float = 0.0

    # -- directory ----------------------------------------------------
    #: Probability the directory NACKs a speculative (HTM-mode) request
    #: outright, regardless of actual conflicts.  Adversarial: with the
    #: escape hatch disabled and a retry-forever policy this livelocks —
    #: which is exactly what the watchdog exists to catch.
    reject_storm_prob: float = 0.0

    # -- escape hatch -------------------------------------------------
    #: Bounded-retry escape: after this many rejects within one
    #: transaction, further rejects abort the attempt (burning the
    #: Listing-1 retry budget) so the speculative path degrades to the
    #: lock/CGL fallback and the functional contract still holds.
    #: ``None`` disables the hatch.
    escape_rejects: Optional[int] = None

    def __post_init__(self) -> None:
        for fname in _PROB_FIELDS:
            v = getattr(self, fname)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{fname}={v} outside [0, 1]")
        for fname in ("msg_jitter_max", "nack_loss_delay", "stall_max"):
            if getattr(self, fname) < 0:
                raise ConfigError(f"{fname} must be non-negative")
        if self.escape_rejects is not None and self.escape_rejects < 1:
            raise ConfigError("escape_rejects must be >= 1 (or None)")

    @property
    def empty(self) -> bool:
        """True when the plan perturbs nothing at all."""
        return (
            all(getattr(self, f) == 0.0 for f in _PROB_FIELDS)
            and not self.disable_wakeup_timeout
            and self.escape_rejects is None
        )

    def compose(self, other: "FaultPlan", name: Optional[str] = None) -> "FaultPlan":
        """Merge two plans: max of probabilities/magnitudes, OR of flags.

        The escape hatch composes to the *tighter* (smaller) threshold.
        """
        if name is None:
            name = f"{self.name}+{other.name}"
        escapes = [
            e
            for e in (self.escape_rejects, other.escape_rejects)
            if e is not None
        ]
        return FaultPlan(
            name=name,
            msg_jitter_prob=max(self.msg_jitter_prob, other.msg_jitter_prob),
            msg_jitter_max=max(self.msg_jitter_max, other.msg_jitter_max),
            msg_duplicate_prob=max(
                self.msg_duplicate_prob, other.msg_duplicate_prob
            ),
            drop_wakeup_prob=max(
                self.drop_wakeup_prob, other.drop_wakeup_prob
            ),
            drop_nack_prob=max(self.drop_nack_prob, other.drop_nack_prob),
            nack_loss_delay=max(self.nack_loss_delay, other.nack_loss_delay),
            disable_wakeup_timeout=(
                self.disable_wakeup_timeout or other.disable_wakeup_timeout
            ),
            stall_prob=max(self.stall_prob, other.stall_prob),
            stall_max=max(self.stall_max, other.stall_max),
            sig_false_positive_prob=max(
                self.sig_false_positive_prob, other.sig_false_positive_prob
            ),
            reject_storm_prob=max(
                self.reject_storm_prob, other.reject_storm_prob
            ),
            escape_rejects=min(escapes) if escapes else None,
        )

    def __or__(self, other: "FaultPlan") -> "FaultPlan":
        return self.compose(other)

    def with_name(self, name: str) -> "FaultPlan":
        return replace(self, name=name)

    def describe(self) -> str:
        """One line naming the armed knobs (for reports and replay)."""
        active: List[str] = []
        for f in fields(self):
            if f.name == "name":
                continue
            v = getattr(self, f.name)
            default = f.default
            if v != default and f.name not in (
                "msg_jitter_max",
                "nack_loss_delay",
                "stall_max",
            ):
                active.append(f"{f.name}={v}")
        return f"{self.name}({', '.join(active) if active else 'empty'})"

    def injector(self, seed: int) -> "FaultInjector":
        """Build the deterministic injector for one run."""
        return FaultInjector(self, seed)


class FaultInjector:
    """Seeded runtime state of one chaos run's fault plan.

    One :class:`~repro.common.rng.SplitMix64` per component keeps the
    components' draws independent of each other's call volume; every
    stream derives from ``substream(seed, "chaos", plan.name, tag)`` so
    the whole injection schedule is a pure function of ``(seed, plan)``.
    """

    __slots__ = (
        "plan",
        "_net",
        "_wake",
        "_nack",
        "_stall",
        "_sig",
        "_storm",
        "jitter_events",
        "duplicated_messages",
        "wakeups_dropped",
        "nacks_dropped",
        "stalls_injected",
        "sig_false_positives",
        "storm_rejects",
        "escapes_taken",
        # Weak-referenceable: a machine must not outlive its run's hold
        # on the injector, and lifetime checks watch for that.
        "__weakref__",
    )

    def __init__(self, plan: FaultPlan, seed: int) -> None:
        self.plan = plan

        def stream(tag: str) -> SplitMix64:
            root = substream(seed, "chaos", plan.name, tag)
            return SplitMix64(int(root.integers(0, 1 << 63)))

        self._net = stream("net")
        self._wake = stream("wakeup")
        self._nack = stream("nack")
        self._stall = stream("stall")
        self._sig = stream("sig")
        self._storm = stream("storm")
        self.jitter_events = 0
        self.duplicated_messages = 0
        self.wakeups_dropped = 0
        self.nacks_dropped = 0
        self.stalls_injected = 0
        self.sig_false_positives = 0
        self.storm_rejects = 0
        self.escapes_taken = 0

    # -- wiring --------------------------------------------------------

    def wire(self, machine) -> None:
        """Attach this injector to a machine's component hook points."""
        machine.network.chaos = self.perturb_latency
        machine.wakeups.chaos_drop = self.drop_wakeup
        machine.memsys.chaos = self
        machine.memsys.of_rd_sig.chaos_fp = self.sig_false_positive
        machine.memsys.of_wr_sig.chaos_fp = self.sig_false_positive

    # -- component hooks ----------------------------------------------

    def perturb_latency(self, latency: int) -> int:
        """Interconnect hook: jitter and duplication on one message."""
        p = self.plan
        rng = self._net
        if rng.chance(p.msg_jitter_prob):
            latency += 1 + rng.below(max(1, p.msg_jitter_max))
            self.jitter_events += 1
        if rng.chance(p.msg_duplicate_prob):
            latency += latency
            self.duplicated_messages += 1
        return latency

    def drop_wakeup(self) -> bool:
        """Wake-up table hook: should this wake-up message be lost?"""
        if self._wake.chance(self.plan.drop_wakeup_prob):
            self.wakeups_dropped += 1
            return True
        return False

    def drop_nack(self) -> bool:
        """CPU hook: should this NACK response be lost in transit?"""
        if self._nack.chance(self.plan.drop_nack_prob):
            self.nacks_dropped += 1
            return True
        return False

    def stall(self) -> int:
        """CPU hook: transient stall (cycles) at a segment boundary."""
        p = self.plan
        if self._stall.chance(p.stall_prob):
            self.stalls_injected += 1
            return 1 + self._stall.below(max(1, p.stall_max))
        return 0

    def sig_false_positive(self) -> bool:
        """Signature hook: force a spurious membership hit?"""
        if self._sig.chance(self.plan.sig_false_positive_prob):
            self.sig_false_positives += 1
            return True
        return False

    def storm_reject(self) -> bool:
        """Directory hook: NACK this speculative request outright?"""
        if self._storm.chance(self.plan.reject_storm_prob):
            self.storm_rejects += 1
            return True
        return False

    def escape_exceeded(self, rejects_this_txn: int) -> bool:
        """CPU hook: has the bounded-retry escape threshold tripped?"""
        limit = self.plan.escape_rejects
        if limit is not None and rejects_this_txn > limit:
            self.escapes_taken += 1
            return True
        return False

    # -- reporting -----------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Injected-fault counters (for reports and assertions)."""
        return {
            "jitter_events": self.jitter_events,
            "duplicated_messages": self.duplicated_messages,
            "wakeups_dropped": self.wakeups_dropped,
            "nacks_dropped": self.nacks_dropped,
            "stalls_injected": self.stalls_injected,
            "sig_false_positives": self.sig_false_positives,
            "storm_rejects": self.storm_rejects,
            "escapes_taken": self.escapes_taken,
        }


# ----------------------------------------------------------------------
# Preset plans and the registry
# ----------------------------------------------------------------------


def delay_jitter(
    prob: float = 0.25, max_extra: int = 24, duplicate_prob: float = 0.05
) -> FaultPlan:
    """Interconnect chaos: late and duplicated messages."""
    return FaultPlan(
        name="jitter",
        msg_jitter_prob=prob,
        msg_jitter_max=max_extra,
        msg_duplicate_prob=duplicate_prob,
    )


def lossy_delivery(
    wakeup_drop: float = 0.5, nack_drop: float = 0.25
) -> FaultPlan:
    """Lost wake-ups and NACKs: exercises both timeout recovery paths."""
    return FaultPlan(
        name="lossy",
        drop_wakeup_prob=wakeup_drop,
        drop_nack_prob=nack_drop,
    )


def core_stalls(prob: float = 0.15, max_stall: int = 300) -> FaultPlan:
    """Transient per-core stalls (noisy-neighbour / DVFS glitches)."""
    return FaultPlan(name="stalls", stall_prob=prob, stall_max=max_stall)


def signature_storm(prob: float = 0.2) -> FaultPlan:
    """Bloom false-positive storm on the HTMLock overflow signatures."""
    return FaultPlan(name="sig-storm", sig_false_positive_prob=prob)


def nack_storm(prob: float = 0.2, escape: int = 4) -> FaultPlan:
    """Adversarial directory rejects, with the escape hatch armed so the
    speculative path degrades to the lock fallback instead of
    livelocking."""
    return FaultPlan(
        name="nack-storm", reject_storm_prob=prob, escape_rejects=escape
    )


def chaos_monkey() -> FaultPlan:
    """Everything at once, at survivable intensities."""
    plan = delay_jitter(prob=0.15, max_extra=16, duplicate_prob=0.03)
    plan = plan | lossy_delivery(wakeup_drop=0.3, nack_drop=0.15)
    plan = plan | core_stalls(prob=0.08, max_stall=150)
    plan = plan | signature_storm(prob=0.1)
    plan = plan | nack_storm(prob=0.05, escape=6)
    return plan.with_name("chaos-monkey")


_PLAN_BUILDERS = {
    "jitter": delay_jitter,
    "lossy": lossy_delivery,
    "stalls": core_stalls,
    "sig-storm": signature_storm,
    "nack-storm": nack_storm,
    "chaos-monkey": chaos_monkey,
}


def plan_names() -> List[str]:
    return sorted(_PLAN_BUILDERS)


def get_plan(name: str) -> FaultPlan:
    try:
        return _PLAN_BUILDERS[name]()
    except KeyError:
        raise ConfigError(
            f"unknown fault plan {name!r}; choose from {plan_names()}"
        ) from None


def default_campaign() -> Tuple[FaultPlan, ...]:
    """The standard three-plan chaos campaign: interconnect chaos, lost
    control messages, and everything at once."""
    return (delay_jitter(), lossy_delivery(), chaos_monkey())
