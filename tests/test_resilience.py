"""Tests for the resilience subsystem: fault plans, injector hooks,
forward-progress watchdog, structured errors, and the crash-tolerant
harness (timeouts, retries, quarantine, resume through the run cache)."""

import hashlib
import time

import pytest

from repro.common.errors import (
    ConfigError,
    CoreDiagnostic,
    DeadlockError,
    EventBudgetError,
    LivelockError,
    ProtocolInvariantError,
    RunTimeoutError,
    SimulationError,
)
from repro.common.params import small_cache_params
from repro.common.stats import RunStats
from repro.harness.export import fingerprint
from repro.harness.multiseed import multi_seed_runs_resilient
from repro.harness.sweeps import Sweep
from repro.harness.systems import get_system
from repro.htm.isa import Plain, Txn, compute, store
from repro.resilience import (
    FaultPlan,
    WatchdogConfig,
    chaos_monkey,
    default_campaign,
    delay_jitter,
    diagnose_machine,
    get_plan,
    lossy_delivery,
    nack_storm,
    plan_names,
)
from repro.harness.runcache import RunCache
from repro.resilience.harness import (
    RetryPolicy,
    call_with_timeout,
    run_sweep_resilient,
)
from repro.sim.engine import SimEngine
from repro.sim.fuzz import case_programs, fuzz_params
from repro.sim.machine import Machine


def make_machine(progs, system, seed=0, plan=None, watchdog=None):
    return Machine(
        fuzz_params(max(4, len(progs))),
        get_system(system),
        progs,
        seed=seed,
        fault_plan=plan,
        watchdog=watchdog,
    )


def run_and_observe(progs, system, seed=0, plan=None, watchdog=None):
    m = make_machine(progs, system, seed, plan, watchdog)
    cycles = m.run()
    stats = RunStats(execution_cycles=cycles, cores=m.core_stats)
    return cycles, m.engine.events_processed, fingerprint(stats), m


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------


#: (plan, run seed) -> digest of the six per-component SplitMix64 seeds
#: a preset plan's injector derives from its substreams.
CHAOS_SEED_DIGESTS = {
    ("chaos-monkey", 0): "a526a587acce1def",
    ("chaos-monkey", 42): "bc9b3e81bc008a4f",
    ("jitter", 0): "7e3e5c3e960fee71",
    ("jitter", 42): "afe9411965d753b8",
    ("lossy", 0): "7982c0270eabf382",
    ("lossy", 42): "72943227147a36c5",
    ("nack-storm", 0): "d51a57a91101c6ff",
    ("nack-storm", 42): "4df1e164a27bb975",
    ("sig-storm", 0): "438438bb79b2d428",
    ("sig-storm", 42): "d167d733dcc718c3",
    ("stalls", 0): "e998802f6d2f9789",
    ("stalls", 42): "64ac8a2b4bfc059a",
}


class TestFaultPlan:
    def test_injector_seeds_are_pinned(self):
        assert {name for name, _ in CHAOS_SEED_DIGESTS} == set(plan_names())
        for (name, seed), want in CHAOS_SEED_DIGESTS.items():
            inj = get_plan(name).injector(seed)
            seeds = tuple(
                getattr(inj, part)._state
                for part in ("_net", "_wake", "_nack", "_stall", "_sig",
                             "_storm")
            )
            got = hashlib.sha256(repr(seeds).encode()).hexdigest()[:16]
            assert got == want, (name, seed)

    def test_default_is_empty(self):
        assert FaultPlan().empty

    def test_any_knob_makes_non_empty(self):
        assert not FaultPlan(msg_jitter_prob=0.1).empty
        assert not FaultPlan(disable_wakeup_timeout=True).empty
        assert not FaultPlan(escape_rejects=3).empty

    def test_validates_probabilities(self):
        with pytest.raises(ConfigError):
            FaultPlan(msg_jitter_prob=1.5)
        with pytest.raises(ConfigError):
            FaultPlan(drop_nack_prob=-0.1)

    def test_validates_magnitudes(self):
        with pytest.raises(ConfigError):
            FaultPlan(msg_jitter_max=-1)
        with pytest.raises(ConfigError):
            FaultPlan(escape_rejects=0)

    def test_compose_takes_max_and_or(self):
        a = FaultPlan(name="a", msg_jitter_prob=0.3, escape_rejects=5)
        b = FaultPlan(
            name="b",
            msg_jitter_prob=0.1,
            drop_wakeup_prob=0.4,
            disable_wakeup_timeout=True,
            escape_rejects=2,
        )
        c = a | b
        assert c.name == "a+b"
        assert c.msg_jitter_prob == 0.3
        assert c.drop_wakeup_prob == 0.4
        assert c.disable_wakeup_timeout
        assert c.escape_rejects == 2  # tighter threshold wins

    def test_with_name_and_describe(self):
        p = delay_jitter().with_name("renamed")
        assert p.name == "renamed"
        assert "renamed" in p.describe()
        assert "msg_jitter_prob" in p.describe()
        assert "empty" in FaultPlan().describe()

    def test_registry(self):
        names = plan_names()
        assert "jitter" in names and "chaos-monkey" in names
        for name in names:
            assert not get_plan(name).empty

    def test_registry_unknown(self):
        with pytest.raises(ConfigError):
            get_plan("no-such-plan")

    def test_default_campaign(self):
        plans = default_campaign()
        assert len(plans) >= 3
        assert len({p.name for p in plans}) == len(plans)


# ----------------------------------------------------------------------
# Determinism and the zero-overhead-when-off contract
# ----------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_same_plan_identical(self):
        progs = case_programs(7, 2)
        runs = [
            run_and_observe(progs, "LockillerTM", seed=9, plan=chaos_monkey())
            for _ in range(2)
        ]
        (cyc_a, ev_a, fp_a, ma), (cyc_b, ev_b, fp_b, mb) = runs
        assert (cyc_a, ev_a, fp_a) == (cyc_b, ev_b, fp_b)
        assert ma.injector.summary() == mb.injector.summary()

    def test_injection_actually_happens(self):
        progs = case_programs(7, 2)
        _, _, _, m = run_and_observe(
            progs, "LockillerTM", seed=9, plan=chaos_monkey()
        )
        assert sum(m.injector.summary().values()) > 0

    def test_different_seed_different_schedule(self):
        progs = case_programs(7, 2)
        _, _, _, a = run_and_observe(
            progs, "LockillerTM", seed=9, plan=chaos_monkey()
        )
        _, _, _, b = run_and_observe(
            progs, "LockillerTM", seed=10, plan=chaos_monkey()
        )
        # Not bit-identical schedules (astronomically unlikely to match).
        assert a.injector.summary() != b.injector.summary() or (
            a.engine.events_processed != b.engine.events_processed
        )

    def test_empty_plan_is_zero_overhead(self):
        progs = case_programs(3, 1)
        for system in ("CGL", "Baseline", "LockillerTM"):
            clean = run_and_observe(progs, system, seed=4, plan=None)
            empty = run_and_observe(progs, system, seed=4, plan=FaultPlan())
            assert clean[:3] == empty[:3]
            assert empty[3].injector is None

    def test_watchdog_does_not_perturb_timing(self):
        progs = case_programs(3, 1)
        clean = run_and_observe(progs, "LockillerTM", seed=4)
        watched = run_and_observe(
            progs, "LockillerTM", seed=4, watchdog=WatchdogConfig()
        )
        assert clean[0] == watched[0]
        assert clean[2] == watched[2]


# ----------------------------------------------------------------------
# Watchdog and structured errors
# ----------------------------------------------------------------------

CONFLICT_PROGS = [
    [Txn([store(0, 1), compute(50)])],
    [Txn([store(0, 1), compute(50)])],
]


class TestWatchdog:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            WatchdogConfig(horizon=0)
        with pytest.raises(ValueError):
            WatchdogConfig(check_every=-1)
        assert WatchdogConfig(horizon=100).period == 25
        assert WatchdogConfig(horizon=100, check_every=7).period == 7

    def test_reject_storm_livelock_detected(self):
        # RETRY_LATER never burns the retry budget, so a full reject
        # storm livelocks — exactly what the watchdog must catch.
        storm = FaultPlan(name="storm", reject_storm_prob=1.0)
        m = make_machine(
            CONFLICT_PROGS,
            "LockillerTM-RRI",
            seed=3,
            plan=storm,
            watchdog=WatchdogConfig(horizon=200_000),
        )
        with pytest.raises(LivelockError) as exc_info:
            m.run()
        err = exc_info.value
        assert err.now >= 200_000
        assert err.replay["system"] == "LockillerTM-RRI"
        assert err.replay["fault_plan"] == "storm"
        assert len(err.cores) == 2
        assert all(isinstance(c, CoreDiagnostic) for c in err.cores)
        assert all(c.commits == 0 for c in err.cores)
        assert "core 0" in str(err) and "replay" in str(err)

    def test_escape_hatch_degrades_to_fallback(self):
        # The same storm with the escape hatch armed: rejects burn the
        # budget, the txns take the lock path, and the run completes.
        esc = FaultPlan(
            name="storm-esc", reject_storm_prob=1.0, escape_rejects=3
        )
        m = make_machine(
            CONFLICT_PROGS,
            "LockillerTM-RRI",
            seed=3,
            plan=esc,
            watchdog=WatchdogConfig(horizon=200_000),
        )
        m.run()
        assert m.injector.escapes_taken > 0
        assert sum(cs.commits for cs in m.core_stats) == 2
        assert sum(cs.commits_lock for cs in m.core_stats) > 0

    def test_event_budget_becomes_livelock_error(self):
        storm = FaultPlan(name="storm", reject_storm_prob=1.0)
        m = make_machine(CONFLICT_PROGS, "LockillerTM-RRI", seed=3, plan=storm)
        m.engine._max_events = 20_000  # no watchdog: budget is the guard
        with pytest.raises(LivelockError) as exc_info:
            m.run()
        assert isinstance(exc_info.value.__cause__, EventBudgetError)
        assert "event budget" in str(exc_info.value)

    def test_diagnose_machine_shape(self):
        m = make_machine(CONFLICT_PROGS, "LockillerTM", seed=0)
        diags = diagnose_machine(m)
        assert [d.core for d in diags] == [0, 1]
        assert all("core" in d.render() for d in diags)


class TestStructuredErrors:
    def test_event_budget_error_is_simulation_error(self):
        err = EventBudgetError(1000, 42)
        assert isinstance(err, SimulationError)
        assert err.max_events == 1000 and err.now == 42

    def test_engine_step_enforces_budget(self):
        eng = SimEngine(max_events=5)

        def respawn(t):
            eng.schedule_after(1, respawn)

        eng.schedule_after(0, respawn)
        with pytest.raises(EventBudgetError):
            for _ in range(100):
                if not eng.step():
                    pytest.fail("heap drained before budget")

    def test_deadlock_from_stranded_waiter(self):
        # Core 1 parks on core 0; the wake-up is dropped and the timeout
        # guard disabled, so the heap drains with core 1 unfinished.
        progs = [
            [Txn([store(0, 1), compute(400)])],
            [Plain([compute(100)]), Txn([store(0, 1)])],
        ]
        plan = FaultPlan(
            name="strand", drop_wakeup_prob=1.0, disable_wakeup_timeout=True
        )
        m = make_machine(progs, "LockillerTM-RWI", seed=0, plan=plan)
        with pytest.raises(DeadlockError):
            m.run()
        assert m.injector.wakeups_dropped >= 1

    def test_wakeup_timeout_recovers_dropped_wakeup(self):
        # Same scenario with the timeout guard active: the stranded
        # waiter recovers on its own and the run completes.
        progs = [
            [Txn([store(0, 1), compute(400)])],
            [Plain([compute(100)]), Txn([store(0, 1)])],
        ]
        plan = FaultPlan(name="lossy-wakeup", drop_wakeup_prob=1.0)
        m = make_machine(progs, "LockillerTM-RWI", seed=0, plan=plan)
        m.run()
        assert sum(cs.commits for cs in m.core_stats) == 2
        assert sum(cs.wakeup_timeouts for cs in m.core_stats) >= 1

    def test_check_quiescent_reports_problems(self):
        m = make_machine([[Txn([store(0, 1)])]], "LockillerTM", seed=0)
        m.run()
        assert m.memsys.check_quiescent() == []
        m.memsys.tx_readers[0x40] = 1 << 0  # core bitmask
        m.memsys.sig_owner = 0
        m.memsys.of_rd_sig.insert(0x40)
        problems = m.memsys.check_quiescent()
        assert any("tx_readers" in p for p in problems)
        assert any("owned" in p for p in problems)
        assert any("signatures not cleared" in p for p in problems)

    def test_paranoid_raises_protocol_invariant(self):
        from repro.coherence.cachearray import MESI

        m = make_machine([[], []], "LockillerTM", seed=0)
        m.memsys.paranoid = True
        # Smuggle an untracked line into core 1's L1: SWMR bookkeeping
        # no longer matches the directory.
        m.memsys.l1s[1].insert(0x1000 << 6, MESI.M, pinned=None)
        with pytest.raises(ProtocolInvariantError):
            m.memsys.access(0, 0x40, False, 0)

    def test_livelock_error_render(self):
        diag = CoreDiagnostic(
            core=0,
            mode="HTM",
            aborted=False,
            done=False,
            parked=True,
            retries_left=2,
            attempts=5,
            priority=7,
            commits=0,
        )
        err = LivelockError(
            "stuck",
            now=123,
            cores=[diag],
            replay={"seed": 1},
            pending_events=4,
        )
        text = str(err)
        assert "stuck" in text and "t=123" in text
        assert "parked" in text and "retries_left=2" in text


# ----------------------------------------------------------------------
# Crash-tolerant harness
# ----------------------------------------------------------------------


class TestRetryAndTimeout:
    def test_retry_policy_validation(self):
        with pytest.raises(ConfigError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigError):
            RetryPolicy(timeout_s=0)

    def test_no_timeout_passthrough(self):
        assert call_with_timeout(lambda: 42, None) == 42
        assert call_with_timeout(lambda: 42, 0) == 42

    def test_timeout_fires(self):
        def spin():
            deadline = time.time() + 5.0
            while time.time() < deadline:
                pass
            return "never"

        t0 = time.time()
        with pytest.raises(RunTimeoutError):
            call_with_timeout(spin, 0.2)
        assert time.time() - t0 < 4.0

    def test_timeout_restores_handler(self):
        import signal

        before = signal.getsignal(signal.SIGALRM)
        call_with_timeout(lambda: None, 1.0)
        assert signal.getsignal(signal.SIGALRM) is before


def tiny_sweep(systems=("CGL", "LockillerTM")):
    return Sweep(
        workloads=("ssca2",),
        systems=systems,
        threads=(2,),
        seeds=(1,),
        scale=0.05,
    )


class TestResilientSweep:
    def test_clean_sweep_matches_plain_run(self):
        sweep = tiny_sweep()
        plain = sweep.run()
        report = sweep.run_resilient()
        assert report.ok
        assert report.executed == sweep.size()
        assert len(report.results) == len(plain)
        for r_plain, r_res in zip(plain.records, report.results.records):
            assert r_plain.point == r_res.point
            assert fingerprint(r_plain.stats) == fingerprint(r_res.stats)

    @pytest.mark.parametrize("cached", [False, True], ids=["no-cache", "cache"])
    def test_quarantine_keeps_campaign_alive(self, cached, tmp_path):
        def resolver(name):
            if name == "Broken":
                raise ConfigError("deliberately broken system")
            return get_system(name)

        sweep = tiny_sweep(systems=("CGL", "Broken", "LockillerTM"))
        sweep.spec_resolver = resolver
        cache = RunCache(str(tmp_path)) if cached else None
        report = run_sweep_resilient(
            sweep, retry=RetryPolicy(max_attempts=2), cache=cache
        )
        assert not report.ok
        assert len(report.results) == 2  # the good cells survived
        (q,) = report.quarantined
        assert q.replay["system"] == "Broken"
        assert q.attempts == 2
        assert q.error_type == "ConfigError"
        assert "Broken" in report.render()

    def test_checkpoint_resume(self, tmp_path):
        cache = str(tmp_path / "rc")
        sweep = tiny_sweep()
        first = run_sweep_resilient(sweep, cache=cache)
        assert first.executed == sweep.size() and first.resumed == 0
        second = run_sweep_resilient(sweep, cache=cache)
        assert second.executed == 0 and second.resumed == sweep.size()
        for a, b in zip(first.results.records, second.results.records):
            assert fingerprint(a.stats) == fingerprint(b.stats)

    def test_multi_seed_quarantine_carries_the_cell_label(self):
        def quarantined(params):
            runs, records = multi_seed_runs_resilient(
                "no-such-kernel", "CGL", 2, seeds=(1, 2), scale=0.05,
                params=params, retry=RetryPolicy(max_attempts=1),
            )
            assert runs == []
            return records

        for params, tag in ((None, "typical"),
                            (small_cache_params(), "custom")):
            records = quarantined(params)
            assert [q.label for q in records] == [
                f"no-such-kernel/CGL/t2/s{seed}/{tag}" for seed in (1, 2)
            ]
            assert [q.replay["params_tag"] for q in records] == [tag, tag]
            assert records[0].replay == {
                "workload": "no-such-kernel", "system": "CGL",
                "threads": 2, "seed": 1, "scale": 0.05,
                "fault_plan": None, "params_tag": tag,
            }

    def test_multi_seed_resilient(self, tmp_path):
        cache = RunCache(str(tmp_path))
        runs, quarantined = multi_seed_runs_resilient(
            "ssca2", "CGL", 2, seeds=(1, 2), scale=0.05, cache=cache
        )
        assert len(runs) == 2 and not quarantined
        assert (cache.hits, cache.stores) == (0, 2)
        again, _ = multi_seed_runs_resilient(
            "ssca2", "CGL", 2, seeds=(1, 2), scale=0.05, cache=cache
        )
        assert (cache.hits, cache.stores) == (2, 2)
        assert [fingerprint(r) for r in again] == [
            fingerprint(r) for r in runs
        ]
