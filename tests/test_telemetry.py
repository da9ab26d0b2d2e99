"""repro.telemetry: registry, event slots, timeline, Chrome trace,
sinks, harness wiring, CLI.

The load-bearing guarantee is *non-perturbation*: attaching a full
telemetry session must not change a single simulated bit.  The pinned
golden cell from ``test_golden_determinism`` is re-asserted here both
with telemetry off (default path untouched) and with telemetry on
(observation only).
"""

import hashlib
import json
import os

import pytest

from repro.common.params import CacheParams, SystemParams, typical_params
from repro.core.extensions import extension_systems
from repro.harness.cli import main as cli_main
from repro.harness.export import fingerprint
from repro.harness.multiseed import trace_seed
from repro.harness.runcache import RunCache
from repro.harness.sweeps import Sweep
from repro.harness.systems import TABLE_ORDER, get_system, resolve_system
from repro.sim.machine import Machine
from repro.sim.pool import MachinePool
from repro.sim.runner import RunConfig, run_workload
from repro.htm.isa import Plain, Txn, compute, fault, load, store
from repro.telemetry import (
    ARTIFACT_SUFFIXES,
    MetricsRegistry,
    Telemetry,
    artifact_path,
    validate_chrome_trace,
    write_json_atomic,
)
from repro.workloads.registry import get_workload
from conftest import line_addr, make_machine, simple_txn

#: Same pinned cell as tests/test_golden_determinism.py.
GOLD_CYCLES, GOLD_FP, GOLD_COMMITS, GOLD_ABORTS = (
    9755,
    "1877f557f4e76393",
    40,
    5,
)


def _gold_config(telemetry=None):
    return RunConfig(
        spec=get_system("LockillerTM"),
        threads=4,
        scale=0.05,
        seed=3,
        telemetry=telemetry,
    )


def _gold_run(telemetry=None):
    return run_workload(get_workload("intruder"), _gold_config(telemetry))


class TestRegistry:
    def test_counter_and_gauge(self):
        reg = MetricsRegistry()
        reg.counter("htm.nack.total").inc()
        reg.counter("htm.nack.total").inc(4)
        reg.gauge("run.cycles").set(9755)
        assert reg.value("htm.nack.total") == 5
        assert reg.value("run.cycles") == 9755
        assert len(reg) == 2
        assert "htm.nack.total" in reg and "nope" not in reg

    def test_histogram_serializes(self):
        reg = MetricsRegistry()
        h = reg.histogram("commit_latency")
        for v in (1, 2, 4, 100):
            h.record(v)
        val = reg.value("commit_latency")
        assert val["count"] == 4
        assert val["total"] == 107
        assert val["p99_ub"] >= 100

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_scope_prefixes(self):
        reg = MetricsRegistry()
        core0 = reg.scope("core.0")
        core0.counter("commits_htm").inc(3)
        core0.scope("time").gauge("htm").set(0.5)
        assert reg.value("core.0.commits_htm") == 3
        assert reg.value("core.0.time.htm") == 0.5

    def test_query_namespaces_render(self):
        reg = MetricsRegistry()
        reg.counter("noc.messages_sent").inc(10)
        reg.gauge("noc.link.0_1.busy_until").set(99)
        reg.gauge("sim.now").set(1)
        assert reg.query("noc") == {
            "noc.messages_sent": 10,
            "noc.link.0_1.busy_until": 99,
        }
        assert reg.namespaces() == ["noc", "sim"]
        out = reg.render("noc")
        assert "noc.messages_sent" in out and "sim.now" not in out
        assert reg.render(limit=2).count("\n") <= 2


def _slots(machine):
    return [machine, machine.memsys, *machine.cpus]


class TestHub:
    """One session per machine, wired through the declared event slots."""

    def test_attach_sets_slots_detach_clears(self):
        m = Machine(
            typical_params(), get_system("Baseline"), [[] for _ in range(2)]
        )
        assert all(c._emit is None for c in _slots(m))
        tel = Telemetry()
        tel.attach(m)
        tel.attach(m)  # idempotent
        assert all(c._emit == tel._on_event for c in _slots(m))
        # Attaching shadows no method with an instance attribute.
        for name in ("access", "spill_to_signature", "_nack"):
            assert name not in vars(m.memsys)
        assert "drain_wakeups" not in vars(m)
        assert "abort_externally" not in vars(m)
        for name in ("_xbegin", "_commit_done", "_local_abort", "_cgl_locked"):
            assert name not in vars(m.cpus[0])
        tel.detach()
        assert all(c._emit is None for c in _slots(m))
        tel.detach()  # safe when already detached

    def test_second_session_on_attached_machine_raises(self):
        m = make_machine([[simple_txn([1], [2])]])
        first = Telemetry().attach(m)
        with pytest.raises(RuntimeError):
            Telemetry().attach(m)
        assert all(c._emit == first._on_event for c in _slots(m))

    def test_attach_same_machine_idempotent(self):
        m = make_machine([[simple_txn([1], [2])]])
        tel = Telemetry()
        tel.attach(m)
        tel.attach(m)  # no-op, events still reach the session once
        m.run()
        assert tel.registry.value("events.tx_commit") == 1

    def test_detach_clears_every_slot(self):
        m = make_machine([[simple_txn([1], [2])]])
        tel = Telemetry().attach(m)
        assert all(c._emit == tel._on_event for c in _slots(m))
        tel.detach()
        assert all(c._emit is None for c in _slots(m))
        # Nothing is wrapped: every method is still the class's own.
        assert "access" not in vars(m.memsys)
        assert "drain_wakeups" not in vars(m)
        assert "_xbegin" not in vars(m.cpus[0])
        # A detached session records nothing; the machine still runs.
        m.run()
        assert "events.tx_commit" not in tel.registry
        tel.detach()  # idempotent when not attached

    def test_attach_run_detach_reattach(self):
        m = make_machine([[simple_txn([1], [2]), simple_txn([3], [4])]])
        first = Telemetry().attach(m)
        first.detach()
        second = Telemetry().attach(m)
        m.run()
        assert second.registry.value("events.tx_commit") == 2
        assert "events.tx_commit" not in first.registry

    def test_attach_other_machine_rejected(self):
        tel = Telemetry().attach(make_machine([[]]))
        with pytest.raises(RuntimeError):
            tel.attach(make_machine([[]]))

    def test_pooled_release_and_reacquire_leave_slots_clear(self):
        pool = MachinePool()
        tel = Telemetry()
        config = RunConfig(
            spec=get_system("LockillerTM"),
            threads=2,
            scale=0.05,
            seed=1,
            telemetry=tel,
            machine_pool=pool,
        )
        run_workload(get_workload("kmeans+"), config)
        (machine,) = [m for free in pool._free.values() for m in free]
        assert all(c._emit is None for c in _slots(machine))
        # A session left attached does not survive the reset either.
        Telemetry().attach(machine)
        again = pool.acquire(
            machine.params, machine.spec, [[] for _ in range(2)], seed=1
        )
        assert again is machine
        assert all(c._emit is None for c in _slots(again))


def _observed_run(programs, system="Baseline", params=None):
    m = make_machine(programs, system=system, params=params)
    tel = Telemetry().attach(m)
    m.run()
    tel.finalize()
    return m, tel


def _events(tel, kind):
    name = f"events.{kind}"
    return tel.registry.value(name) if name in tel.registry else 0


def _contended(line, txns, compute_cycles=0):
    """Programs of four cores that stagger into ``txns`` RMWs of ``line``."""
    body = [load(line_addr(line)), store(line_addr(line), 1)]
    if compute_cycles:
        body.append(compute(compute_cycles))
    return [
        [Plain([compute(3 + t)]), *[Txn(list(body)) for _ in range(txns)]]
        for t in range(4)
    ]


class TestEventSites:
    """Each lifecycle emit site reaches the session."""

    def test_records_tx_lifecycle(self):
        _, tel = _observed_run([[simple_txn([1], [2])]])
        assert _events(tel, "tx_begin") == 1
        assert _events(tel, "tx_commit") == 1
        assert _events(tel, "tx_abort") == 0

    def test_records_aborts(self):
        prog = [[Txn([fault(persistent=True), store(line_addr(1), 1)])]]
        _, tel = _observed_run(prog)
        assert _events(tel, "tx_abort") >= 1
        assert _events(tel, "fallback") == 1

    def test_records_rejects_and_wakeups(self):
        _, tel = _observed_run(
            _contended(0, 6, compute_cycles=10), system="LockillerTM-RWI"
        )
        assert _events(tel, "reject") > 0
        assert _events(tel, "wakeup") > 0

    def test_records_switching(self):
        params = SystemParams(
            num_cores=4,
            l1=CacheParams(2 * 64, 2, 2),
            llc=CacheParams(4096 * 64, 16, 12),
        )
        _, tel = _observed_run(
            [[simple_txn([1, 2, 3], [4])]],
            system="LockillerTM",
            params=params,
        )
        assert _events(tel, "overflow") >= 1
        assert _events(tel, "switch_ok") == 1
        (span,) = tel.timeline.committed()
        assert span.switched and span.mode == "htm->stl"

    def test_stl_deny_path_recorded(self):
        # The denial branch of _stl_result's emit site: drive the
        # callback directly (a machine-level denial needs a racing STL
        # owner, which is timing-fragile to stage).
        m = make_machine([[simple_txn([1], [2])]], system="LockillerTM")
        tel = Telemetry().attach(m)
        cpu = m.cpus[0]
        cpu._xbegin(0)
        cpu._stl_result(5, False, cpu.tx.attempt_seq)
        assert _events(tel, "switch_attempt") == 1
        (span,) = tel.timeline.spans
        assert span.marks[-1] == (5, "STL application denied")
        assert span.outcome == "abort" and span.abort_reason == "of"

    def test_fallback_entry_and_lock_begin_recorded(self):
        prog = [[Txn([fault(persistent=True), store(line_addr(1), 1)])]]
        _, tel = _observed_run(prog)  # Baseline: classic fallback lock
        assert _events(tel, "fallback") == 1
        assert _events(tel, "lock_begin") == 1
        (lock_span,) = [s for s in tel.timeline.spans if s.mode != "htm"]
        assert lock_span.mode == "fallback"
        assert lock_span.outcome == "commit"

    def test_drain_reports_waiter_count(self):
        _, tel = _observed_run(
            _contended(0, 6, compute_cycles=10), system="LockillerTM-RWI"
        )
        wakeups = [
            label for _t, _core, label in tel.timeline.instants
            if label.startswith("wakeup x")
        ]
        assert len(wakeups) == _events(tel, "wakeup")
        assert all(int(label[len("wakeup x"):]) >= 1 for label in wakeups)

    def test_contention_profile(self):
        _, tel = _observed_run(_contended(7, 5), system="LockillerTM-RWI")
        total = sum(tel.reject_lines.values())
        assert total == _events(tel, "reject") > 0
        # Only one contended line.
        assert tel.reject_lines.most_common(1) == [(7, total)]

    def test_tracing_does_not_change_results(self):
        def progs():
            return [
                [Plain([compute(2 + t)]), simple_txn([0], [0])]
                for t in range(4)
            ]

        plain = make_machine(progs(), system="LockillerTM")
        cycles_plain = plain.run()
        observed = make_machine(progs(), system="LockillerTM")
        Telemetry().attach(observed)
        cycles_observed = observed.run()
        assert cycles_plain == cycles_observed
        assert plain.memsys.memory == observed.memsys.memory


#: Every Table-II system plus the LockillerTM-XF extension.
_RECONCILE_SYSTEMS = [
    *[get_system(name) for name in TABLE_ORDER],
    extension_systems()["LockillerTM-XF"],
]


class TestReconciliation:
    """The event stream accounts for every abort and commit.

    Each abort ``CoreStats`` counts — including the classic fallback's
    ``mutex`` kills — is one ``TX_ABORT``; each commit, CGL sections
    included, is one ``TX_COMMIT``; every span closes.
    """

    @pytest.mark.parametrize("workload", ["intruder", "kmeans+"])
    @pytest.mark.parametrize(
        "spec", _RECONCILE_SYSTEMS, ids=lambda s: s.name
    )
    def test_events_match_core_stats(self, workload, spec):
        tel = Telemetry()
        stats = run_workload(
            get_workload(workload),
            RunConfig(spec=spec, threads=8, scale=0.05, seed=42,
                      telemetry=tel),
        )
        reg = tel.registry

        def events(kind):
            name = f"events.{kind}"
            return reg.value(name) if name in reg else 0

        aborts = stats.merged().total_aborts
        assert events("tx_abort") == aborts
        assert events("tx_commit") == stats.commits
        assert [s for s in tel.timeline.spans if s.outcome == "open"] == []
        assert len(tel.timeline.spans) == stats.commits + aborts


class TestBitIdentity:
    def test_off_matches_golden_pins(self):
        stats = _gold_run()
        assert stats.execution_cycles == GOLD_CYCLES
        assert fingerprint(stats) == GOLD_FP

    def test_on_matches_golden_pins(self):
        tel = Telemetry()
        stats = _gold_run(tel)
        merged = stats.merged()
        assert stats.execution_cycles == GOLD_CYCLES
        assert fingerprint(stats) == GOLD_FP
        assert merged.commits == GOLD_COMMITS
        assert merged.total_aborts == GOLD_ABORTS

    def test_timeline_matches_commit_abort_totals(self):
        tel = Telemetry()
        _gold_run(tel)
        tl = tel.timeline
        assert len(tl.committed()) == GOLD_COMMITS
        assert len(tl.aborted()) == GOLD_ABORTS
        assert all(s.end is not None for s in tl.spans)
        assert tel.registry.value("run.execution_cycles") == GOLD_CYCLES
        assert tel.registry.value("run.commits") == GOLD_COMMITS

    def test_detached_after_run(self):
        tel = Telemetry()
        _gold_run(tel)
        assert tel._machine is None  # runner detaches on success


class TestChromeTrace:
    @pytest.fixture(scope="class")
    def traced(self):
        tel = Telemetry()
        _gold_run(tel)
        return tel

    def test_validates_and_round_trips(self, traced):
        doc = traced.trace_dict("gold")
        assert validate_chrome_trace(doc) == []
        again = json.loads(json.dumps(doc))
        assert again == doc
        assert again["displayTimeUnit"] == "ns"

    def test_event_shapes(self, traced):
        events = traced.trace_dict("gold")["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"M", "X", "C"} <= phases
        spans = [e for e in events if e["ph"] == "X"]
        assert len(spans) == GOLD_COMMITS + GOLD_ABORTS
        assert all(e["dur"] >= 1 for e in spans)  # Perfetto rejects 0
        assert all(isinstance(e["tid"], int) for e in events)
        counters = [e for e in events if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {
            "live-set lines",
            "signature fill",
        }

    def test_span_args_annotated(self, traced):
        spans = [
            e
            for e in traced.trace_dict("gold")["traceEvents"]
            if e["ph"] == "X"
        ]
        outcomes = {e["args"]["outcome"] for e in spans}
        assert outcomes == {"commit", "abort"}
        aborts = [e for e in spans if e["args"]["outcome"] == "abort"]
        assert all(e["args"]["abort_reason"] for e in aborts)
        assert all("priority" in e["args"] for e in spans)

    def test_validator_catches_bad_docs(self):
        assert validate_chrome_trace({"traceEvents": "x"})
        assert validate_chrome_trace(
            {"displayTimeUnit": "ns", "traceEvents": [{"ph": "Z"}]}
        )
        bad_x = {
            "displayTimeUnit": "ns",
            "traceEvents": [
                {"ph": "X", "name": "t", "pid": 1, "tid": 1, "ts": 0}
            ],
        }
        assert any("dur" in p for p in validate_chrome_trace(bad_x))


class TestSinks:
    def test_json_atomic(self, tmp_path):
        path = str(tmp_path / "doc.json")
        write_json_atomic(path, {"a": 1}, indent=2)
        assert json.loads(open(path, encoding="utf-8").read()) == {"a": 1}
        assert [f for f in os.listdir(tmp_path) if ".tmp." in f] == []

    def test_artifact_paths_are_cache_siblings(self, tmp_path):
        rc = RunCache(str(tmp_path))
        key = "ab" + "0" * 62
        base = rc.path_for(key)
        for kind, suffix in ARTIFACT_SUFFIXES.items():
            p = artifact_path(rc, key, kind)
            assert p == base[: -len(".json")] + suffix
            assert os.path.dirname(p) == os.path.dirname(base)
        with pytest.raises(ValueError):
            artifact_path(rc, key, "bogus")


class TestHarnessIntegration:
    def test_sweep_rerun_with_telemetry(self, tmp_path):
        sweep = Sweep(
            workloads=("intruder",),
            systems=("LockillerTM",),
            threads=(4,),
            seeds=(3,),
            scale=0.05,
        )
        cache = str(tmp_path / "rc")
        out = sweep.rerun_with_telemetry(
            cache, workload="intruder", system="LockillerTM"
        )
        assert set(out) == {"result", "metrics", "trace"}
        for path in out.values():
            assert os.path.exists(path)
        assert os.path.dirname(out["trace"]) == os.path.dirname(out["result"])
        doc = json.loads(open(out["trace"], encoding="utf-8").read())
        assert validate_chrome_trace(doc) == []
        metrics = json.loads(open(out["metrics"], encoding="utf-8").read())
        assert metrics["run.execution_cycles"] == GOLD_CYCLES
        # The telemetry re-run must agree with the cached result.
        rc = RunCache(cache)
        key = os.path.basename(out["result"])[: -len(".json")]
        assert fingerprint(rc.get(key)) == GOLD_FP

    def test_sweep_rerun_needs_exactly_one_cell(self, tmp_path):
        sweep = Sweep(
            workloads=("intruder",),
            systems=("CGL", "LockillerTM"),
            threads=(4,),
            seeds=(3,),
            scale=0.05,
        )
        with pytest.raises(KeyError):
            sweep.rerun_with_telemetry(
                str(tmp_path / "rc"), workload="intruder"
            )

    def test_trace_seed(self, tmp_path):
        out = trace_seed(
            "intruder",
            "LockillerTM",
            threads=4,
            seed=3,
            scale=0.05,
            cache=str(tmp_path / "rc"),
        )
        assert set(out) == {"result", "metrics", "trace"}
        doc = json.loads(open(out["trace"], encoding="utf-8").read())
        assert validate_chrome_trace(doc) == []
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == GOLD_COMMITS + GOLD_ABORTS


class TestResolveSystem:
    def test_exact_and_alias(self):
        assert resolve_system("LockillerTM").name == "LockillerTM"
        assert resolve_system("lockiller").name == "LockillerTM"
        assert resolve_system("losatm").name == "LosaTM-SAFU"
        assert resolve_system("cgl").name == "CGL"

    def test_case_insensitive_and_prefix(self):
        assert resolve_system("baseline").name == "Baseline"
        assert resolve_system("lockillertm-rwi").name == "LockillerTM-RWI"
        assert resolve_system("LosaTM").name == "LosaTM-SAFU"

    def test_ambiguous_and_unknown(self):
        from repro.common.errors import ConfigError

        with pytest.raises(ConfigError, match="ambiguous"):
            resolve_system("LockillerTM-R")  # RAI/RRI/RWI/RWL/RWIL
        with pytest.raises(ConfigError):
            resolve_system("no-such-system")


class TestCli:
    CELL = [
        "--workload",
        "intruder",
        "--system",
        "lockiller",
        "--cores",
        "4",
        "--scale",
        "0.05",
        "--seed",
        "3",
    ]

    def test_timeline_stdout_round_trips(self, capsys, tmp_path):
        out_file = str(tmp_path / "cell.trace.json")
        assert cli_main(["timeline", *self.CELL, "--out", out_file]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert validate_chrome_trace(doc) == []
        assert doc == json.loads(open(out_file, encoding="utf-8").read())

    def test_timeline_summary(self, capsys):
        assert cli_main(["timeline", *self.CELL, "--summary"]) == 0
        out = capsys.readouterr().out
        assert "commit" in out

    def test_metrics_render_and_json(self, capsys):
        assert cli_main(["metrics", *self.CELL, "--prefix", "htm"]) == 0
        out = capsys.readouterr().out
        assert "htm.nack" in out
        assert cli_main(["metrics", *self.CELL, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run.execution_cycles"] == GOLD_CYCLES


class TestGoldenArtifacts:
    """The golden cell's telemetry artifacts, pinned byte for byte.

    Both digests are of what the CLI writes for ``--workload intruder
    --system lockiller --cores 4 --scale 0.05 --seed 3``: the ``metrics
    --json`` stdout and the ``timeline --out`` Chrome trace file.  Any
    change to an event site, a span rule or a published metric moves
    one of them.
    """

    METRICS_SHA256 = (
        "55cba44c1947f8188a6bf9a114fab970f584f9aef8faafe27f8560a6f0be1c9f"
    )
    TRACE_SHA256 = (
        "d4431f533bc71323d601636f0cc76320162cf6e907a430d45414b42b32f96eb2"
    )

    def test_metrics_json_digest(self, capsys):
        assert cli_main(["metrics", *TestCli.CELL, "--json"]) == 0
        out = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(out).hexdigest() == self.METRICS_SHA256

    def test_timeline_file_digest(self, capsys, tmp_path):
        out_file = tmp_path / "gold.trace.json"
        argv = ["timeline", *TestCli.CELL, "--out", str(out_file)]
        assert cli_main(argv) == 0
        capsys.readouterr()
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert digest == self.TRACE_SHA256
