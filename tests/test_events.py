"""The discrete-event kernel (:mod:`repro.sim.events`) and the up-front
validation of the event schedules the three engines run."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterError, ClusterServingSystem
from repro.serve import LLMEngine, ServingSystem, TenantSpec, llm_arrivals
from repro.serve.frontend import ServingError
from repro.serve.llm import LLMServingError
from repro.serve.loadgen import LoadProfile, generate_trace, synthetic_service_model
from repro.sim.events import EventKernel, Schedule, Source, Timers
from repro.systems import CronusSystem, TestbedConfig


class TestTimers:
    def test_overwrite_and_delete_invalidate_lazily(self):
        timers = Timers()
        timers.set("gpu1", 30.0)
        timers.set("gpu0", 10.0)
        timers.set("gpu0", 20.0)  # the 10.0 entry goes stale
        assert timers.peek() == 20.0
        del timers["gpu0"]
        assert timers.peek() == 30.0
        assert timers.pop_due(29.0) is None
        assert timers.pop_due(30.0) == "gpu1"
        assert timers.peek() is None and not timers

    def test_pop_due_is_earliest_first_with_key_tiebreak(self):
        timers = Timers()
        for key, at in (("b", 5.0), ("a", 5.0), ("c", 1.0), ("d", 9.0)):
            timers.set(key, at)
        popped = []
        while (key := timers.pop_due(5.0)) is not None:
            popped.append(key)
        assert popped == ["c", "a", "b"]
        assert dict(timers) == {"d": 9.0}


class _Pipeline:
    scrape_interval_us = 10.0

    def __init__(self):
        self.scrapes = []

    def scrape(self, t_us):
        self.scrapes.append(t_us)


class TestKernel:
    def run(self, times, telemetry=None):
        kernel = EventKernel()
        log = []
        phases = [
            Schedule([(t, "a") for t in times], lambda e: log.append(("a", e[0]))),
            Source(None, lambda now: log.append(("flush", now))),
        ]
        kernel._run_events(
            phases, telemetry=telemetry, drain=lambda: log.append(("drain", kernel._now))
        )
        return kernel, log

    def test_every_phase_fires_at_every_instant_in_order(self):
        kernel, log = self.run([3.0, 3.0, 7.0])
        assert log == [
            ("a", 3.0), ("a", 3.0), ("flush", 3.0),
            ("a", 7.0), ("flush", 7.0),
            ("drain", 7.0),
        ]
        assert kernel._now == 7.0

    def test_scrapes_subdivide_waits_but_never_extend_the_makespan(self):
        telemetry = _Pipeline()
        kernel, log = self.run([25.0], telemetry)
        # Boundaries 10 and 20 fire before the event at 25; the one at 30
        # would extend the run, so only the final scrape at 25 follows.
        assert telemetry.scrapes == [10.0, 20.0, 25.0]
        assert kernel._now == 25.0
        assert ("flush", 10.0) in log  # a scrape instant is an instant


def _serving(events):
    specs, requests = generate_trace(LoadProfile(tenants=4, requests=200))
    serving = ServingSystem(
        CronusSystem(TestbedConfig(num_gpus=2)),
        service_model=synthetic_service_model(),
    )
    for spec in specs:
        serving.add_tenant(spec)
    late = requests[-1].arrival_us
    return serving, dict(arrivals=requests, **events(late))


def _llm():
    engine = LLMEngine(CronusSystem(TestbedConfig(num_gpus=2)))
    tenant = engine.add_tenant(TenantSpec("acme", rate_limit_rps=4_000.0, burst=64))
    arrivals = llm_arrivals(tenant, engine.config, count=20, seed=7)
    late = arrivals[-1].arrival_us
    return engine, dict(arrivals=arrivals, crash_events=[(late, "gpu9")])


def _cluster(events):
    specs, requests = generate_trace(LoadProfile(tenants=4, requests=200))
    cluster = ClusterServingSystem(
        Cluster(num_nodes=2), service_model=synthetic_service_model()
    )
    cluster.add_tenants(specs)
    late = requests[-1].arrival_us
    return cluster, dict(arrivals=requests, **events(late))


def _offered(engine):
    if isinstance(engine, ClusterServingSystem):
        return sum(engine.node_state(n).routed for n in ("node0", "node1"))
    return sum(account.offered for account in engine.slo.accounts().values())


@pytest.mark.parametrize(
    "build, error",
    [
        (lambda: _serving(lambda t: {"crash_events": [(t, "gpu9")]}), ServingError),
        (
            lambda: _serving(lambda t: {"scale_events": [(t, "boot", "gpu9")]}),
            ServingError,
        ),
        (_llm, LLMServingError),
        (lambda: _cluster(lambda t: {"node_kill_events": [(t, "node9")]}), ClusterError),
        (
            lambda: _cluster(lambda t: {"crash_events": [(t, "node0", "gpu9")]}),
            ClusterError,
        ),
        (
            lambda: _cluster(lambda t: {"crash_events": [(t, "node9", "gpu0")]}),
            ClusterError,
        ),
    ],
    ids=[
        "serving-crash", "serving-scale", "llm",
        "cluster-kill", "cluster-crash-device", "cluster-crash-node",
    ],
)
def test_unknown_event_target_is_rejected_before_any_arrival(build, error):
    """A schedule entry naming a device or node the engine never had is
    a typed error raised before the first arrival is offered, not after
    part of the trace was served."""
    engine, kwargs = build()
    arrivals = kwargs.pop("arrivals")
    with pytest.raises(error):
        engine.run(arrivals, **kwargs)
    assert _offered(engine) == 0


def test_cluster_event_on_a_node_killed_earlier_is_skipped():
    cluster, kwargs = _cluster(
        lambda t: {
            "node_kill_events": [(t / 4, "node1"), (t / 2, "node1")],
            "crash_events": [(t / 2, "node1", "gpu0")],
        }
    )
    report = cluster.run(kwargs.pop("arrivals"), **kwargs)
    assert [name for _, name in report.node_kills] == ["node1"]
    assert report.per_node["node1"].crashes == ()
    assert report.audit_exactly_once() == []
