"""Sharded cluster serving: rendezvous routing, work stealing, node-kill
checkpoint migration, and byte-identical replay."""

import pytest

from repro.cluster import (
    Cluster,
    ClusterServingSystem,
    ClusterRouter,
    ImageError,
    ImageRegistry,
    rendezvous_score,
    request_image,
)
from repro.serve.admission import Request
from repro.serve.frontend import ServingSystem
from repro.serve.loadgen import LoadProfile, generate_trace, synthetic_service_model
from repro.systems import CronusSystem, TestbedConfig


def small_trace(requests=400, tenants=8, rate=60_000.0, deadline=80_000.0):
    profile = LoadProfile(
        tenants=tenants,
        requests=requests,
        mean_rate_rps=rate,
        deadline_us=deadline,
    )
    return generate_trace(profile)


def build(nodes=2, *, gpus=1, **kwargs):
    cluster = Cluster(num_nodes=nodes, gpus_per_node=gpus)
    kwargs.setdefault("service_model", synthetic_service_model())
    return ClusterServingSystem(cluster, **kwargs)


class TestRouter:
    def test_rendezvous_score_is_pure(self):
        assert rendezvous_score("t", "node0") == rendezvous_score("t", "node0")
        assert rendezvous_score("t", "node0") != rendezvous_score("t", "node1")

    def test_home_is_deterministic_and_sticky(self):
        router = ClusterRouter(ImageRegistry())
        nodes = ["node0", "node1", "node2"]
        homes = {f"tenant-{i}": router.home(f"tenant-{i}", nodes) for i in range(50)}
        assert homes == {
            key: router.home(key, nodes) for key in homes
        }
        assert len(set(homes.values())) > 1  # keys spread over the nodes

    def test_node_death_moves_only_orphans(self):
        """HRW's minimal-movement property: keys not homed on the dead
        node keep their home."""
        router = ClusterRouter(ImageRegistry())
        nodes = ["node0", "node1", "node2"]
        before = {f"t{i}": router.home(f"t{i}", nodes) for i in range(80)}
        survivors = [n for n in nodes if n != "node1"]
        for key, home in before.items():
            if home != "node1":
                assert router.home(key, survivors) == home

    def test_steal_over_threshold(self):
        router = ClusterRouter(ImageRegistry(), steal_threshold=10)
        nodes = ["node0", "node1"]
        key = "tenant-x"
        home = router.home(key, nodes)
        other = "node1" if home == "node0" else "node0"
        assert router.route(key, nodes, {home: 0, other: 5}) == home
        assert router.route(key, nodes, {home: 100, other: 5}) == other
        assert router.steals == 1

    def test_request_image(self):
        request = Request("t", "t-0", 0.0, 1e6)
        assert request_image(request) == "kernel:matmul"


class TestImageRegistry:
    def test_register_and_lookup(self):
        images = ImageRegistry()
        images.register("kernel:matmul", ["node0", "node1"])
        assert images.holds("kernel:matmul", "node0")
        assert images.nodes_for("kernel:matmul") == ["node0", "node1"]
        assert images.images_on("node1") == ["kernel:matmul"]

    def test_empty_replica_set_rejected(self):
        with pytest.raises(ImageError):
            ImageRegistry().register("kernel:matmul", [])

    def test_drop_node_may_drain_replicas(self):
        images = ImageRegistry()
        images.register("kernel:matmul", ["node0"])
        images.drop_node("node0")
        assert images.nodes_for("kernel:matmul") == []


class TestClusterServing:
    def test_basic_run_audits_clean(self):
        specs, requests = small_trace()
        serving = build(2)
        serving.add_tenants(specs)
        report = serving.run(requests)
        assert report.audit_exactly_once() == []
        assert report.completed_total + report.expired_total > 0
        assert sum(report.routed.values()) == len(requests)

    def test_tenant_sharding_is_sticky(self):
        """Without stealing pressure every tenant's requests land on its
        rendezvous home node."""
        specs, requests = small_trace()
        serving = build(3, steal_threshold=10_000)
        serving.add_tenants(specs)
        serving.run(requests)
        assert serving.router.steals == 0
        for ns in serving._states.values():
            # every rid admitted on a node belongs to a tenant homed there
            for rid in ns.serving.report().admitted:
                tenant = rid.rsplit("-", 1)[0]
                home = serving.router.home(
                    tenant, sorted(serving._states)
                )
                assert home == ns.name

    def test_stealing_relieves_hot_home(self):
        """All load on one tenant: with a tiny threshold the cold node
        must steal some of the whale's traffic."""
        specs, requests = small_trace(requests=600, tenants=1, rate=200_000.0)
        serving = build(2, steal_threshold=4)
        serving.add_tenants(specs)
        report = serving.run(requests)
        assert report.steals > 0
        assert all(count > 0 for count in report.routed.values())
        assert report.audit_exactly_once() == []

    def test_unroutable_without_image(self):
        images = ImageRegistry()
        images.register("kernel:other", ["node0"])
        serving = build(2, images=images)
        specs, requests = small_trace(requests=10)
        serving.add_tenants(specs)
        report = serving.run(requests)
        assert report.unroutable == len(requests)
        assert report.completed_total == 0

    def test_replay_fingerprint_identical(self):
        specs, requests = small_trace()
        reports = []
        for _ in range(2):
            serving = build(2)
            serving.add_tenants(specs)
            reports.append(serving.run(requests))
        assert reports[0].fingerprint == reports[1].fingerprint
        assert reports[0].slo_text == reports[1].slo_text


class TestNodeKillMigration:
    def run_kill(self, nodes=3, kill_at=1_500.0):
        specs, requests = small_trace(requests=500, rate=150_000.0)
        serving = build(nodes)
        serving.add_tenants(specs)
        report = serving.run(requests, node_kill_events=[(kill_at, "node1")])
        return serving, report

    def test_migrated_requests_complete_exactly_once(self):
        serving, report = self.run_kill()
        assert report.node_kills == ((1_500.0, "node1"),)
        assert report.migrated_requests > 0
        assert report.orphaned == 0
        assert report.audit_exactly_once() == []

    def test_corpse_pages_scrubbed_and_audited(self):
        serving, report = self.run_kill()
        assert report.scrub_pages_audited > 0
        assert report.scrub_violations == 0

    def test_sessions_restore_with_incremented_generation(self):
        serving, report = self.run_kill()
        assert report.migrations  # at least one checkpoint-restore ran
        for record in report.migrations:
            assert record.source == "node1"
            assert record.target != "node1"
            assert record.generation >= 1
            session = serving.migration.session(record.tenant)
            assert session is not None
            assert session.node == record.target
        assert report.restore_mismatches == 0

    def test_dead_node_unroutable_afterwards(self):
        serving, _ = self.run_kill()
        late = Request("scale-00000", "scale-00000-late", 1e7, 2e7)
        # node1 lost its image replicas; survivors still serve.
        target = serving.route(late)
        assert target in ("node0", "node2")

    def test_kill_replay_byte_identical(self):
        reports = [self.run_kill()[1] for _ in range(2)]
        assert reports[0].fingerprint == reports[1].fingerprint

    def test_killing_all_nodes_orphans_backlog(self):
        specs, requests = small_trace(requests=200, rate=150_000.0)
        serving = build(2)
        serving.add_tenants(specs)
        report = serving.run(
            requests, node_kill_events=[(500.0, "node0"), (500.0, "node1")]
        )
        # whatever was in flight on the last corpse had nowhere to go
        assert report.orphaned >= 0
        if report.orphaned:
            assert report.audit_exactly_once() != []

    def test_node_table_marks_corpse(self):
        _, report = self.run_kill()
        table = report.node_table()
        assert "dead" in table
        assert "node1" in table


class TestSingleNodeOracle:
    """The cluster's differential oracle: with one node there is nothing
    to route, steal or migrate, so a 1-node cluster must serve a trace
    exactly as a bare single-node ``ServingSystem`` does.  Migration is
    off because tenant sessions pin SPM pages, which lengthens the crash
    scrub and so the recovery window."""

    GPUS = 2

    def serve_both(self, crash_events=()):
        specs, requests = small_trace(requests=600, rate=120_000.0)
        batching = dict(max_batch=8, max_delay_us=2_000.0)
        bare = ServingSystem(
            CronusSystem(TestbedConfig(num_gpus=self.GPUS)),
            service_model=synthetic_service_model(),
            **batching,
        )
        for spec in specs:
            bare.add_tenant(spec)
        bare_report = bare.run(
            requests, crash_events=[(t, device) for t, _, device in crash_events]
        )
        cluster = build(1, gpus=self.GPUS, migration=False, **batching)
        cluster.add_tenants(specs)
        report = cluster.run(requests, crash_events=crash_events)
        return bare_report, report

    @pytest.mark.parametrize("crash", [False, True], ids=["no-crash", "crash"])
    def test_one_node_cluster_matches_bare_engine(self, crash):
        crash_events = [(2_500.0, "node0", "gpu0")] if crash else []
        bare, report = self.serve_both(crash_events)
        node = report.per_node["node0"]
        assert list(node.completed) == list(bare.completed)
        assert node.completed == bare.completed
        assert node.fingerprint == bare.fingerprint
        assert report.slo_text == bare.slo_text
        assert node.crashes == bare.crashes == (("gpu0",) if crash else ())
        assert bare.audit_exactly_once() == []
        assert report.audit_exactly_once() == []
        assert report.makespan_us == bare.makespan_us
        assert len(bare.completed) > 0
