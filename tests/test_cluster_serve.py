"""Sharded cluster serving: rendezvous routing, work stealing, node-kill
checkpoint migration, and byte-identical replay."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

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

    @settings(max_examples=200, deadline=None)
    @given(
        backlogs=st.lists(st.integers(0, 200), min_size=1, max_size=6),
        threshold=st.integers(-5, 150),
        key=st.text(min_size=1, max_size=8),
    )
    def test_lazy_route_matches_eager_rule(self, backlogs, threshold, key):
        """The route reads non-home backlogs only when the home is over
        the threshold, and still picks what the eager rule picks."""
        nodes = [f"node{i}" for i in range(len(backlogs))]
        backlog = dict(zip(nodes, backlogs))
        home = max(nodes, key=lambda n: (rendezvous_score(key, n), n))
        coolest = min(nodes, key=lambda n: (backlog[n], n))
        steal = len(nodes) > 1 and backlog[home] - backlog[coolest] > threshold
        router = ClusterRouter(ImageRegistry(), steal_threshold=threshold)
        reads = []

        class Recording(dict):
            def __getitem__(self, name):
                reads.append(name)
                return super().__getitem__(name)

        assert router.route(key, nodes, Recording(backlog)) == (coolest if steal else home)
        assert router.steals == int(steal)
        if backlog[home] <= threshold:
            assert set(reads) <= {home}

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

    def test_every_mutation_bumps_version(self):
        images = ImageRegistry()
        versions = [images.version]
        images.register("kernel:matmul", ["node0"])
        versions.append(images.version)
        images.replicate("kernel:matmul", "node1")
        versions.append(images.version)
        images.drop_node("node0")
        versions.append(images.version)
        assert versions == sorted(set(versions))


def routing_digest(lines):
    digest = hashlib.sha256()
    for rid, target in lines:
        digest.update(f"{rid}>{target}\n".encode())
    return digest.hexdigest()


class TestCandidateCache:
    """The cached candidate sets follow every registry mutation: the next
    route sees the new set."""

    def serve_in_two_runs(self, images, mutate):
        specs, requests = small_trace(requests=300)
        requests = sorted(requests, key=lambda r: (r.arrival_us, r.rid))
        half = len(requests) // 2
        serving = build(3, images=images, steal_threshold=10**9)
        serving.add_tenants(specs)
        serving.run(requests[:half])
        mutate(images)
        # Every arrival of the second run comes after the first run ended.
        serving.run(requests[half:])
        return serving, requests[:half], requests[half:]

    def expected_lines(self, serving, requests, candidates):
        return [(r.rid, serving.router.home(r.tenant, candidates)) for r in requests]

    @pytest.mark.parametrize(
        "before, mutate, after",
        [
            (["node0"], lambda images: images.replicate("kernel:matmul", "node2"),
             ["node0", "node2"]),
            (["node0", "node1", "node2"],
             lambda images: images.register("kernel:matmul", ["node1", "node2"]),
             ["node1", "node2"]),
        ],
        ids=["replicate", "register-removes"],
    )
    def test_registry_mutation_between_runs(self, before, mutate, after):
        images = ImageRegistry()
        images.register("kernel:matmul", before)
        serving, first, second = self.serve_in_two_runs(images, mutate)
        lines = self.expected_lines(serving, first, before)
        lines += self.expected_lines(serving, second, after)
        assert serving._routing_digest.hexdigest() == routing_digest(lines)
        routed = serving.report().routed
        assert routed == {
            name: sum(1 for _, target in lines if target == name)
            for name in ("node0", "node1", "node2")
        }
        for name in set(before) ^ set(after):
            assert any(target == name for _, target in lines)

    def test_drop_node_mid_run(self):
        specs, requests = small_trace(requests=300)
        serving = build(3, steal_threshold=10**9)
        serving.add_tenants(specs)
        cut = len(requests) // 2
        offer = serving.offer

        def offer_then_drop(request):
            if request.rid == requests[cut].rid:
                serving.images.drop_node("node1")  # node1 stays alive
            return offer(request)

        serving.offer = offer_then_drop
        report = serving.run(requests)
        ordered = sorted(requests, key=lambda r: (r.arrival_us, r.rid))
        at = next(i for i, r in enumerate(ordered) if r.rid == requests[cut].rid)
        everyone, rest = ["node0", "node1", "node2"], ["node0", "node2"]
        lines = self.expected_lines(serving, ordered[:at], everyone)
        lines += self.expected_lines(serving, ordered[at:], rest)
        assert serving._routing_digest.hexdigest() == routing_digest(lines)
        assert report.routed["node1"] == sum(1 for _, t in lines if t == "node1") > 0
        assert all(t != "node1" for _, t in lines[at:])


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

    def test_migration_stays_on_image_replicas(self):
        """Harvested work moves only to survivors holding its image: node2
        has no matmul replica, so it must receive nothing."""
        images = ImageRegistry()
        images.register("kernel:matmul", ["node0", "node1"])
        specs, requests = small_trace(requests=500, rate=150_000.0)
        serving = build(3, images=images)
        serving.add_tenants(specs)
        report = serving.run(requests, node_kill_events=[(1_500.0, "node1")])
        assert report.migrated_requests > 0
        assert report.per_node["node2"].admitted == set()
        assert report.per_node["node2"].completed == {}
        assert report.routed["node2"] == 0
        assert serving.migration.sessions_on("node2") == []
        assert {record.target for record in report.migrations} == {"node0"}
        assert report.audit_exactly_once() == []

    def test_harvest_without_replica_is_unroutable(self):
        """With the only matmul replica dead, harvested requests are
        counted unroutable and reported lost, never served elsewhere."""
        images = ImageRegistry()
        images.register("kernel:matmul", ["node1"])
        specs, requests = small_trace(requests=500, rate=150_000.0)
        serving = build(3, images=images)
        serving.add_tenants(specs)
        report = serving.run(requests, node_kill_events=[(1_500.0, "node1")])
        late = sum(1 for r in requests if r.arrival_us > 1_500.0)
        lost = [p for p in report.audit_exactly_once() if "never completed" in p]
        assert lost and report.unroutable == late + len(lost)
        assert report.migrated_requests == 0
        for name in ("node0", "node2"):
            assert report.per_node[name].admitted == set()

    def test_backlog_matches_brute_force(self):
        """At every offered arrival of a crash + node-kill run, each alive
        node's O(1) backlog equals parked + queued + still executing."""
        specs, requests = small_trace(requests=500, rate=150_000.0)
        serving = build(3)
        serving.add_tenants(specs)
        offer = serving.offer
        seen = {"checks": 0, "parked": 0, "busy": 0}

        def brute(node):
            now = node._now
            total = len(node._parked)
            for device in node._gpus:
                total += node.batcher.depth(device)
                total += sum(1 for t in node._inflight.get(device, ()) if t > now)
            return total

        def checked_offer(request):
            for ns in serving._alive():
                expected = brute(ns.serving)
                assert ns.serving.backlog() == expected, (request.rid, ns.name)
                seen["checks"] += 1
                seen["parked"] += bool(ns.serving._parked)
                seen["busy"] += expected > 0
            return offer(request)

        serving.offer = checked_offer
        report = serving.run(
            requests,
            node_kill_events=[(1_500.0, "node1")],
            crash_events=[(800.0, "node0", "gpu0"), (2_000.0, "node2", "gpu0")],
        )
        assert report.audit_exactly_once() == []
        assert seen["checks"] > len(requests) and seen["parked"] and seen["busy"]

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
