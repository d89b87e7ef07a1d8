"""The section VII-C distributed extension: mesh attestation, scheduling,
cross-node training, node-failure rescheduling."""

from dataclasses import replace

import pytest

from repro.cluster import Cluster, ClusterError, ClusterServingSystem, distributed_train
from repro.crypto import CertificateAuthority
from repro.crypto.keys import Signature


def _forge_report_signature(node):
    """Make ``node`` present platform reports with a forged signature."""
    honest = node.system.attest_platform

    def forged():
        report = honest()
        sig = report.signature
        return replace(report, signature=Signature(sig.e, sig.s ^ 2))

    node.system.attest_platform = forged


def _endorse_by_rogue_service(node):
    """Give ``node`` its own attestation service and have it re-endorse
    the node's AtK, so the node vouches for itself."""
    rogue = CertificateAuthority("attestation-service", b"rogue-attestation-service")
    node.system.platform.attestation_service = rogue
    honest = node.system.attest_platform

    def self_endorsed():
        report = honest()
        cert = rogue.endorse("AtK", report.atk_certificate.subject)
        return replace(report, atk_certificate=cert)

    node.system.attest_platform = self_endorsed


class TestClusterMesh:
    def test_mesh_attestation_counts(self):
        cluster = Cluster(num_nodes=3)
        assert cluster.attest_mesh() == 3 * 2  # pairwise, directed
        assert len(cluster.attested_nodes()) == 3

    def test_dead_node_excluded_from_mesh(self):
        cluster = Cluster(num_nodes=3)
        cluster.fail_node("node2")
        assert cluster.attest_mesh() == 2 * 1
        assert len(cluster.attested_nodes()) == 2

    def test_capacity_check(self):
        cluster = Cluster(num_nodes=2)
        cluster.attest_mesh()
        with pytest.raises(ClusterError, match="attested nodes"):
            cluster.require_capacity(3)

    def test_unknown_node(self):
        with pytest.raises(ClusterError, match="no node"):
            Cluster(num_nodes=1).fail_node("node9")

    def test_attestation_charges_network_time(self):
        cluster = Cluster(num_nodes=2)
        before = [n.system.clock.now for n in cluster.nodes]
        cluster.attest_mesh()
        after = [n.system.clock.now for n in cluster.nodes]
        assert all(b < a for b, a in zip(before, after))

    def test_attestation_clocks_match_golden(self):
        """Simulated cost of the 8-node mesh, recorded before the host-side
        signature memo: each node's report and round trips still cost the
        same virtual time."""
        cluster = Cluster(num_nodes=8, gpus_per_node=2)
        assert cluster.attest_mesh() == 8 * 7
        assert [n.system.clock.now for n in cluster.nodes] == [721400.0] * 8

    def test_lone_node_is_attested(self):
        cluster = Cluster(num_nodes=1)
        assert cluster.attest_mesh() == 0
        assert cluster.attested_nodes() == cluster.nodes

    def test_forged_report_expels_only_that_node(self):
        cluster = Cluster(num_nodes=3)
        _forge_report_signature(cluster.node("node2"))
        assert cluster.attest_mesh() == 3 * 2 - 2  # nobody verified node2
        assert [n.name for n in cluster.attested_nodes()] == ["node0", "node1"]
        serving = ClusterServingSystem(cluster)
        assert serving.node_state("node0").node is cluster.node("node0")
        assert serving.node_state("node1").node is cluster.node("node1")
        with pytest.raises(KeyError):
            serving.node_state("node2")

    def test_reattestation_readmits_a_repaired_node(self):
        cluster = Cluster(num_nodes=2)
        node = cluster.node("node1")
        honest = node.system.attest_platform
        _forge_report_signature(node)
        cluster.attest_mesh()
        assert not node.attested
        node.system.attest_platform = honest
        cluster.attest_mesh()
        assert node.attested

    def test_verifier_uses_its_own_anchors(self):
        """A node cannot supply the anchor it is checked against: an AtK
        endorsed by a rogue attestation service is rejected by every
        peer, while the rogue node's own (provisioned) checks still pass."""
        cluster = Cluster(num_nodes=3)
        _endorse_by_rogue_service(cluster.node("node2"))
        assert cluster.attest_mesh() == 3 * 2 - 2
        assert [n.name for n in cluster.attested_nodes()] == ["node0", "node1"]

    def test_empty_cluster_rejected(self):
        with pytest.raises(ClusterError):
            Cluster(num_nodes=0)


class TestClusterMembership:
    def test_iteration_is_creation_order(self):
        cluster = Cluster(num_nodes=4)
        assert [n.name for n in cluster] == ["node0", "node1", "node2", "node3"]
        assert len(cluster) == 4

    def test_iteration_order_survives_node_death(self):
        """The router's same-instant event processing depends on a stable
        order; a dead node keeps its slot."""
        cluster = Cluster(num_nodes=3)
        cluster.fail_node("node1")
        assert [n.name for n in cluster] == ["node0", "node1", "node2"]

    def test_node_for_lookup(self):
        cluster = Cluster(num_nodes=2)
        assert cluster.node_for("node1") is cluster.nodes[1]
        assert cluster.node_for("node9") is None

    def test_gpu_devices_sorted(self):
        node = Cluster(num_nodes=1, gpus_per_node=3).nodes[0]
        assert node.gpu_devices() == ["gpu0", "gpu1", "gpu2"]

    def test_restart_counters_track_partition_recoveries(self):
        cluster = Cluster(num_nodes=2, gpus_per_node=2)
        assert cluster.restart_counters() == {"node0": 0, "node1": 0}
        node = cluster.node("node0")
        node.system.fail_partition("gpu1")
        assert node.partition_restarts()["part-gpu1"] == 1
        assert node.restarts() == 1
        assert cluster.restart_counters() == {"node0": 1, "node1": 0}

    def test_restart_counters_include_dead_nodes(self):
        cluster = Cluster(num_nodes=2)
        cluster.node("node1").system.fail_partition("gpu0")
        cluster.fail_node("node1")
        assert cluster.restart_counters()["node1"] == 1


class TestAllreduceCost:
    def test_single_node_free(self):
        assert Cluster(num_nodes=1).allreduce_time_us(1 << 20, 1) == 0.0

    def test_network_costs_more_than_intra_machine(self):
        """Locality matters: cross-node exchange (encrypted network) is far
        more expensive than intra-machine PCIe P2P for the same volume."""
        from repro.sim.costs import CostModel
        from repro.workloads.distributed import comm_time_us

        cluster = Cluster(num_nodes=2)
        volume = 1 << 20
        cross = cluster.allreduce_time_us(volume, 2)
        intra = comm_time_us(CostModel(), volume, 2, "p2p")
        assert cross > 10 * intra

    def test_grows_with_participants(self):
        cluster = Cluster(num_nodes=4)
        assert cluster.allreduce_time_us(1 << 20, 4) > cluster.allreduce_time_us(1 << 20, 2)


class TestDistributedTraining:
    def test_scaling_reduces_time(self):
        times = {}
        for n in (1, 2):
            cluster = Cluster(num_nodes=2)
            times[n] = distributed_train(cluster, nodes=n, total_samples=64).total_time_us
        assert times[2] < times[1]

    def test_node_failure_rescheduled(self):
        cluster = Cluster(num_nodes=2)
        result = distributed_train(
            cluster, nodes=2, total_samples=96, fail_node_at_step=1
        )
        assert result.reschedules == 1
        # The job still finished (survivor processed the remaining shards).
        assert result.steps >= 3
        assert not cluster.node("node1").alive

    def test_all_nodes_failing_loses_job(self):
        cluster = Cluster(num_nodes=1)
        cluster.attest_mesh()
        with pytest.raises(ClusterError, match="all nodes failed|attested nodes"):
            cluster.fail_node("node0")
            distributed_train(cluster, nodes=1, total_samples=32)

    def test_losses_finite_and_steps_counted(self):
        cluster = Cluster(num_nodes=2)
        result = distributed_train(cluster, nodes=2, total_samples=64)
        import numpy as np

        assert np.isfinite(result.final_loss)
        assert result.steps == 2  # 64 samples / (16 batch * 2 nodes)
        assert result.comm_time_us > 0
