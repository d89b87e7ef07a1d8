"""Sharded cluster serving: N per-node frontends, one virtual timeline.

The section VII-C extension lifted to the serving layer: every
:class:`~repro.cluster.cluster.ClusterNode` runs its own complete
single-node :class:`~repro.serve.frontend.ServingSystem` (its own
admission controller, batcher, placer, SLO tracker — per-node admission
is the sharding story), and the :class:`ClusterServingSystem` merges
their event sources onto **one shared virtual timeline** on the
:mod:`repro.sim.events` kernel, driving each node through its public node
interface (``advance_to``, ``next_event_time``, ``flush_due``,
``backlog``, ``harvest``, ``adopt``, ``expire_parked``).  Event phases at
one instant follow a fixed order (node recoveries → migration deliveries
→ arrivals → node kills → partition crashes → node flushes → scrape) over
the cluster's deterministic node iteration order, so a cluster run
replays byte-identically from its seed.

Routing: each tenant has a **home node** by rendezvous (highest-random-
weight) hashing over the *alive nodes holding the request's enclave
image* (:mod:`repro.cluster.images`) — minimal movement when a node
dies, no coordination state.  When the home's backlog (pending + not-yet-
finished flushed work + parked) exceeds the cluster minimum by
``steal_threshold``, the request is **stolen** by the least-backlogged
candidate (cross-node placement scoring; ties break by node name).

Node-crash failover: a node kill harvests every admitted-but-unfinished
request on the corpse, fails its partitions (the SPM panic scrub runs),
**byte-audits** the migrated tenants' session pages as zero, then drives
:class:`~repro.cluster.migrate.MigrationManager` checkpoint/restore onto
surviving nodes that hold the requests' images; the harvested requests
are re-delivered there after the sealed blob's simulated network
transfer.  The
cluster-level exactly-once audit closes over *all* nodes, so a migrated
rid completing on two machines, or on none, is a reported violation.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from repro.cluster.cluster import Cluster, ClusterError, ClusterNode
from repro.cluster.images import ImageRegistry
from repro.cluster.migrate import MigrationManager, MigrationRecord
from repro.metrics.report import format_table
from repro.serve.admission import Request
from repro.serve.frontend import ServingReport, ServingSystem
from repro.serve.slo import SLOTracker
from repro.serve.tenants import TenantSpec
from repro.sim.events import EventKernel, Schedule, Source, Timers

_ARRIVAL_ORDER = attrgetter("arrival_us", "rid")
_ARRIVAL_TIME = attrgetter("arrival_us")

#: Rejection recorded when no alive node holds the request's image.
REJECT_NO_IMAGE = "no-image-replica"

#: Bound on the memoized ``(key, node)`` rendezvous scores.
SCORE_MEMO_CAP = 1 << 14


def request_image(request: Request) -> str:
    """The enclave image a serving request needs (``kernel:<kind>``)."""
    return f"kernel:{request.kind}"


@functools.lru_cache(maxsize=SCORE_MEMO_CAP)
def rendezvous_score(key: str, node: str) -> int:
    """Deterministic HRW weight of ``key`` on ``node``.  Memoized: the
    score is a pure function of two public strings."""
    digest = hashlib.sha256(f"{key}|{node}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class _NodeState:
    """One node's serving frontend plus its cluster-side bookkeeping."""

    __slots__ = ("node", "name", "serving", "alive", "routed")

    def __init__(self, node: ClusterNode, serving: ServingSystem) -> None:
        self.node = node
        self.name = node.name
        self.serving = serving
        self.alive = True
        self.routed = 0


class ClusterRouter:
    """Rendezvous sharding + backlog-threshold work stealing."""

    def __init__(self, images: ImageRegistry, *, steal_threshold: int = 64) -> None:
        self.images = images
        self.steal_threshold = steal_threshold
        self.steals = 0

    def home(self, key: str, candidates: Sequence[str]) -> str:
        """The HRW winner among ``candidates`` (must be non-empty)."""
        scores = map(rendezvous_score, repeat(key), candidates)
        return max(zip(scores, candidates))[1]

    def route(
        self, key: str, candidates: Sequence[str], backlog: Mapping[str, int]
    ) -> str:
        """Home node, unless its backlog is ``steal_threshold`` over the
        least-loaded candidate — then the least-loaded candidate steals
        (ties break by name).  Backlogs are non-negative counts, so a home
        at or under the threshold keeps the request and the other
        candidates' backlogs are not read."""
        home = self.home(key, candidates)
        if len(candidates) == 1:
            return home
        home_backlog = backlog[home]
        if home_backlog <= self.steal_threshold:
            return home
        coolest_backlog, coolest = min(
            zip(map(backlog.__getitem__, candidates), candidates)
        )
        if home_backlog - coolest_backlog > self.steal_threshold:
            self.steals += 1
            return coolest
        return home


class _Backlogs(dict):
    """node name -> backlog, read from the node on first lookup."""

    __slots__ = ("_states",)

    def __init__(self, states: Dict[str, _NodeState]) -> None:
        super().__init__()
        self._states = states

    def __missing__(self, name: str) -> int:
        value = self[name] = self._states[name].serving.backlog()
        return value


@dataclass
class ClusterReport:
    """Outcome of one :meth:`ClusterServingSystem.run`."""

    node_names: Tuple[str, ...]
    slo_text: str
    """The cluster-merged per-tenant SLO table."""
    fingerprint: str
    """sha256 over the merged SLO table, the routing digest, the steal
    count, every node's own fingerprint and the kill/migration logs —
    byte-identical across replays of the same trace."""
    makespan_us: float
    per_node: Dict[str, ServingReport]
    routed: Dict[str, int]
    steals: int
    unroutable: int
    node_kills: Tuple[Tuple[float, str], ...]
    migrations: Tuple[MigrationRecord, ...]
    migrated_requests: int
    orphaned: int
    scrub_pages_audited: int
    scrub_violations: int
    restore_mismatches: int
    completed_total: int = 0
    deadline_met_total: int = 0
    expired_total: int = 0
    rejected_total: int = 0
    restart_counters: Dict[str, int] = field(default_factory=dict)

    @property
    def throughput_rps(self) -> float:
        """Deadline-met completions per simulated second of makespan."""
        if self.makespan_us <= 0:
            return 0.0
        return self.deadline_met_total / (self.makespan_us / 1e6)

    def audit_exactly_once(self) -> List[str]:
        """The cluster-wide exactly-once audit: every admitted rid reaches
        exactly one terminal state on exactly one node."""
        problems: List[str] = []
        admitted: Set[str] = set()
        expired: Set[str] = set()
        rejected_after: Set[str] = set()
        completed_on: Dict[str, List[str]] = {}
        duplicates_avoided = 0
        for name in self.node_names:
            rep = self.per_node[name]
            admitted |= rep.admitted
            expired |= rep.expired
            rejected_after |= rep.rejected_after_admit
            duplicates_avoided += rep.duplicates_avoided
            for rid in rep.completed:
                completed_on.setdefault(rid, []).append(name)
        completed = set(completed_on)
        for rid in sorted(completed_on):
            nodes = completed_on[rid]
            if len(nodes) > 1:
                problems.append(f"{rid}: completed on {len(nodes)} nodes {nodes}")
        for rid in sorted(completed & expired):
            problems.append(f"{rid}: both completed and expired")
        terminal = completed | expired | rejected_after
        lost = admitted - terminal
        if self.orphaned:
            problems.append(f"{self.orphaned} migrated request(s) orphaned")
        for rid in sorted(lost):
            problems.append(f"{rid}: admitted but never completed nor expired")
        for rid in sorted(completed - admitted):
            problems.append(f"{rid}: completed without admission")
        if duplicates_avoided:
            problems.append(
                f"{duplicates_avoided} completed request(s) were re-queued"
            )
        return problems

    def node_table(self) -> str:
        """A per-node summary table (the CLI's scale view)."""
        rows = []
        for name in self.node_names:
            rep = self.per_node[name]
            rows.append([
                name,
                "dead" if any(n == name for _, n in self.node_kills) else "alive",
                self.routed.get(name, 0),
                len(rep.admitted),
                len(rep.completed),
                len(rep.expired),
                self.restart_counters.get(name, 0),
                f"{rep.makespan_us:.1f}",
            ])
        return format_table(
            ["node", "state", "routed", "admitted", "completed", "expired",
             "restarts", "makespan_us"],
            rows,
        )


class ClusterServingSystem(EventKernel):
    """The sharded multi-node serving frontend."""

    def __init__(
        self,
        cluster: Cluster,
        *,
        max_batch: int = 8,
        max_delay_us: float = 2_000.0,
        kernels: Tuple[str, ...] = ("matmul",),
        service_model=None,
        images: Optional[ImageRegistry] = None,
        steal_threshold: int = 64,
        migration: bool = True,
        attest: bool = True,
        telemetry: Optional[object] = None,
    ) -> None:
        self.cluster = cluster
        self.telemetry = telemetry
        if attest:
            alive = [n for n in cluster if n.alive]
            if not all(n.attested for n in alive):
                cluster.attest_mesh()
        members = cluster.attested_nodes() if attest else [n for n in cluster if n.alive]
        if not members:
            raise ClusterError("no attested alive nodes to serve on")
        self.images = images if images is not None else ImageRegistry()
        if images is None:
            for kind in kernels:
                self.images.register(f"kernel:{kind}", [n.name for n in members])
        self.router = ClusterRouter(self.images, steal_threshold=steal_threshold)
        self.migration: Optional[MigrationManager] = (
            MigrationManager() if migration else None
        )
        self._states: Dict[str, _NodeState] = {}
        for node in members:
            serving = ServingSystem(
                node.system,
                max_batch=max_batch,
                max_delay_us=max_delay_us,
                kernels=kernels,
                service_model=service_model,
            )
            if telemetry is not None:
                # Per-node attach: every scraped key carries node=<name>,
                # and the node's completion paths feed its tail sampler.
                source = telemetry.attach(
                    node.system, slo=serving.slo, node=node.name
                )
                serving.bind_telemetry(source)
            self._states[node.name] = _NodeState(node, serving)
        if telemetry is not None:
            telemetry.add_extra(self._telemetry_extra)
        self._routing_digest = hashlib.sha256()
        self.unroutable = 0
        self.node_kills: List[Tuple[float, str]] = []
        self.migrated_requests = 0
        self.orphaned = 0
        self._pending_migrations: List[Tuple[float, int, str, Request]] = []
        self._migration_seq = 0
        self._order = {
            name: i
            for i, name in enumerate(n.name for n in cluster if n.name in self._states)
        }
        """node name -> its slot in the cluster's iteration order."""
        self._alive_cache: Optional[List[_NodeState]] = None
        self._candidate_cache: Dict[str, List[str]] = {}
        self._candidate_version: Optional[int] = None
        """The ``ImageRegistry.version`` the candidate cache was built at."""
        self._node_next = Timers()
        """alive node -> its ``next_event_time()``, exact for clean nodes."""
        self._dirty: Set[str] = set()
        """Alive nodes touched since the last peek: their cached next-event
        time is stale, and the flush phase visits them."""

    # -- membership --------------------------------------------------------
    def _alive(self) -> List[_NodeState]:
        """Alive node states, cluster iteration order (deterministic).
        Cached until a node dies; callers must not mutate the list."""
        alive = self._alive_cache
        if alive is None:
            alive = self._alive_cache = [
                self._states[name] for name in self._order if self._states[name].alive
            ]
        return alive

    def node_state(self, name: str) -> _NodeState:
        return self._states[name]

    # -- tenants -----------------------------------------------------------
    def add_tenants(self, specs: Iterable[TenantSpec]) -> None:
        """Register every spec on every node (per-node admission state)."""
        for spec in specs:
            for ns in self._alive():
                ns.serving.add_tenant(spec)

    # -- telemetry ---------------------------------------------------------
    def _telemetry_extra(self) -> Dict[str, float]:
        """Deployment-level cumulative counters (no single node owns
        them) scraped alongside the per-node registries."""
        migration = self.migration
        return {
            "cluster/scrub_violations": float(
                migration.scrub_violations if migration is not None else 0
            ),
            "cluster/restore_mismatches": float(
                migration.restore_mismatches if migration is not None else 0
            ),
            "cluster/migrated_requests": float(self.migrated_requests),
            "cluster/orphaned": float(self.orphaned),
            "cluster/steals": float(self.router.steals),
            "cluster/unroutable": float(self.unroutable),
        }

    # -- routing -----------------------------------------------------------
    def _candidates(self, image: str) -> List[str]:
        """Alive nodes holding ``image``, sorted.  Cached per image until
        the registry mutates (its ``version`` moves) or a node dies;
        callers must not mutate the list."""
        if self._candidate_version != self.images.version:
            self._candidate_cache.clear()
            self._candidate_version = self.images.version
        candidates = self._candidate_cache.get(image)
        if candidates is None:
            candidates = self._candidate_cache[image] = [
                name for name in self.images.nodes_for(image)
                if name in self._states and self._states[name].alive
            ]
        return candidates

    def route(self, request: Request) -> Optional[str]:
        """The node this request lands on, or None if unroutable."""
        candidates = self._candidates(request_image(request))
        if not candidates:
            return None
        return self.router.route(request.tenant, candidates, _Backlogs(self._states))

    def _unroutable(self, request: Request) -> None:
        self.unroutable += 1
        self._routing_digest.update(f"{request.rid}>!\n".encode())

    def offer(self, request: Request) -> Optional[str]:
        """Route + offer one request at its arrival instant; returns the
        serving node's name (None = no image replica alive)."""
        target = self.route(request)
        if target is None:
            self._unroutable(request)
            return None
        ns = self._states[target]
        if self.migration is not None:
            self.migration.ensure_session(ns.node, request.tenant)
        ns.routed += 1
        self._routing_digest.update(f"{request.rid}>{target}\n".encode())
        ns.serving.offer(request)
        self._dirty.add(target)
        return target

    # -- node-crash failover -----------------------------------------------
    def migration_delay_us(self, blob_bytes: int) -> float:
        """Simulated cost of moving one sealed checkpoint between nodes:
        a network round trip plus the blob's transfer over the untrusted
        network plus seal/unseal at both ends (see ``docs/costmodel.md``)."""
        costs = self.cluster.costs
        transfer = costs.copy_cost_us(blob_bytes, per_kib=costs.network_us_per_kib)
        cipher = 2.0 * costs.copy_cost_us(blob_bytes, per_kib=costs.encryption_us_per_kib)
        return costs.network_rtt_us + transfer + cipher

    def kill_node(self, name: str) -> List[Request]:
        """A whole machine dies at the current instant.

        Harvests every admitted-but-unfinished request, scrubs + audits
        the corpse, checkpoint-restores in-flight tenants' sessions onto
        surviving nodes and schedules the harvested requests for delivery
        there after the migration transfer delay.  Returns the harvested
        requests (primarily for tests)."""
        ns = self._states.get(name)
        if ns is None or not ns.alive:
            return []
        # The machine analog of the partition panic: every partition
        # fails, and the SPM scrub runs on the way down.
        unfinished = ns.serving.harvest()
        if self.migration is not None:
            self.migration.audit_scrub(ns.node)
        ns.alive = False
        self._alive_cache = None
        self._node_next.pop(name, None)
        self._dirty.discard(name)
        ns.node.fail()
        self.images.drop_node(name)  # bumps images.version: candidates recompute
        self.node_kills.append((self._now, name))
        obs = ns.node.system.platform.obs
        if obs.enabled:
            # One marker on the corpse's own recorder so the recovery
            # trace attached to the node-death page is never empty, even
            # when every partition was already mid-recovery.
            obs.event(
                "recovery.node-kill", ts=self._now, category="recovery",
                node=name, harvested=len(unfinished),
            )
        survivors = self._alive()
        if not survivors:
            self.orphaned += len(unfinished)
            if self.telemetry is not None:
                self.telemetry.node_killed(self._now, name)
            return unfinished
        by_tenant: Dict[str, List[Request]] = {}
        for request in unfinished:
            by_tenant.setdefault(request.tenant, []).append(request)
        for tenant in sorted(by_tenant):
            # Each request moves to its tenant's rendezvous home among the
            # survivors holding its image, the rule routing uses; with no
            # such survivor it is unroutable.
            targets: List[Tuple[str, Request]] = []
            for request in by_tenant[tenant]:
                target = self._migration_target(request)
                if target is None:
                    self._unroutable(request)
                else:
                    targets.append((target, request))
            if not targets:
                continue
            delay = self.cluster.costs.network_rtt_us
            if self.migration is not None:
                session = self.migration.session(tenant)
                if session is not None and session.node == name:
                    # The tenant's enclave state was on the corpse:
                    # checkpoint-restore onto its first request's target.
                    self.migration.restore(
                        self._states[targets[0][0]].node, tenant, self._now
                    )
                    delay = self.migration_delay_us(
                        self.migration.blob_bytes(tenant)
                    )
            for target, request in targets:
                self._migration_seq += 1
                heapq.heappush(
                    self._pending_migrations,
                    (self._now + delay, self._migration_seq, target, request),
                )
        if self.migration is not None:
            # Sessions of idle tenants died with the node; a later arrival
            # re-creates them (their sealed checkpoints remain in the store).
            for session in self.migration.sessions_on(name):
                self.migration.drop_session(session.tenant)
        if self.telemetry is not None:
            # After the restores: the captured recovery trace then covers
            # the corpse's scrub spans up to the migration hand-off.
            self.telemetry.node_killed(self._now, name)
        return unfinished

    def _migration_target(self, request: Request) -> Optional[str]:
        """The rendezvous home of a migrated request among the alive nodes
        holding its image (no stealing: the backlog moves as one)."""
        candidates = self._candidates(request_image(request))
        return self.router.home(request.tenant, candidates) if candidates else None

    def _next_migration(self) -> Optional[float]:
        heap = self._pending_migrations
        return heap[0][0] if heap else None

    def _deliver_migrations(self, now: float) -> None:
        """Adopt every migrated request whose transfer has landed."""
        heap = self._pending_migrations
        while heap and heap[0][0] <= now:
            _, _, target_name, request = heapq.heappop(heap)
            ns = self._states.get(target_name)
            if ns is None or not ns.alive:
                # The restore target died in transit: re-route among the
                # remaining survivors (no further delay — the blob is
                # already off the first corpse).
                if not self._alive():
                    self.orphaned += 1
                    continue
                target_name = self._migration_target(request)
                if target_name is None:
                    self._unroutable(request)
                    continue
                ns = self._states[target_name]
            self.migrated_requests += 1
            ns.serving.adopt(request)
            self._dirty.add(target_name)

    # -- the cluster's event sources ---------------------------------------
    # A node's next-event time only moves when the cluster touches the node
    # (offer, adopt, crash, flush, a due recovery), so it is cached in
    # ``_node_next`` and re-read only for the nodes ``_dirty`` names.
    def _next_node_event(self) -> Optional[float]:
        dirty, timers = self._dirty, self._node_next
        if dirty:
            for name in dirty:
                t = self._states[name].serving.next_event_time()
                if t is None:
                    timers.pop(name, None)
                elif timers.get(name) != t:
                    timers.set(name, t)
            dirty.clear()
        return timers.peek() if timers else None

    def _advance_nodes(self, now: float) -> None:
        for ns in self._alive():
            ns.serving.advance_to(now)
        # Nodes with a recovery or flush due now: their cached time is spent.
        timers = self._node_next
        while (name := timers.pop_due(now)) is not None:
            self._dirty.add(name)

    def _flush_nodes(self, now: float) -> None:
        # Due nodes joined ``_dirty`` in the first phase; a node that is
        # neither touched nor due has nothing to flush.
        dirty = self._dirty
        if dirty:
            for name in sorted(dirty, key=self._order.__getitem__):
                self._states[name].serving.flush_due(now)

    def _crash(self, event: Tuple[float, str, str]) -> None:
        _, node, device = event
        ns = self._states.get(node)
        if ns is not None and ns.alive:
            ns.serving.crash_partition(device)
            self._dirty.add(node)

    def _expire_parked(self) -> None:
        # Stream over: anything still parked on an alive node can never
        # run (same backstop as the single-node engine).
        for ns in self._alive():
            ns.serving.expire_parked()

    def run(
        self,
        arrivals: Iterable[Request],
        *,
        node_kill_events: Sequence[Tuple[float, str]] = (),
        crash_events: Sequence[Tuple[float, str, str]] = (),
    ) -> ClusterReport:
        """Serve an open-loop arrival stream across the cluster.

        ``node_kill_events`` is a list of ``(time_us, node)`` machine
        deaths; ``crash_events`` a list of ``(time_us, node, device)``
        single-partition crashes (the figure-9 scenario on a named node).
        An unknown node or partition raises :class:`ClusterError` before
        any arrival; an event on a node already dead when it fires skips.
        """
        kills = sorted(node_kill_events)
        for _, name in kills:
            self.cluster.node(name)  # raises ClusterError for an unknown node
        crashes = sorted(crash_events)
        for t_us, name, device in crashes:
            if device not in self.cluster.node(name).system.moses:
                raise ClusterError(f"crash event at {t_us}: {name} has no {device!r}")
        pending = sorted(arrivals, key=_ARRIVAL_ORDER)
        self._dirty.update(ns.name for ns in self._alive())
        self._run_events(
            [
                Source(self._next_node_event, self._advance_nodes),
                Source(self._next_migration, self._deliver_migrations),
                Schedule(pending, self.offer, at=_ARRIVAL_TIME),
                Schedule(kills, lambda event: self.kill_node(event[1])),
                Schedule(crashes, self._crash),
                Source(None, self._flush_nodes),
            ],
            telemetry=self.telemetry,
            drain=self._expire_parked,
        )
        return self.report()

    # -- reporting ---------------------------------------------------------
    def cluster_metrics(self, into=None):
        """Merge every node's instruments into one registry, each layer
        prefixed ``node=<name>:`` so same-named per-node instruments
        (``part-gpu0``, ``spm``, ``tracer`` …) never collide."""
        from repro.obs import collect_system_metrics
        from repro.obs.metric import MetricsRegistry

        registry = into if into is not None else MetricsRegistry(enabled=True)
        for name in self._order:
            collect_system_metrics(
                self._states[name].node.system, node=name, into=registry
            )
        return registry

    def _merged_slo(self) -> SLOTracker:
        merged = SLOTracker()
        for ns in map(self._states.__getitem__, self._order):
            for tenant, acct in sorted(ns.serving.slo.accounts().items()):
                into = merged.account(tenant)
                into.offered += acct.offered
                into.admitted += acct.admitted
                into.completed += acct.completed
                into.deadline_met += acct.deadline_met
                into.expired += acct.expired
                into.requeued += acct.requeued
                into.duplicates_avoided += acct.duplicates_avoided
                for reason, count in acct.rejected.items():
                    into.rejected[reason] = into.rejected.get(reason, 0) + count
                into.latencies.extend(acct.latencies)
                if acct.first_arrival_us is not None and (
                    into.first_arrival_us is None
                    or acct.first_arrival_us < into.first_arrival_us
                ):
                    into.first_arrival_us = acct.first_arrival_us
                into.last_deadline_us = max(into.last_deadline_us, acct.last_deadline_us)
        return merged

    def report(self) -> ClusterReport:
        node_names = tuple(self._order)
        per_node = {name: self._states[name].serving.report() for name in node_names}
        merged = self._merged_slo()
        slo_text = merged.table()
        completed_total = deadline_met_total = expired_total = rejected_total = 0
        for acct in merged.accounts().values():
            completed_total += acct.completed
            deadline_met_total += acct.deadline_met
            expired_total += acct.expired
            rejected_total += acct.rejected_total
        migration = self.migration
        lines = [
            f"nodes={','.join(node_names)}",
            f"slo={hashlib.sha256(slo_text.encode()).hexdigest()}",
            f"routing={self._routing_digest.hexdigest()}",
            f"steals={self.router.steals} unroutable={self.unroutable}",
        ]
        lines += [
            f"node {name} {per_node[name].fingerprint} "
            f"completed={len(per_node[name].completed)}"
            for name in node_names
        ]
        lines += [f"{t:.3f} kill {name}" for t, name in self.node_kills]
        if migration is not None:
            lines += [record.line() for record in migration.records]
        fingerprint = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        return ClusterReport(
            node_names=node_names,
            slo_text=slo_text,
            fingerprint=fingerprint,
            makespan_us=max(
                [self._now]
                + [per_node[name].makespan_us for name in node_names]
            ),
            per_node=per_node,
            routed={name: self._states[name].routed for name in node_names},
            steals=self.router.steals,
            unroutable=self.unroutable,
            node_kills=tuple(self.node_kills),
            migrations=tuple(migration.records) if migration is not None else (),
            migrated_requests=self.migrated_requests,
            orphaned=self.orphaned,
            scrub_pages_audited=migration.scrub_pages_audited if migration else 0,
            scrub_violations=migration.scrub_violations if migration else 0,
            restore_mismatches=migration.restore_mismatches if migration else 0,
            completed_total=completed_total,
            deadline_met_total=deadline_met_total,
            expired_total=expired_total,
            rejected_total=rejected_total,
            restart_counters=self.cluster.restart_counters(),
        )
