"""Checkpoint-migration of tenant state across cluster nodes.

Single-node failover (PR 4) re-queues requests because the partition
recovers *in place*; a node death takes the machine, so the only way a
tenant's enclave-resident state survives is the section III-B integration:
sealed checkpoints in untrusted storage (:mod:`repro.faults.checkpoint`)
restored onto a *different* machine's partition.

Each tenant served by the cluster gets a **session**: one secure SPM page
on its serving node holding deterministic per-tenant state (derived from
the tenant name, never all-zero — so the post-crash scrub audit is a real
byte check, not vacuous).  The session is sealed into one cluster-shared
:class:`CheckpointStore` the moment it is created; per-node
:class:`CheckpointManager` instances share the owner's *version counter
map*, so the monotonic rollback defense follows the tenant across nodes.

On a node kill the manager:

1. byte-audits every session page on the dead node — the SPM's panic
   scrub must have zeroed them (the migrated tenant's state must not be
   readable on the corpse);
2. restores each in-flight tenant's checkpoint onto a surviving node's
   partition (unseal -> verify bytes -> write into freshly allocated
   pages), bumping the session **generation** and re-sealing at the new
   home (version++);
3. reports a :class:`MigrationRecord` per tenant for the cluster
   fingerprint.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.faults.checkpoint import CheckpointManager, CheckpointStore
from repro.hw.memory import PAGE_SIZE

#: Bytes of per-tenant session state (fits one secure page).
SESSION_BYTES = 256


class MigrationError(Exception):
    """Restore onto a dead node, or a tenant without a session."""


def session_state(tenant: str) -> np.ndarray:
    """The tenant's deterministic session bytes: sha256-expanded from the
    name, mapped into 1..255 so every byte is non-zero (a scrubbed page
    can never equal live state)."""
    out = bytearray()
    counter = 0
    while len(out) < SESSION_BYTES:
        out.extend(hashlib.sha256(f"{tenant}#{counter}".encode()).digest())
        counter += 1
    arr = np.frombuffer(bytes(out[:SESSION_BYTES]), dtype=np.uint8)
    return (arr % 255 + 1).astype(np.uint8)


@dataclass
class TenantSession:
    """Where one tenant's enclave-resident state currently lives."""

    tenant: str
    node: str
    partition: str
    pages: Tuple[int, ...]
    version: int
    generation: int = 0


@dataclass(frozen=True)
class MigrationRecord:
    """One completed checkpoint-restore (for the log + fingerprint)."""

    t_us: float
    tenant: str
    source: str
    target: str
    version: int
    generation: int
    pages: int

    def line(self) -> str:
        return (
            f"{self.t_us:.3f} migrate {self.tenant} {self.source}->{self.target} "
            f"v{self.version} g{self.generation} pages={self.pages}"
        )


class MigrationManager:
    """Session lifecycle + the kill-path audit/restore machinery."""

    def __init__(self, owner_secret: bytes = b"cluster-owner-secret") -> None:
        self._secret = owner_secret
        self.store = CheckpointStore()
        self._versions: Dict[str, int] = {}
        self._managers: Dict[str, CheckpointManager] = {}
        self._sessions: Dict[str, TenantSession] = {}
        self._per_node_count: Dict[str, int] = {}
        self.records: List[MigrationRecord] = []
        self.scrub_pages_audited = 0
        self.scrub_violations = 0
        self.restore_mismatches = 0

    # -- per-node plumbing -------------------------------------------------
    def manager(self, node) -> CheckpointManager:
        mgr = self._managers.get(node.name)
        if mgr is None:
            mgr = CheckpointManager(
                self._secret, self.store, node.system.platform,
                versions=self._versions,
            )
            self._managers[node.name] = mgr
        return mgr

    def _pick_partition(self, node) -> str:
        """Round-robin sessions over the node's GPU partitions."""
        devices = node.gpu_devices()
        index = self._per_node_count.get(node.name, 0)
        self._per_node_count[node.name] = index + 1
        device = devices[index % len(devices)]
        return node.system.spm.partition_for_device(device).name

    # -- session lifecycle -------------------------------------------------
    def session(self, tenant: str) -> Optional[TenantSession]:
        return self._sessions.get(tenant)

    def sessions_on(self, node_name: str) -> List[TenantSession]:
        return [
            self._sessions[t]
            for t in sorted(self._sessions)
            if self._sessions[t].node == node_name
        ]

    def ensure_session(self, node, tenant: str) -> TenantSession:
        """Create the tenant's session on ``node`` (first touch only)."""
        session = self._sessions.get(tenant)
        if session is not None:
            return session
        state = session_state(tenant)
        partition_name = self._pick_partition(node)
        partition = node.system.spm.partition(partition_name)
        pages = node.system.spm.allocate_pages(partition, 1)
        partition.write(pages[0] * PAGE_SIZE, state.tobytes())
        version = self.manager(node).save(f"session:{tenant}", {"state": state})
        session = TenantSession(
            tenant=tenant, node=node.name, partition=partition_name,
            pages=pages, version=version,
        )
        self._sessions[tenant] = session
        return session

    def drop_session(self, tenant: str) -> None:
        self._sessions.pop(tenant, None)

    # -- the kill path -----------------------------------------------------
    def audit_scrub(self, node) -> int:
        """Byte-audit every session page on a just-killed node.

        Call *after* the node's partitions were failed: the SPM's panic
        path scrubs each partition's pages before reclaiming them, so
        every byte must read zero in raw memory; the check allocates no
        page it audits.  Returns the number of pages audited; violations
        are counted, not raised — they are a benchmark invariant (must
        be 0).
        """
        memory = node.system.platform.memory
        audited = 0
        for session in self.sessions_on(node.name):
            for page in session.pages:
                audited += 1
                if not memory.page_is_zero(page):
                    self.scrub_violations += 1
        self.scrub_pages_audited += audited
        return audited

    def restore(self, target, tenant: str, t_us: float) -> MigrationRecord:
        """Checkpoint-restore one tenant onto surviving node ``target``."""
        session = self._sessions.get(tenant)
        if session is None:
            raise MigrationError(f"tenant {tenant!r} has no session")
        if not target.alive:
            raise MigrationError(f"cannot restore onto dead node {target.name!r}")
        source = session.node
        payload = self.manager(target).load(f"session:{tenant}")
        state = payload["state"]
        if not np.array_equal(state, session_state(tenant)):
            self.restore_mismatches += 1
        partition_name = self._pick_partition(target)
        partition = target.system.spm.partition(partition_name)
        pages = target.system.spm.allocate_pages(partition, 1)
        partition.write(pages[0] * PAGE_SIZE, state.tobytes())
        # The restored session re-seals at its new home: the owner's
        # monotonic counter keeps advancing across the migration.
        version = self.manager(target).save(f"session:{tenant}", {"state": state})
        generation = session.generation + 1
        self._sessions[tenant] = TenantSession(
            tenant=tenant, node=target.name, partition=partition_name,
            pages=pages, version=version, generation=generation,
        )
        record = MigrationRecord(
            t_us=t_us, tenant=tenant, source=source, target=target.name,
            version=version, generation=generation, pages=len(pages),
        )
        self.records.append(record)
        obs = target.system.platform.obs
        if obs.enabled:
            obs.event(
                "recovery.migrate-restore", ts=t_us, category="recovery",
                partition=partition_name, tenant=tenant, source=source,
                target=target.name, version=version, generation=generation,
                pages=len(pages),
            )
        return record

    def blob_bytes(self, tenant: str) -> int:
        """Size of the tenant's latest sealed blob (the bytes that cross
        the untrusted network during a migration)."""
        return len(self.store.get_latest(f"session:{tenant}").sealed)
