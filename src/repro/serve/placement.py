"""Spatial-sharing-aware placement of requests onto partitions.

The dispatcher's single ``reserved_bytes`` heuristic is blind to the two
quantities that actually govern multi-tenant accelerator latency in the
paper's model: how many live contexts share the device (MPS utilization
degrades with tenant count, section V / figure 11a) and how much work is
already queued ahead of the new request.  The placer scores every READY
candidate partition on all three signals and picks the minimum, with the
partition name as a deterministic tie-break; pinned requests bypass
scoring but still respect readiness.

Host-speed design: the context and reserved-bytes score terms come from
attribute chains deep in the mEnclave stack, and they only change when the
serving layer *does something* to the partition — executes a batch on it,
crashes it, or recovers it.  In ``incremental`` mode (how the
:class:`~repro.serve.frontend.ServingSystem` constructs its placer) those
terms are cached per device and recomputed only for devices in the dirty
set (``mark_dirty``), so a placement is a running-min pass over cached
floats plus one O(1) queue-depth lookup per candidate, instead of
rescoring every partition through the attribute chains and sorting the
result.  The candidate index holds ``(device name, mOS)`` pairs and the
loop reads clean terms straight from the cache, so the only call made per
ready candidate is that depth lookup.  The floating-point evaluation order
of the score is kept exactly as the full recompute's, so incremental and
full scoring are bit-equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Mapping, Optional, Set, Sized, Tuple, Union

from repro.dispatch.dispatcher import DispatchError, EnclaveDispatcher, NoReadyPartition
from repro.secure.partition import PartitionState


class PlacementError(DispatchError):
    """No partition can host the request (and none will after recovery)."""


@dataclass(frozen=True)
class PartitionScore:
    """One candidate's scoring breakdown (kept for observability)."""

    device_name: str
    live_contexts: int
    queue_depth: int
    reserved_bytes: int
    score: float


DepthSource = Union[Mapping[str, int], Callable[[str], int]]


class SpatialPlacer:
    """Scores partitions by live contexts, queue depth and reserved bytes."""

    def __init__(
        self,
        dispatcher: EnclaveDispatcher,
        *,
        weight_contexts: float = 1.0,
        weight_queue: float = 0.25,
        weight_reserved_per_gib: float = 0.5,
        incremental: bool = False,
    ) -> None:
        self._dispatcher = dispatcher
        self.weight_contexts = weight_contexts
        self.weight_queue = weight_queue
        self.weight_reserved_per_gib = weight_reserved_per_gib
        self.placements = 0
        self._incremental = incremental
        self._registered = -1
        """Dispatcher registration count the candidate index was built at."""
        self._by_type: Dict[str, List[Tuple[str, object]]] = {}
        """device type -> name-sorted (device name, mOS) candidate pairs."""
        self._by_name: Dict[str, object] = {}
        self._dirty: Set[str] = set()
        self._cached: Dict[str, Tuple[float, float, int, int]] = {}
        """device -> (contexts_term, reserved_term, contexts, reserved)."""

    # -- candidate index ---------------------------------------------------
    def _sync(self) -> None:
        """Rebuild the device indexes when the dispatcher learned about new
        partitions (registration is append-only)."""
        registered = self._dispatcher.registered
        if registered == self._registered:
            return
        self._registered = registered
        self._by_type = {}
        self._by_name = {}
        for mos in self._dispatcher.moses():
            name = mos.partition.device.name
            # Candidates sorted by device name so a running-min pass with a
            # strict `<` reproduces the (score, name) sort order exactly.
            self._by_type.setdefault(mos.device_type, []).append((name, mos))
            self._by_name[name] = mos
            self._dirty.add(name)
        for candidates in self._by_type.values():
            candidates.sort(key=itemgetter(0))

    def mark_dirty(self, device_name: str) -> None:
        """Invalidate one device's cached context/reserved score terms.

        The frontend calls this after anything that can move them: a batch
        executed on the device, a crash, a recovery.
        """
        self._dirty.add(device_name)

    def forget(self, device_name: str) -> None:
        """Drop a device's cached terms entirely (it left the live fleet).

        A retired partition's runtime is closed and its mOS may recover
        into a different reservation shape; the next placement that
        considers the device recomputes from scratch.
        """
        self._cached.pop(device_name, None)
        self._dirty.discard(device_name)

    def audit_parity(self, queue_depths: DepthSource) -> List[str]:
        """Compare every clean cached score term against a fresh recompute.

        Returns divergence descriptions (empty means bit-exact parity
        between incremental and full scoring).  Devices in the dirty set
        are skipped — they are *known* stale and recompute before their
        next use; a divergence on a clean entry is the real bug: some
        mutation path (e.g. request expiry releasing reserved bytes)
        forgot to ``mark_dirty``.
        """
        self._sync()
        if callable(queue_depths):
            depth_of = queue_depths
        else:
            depth_of = lambda name: queue_depths.get(name, 0)  # noqa: E731
        problems: List[str] = []
        weight_queue = self.weight_queue
        for name in sorted(self._cached):
            if name in self._dirty:
                continue
            mos = self._by_name.get(name)
            if mos is None:
                problems.append(f"{name}: cached terms for an unknown device")
                continue
            device = mos.partition.device
            contexts = (
                device.active_contexts() if hasattr(device, "active_contexts") else 0
            )
            reserved = mos.manager.reserved_bytes
            fresh = (
                self.weight_contexts * contexts,
                self.weight_reserved_per_gib * (reserved / float(1 << 30)),
                contexts,
                reserved,
            )
            cached = self._cached[name]
            if cached != fresh:
                problems.append(f"{name}: cached terms {cached!r} != fresh {fresh!r}")
                continue
            depth = depth_of(name)
            cached_score = (cached[0] + weight_queue * depth) + cached[1]
            fresh_score = (fresh[0] + weight_queue * depth) + fresh[1]
            if cached_score != fresh_score:
                problems.append(
                    f"{name}: incremental score {cached_score!r} != "
                    f"full {fresh_score!r}"
                )
        return problems

    def _terms(self, name: str, mos) -> Tuple[float, float, int, int]:
        """Recompute and cache one device's (contexts_term, reserved_term,
        contexts, reserved) tuple."""
        device = mos.partition.device
        contexts = device.active_contexts() if hasattr(device, "active_contexts") else 0
        reserved = mos.manager.reserved_bytes
        terms = self._cached[name] = (
            self.weight_contexts * contexts,
            self.weight_reserved_per_gib * (reserved / float(1 << 30)),
            contexts,
            reserved,
        )
        self._dirty.discard(name)
        return terms

    # -- scoring -----------------------------------------------------------
    def score(self, mos, queue_depth: int) -> PartitionScore:
        device = mos.partition.device
        contexts = device.active_contexts() if hasattr(device, "active_contexts") else 0
        reserved = mos.manager.reserved_bytes
        value = (
            self.weight_contexts * contexts
            + self.weight_queue * queue_depth
            + self.weight_reserved_per_gib * (reserved / float(1 << 30))
        )
        return PartitionScore(
            device_name=device.name,
            live_contexts=contexts,
            queue_depth=queue_depth,
            reserved_bytes=reserved,
            score=value,
        )

    def scores(
        self, device_type: str, queue_depths: Mapping[str, int]
    ) -> List[PartitionScore]:
        """Scoring breakdown for every candidate (any state), sorted by
        (score, device name) — the placement order.  Always a fresh
        recompute (observability path, never the hot path)."""
        out = [
            self.score(m, queue_depths.get(m.partition.device.name, 0))
            for m in self._dispatcher.moses()
            if m.device_type == device_type
        ]
        return sorted(out, key=lambda s: (s.score, s.device_name))

    def place(
        self,
        request,
        queue_depths: DepthSource,
        *,
        is_ready: Optional[Callable[[object], bool]] = None,
        executing: Optional[Mapping[str, Sized]] = None,
    ):
        """Pick the mOS for ``request``; returns the chosen MicroOS.

        ``queue_depths`` is either a mapping of device name to pending
        count or an O(1) lookup callable (the frontend passes
        ``batcher.depth`` so no per-placement dict is built).
        ``executing`` (optional) maps a device name to the work flushed to
        it and still running; its length adds to the device's depth.

        ``is_ready`` lets the frontend overlay its own availability view
        (a partition inside its background-recovery window is READY in the
        SPM's eyes but not yet servable); None means every READY partition
        is servable.  Raises :class:`NoReadyPartition` when candidates
        exist but none is available — the caller parks the request until a
        recovery completes — and plain
        :class:`~repro.dispatch.dispatcher.DispatchError` when no
        partition matches at all.
        """
        self._sync()
        if callable(queue_depths):
            depth_of = queue_depths
        else:
            depth_of = lambda name: queue_depths.get(name, 0)  # noqa: E731
        candidates = self._by_type.get(request.device_type, ())
        if request.device_name is not None:
            pinned = self._by_name.get(request.device_name)
            candidates = (
                [(request.device_name, pinned)]
                if pinned is not None and pinned.device_type == request.device_type
                else []
            )
        if not candidates:
            raise DispatchError(
                f"no partition manages a {request.device_type!r} device"
                + (
                    f" named {request.device_name!r}"
                    if request.device_name
                    else ""
                )
            )
        best = None
        best_score = 0.0
        weight_queue = self.weight_queue
        cached = self._cached if self._incremental else {}
        dirty = self._dirty
        ready = PartitionState.READY
        for name, mos in candidates:
            if mos.partition.state is not ready:
                continue
            if is_ready is not None and not is_ready(mos):
                continue
            terms = None if name in dirty else cached.get(name)
            if terms is None:
                terms = self._terms(name, mos)
            depth = depth_of(name)
            if executing is not None:
                running = executing.get(name)
                if running:
                    depth += len(running)
            # Same FP evaluation order as `score`: (A + B) + C.
            value = (terms[0] + weight_queue * depth) + terms[1]
            # Candidates iterate in device-name order, so strict `<` keeps
            # the first (lowest-named) of any score tie — the legacy
            # (score, device_name) sort's choice.
            if best is None or value < best_score:
                best = mos
                best_score = value
        if best is None:
            raise NoReadyPartition(
                f"all {len(candidates)} candidate partition(s) for request "
                f"{request.rid!r} are crashed or recovering"
            )
        self.placements += 1
        return best
