"""Placement oracle: the serving placer against two independent scorers.

:class:`~repro.serve.placement.SpatialPlacer` reads cached score terms,
settles in-flight work once per placement and skips the readiness hook
when no partition can be unservable.  Each of those shortcuts must pick
the partition a full rescore picks.  Hypothesis draws the serving state
(pending depths, in-flight completion instants, recovery windows, elastic
fleet states, dirty and stale cache entries) and checks the frontend's
choice against :class:`~repro.serve.legacy.ScanSpatialPlacer` and against
the score formula written out here.
"""

from __future__ import annotations

import heapq
from collections import deque

from hypothesis import example, given, settings, strategies as st

from repro.dispatch.dispatcher import NoReadyPartition
from repro.secure.partition import PartitionState
from repro.serve import ServingSystem
from repro.serve.admission import Request
from repro.serve.frontend import (
    FLEET_BOOTING,
    FLEET_DRAINING,
    FLEET_LIVE,
    FLEET_PARKED,
)
from repro.serve.legacy import ScanSpatialPlacer
from repro.serve.loadgen import synthetic_service_model
from repro.systems import CronusSystem, TestbedConfig

DEVICES = ("gpu0", "gpu1", "gpu2", "gpu3")
NOW = 1_000.0
GRID = 10.0
"""In-flight instants and recovery ends sit on a grid around ``NOW`` so
draws hit ``t == NOW`` and cross-device ties often."""
FLEET_STATES = (FLEET_LIVE, FLEET_LIVE, FLEET_BOOTING, FLEET_DRAINING, FLEET_PARKED)


def _request(rid: str, device_name=None) -> Request:
    return Request(
        tenant="t", rid=rid, arrival_us=NOW, deadline_us=NOW + 1e9,
        device_name=device_name,
    )


def _formula(serving, pending, running, request):
    """The score the placer has always used, recomputed from scratch."""
    placer = serving.placer
    fleet, down, now = serving._fleet, serving._down_until, serving._now
    best = None
    for mos in serving.system.dispatcher.moses():
        name = mos.partition.device.name
        if mos.device_type != request.device_type:
            continue
        if request.device_name is not None and name != request.device_name:
            continue
        if mos.partition.state is not PartitionState.READY:
            continue
        if fleet is not None and fleet.get(name, FLEET_LIVE) != FLEET_LIVE:
            continue
        if down.get(name, now) > now:
            continue
        depth = pending.get(name, 0) + sum(1 for t in running.get(name, ()) if t > now)
        contexts = mos.partition.device.active_contexts()
        reserved = mos.manager.reserved_bytes
        score = (
            placer.weight_contexts * contexts
            + placer.weight_queue * depth
            + placer.weight_reserved_per_gib * (reserved / float(1 << 30))
        )
        if best is None or (score, name) < best:
            best = (score, name)
    return None if best is None else best[1]


device_state = st.fixed_dictionaries({
    "pending": st.integers(0, 4),
    "running": st.lists(st.integers(-3, 3), max_size=4),
    "down": st.none() | st.integers(-1, 2),
    "fleet": st.sampled_from(FLEET_STATES),
    "cache": st.sampled_from(("clean", "dirty-stale", "missing")),
})


@given(
    states=st.lists(device_state, min_size=len(DEVICES), max_size=len(DEVICES)),
    elastic=st.booleans(),
    pin=st.none() | st.sampled_from(DEVICES),
    later=st.integers(0, 4),
)
@example(
    # Every device idle and servable, one recovery window ending exactly
    # now: the readiness hook is on, and the name tie-break decides.
    states=[
        {"pending": 0, "running": [], "down": 0 if d == "gpu0" else None,
         "fleet": FLEET_LIVE, "cache": "clean"}
        for d in DEVICES
    ],
    elastic=False, pin=None, later=0,
)
@settings(max_examples=150, deadline=None)
def test_placement_matches_full_rescore(states, elastic, pin, later):
    serving = ServingSystem(
        CronusSystem(TestbedConfig(num_gpus=len(DEVICES))),
        service_model=synthetic_service_model(), max_batch=64,
    )
    serving._now = NOW
    if elastic:
        serving._ensure_fleet()
        for device, state in zip(DEVICES, states):
            serving._fleet[device] = state["fleet"]
    placer = serving.placer
    placer._sync()
    pending, running = {}, {}
    for device, state in zip(DEVICES, states):
        for i in range(state["pending"]):
            serving.batcher.add(device, _request(f"{device}-q{i}"), NOW)
        pending[device] = state["pending"]
        instants = sorted(NOW + GRID * k for k in state["running"])
        running[device] = instants
        serving._inflight[device] = deque(instants)
        for t in instants:
            heapq.heappush(serving._unfinished, (t, device))
        if state["down"] is not None:
            serving._down_until.set(device, NOW + GRID * state["down"])
        placer._terms(device, placer._by_name[device])
        if state["cache"] == "dirty-stale":
            # A stale entry the dirty mark must override.
            placer._cached[device] = (99.0, 99.0, 99, 99)
            placer.mark_dirty(device)
        elif state["cache"] == "missing":
            placer.forget(device)
    request = _request("probe", device_name=pin)

    want = _formula(serving, pending, running, request)
    scan = ScanSpatialPlacer(serving.system.dispatcher)
    live_running = {d: [t for t in ts if t > NOW] for d, ts in running.items()}
    try:
        scanned = scan.place(
            request, serving.batcher.depth, is_ready=serving._is_ready,
            executing=live_running,
        ).partition.device.name
    except NoReadyPartition:
        scanned = None
    assert scanned == want

    serving._place(request)
    if serving._parked:
        placed = None
        assert serving._parked == [request]
    else:
        placed = next(
            d for d in DEVICES if request in serving.batcher.pending_requests(d)
        )
    assert placed == want

    for device in DEVICES:
        assert list(serving._inflight[device]) == live_running[device]
    assert placer.audit_parity(serving.batcher.depth) == []

    serving._now = NOW + GRID * later
    executing = serving._still_executing()
    for device in DEVICES:
        assert list(serving._inflight[device]) == [
            t for t in running[device] if t > serving._now
        ]
    assert executing == sum(len(q) for q in serving._inflight.values())
