"""The sRPC call's memory-access sequence, and the serving result check.

Fault plans fire on the n-th hit of a site (``partition.read``,
``ring.push``, ...), and simulated costs are charged on record length, so
the number and order of the stage-2 accesses one mECall makes are part of
the program's behaviour.  These tests pin them for one synchronous and one
asynchronous call on the figure-9 system: a host-speed change to the
channel, ring or partition must leave them exactly as they are.
"""

import numpy as np
import pytest

from repro.faults import injector as _faults
from repro.faults.campaign import make_figure9_system
from repro.faults.injector import FaultPlan, FaultRule
from repro.serve.frontend import result_matches

#: A plan whose only rule never fires: the injector just counts site hits.
NEVER = FaultPlan(
    seed=0, rules=(FaultRule(site="partition.read", action="drop", nth=10**9),)
)

#: One warm call's injection-site hits, in order: (site, default target).
#: ``ring.*`` and ``partition.*`` hits name the partition doing the
#: access; ``srpc.*`` hits name the callee's device.
ASYNC_SEQUENCE = [
    ("srpc.enqueue", "gpu0"),
    ("ring.push", "cpu0"),
    ("partition.write", "cpu0"),  # length prefix + record
    ("partition.write", "cpu0"),  # Rid + tail write-back
    ("ring.pop", "gpu0"),
    ("partition.read", "gpu0"),  # length prefix + record
    ("partition.write", "gpu0"),  # head write-back
    ("srpc.drain", "gpu0"),
    ("partition.write", "gpu0"),  # Sid bump
]
SYNC_SEQUENCE = ASYNC_SEQUENCE + [
    ("partition.read", "cpu0"),  # streamCheck: Rid
    ("partition.read", "cpu0"),  # streamCheck: Sid
    ("partition.write", "gpu0"),  # mailbox: length + pickled result
    ("partition.read", "cpu0"),  # mailbox length
    ("partition.read", "cpu0"),  # mailbox result
]


@pytest.fixture
def warm_runtime():
    system = make_figure9_system()
    rt = system.runtime(cuda_kernels=("matmul",), gpu_name="gpu0", owner="pin")
    a = np.ones((4, 4), dtype=np.float32)
    ha = rt.cudaMalloc(a.shape)
    hc = rt.cudaMalloc(a.shape)
    rt.cudaMemcpyH2D(ha, a)
    return system, rt, ha, hc


def _traced_call(system, call):
    """Run ``call`` under the never-firing plan; return the ordered site
    hits, the injector's per-site counts and each partition's fast- and
    slow-lane access deltas."""
    partitions = {name: mos.partition for name, mos in system.moses.items()}
    fast = {name: p.fast_accesses for name, p in partitions.items()}
    slow = {name: p.slow_accesses for name, p in partitions.items()}
    sequence = []
    with _faults.armed(NEVER) as injector:
        fire = injector.fire

        def spy(site, *, default_target=None):
            sequence.append((site, default_target))
            return fire(site, default_target=default_target)

        injector.fire = spy
        call()
    fast_delta = {n: p.fast_accesses - fast[n] for n, p in partitions.items()}
    slow_delta = {n: p.slow_accesses - slow[n] for n, p in partitions.items()}
    return sequence, injector.site_hits, fast_delta, slow_delta


def test_synchronous_call_access_sequence(warm_runtime):
    system, rt, _, _ = warm_runtime
    sequence, hits, fast, slow = _traced_call(system, lambda: rt.cudaMalloc((4, 4)))
    assert sequence == SYNC_SEQUENCE
    assert hits == {
        "srpc.enqueue": 1, "srpc.drain": 1, "ring.push": 1, "ring.pop": 1,
        "partition.read": 5, "partition.write": 5,
    }
    assert fast == {"cpu0": 6, "gpu0": 4, "gpu1": 0, "npu0": 0}
    assert slow == {"cpu0": 0, "gpu0": 0, "gpu1": 0, "npu0": 0}


def test_asynchronous_call_access_sequence(warm_runtime):
    system, rt, ha, hc = warm_runtime
    sequence, hits, fast, slow = _traced_call(
        system, lambda: rt.cudaLaunchKernel("matmul", [ha, ha, hc])
    )
    assert sequence == ASYNC_SEQUENCE
    assert hits == {
        "srpc.enqueue": 1, "srpc.drain": 1, "ring.push": 1, "ring.pop": 1,
        "partition.read": 1, "partition.write": 4,
    }
    assert fast == {"cpu0": 2, "gpu0": 3, "gpu1": 0, "npu0": 0}
    assert slow == {"cpu0": 0, "gpu0": 0, "gpu1": 0, "npu0": 0}


def _pairs():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((8, 8)).astype(np.float32)
    expected = a @ a
    # allclose passes when |out - expected| <= 1e-2 + 1e-5 * |expected|.
    bound = 1e-2 + 1e-5 * abs(float(expected[3, 5]))
    nudged = expected.copy()
    nudged[3, 5] += np.float32(bound - 2e-4)
    pushed = expected.copy()
    pushed[3, 5] += np.float32(bound + 2e-4)
    zeros = np.zeros((4, 4), dtype=np.float32)
    nan_out = expected.copy()
    nan_out[0, 0] = np.nan
    inf = expected.copy()
    inf[1, 2] = np.inf
    return {
        "bit-equal": (a @ a, expected),
        "signed-zero": (zeros, -zeros),
        "nan-in-out": (nan_out, expected),
        "nan-in-both": (nan_out, nan_out.copy()),
        "same-inf": (inf, inf.copy()),
        "within-tolerance": (nudged, expected),
        "just-outside": (pushed, expected),
        "broadcast-shape": (expected[:1], np.repeat(expected[:1], 8, axis=0)),
    }


@pytest.mark.parametrize("case", sorted(_pairs()))
def test_result_check_equals_allclose(case):
    out, expected = _pairs()[case]
    assert result_matches(out, expected) == bool(
        np.allclose(out, expected, atol=1e-2)
    )


def test_result_check_cases_cover_both_answers():
    answers = {
        case: bool(np.allclose(out, exp, atol=1e-2))
        for case, (out, exp) in _pairs().items()
    }
    assert answers["just-outside"] is False
    assert answers["nan-in-out"] is False and answers["nan-in-both"] is False
    assert answers["within-tolerance"] is True and answers["same-inf"] is True
    assert answers["signed-zero"] is True and answers["bit-equal"] is True


def test_result_check_shape_mismatch_raises_like_allclose():
    out = np.zeros((4, 4), dtype=np.float32)
    expected = np.zeros((3, 3), dtype=np.float32)
    with pytest.raises(ValueError):
        np.allclose(out, expected, atol=1e-2)
    with pytest.raises(ValueError):
        result_matches(out, expected)
