"""Property-based invariants on the core data structures.

These complement the per-module tests with randomized sequences checked
against simple reference models: the SPM page allocator, the shared ring
buffer, trusted pipes, and the manifest serialization.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.enclave.manifest import Manifest, MECallSpec
from repro.rpc.pipe import TrustedPipe
from repro.rpc.ringbuffer import SharedRingBuffer
from repro.systems import CronusSystem


# ----------------------------------------------------------- SPM allocator


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("alloc"), st.integers(1, 16)),
            st.tuples(st.just("free"), st.integers(0, 10)),
        ),
        max_size=30,
    )
)
@settings(max_examples=20, deadline=None)
def test_spm_allocator_invariants(ops):
    """Live allocations are disjoint and contiguous; freed pages recycle."""
    system = CronusSystem()
    spm = system.spm
    partition = system.moses["cpu0"].partition
    live = []
    allocated_ever = set()
    for op, arg in ops:
        if op == "alloc":
            pages = spm.allocate_pages(partition, arg)
            # Contiguity
            assert list(pages) == list(range(pages[0], pages[0] + arg))
            # Disjoint from every live allocation
            for other in live:
                assert set(pages).isdisjoint(other)
            live.append(pages)
            allocated_ever.update(pages)
        elif live:
            index = arg % len(live)
            pages = live.pop(index)
            spm.free_pages(partition, pages)
            # Freed pages are scrubbed
            for page in pages:
                assert system.platform.memory.page_is_zero(page)
    # Ownership bookkeeping matches the live set exactly.
    owned = {p for pages in live for p in pages}
    for page in allocated_ever:
        owner = spm.owner_of(page)
        if page in owned:
            assert owner == partition.name
        else:
            assert owner is None


# --------------------------------------------------------- ring buffer model


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("push"), st.binary(min_size=1, max_size=300)),
            st.tuples(st.just("pop"), st.none()),
        ),
        max_size=60,
    )
)
@settings(max_examples=20, deadline=None)
def test_ring_buffer_matches_deque_model(ops):
    from collections import deque

    system = CronusSystem()
    cpu = system.moses["cpu0"]
    pages = cpu.shim.alloc_pages(2)
    ring = SharedRingBuffer(cpu.partition, cpu.partition, pages)
    model = deque()
    for op, payload in ops:
        if op == "push":
            if len(payload) + 4 <= ring.free_bytes():
                ring.push(payload)
                model.append(payload)
        else:
            got = ring.pop()
            want = model.popleft() if model else None
            assert got == want
    # Drain and compare the remainder.
    while model:
        assert ring.pop() == model.popleft()
    assert ring.pop() is None


# ---------------------------------------------------------------- pipe model


@given(
    st.lists(
        st.one_of(
            st.tuples(st.just("write"), st.binary(min_size=1, max_size=500)),
            st.tuples(st.just("read"), st.integers(1, 600)),
        ),
        max_size=40,
    )
)
@settings(max_examples=15, deadline=None)
def test_pipe_matches_byte_stream_model(ops):
    system = CronusSystem()
    app = system.application("prop")
    from repro.enclave.images import CpuImage
    from repro.enclave.manifest import Manifest as M

    image = CpuImage(name="p", functions={"f": lambda s: None})
    manifest = M(device_type="cpu", images={"p.so": image.digest()},
                 mecalls=(MECallSpec("f"),))
    writer = app.create_enclave(manifest, image, "p.so")
    reader = app.create_enclave(manifest, image, "p.so")
    pipe = TrustedPipe(writer.endpoint(), reader.endpoint(), system.spm, pages=2)

    pending = b""
    for op, arg in ops:
        if op == "write":
            if len(arg) <= pipe.free_bytes():
                pipe.write(arg)
                pending += arg
        else:
            got = pipe.read(arg)
            assert got == pending[: len(got)]
            assert len(got) == min(arg, len(pending))
            pending = pending[len(got):]
    assert pipe.read() == pending
    pipe.close()


# ------------------------------------------------------------ manifest round


_manifest_strategy = st.builds(
    Manifest,
    device_type=st.sampled_from(["cpu", "gpu", "npu"]),
    images=st.dictionaries(
        st.text(alphabet="abcdefgh.", min_size=1, max_size=12),
        st.text(alphabet="0123456789abcdef", min_size=64, max_size=64),
        max_size=4,
    ),
    mecalls=st.lists(
        st.builds(
            MECallSpec,
            name=st.text(alphabet="abcdefgh_", min_size=1, max_size=10),
            synchronous=st.booleans(),
        ),
        max_size=5,
        unique_by=lambda c: c.name,
    ).map(tuple),
    memory_bytes=st.integers(min_value=1, max_value=1 << 40),
)


@given(_manifest_strategy)
@settings(max_examples=50, deadline=None)
def test_manifest_json_roundtrip_property(manifest):
    clone = Manifest.from_json(manifest.serialize())
    assert clone == manifest
    assert clone.serialize() == manifest.serialize()


@given(
    st.lists(
        st.builds(
            MECallSpec,
            name=st.text(alphabet="abcd_", min_size=1, max_size=3),
            synchronous=st.booleans(),
        ),
        max_size=6,
    ),
    st.lists(st.text(alphabet="abcd_", min_size=1, max_size=3), max_size=6),
)
@settings(max_examples=100, deadline=None)
def test_manifest_dispatch_matches_linear_scan(specs, probes):
    """The name -> spec index answers exactly as a scan of ``mecalls``."""
    from dataclasses import fields

    from repro.crypto.dh import DiffieHellman
    from repro.enclave.manifest import ManifestError
    from repro.enclave.menclave import MEnclave

    mecalls = tuple(specs)
    if len({c.name for c in mecalls}) != len(mecalls):
        with pytest.raises(ManifestError, match="duplicate"):
            Manifest(device_type="gpu", images={}, mecalls=mecalls)
        return
    manifest = Manifest(device_type="gpu", images={}, mecalls=mecalls)
    enclave = MEnclave(
        eid=1, manifest=manifest, model=None, state={}, measurement=b"",
        creator_dh_public=DiffieHellman(b"creator").public, dh_seed=b"enclave",
    )
    for name in probes + [c.name for c in mecalls]:
        scanned = [c for c in mecalls if c.name == name]
        assert manifest.allows(name) == bool(scanned)
        if scanned:
            assert manifest.mecall(name) is scanned[0]
            assert enclave.is_synchronous(name) == scanned[0].synchronous
        else:
            with pytest.raises(ManifestError, match="not declared"):
                manifest.mecall(name)
            with pytest.raises(ManifestError):
                enclave.is_synchronous(name)
    # A name from the untrusted path may be any JSON value; an unhashable
    # one is undeclared, as the scan found it.
    assert not manifest.allows(["cudaMalloc"])
    with pytest.raises(ManifestError, match="not declared"):
        manifest.mecall({"fn": "cudaMalloc"})
    # The index is not a dataclass field: equality, repr and the measured
    # bytes see only the declared fields.
    twin = Manifest(device_type="gpu", images={}, mecalls=tuple(specs))
    assert [f.name for f in fields(Manifest)] == [
        "device_type", "images", "mecalls", "memory_bytes"
    ]
    assert twin == manifest
    assert repr(twin) == repr(manifest)
    assert twin.serialize() == manifest.serialize()
    # ``hash`` is the generated field-tuple hash, which ``images`` (a dict)
    # makes unhashable: the same TypeError with and without the index.
    with pytest.raises(TypeError, match="unhashable"):
        hash(manifest)
    with pytest.raises(TypeError, match="unhashable"):
        hash(tuple(getattr(manifest, f.name) for f in fields(Manifest)))


# ------------------------------------------------------------ cost monotony


@given(st.integers(0, 1 << 24), st.integers(0, 1 << 24))
def test_copy_cost_monotone(a, b):
    from repro.sim.costs import CostModel

    costs = CostModel()
    small, large = sorted((a, b))
    assert costs.copy_cost_us(small, per_kib=0.1) <= costs.copy_cost_us(large, per_kib=0.1)


@given(st.integers(1, 1 << 20))
def test_protocol_cost_ordering_any_payload(nbytes):
    from repro.sim.costs import CostModel

    costs = CostModel()
    assert costs.srpc_enqueue_us(nbytes) < costs.encrypted_rpc_overhead_us(nbytes)
    assert costs.sync_rpc_overhead_us() < costs.encrypted_rpc_overhead_us(nbytes)


# --------------------------------------------------------------- NPU algebra


@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(0, 6),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=20, deadline=None)
def test_npu_shift_relu_pipeline_matches_numpy(m, k, shift, seed):
    """LOAD/GEMM/SHR/MAX pipelines equal the numpy int32 reference."""
    from repro.accel.npu import NpuDevice, OP_MAX, OP_SHR, alu, gemm, load, store
    from repro.accel.npu import NpuProgram
    from repro.hw.devices import MMIORegion
    from repro.sim import CostModel, SimClock

    npu = NpuDevice("p", SimClock(), CostModel(), mmio=MMIORegion(0x1000, 0x100), irq=3)
    rng = np.random.default_rng(seed)
    inp = rng.integers(-32, 32, (m, k)).astype(np.int8)
    wgt = rng.integers(-32, 32, (m, k)).astype(np.int8)
    npu.write_tensor("inp", inp)
    npu.write_tensor("wgt", wgt)
    program = (
        NpuProgram("prop")
        .append(load("inp", "inp"))
        .append(load("wgt", "wgt"))
        .append(gemm())
        .append(alu(OP_SHR, imm=shift))
        .append(alu(OP_MAX, imm=0))
        .append(store("out"))
    )
    npu.run(program)
    expect = np.maximum(
        (inp.astype(np.int32) @ wgt.astype(np.int32).T) >> shift, 0
    )
    assert np.array_equal(npu.read_tensor("out"), expect)
