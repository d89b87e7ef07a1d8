"""The zero-page checks: the scrub audits, the KV block scan and the
fault campaign's teardown check.

Every site compares a whole page against :data:`repro.hw.memory.ZERO_PAGE`
instead of scanning it byte by byte; the result must equal ``any(...)``
over the page for a single non-zero byte at any offset.  The audits must
also leave the memory model as they found it: auditing a page that was
never written must not allocate it.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.cluster import Cluster
from repro.cluster.migrate import MigrationManager
from repro.faults import make_figure9_system
from repro.faults.campaign import WorkloadReport, check_invariants
from repro.faults.injector import CRASH, FaultPlan, FaultRule
from repro.hw.memory import PAGE_SIZE, PhysicalMemory
from repro.secure.spm import ShareGrant
from repro.serve import LLMEngine, TenantSpec, llm_arrivals
from repro.systems import CronusSystem, TestbedConfig
from repro.workloads.llm import LLMConfig, PagedKVCache

offsets = st.integers(0, PAGE_SIZE - 1)
values = st.integers(0, 255)
pokes = st.lists(st.tuples(offsets, values), min_size=1, max_size=24)
EDGES = [(0, 1), (PAGE_SIZE - 1, 1), (0, 0)]
"""The first and last byte of a page, and a zero write."""


def _poke(memory, page: int, offset: int, value: int) -> bytes:
    """Set one byte of a zeroed page; returns the page's bytes."""
    memory.zero_range(page * PAGE_SIZE, PAGE_SIZE)
    memory.write(page * PAGE_SIZE + offset, bytes([value]))
    return memory.read(page * PAGE_SIZE, PAGE_SIZE)


# -- the audits allocate nothing ----------------------------------------------
def test_migration_audit_of_an_untouched_page_allocates_nothing():
    cluster = Cluster(num_nodes=1)
    node = cluster.node("node0")
    migration = MigrationManager()
    session = migration.ensure_session(node, "acme")
    partition = node.system.spm.partition(session.partition)
    session.pages = session.pages + node.system.spm.allocate_pages(partition, 1)
    memory = node.system.platform.memory
    memory.zero_range(session.pages[0] * PAGE_SIZE, PAGE_SIZE)  # the scrub
    before = set(memory._pages)
    assert session.pages[1] not in before
    assert migration.audit_scrub(node) == 2
    assert set(memory._pages) == before
    assert migration.scrub_violations == 0


def test_llm_crash_audit_of_an_untouched_page_allocates_nothing():
    # One GPU: the crash victims park instead of writing KV elsewhere.
    engine = LLMEngine(CronusSystem(TestbedConfig(num_gpus=1)))
    tenant = engine.add_tenant(
        TenantSpec("acme", rate_limit_rps=4_000.0, burst=64, deadline_us=1e7)
    )
    for request in llm_arrivals(tenant, engine.config, count=2, seed=7):
        engine._now = request.arrival_us
        engine.offer(request)
    cache = engine._caches["gpu0"]
    victim_pages = [p for rid in cache.sequences() for p in cache.pages_of(rid)]
    memory = engine.system.platform.memory
    # A block's tail pages hold no token yet.  An all-zero page and an
    # absent one are the same memory; drop one so it is never-touched.
    untouched = victim_pages[-1]
    assert memory.page_is_zero(untouched)
    del memory._pages[untouched]
    before = set(memory._pages)
    engine.crash_device("gpu0")
    assert untouched not in memory._pages
    assert set(memory._pages) <= before
    assert engine.scrub_violations == 0


# -- one non-zero byte anywhere is found, exactly as any() finds it ------------
@given(page=st.integers(0, 15), offset=offsets, value=values)
@example(page=0, offset=0, value=1)
@example(page=0, offset=PAGE_SIZE - 1, value=1)
@settings(max_examples=100, deadline=None)
def test_page_is_zero_equals_any(page, offset, value):
    memory = PhysicalMemory(16 * PAGE_SIZE)
    assert memory.page_is_zero(page)
    raw = _poke(memory, page, offset, value)
    assert memory.page_is_zero(page) == (not any(raw))


@given(pokes=pokes)
@example(pokes=EDGES)
@settings(max_examples=8, deadline=None)
def test_migration_audit_counts_what_any_counts(pokes):
    node = Cluster(num_nodes=1).node("node0")
    migration = MigrationManager()
    session = migration.ensure_session(node, "acme")
    for offset, value in pokes:
        raw = _poke(node.system.platform.memory, session.pages[0], offset, value)
        violations = migration.scrub_violations
        migration.audit_scrub(node)
        assert migration.scrub_violations - violations == int(any(raw))


@given(pokes=st.lists(
    st.tuples(st.integers(0, LLMConfig().pages_per_block - 1), offsets, values),
    min_size=1, max_size=24,
))
@example(pokes=[(0, offset, value) for offset, value in EDGES])
@settings(max_examples=15, deadline=None)
def test_kv_block_scan_counts_what_any_counts(pokes):
    system = CronusSystem(TestbedConfig(num_gpus=1))
    partition = system.spm.partition_for_device("gpu0")
    cache, memory = PagedKVCache(system.spm, partition, LLMConfig()), system.platform.memory
    for page_index, offset, value in pokes:
        cache.append_token("a")
        pages = cache.pages_of("a")
        cache.release("a")  # frees and scrubs the block
        raw = _poke(memory, pages[page_index], offset, value)
        leaked = cache.leaked_blocks
        cache.append_token("b")
        assert cache.pages_of("b") == pages  # the same block, recycled
        assert cache.leaked_blocks - leaked == int(any(raw))
        cache.release("b")


_PLAN = FaultPlan(
    seed=0, rules=(FaultRule(site="srpc.enqueue", action=CRASH, nth=1),)
)


@given(pokes=pokes)
@example(pokes=EDGES)
@settings(max_examples=15, deadline=None)
def test_campaign_teardown_check_flags_what_any_flags(pokes):
    # One inactive grant whose page was freed after teardown: the page
    # the campaign's A3 check reads.
    system = make_figure9_system()
    partition = system.spm.partition_for_device("gpu0")
    page = system.spm.allocate_pages(partition, 1)[0]
    system.spm.free_pages(partition, (page,))
    system.spm._grants.append(
        ShareGrant(partition.name, "part-gpu1", (page,), active=False)
    )
    assert system.spm.owner_of(page) is None
    for offset, value in pokes:
        raw = _poke(system.platform.memory, page, offset, value)
        violations = check_invariants(
            system, _PLAN, WorkloadReport(crashes=["gpu0"]), tasks=[]
        )
        flagged = [v for v in violations if "readable after teardown" in v]
        assert bool(flagged) == any(raw)
