"""Page tables, SMMU, device tree, PCIe, root of trust, platform."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.certs import CertificateAuthority
from repro.hw.devices import Device, MMIORegion
from repro.hw.devicetree import DeviceTree, DeviceTreeError, DeviceTreeNode
from repro.hw.memory import AccessFault, PAGE_SIZE, SECURE_WORLD
from repro.hw.pagetable import PageFault, PagePermission, PageTable
from repro.hw.pcie import PCIeError
from repro.hw.platform import Platform
from repro.hw.smmu import SMMU, SMMUFault


class TestPageTable:
    def test_map_translate(self):
        table = PageTable("t")
        table.map(0x10, 0x99)
        assert table.translate(0x10) == 0x99

    def test_unmapped_faults(self):
        with pytest.raises(PageFault) as exc:
            PageTable("t").translate(0x10)
        assert not exc.value.invalidated

    def test_double_map_rejected(self):
        table = PageTable("t")
        table.map(0x10, 0x99)
        with pytest.raises(ValueError):
            table.map(0x10, 0x55)

    def test_invalidate_then_fault_flags_invalidated(self):
        table = PageTable("t")
        table.map(0x10, 0x99)
        assert table.invalidate(0x10)
        with pytest.raises(PageFault) as exc:
            table.translate(0x10)
        assert exc.value.invalidated

    def test_invalidate_missing_returns_false(self):
        assert not PageTable("t").invalidate(0x10)

    def test_revalidate_restores(self):
        table = PageTable("t")
        table.map(0x10, 0x99)
        table.invalidate(0x10)
        table.revalidate(0x10, 0x99, PagePermission.RW)
        assert table.translate(0x10) == 0x99

    def test_write_permission_enforced(self):
        table = PageTable("t")
        table.map(0x10, 0x99, PagePermission.R)
        assert table.translate(0x10) == 0x99
        with pytest.raises(PageFault):
            table.translate(0x10, write=True)

    @pytest.mark.parametrize("write", [False, True])
    @pytest.mark.parametrize("value", range(PagePermission.RW.value + 1))
    def test_permission_check_matches_flag_and(self, value, write):
        """The precomputed grant table answers exactly as ``perm & needed``."""
        perm = PagePermission(value)
        needed = PagePermission.W if write else PagePermission.R
        table = PageTable("t")
        table.map(0x10, 0x99, perm)
        if perm & needed:
            assert table.translate(0x10, write=write) == 0x99
            assert table.translate(0x10, write=write) == 0x99  # TLB hit
        else:
            with pytest.raises(PageFault) as exc:
                table.translate(0x10, write=write)
            assert not exc.value.invalidated
            assert table.tlb_stats["cached"] == 0

    def test_pages_shared_with(self):
        table = PageTable("t")
        table.map(0x10, 0x99, shared_with="peer")
        table.map(0x11, 0x9A)
        assert table.pages_shared_with("peer") == (0x10,)
        table.invalidate(0x10)
        assert table.pages_shared_with("peer") == ()

    def test_unmap(self):
        table = PageTable("t")
        table.map(0x10, 0x99)
        table.unmap(0x10)
        with pytest.raises(PageFault):
            table.translate(0x10)

    @given(st.dictionaries(st.integers(0, 1000), st.integers(0, 10_000), max_size=64))
    def test_translations_are_exactly_what_was_mapped(self, mapping):
        table = PageTable("prop")
        for virt, phys in mapping.items():
            table.map(virt, phys)
        for virt, phys in mapping.items():
            assert table.translate(virt) == phys
        assert len(table) == len(mapping)


class TestSMMU:
    def test_map_translate(self):
        smmu = SMMU()
        smmu.map("gpu0", 5, 55)
        assert smmu.translate("gpu0", 5) == 55

    def test_unmapped_dma_faults(self):
        with pytest.raises(SMMUFault):
            SMMU().translate("gpu0", 5)

    def test_tables_are_per_device(self):
        smmu = SMMU()
        smmu.map("gpu0", 5, 55)
        with pytest.raises(SMMUFault):
            smmu.translate("gpu1", 5)

    def test_invalidate_shared_with(self):
        smmu = SMMU()
        smmu.map("gpu0", 5, 55, shared_with="part-a")
        smmu.map("gpu0", 6, 56)
        assert smmu.invalidate_shared_with("gpu0", "part-a") == 1
        with pytest.raises(SMMUFault):
            smmu.translate("gpu0", 5)
        assert smmu.translate("gpu0", 6) == 56

    def test_invalidate_all(self):
        smmu = SMMU()
        smmu.map("gpu0", 5, 55)
        smmu.map("gpu0", 6, 56)
        assert smmu.invalidate_all("gpu0") == 2


class TestDeviceTree:
    def _node(self, name, base, irq):
        return DeviceTreeNode(name, "gpu", base, 0x1000, irq)

    def test_valid_tree(self):
        dt = DeviceTree([self._node("a", 0x1000, 1), self._node("b", 0x3000, 2)])
        dt.validate()

    def test_duplicate_name_rejected(self):
        dt = DeviceTree([self._node("a", 0x1000, 1), self._node("a", 0x3000, 2)])
        with pytest.raises(DeviceTreeError, match="duplicate"):
            dt.validate()

    def test_overlapping_mmio_rejected(self):
        dt = DeviceTree([self._node("a", 0x1000, 1), self._node("b", 0x1800, 2)])
        with pytest.raises(DeviceTreeError, match="overlap"):
            dt.validate()

    def test_shared_irq_rejected(self):
        dt = DeviceTree([self._node("a", 0x1000, 1), self._node("b", 0x3000, 1)])
        with pytest.raises(DeviceTreeError, match="IRQ"):
            dt.validate()

    def test_bad_window_rejected(self):
        dt = DeviceTree([DeviceTreeNode("a", "gpu", -1, 0, 1)])
        with pytest.raises(DeviceTreeError):
            dt.validate()

    def test_serialize_roundtrip(self):
        dt = DeviceTree([self._node("a", 0x1000, 1)])
        clone = DeviceTree.deserialize(dt.serialize())
        assert clone.serialize() == dt.serialize()
        assert clone.node("a").irq == 1

    def test_deserialize_garbage_rejected(self):
        with pytest.raises(DeviceTreeError):
            DeviceTree.deserialize(b"\xff\xfe not json")

    def test_lookup_missing_node(self):
        with pytest.raises(DeviceTreeError):
            DeviceTree().node("ghost")


class TestDeviceIdentity:
    def test_vendor_endorsement(self):
        vendor = CertificateAuthority("nvidia", b"v-seed")
        device = Device("gpu0", mmio=MMIORegion(0x1000, 0x100), irq=4, vendor=vendor)
        assert device.vendor_cert is not None
        blob = device.configuration_blob()
        device.public_key.verify(blob, device.sign_configuration(blob))

    def test_no_vendor_no_cert(self):
        device = Device("gpu0", mmio=MMIORegion(0x1000, 0x100), irq=4)
        assert device.vendor_cert is None

    def test_clear_state_bumps_epoch(self):
        device = Device("gpu0", mmio=MMIORegion(0x1000, 0x100), irq=4)
        before = device.configuration_blob()
        device.clear_state()
        assert device.configuration_blob() != before


class TestPlatform:
    def test_secure_region_guards_memory(self, platform: Platform):
        secure_addr = platform.secure_base + PAGE_SIZE
        platform.memory.write(secure_addr, b"tee", world=SECURE_WORLD)
        with pytest.raises(AccessFault):
            platform.memory.read(secure_addr, 3, world="normal")

    def test_register_vendor_idempotent(self, platform: Platform):
        assert platform.register_vendor("nvidia") is platform.register_vendor("nvidia")

    def test_attach_device_and_tree(self, platform: Platform):
        vendor = platform.register_vendor("nvidia")
        device = Device("gpu0", mmio=MMIORegion(0x1000, 0x100), irq=4, vendor=vendor)
        platform.attach_device(device)
        dt = platform.build_device_tree()
        dt.validate()
        assert dt.node("gpu0").world == "secure"

    def test_duplicate_bar_rejected(self, platform: Platform):
        device_a = Device("a", mmio=MMIORegion(0x1000, 0x100), irq=4)
        device_b = Device("b", mmio=MMIORegion(0x1080, 0x100), irq=5)
        platform.attach_device(device_a)
        with pytest.raises(PCIeError):
            platform.attach_device(device_b)

    def test_secure_page_range_covers_secure_memory(self, platform: Platform):
        pages = platform.secure_page_range()
        assert pages.start * PAGE_SIZE == platform.secure_base
        assert (pages.stop - pages.start) * PAGE_SIZE == platform.config.secure_memory_bytes

    def test_rot_secret_only_for_secure_world(self, platform: Platform):
        with pytest.raises(AccessFault):
            platform.rot.read_secret(world="normal")
        keys = platform.rot.read_secret(world=SECURE_WORLD)
        assert keys.public.element == platform.rot.public.element

    def test_attestation_key_is_endorsed(self, platform: Platform):
        from repro.crypto.certs import verify_certificate

        atk = platform.rot.derive_attestation_key(world=SECURE_WORLD)
        cert = platform.rot.endorse_attestation_key(atk.public)
        verify_certificate(cert, platform.attestation_service.public)


class TestPCIeDMA:
    def test_dma_roundtrip_through_smmu(self, testbed):
        smmu = testbed.smmu
        page = next(iter(testbed.secure_page_range()))
        smmu.map("gpu0", 0x40, page)
        testbed.secure_bus.dma_write("gpu0", 0x40 * PAGE_SIZE, b"dma payload")
        assert testbed.secure_bus.dma_read("gpu0", 0x40 * PAGE_SIZE, 11) == b"dma payload"

    def test_dma_unmapped_faults(self, testbed):
        with pytest.raises(SMMUFault):
            testbed.secure_bus.dma_read("gpu0", 0x9999 * PAGE_SIZE, 8)

    def test_dma_unknown_device(self, testbed):
        with pytest.raises(PCIeError):
            testbed.secure_bus.dma_read("ghost", 0, 8)

    def test_p2p_charges_time(self, testbed):
        before = testbed.clock.now
        cost = testbed.secure_bus.p2p_transfer("gpu0", "npu0", 1 << 20)
        assert cost > 0
        assert testbed.clock.now == before + cost
