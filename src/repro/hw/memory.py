"""Physical memory with page-granular, world-checked access.

Pages are allocated lazily (most of the simulated 12 GiB address space is
never touched).  Every access names the *initiator world* so the TZASC
filter can reject normal-world reads of secure DRAM — the data-leak path
the paper's threat model cares about.
"""

from __future__ import annotations

from typing import Dict, Optional

PAGE_SIZE = 4096
ZERO_PAGE = bytes(PAGE_SIZE)
"""One all-zero page: comparing a page to it is the C-speed zero check."""

NORMAL_WORLD = "normal"
SECURE_WORLD = "secure"


class AccessFault(Exception):
    """A memory access rejected by the TZASC or out of physical range."""


class PhysicalMemory:
    """Byte-addressable DRAM, optionally guarded by a TZASC filter."""

    def __init__(self, size_bytes: int, tzasc: Optional["TZASCLike"] = None) -> None:
        if size_bytes <= 0 or size_bytes % PAGE_SIZE:
            raise ValueError(f"memory size must be a positive page multiple, got {size_bytes}")
        self.size_bytes = size_bytes
        self._pages: Dict[int, bytearray] = {}
        self._tzasc = tzasc
        # Optional observability hook installed by the Platform: scrub
        # accounting for the recovery path (None until wired, and inert
        # unless the registry is enabled).
        self.metrics = None

    def attach_tzasc(self, tzasc: "TZASCLike") -> None:
        """Install the TZASC filter (done once during platform bring-up)."""
        self._tzasc = tzasc

    # -- access -------------------------------------------------------
    def read(self, addr: int, length: int, *, world: str = SECURE_WORLD) -> bytes:
        """Read ``length`` bytes at ``addr`` as ``world``."""
        self._check(addr, length, world)
        out = bytearray(length)
        for offset, page, start, end in self._spans(addr, length):
            chunk = self._pages.get(page)
            if chunk is not None:
                out[offset : offset + (end - start)] = chunk[start:end]
        return bytes(out)

    def write(self, addr: int, data: bytes, *, world: str = SECURE_WORLD) -> None:
        """Write ``data`` at ``addr`` as ``world``."""
        self._check(addr, len(data), world)
        cursor = 0
        for offset, page, start, end in self._spans(addr, len(data)):
            chunk = self._pages.setdefault(page, bytearray(PAGE_SIZE))
            chunk[start:end] = data[cursor : cursor + (end - start)]
            cursor += end - start

    # -- single-page fast lane ----------------------------------------------
    # The overwhelmingly common accesses in the sRPC hot path are small
    # (header u64s, length prefixes, short records) and never cross a page
    # boundary, so they can skip the per-span generator and intermediate
    # ``bytearray`` assembly.  World checks are identical to the slow path.
    def read_single(self, addr: int, length: int, *, world: str = SECURE_WORLD) -> bytes:
        """Read a range known to lie within one physical page."""
        self._check(addr, length, world)
        page, start = divmod(addr, PAGE_SIZE)
        if start + length > PAGE_SIZE:
            return self.read(addr, length, world=world)
        chunk = self._pages.get(page)
        if chunk is None:
            return b"\x00" * length
        return bytes(memoryview(chunk)[start : start + length])

    def write_single(self, addr: int, data: bytes, *, world: str = SECURE_WORLD) -> None:
        """Write a range known to lie within one physical page."""
        length = len(data)
        self._check(addr, length, world)
        page, start = divmod(addr, PAGE_SIZE)
        if start + length > PAGE_SIZE:
            self.write(addr, data, world=world)
            return
        chunk = self._pages.get(page)
        if chunk is None:
            chunk = self._pages[page] = bytearray(PAGE_SIZE)
        chunk[start : start + length] = data

    def page_view(self, page: int) -> bytearray:
        """The backing ``bytearray`` of one physical page (lazily allocated).

        Fast-lane hook for accesses whose address has already been produced
        by a stage-2 translation: such pages are in physical range by
        construction, and partition accesses are secure-world initiated, so
        the TZASC filter (which only rejects *normal*-world reads of secure
        DRAM) has nothing to check.  Callers must stay within the page.
        """
        if page < 0 or (page + 1) * PAGE_SIZE > self.size_bytes:
            raise AccessFault(f"page out of physical range: {page:#x}")
        chunk = self._pages.get(page)
        if chunk is None:
            chunk = self._pages[page] = bytearray(PAGE_SIZE)
        return chunk

    def zero_range(self, addr: int, length: int) -> None:
        """Clear a range without a world check — hardware-initiated scrub,
        used by failure clearing (paper section IV-D, attack A3)."""
        if addr < 0 or addr + length > self.size_bytes:
            raise AccessFault(f"scrub out of range: {addr:#x}+{length}")
        for _, page, start, end in self._spans(addr, length):
            chunk = self._pages.get(page)
            if chunk is not None:
                chunk[start:end] = b"\x00" * (end - start)
        if self.metrics is not None and self.metrics.enabled:
            self.metrics.counter("memory", "zero_ranges").inc()
            self.metrics.counter("memory", "zeroed_bytes").inc(length)

    def page_is_zero(self, page: int) -> bool:
        """True if the page has never been written or was scrubbed.

        Never allocates: an audit of an untouched page leaves the memory
        model as it found it (unlike :meth:`page_view`).
        """
        chunk = self._pages.get(page)
        return chunk is None or chunk == ZERO_PAGE

    # -- helpers ------------------------------------------------------
    def _check(self, addr: int, length: int, world: str) -> None:
        if length < 0:
            raise ValueError(f"negative access length {length}")
        if addr < 0 or addr + length > self.size_bytes:
            raise AccessFault(f"access out of physical range: {addr:#x}+{length}")
        if self._tzasc is not None and length:
            self._tzasc.check(addr, length, world)

    @staticmethod
    def _spans(addr: int, length: int):
        """Yield (output offset, page index, start, end) page spans."""
        offset = 0
        while offset < length:
            cur = addr + offset
            page, start = divmod(cur, PAGE_SIZE)
            end = min(PAGE_SIZE, start + (length - offset))
            yield offset, page, start, end
            offset += end - start


class TZASCLike:
    """Protocol for the TZASC filter (structural typing helper)."""

    def check(self, addr: int, length: int, world: str) -> None:  # pragma: no cover
        raise NotImplementedError
