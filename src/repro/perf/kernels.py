"""Flat batch kernels for the replay hot path (DLOOP).

The scalar hot path costs ~15 Python calls per host page (controller →
FTL → translation manager → CMT → allocator → array → timekeeper).
:class:`DloopKernel` collapses that stack into straight-line code
working directly on the flat stores: the ``array('q')`` page table and
GTD, the ``bytearray`` page states, the CMT's OrderedDicts.  Flash time
is not inlined: every read, program and copy-back is priced by the
device's :class:`~repro.flash.timekeeper.FlashTimekeeper`, the one
timing model.  Rare branches (new block from the pool, GC passes,
allocation overflow, erases) delegate to the existing scalar methods,
so their semantics — and their bugs — stay single-sourced.

Bit-identity contract
---------------------

Every fingerprinted quantity must be *bit-identical* with the kernel on
or off (``BENCH_seed.json`` gates this in CI; the equivalence sweep in
``tests/test_kernels.py`` gates it per FTL/configuration):

* Flash operations are priced by the same timekeeper calls, in the
  same order, as the scalar path makes them (a multi-page request
  prices each page when it is placed).
* CMT mutations are inlined against the segmented-LRU OrderedDicts in
  the *same* order the scalar methods apply them, including protected-
  overflow demotion and the post-promotion dirty marking.
* Counters and stats bump at the same program points.

Dispatch gating
---------------

A kernel is attached only when every precondition for the flat path
holds (checked in ``DloopFtl.__init__`` / ``attach_faults``):

* ``batch_kernels=True`` and the FTL is *exactly* ``DloopFtl`` —
  subclasses override allocator/collection hooks the kernel inlines;
* copy-back GC enabled (the ``dloop-nocb`` ablation runs scalar);
* no fault injection (fault seams live in the scalar methods) and no
  ``debug_checks``.

Additionally every dispatch site checks ``BUS.enabled`` per call: the
scalar path owns all TraceBus emission, so attaching any subscriber
(tracing, the sanitizer, conformance probes) transparently falls back
to the scalar path mid-run.
"""

from __future__ import annotations

from repro.flash.array import FlashStateError
from repro.obs.tracebus import BUS

__all__ = ["DloopKernel", "kernel_active"]

_VALID = 1
_INVALID = 2


def _out_of_space():
    from repro.ftl.base import OutOfSpaceError

    return OutOfSpaceError("no plane can absorb a translation page — device full")


def kernel_active(ftl) -> bool:
    """True when ``ftl`` currently dispatches to a batch kernel."""
    return getattr(ftl, "_kernel", None) is not None and not BUS.enabled


class DloopKernel:
    """Flat inlined fast paths for :class:`repro.core.dloop.DloopFtl`.

    Holds references to the FTL's *stable* stores (buffers that are
    mutated in place for the device's lifetime).  Objects the FTL
    rebinds — ``ftl.stats``/``gc_stats`` on ``reset_measurements``,
    ``ftl.cmt`` on crash recovery — are re-fetched per call.
    """

    def __init__(self, ftl):
        geometry = ftl.geometry
        clock = ftl.clock
        self.ftl = ftl
        self.array = ftl.array
        self.clock = clock
        self.tm = ftl.tm
        # Flat mapping stores (stable array('q') buffers).
        self.page_table = ftl.page_table  # dl: domain(page_table=lpn)
        self.gtd_ppn = ftl.gtd._tpage_ppn
        self.entries_per_tpage = ftl.gtd.entries_per_tpage
        # Geometry constants.
        self.num_planes = geometry.num_planes
        self.num_lpns = geometry.num_lpns
        self.ppb = geometry.pages_per_block
        self.pages_per_plane = geometry.physical_blocks_per_plane * geometry.pages_per_block
        # Reset mutates the counters in place, so the reference stays
        # valid across measurement resets.
        self.counters = clock.counters
        # Physical state stores (stable buffers / containers).
        self.page_state = ftl.array.page_state
        self.page_owner = ftl.array.page_owner
        self.block_valid = ftl.array.block_valid
        self.block_invalid = ftl.array.block_invalid
        self.block_write_ptr = ftl.array.block_write_ptr
        self.block_write_stamp = ftl.array.block_write_stamp
        self.pools = ftl.array._free_pools
        self.allocators = ftl.allocators

    # ---- array state transitions (checks elided; the scalar path and the
    # equivalence sweep gate correctness) ----------------------------------

    def _invalidate(self, ppn: int) -> None:
        block = ppn // self.ppb
        self.page_state[ppn] = _INVALID
        self.page_owner[ppn] = -1  # OWNER_NONE
        self.block_valid[block] -= 1
        self.block_invalid[block] += 1

    def _program_state(self, block: int, offset: int, owner: int) -> int:
        ppn = block * self.ppb + offset  # dl: domain(ppn=ppn)
        self.block_write_ptr[block] = offset + 1
        self.page_state[ppn] = _VALID
        self.page_owner[ppn] = owner
        self.block_valid[block] += 1
        array = self.array
        array.write_stamp = stamp = array.write_stamp + 1
        self.block_write_stamp[block] = stamp
        return ppn

    # ---- CMT protocol (inlined segmented LRU) ----------------------------

    def charge_lookup(self, lpn: int, now: float) -> float:
        # Mirrors TranslationManager.charge_lookup + CachedMappingTable.
        cmt = self.ftl.cmt  # re-fetch: crash recovery replaces the CMT
        protected = cmt._protected
        probation = cmt._probation
        cstats = cmt.stats
        if lpn in protected:
            protected.move_to_end(lpn)
            cstats.hits += 1
            return now
        if lpn in probation:
            dirty = probation.pop(lpn)
            protected[lpn] = dirty
            cap = cmt.protected_capacity
            while len(protected) > cap:
                demoted, demoted_dirty = protected.popitem(last=False)
                probation[demoted] = demoted_dirty
            cstats.hits += 1
            return now
        cstats.misses += 1
        t = now
        capacity = cmt.capacity
        while len(probation) + len(protected) >= capacity:
            if probation:
                victim, dirty = probation.popitem(last=False)
            else:
                victim, dirty = protected.popitem(last=False)
            cstats.evictions += 1
            if dirty:
                cstats.dirty_evictions += 1
                t = self.write_back(victim // self.entries_per_tpage, t)
        tvpn = lpn // self.entries_per_tpage
        tppn = self.gtd_ppn[tvpn]
        if tppn != -1:
            t = self.clock.read_page(tppn // self.pages_per_plane, t)
            self.tm.stats.tpage_reads += 1
        probation[lpn] = False
        return t

    def charge_update(self, lpn: int, now: float) -> float:
        # Mirrors TranslationManager.charge_update (touch + mark_dirty).
        cmt = self.ftl.cmt
        protected = cmt._protected
        probation = cmt._probation
        cstats = cmt.stats
        if lpn in protected:
            protected.move_to_end(lpn)
            cstats.hits += 1
            protected[lpn] = True
            return now
        if lpn in probation:
            del probation[lpn]
            protected[lpn] = False  # promoted; dirty set below, post-demotion
            cap = cmt.protected_capacity
            while len(protected) > cap:
                demoted, demoted_dirty = protected.popitem(last=False)
                probation[demoted] = demoted_dirty
            cstats.hits += 1
            # mark_dirty targets wherever the entry landed (the demotion
            # loop may have pushed it back to probation when cap == 0).
            if lpn in protected:
                protected[lpn] = True
            else:
                probation[lpn] = True
            return now
        cstats.misses += 1
        t = now
        capacity = cmt.capacity
        while len(probation) + len(protected) >= capacity:
            if probation:
                victim, dirty = probation.popitem(last=False)
            else:
                victim, dirty = protected.popitem(last=False)
            cstats.evictions += 1
            if dirty:
                cstats.dirty_evictions += 1
                t = self.write_back(victim // self.entries_per_tpage, t)
        probation[lpn] = True
        return t

    # ---- translation write-back ------------------------------------------

    def write_back(self, tvpn: int, now: float) -> float:
        # Mirrors TranslationManager.write_back (fault-free branch).
        ftl = self.ftl
        plane = tvpn % self.num_planes
        t = now
        if ftl._gc_planes:
            ftl._gc_pending.add(plane)
        elif self.array.gc_low_plane_count:
            t = ftl._maybe_gc(plane, now)
        gtd_ppn = self.gtd_ppn
        tstats = self.tm.stats
        clock = self.clock
        old_ppn = gtd_ppn[tvpn]
        if old_ppn != -1:
            # read the stale translation page
            t = clock.read_page(old_ppn // self.pages_per_plane, t)
            tstats.tpage_reads += 1
            # inlined _invalidate
            old_block = old_ppn // self.ppb
            self.page_state[old_ppn] = _INVALID
            self.page_owner[old_ppn] = -1
            self.block_valid[old_block] -= 1
            self.block_invalid[old_block] += 1
        owner = -tvpn - 2  # encode_translation_owner
        allocator = self.allocators[plane]
        block = allocator.current_block
        write_ptr = self.block_write_ptr
        if block is None or write_ptr[block] == self.ppb:
            if not self.pools[plane]:
                return self._write_back_offpolicy(tvpn, owner, t)
            block = self.array.allocate_block(plane)
            allocator.current_block = block
        new_ppn = self._program_state(block, write_ptr[block], owner)
        t = clock.program_page(plane, t)
        tstats.tpage_writes += 1
        gtd_ppn[tvpn] = new_ppn
        if ftl._gc_planes:
            ftl._gc_pending.add(plane)
        elif self.array.gc_low_plane_count:
            t = ftl._maybe_gc(plane, t)
        return t

    def _write_back_offpolicy(self, tvpn: int, owner: int, t: float) -> float:
        # Policy plane exhausted: the scalar fallback branch, verbatim
        # semantics (fallback allocator, off-policy accounting, trailing
        # GC hook on the actual landing plane).
        ftl = self.ftl
        tstats = self.tm.stats
        try:
            new_ppn = ftl._fallback_allocator().allocate(owner)
        except FlashStateError as exc:
            raise _out_of_space() from exc
        tstats.offpolicy_tpage_writes += 1
        actual_plane = new_ppn // self.pages_per_plane
        t = self.clock.program_page(actual_plane, t)
        tstats.tpage_writes += 1
        self.gtd_ppn[tvpn] = new_ppn
        if ftl._gc_planes:
            ftl._gc_pending.add(actual_plane)
        elif self.array.gc_low_plane_count:
            t = ftl._maybe_gc(actual_plane, t)
        return t

    # ---- host interface ---------------------------------------------------

    def read_page(self, lpn: int, start: float) -> float:
        ftl = self.ftl
        if not 0 <= lpn < self.num_lpns:
            raise ValueError(f"lpn {lpn} outside logical space [0, {self.num_lpns})")
        ftl.stats.host_reads += 1
        t = self.charge_lookup(lpn, start)
        ppn = self.page_table[lpn]
        if ppn == -1:
            ftl.stats.unmapped_reads += 1
            return t
        return self.clock.read_page(ppn // self.pages_per_plane, t)

    def write_page(self, lpn: int, start: float) -> float:
        ftl = self.ftl
        if not 0 <= lpn < self.num_lpns:
            raise ValueError(f"lpn {lpn} outside logical space [0, {self.num_lpns})")
        ftl.stats.host_writes += 1
        plane = lpn % self.num_planes
        t = self.charge_lookup(lpn, start)
        array = self.array
        if ftl._gc_planes:
            ftl._gc_pending.add(plane)
        elif array.gc_low_plane_count:
            try:
                t = ftl._maybe_gc(plane, t)
            except FlashStateError as exc:
                from repro.ftl.base import OutOfSpaceError

                raise OutOfSpaceError(
                    f"plane {plane}: cannot reclaim space for lpn {lpn} — device full"
                ) from exc
        page_table = self.page_table
        old_ppn = page_table[lpn]
        allocator = self.allocators[plane]
        block = allocator.current_block
        write_ptr = self.block_write_ptr
        if block is None or write_ptr[block] == self.ppb:
            try:
                block = array.allocate_block(plane)
            except FlashStateError as exc:
                from repro.ftl.base import OutOfSpaceError

                raise OutOfSpaceError(
                    f"plane {plane}: cannot place write for lpn {lpn} — device full"
                ) from exc
            allocator.current_block = block
        new_ppn = self._program_state(block, write_ptr[block], lpn)
        t = self.clock.program_page(plane, t)
        if old_ppn != -1:
            # inlined _invalidate
            old_block = old_ppn // self.ppb
            self.page_state[old_ppn] = _INVALID
            self.page_owner[old_ppn] = -1
            self.block_valid[old_block] -= 1
            self.block_invalid[old_block] += 1
        page_table[lpn] = new_ppn
        t = self.charge_update(lpn, t)
        # Second GC check runs unwrapped, exactly like the scalar path
        # (a FlashStateError here propagates raw).
        if ftl._gc_planes:
            ftl._gc_pending.add(plane)
        elif array.gc_low_plane_count:
            t = ftl._maybe_gc(plane, t)
        return t

    # ---- multi-page requests ---------------------------------------------
    #
    # Within one host request every sub-page is served from the same
    # ``start``.  A page whose only flash operation is its own data
    # read/program (CMT hit, no GC trigger) takes the inlined fast path
    # and is priced by the clock as it is placed; any other page runs
    # the single-page path.  Pages are priced in request order, the
    # scalar fold order.

    def read_pages(self, lpns, start: float) -> float:
        ftl = self.ftl
        stats = ftl.stats
        cmt = ftl.cmt
        protected = cmt._protected
        probation = cmt._probation
        cstats = cmt.stats
        page_table = self.page_table
        num_lpns = self.num_lpns
        pages_per_plane = self.pages_per_plane
        read_page = self.clock.read_page
        completion = start
        for lpn in lpns:
            if (lpn in protected or lpn in probation) and 0 <= lpn < num_lpns:
                stats.host_reads += 1
                if lpn in protected:
                    protected.move_to_end(lpn)
                else:
                    protected[lpn] = probation.pop(lpn)
                    cap = cmt.protected_capacity
                    while len(protected) > cap:
                        demoted, demoted_dirty = protected.popitem(last=False)
                        probation[demoted] = demoted_dirty
                cstats.hits += 1
                ppn = page_table[lpn]
                if ppn == -1:
                    stats.unmapped_reads += 1
                    continue
                end = read_page(ppn // pages_per_plane, start)
            else:
                end = self.read_page(lpn, start)
            if end > completion:
                completion = end
        return completion

    def write_pages(self, lpns, start: float) -> float:
        ftl = self.ftl
        array = self.array
        cmt = ftl.cmt
        protected = cmt._protected
        probation = cmt._probation
        cstats = cmt.stats
        stats = ftl.stats
        gc_planes = ftl._gc_planes
        gc_pending = ftl._gc_pending
        page_table = self.page_table
        page_state = self.page_state
        page_owner = self.page_owner
        block_valid = self.block_valid
        block_invalid = self.block_invalid
        block_write_stamp = self.block_write_stamp
        write_ptr = self.block_write_ptr
        allocators = self.allocators
        pools = self.pools
        num_lpns = self.num_lpns
        num_planes = self.num_planes
        ppb = self.ppb
        program_page = self.clock.program_page
        completion = start
        for lpn in lpns:
            plane = lpn % num_planes
            # Fast-path preconditions, checked before any mutation so a
            # fallback page replays the full scalar sequence untouched:
            # CMT hit, no GC trigger pending, simple allocation.
            if (
                (lpn in protected or lpn in probation)
                and 0 <= lpn < num_lpns
                and (gc_planes or not array.gc_low_plane_count)
            ):
                allocator = allocators[plane]
                block = allocator.current_block
                need_block = block is None or write_ptr[block] == ppb
                if not need_block or pools[plane]:
                    stats.host_writes += 1
                    # charge_lookup, hit branch
                    if lpn in protected:
                        protected.move_to_end(lpn)
                    else:
                        protected[lpn] = probation.pop(lpn)
                        cap = cmt.protected_capacity
                        while len(protected) > cap:
                            demoted, d_dirty = protected.popitem(last=False)
                            probation[demoted] = d_dirty
                    cstats.hits += 1
                    if gc_planes:
                        gc_pending.add(plane)
                    old_ppn = page_table[lpn]
                    if need_block:
                        block = array.allocate_block(plane)
                        allocator.current_block = block
                    # inlined _program_state
                    offset = write_ptr[block]
                    new_ppn = block * ppb + offset
                    write_ptr[block] = offset + 1
                    page_state[new_ppn] = _VALID
                    page_owner[new_ppn] = lpn
                    block_valid[block] += 1
                    array.write_stamp = stamp = array.write_stamp + 1
                    block_write_stamp[block] = stamp
                    end = program_page(plane, start)
                    if end > completion:
                        completion = end
                    if old_ppn != -1:
                        # inlined _invalidate
                        old_block = old_ppn // ppb
                        page_state[old_ppn] = _INVALID
                        page_owner[old_ppn] = -1
                        block_valid[old_block] -= 1
                        block_invalid[old_block] += 1
                    page_table[lpn] = new_ppn
                    # charge_update: guaranteed hit (just touched above),
                    # so it only marks dirty / refreshes LRU — no time.
                    if lpn in protected:
                        protected.move_to_end(lpn)
                        cstats.hits += 1
                        protected[lpn] = True
                    else:
                        self.charge_update(lpn, start)
                    if gc_planes:
                        gc_pending.add(plane)
                    elif array.gc_low_plane_count:
                        # The allocation crossed the GC watermark: the
                        # pass runs at this page's completion time.
                        t = ftl._maybe_gc(plane, end)
                        if t > completion:
                            completion = t
                    continue
            # Scalar semantics on any exception: pages already placed
            # stay placed and their timeline advances persist; the
            # request fails as a unit.
            end = self.write_page(lpn, start)
            if end > completion:
                completion = end
        return completion

    # ---- garbage collection (copy-back pass) ------------------------------

    def collect(self, plane: int, victim: int, now: float) -> float:
        """Inlined DloopFtl._collect for the copy-back configuration."""
        ftl = self.ftl
        array = self.array
        ppb = self.ppb
        page_state = self.page_state
        page_owner = self.page_owner
        block_valid = self.block_valid
        block_invalid = self.block_invalid
        block_write_stamp = self.block_write_stamp
        write_ptr = self.block_write_ptr
        counters = self.counters
        copy_back = self.clock.copy_back
        gc_stats = ftl.gc_stats
        page_table = self.page_table
        gtd_ppn = self.gtd_ppn
        allocator = self.allocators[plane]
        pool = self.pools[plane]
        t = now
        moved_data = []
        # Valid pages in ascending order, split by parity (the lazy
        # parity_minimizing_order generator, unrolled: the scalar
        # generator consults allocator.next_offset() before *each*
        # yield, which is replicated at the top of the loop below).
        first = victim * ppb
        evens: list = []
        odds: list = []
        states = page_state[first : first + ppb]
        for offset in range(ppb):
            if states[offset] == _VALID:
                if offset & 1:
                    odds.append(first + offset)
                else:
                    evens.append(first + offset)
        e_i = 0
        o_i = 0
        e_n = len(evens)
        o_n = len(odds)
        overflow = False
        while e_i < e_n or o_i < o_n:
            # next_offset(): may open a new block; raises FlashStateError
            # on an empty pool exactly like the scalar generator.
            block = allocator.current_block
            if block is None or write_ptr[block] == ppb:
                block = array.allocate_block(plane)  # may raise
                allocator.current_block = block
            offset = write_ptr[block]
            if offset & 1:
                if o_i < o_n:
                    ppn = odds[o_i]
                    o_i += 1
                else:
                    ppn = evens[e_i]
                    e_i += 1
            else:
                if e_i < e_n:
                    ppn = evens[e_i]
                    e_i += 1
                else:
                    ppn = odds[o_i]
                    o_i += 1
            owner = page_owner[ppn]
            if overflow:
                new_ppn = ftl._gc_alloc_any(owner)
                t = self.clock.inter_plane_copy(plane, new_ppn // self.pages_per_plane, t)
                gc_stats.controller_moves += 1
            else:
                # allocate_with_parity, inlined (block ensured above).
                parity = (ppn - first) & 1  # == codec.page_parity(ppn)
                skipped = 0
                failed = False
                if (offset & 1) != parity:
                    if offset == ppb - 1:
                        # Last page has the wrong parity: waste it and
                        # open a new block (may fail -> overflow mode,
                        # with the skip already applied — scalar order).
                        skip_ppn = block * ppb + offset
                        page_state[skip_ppn] = _INVALID
                        block_invalid[block] += 1
                        write_ptr[block] = ppb
                        skipped = 1
                        if pool:
                            block = array.allocate_block(plane)
                            allocator.current_block = block
                            offset = 0
                            if parity:  # fresh block starts even
                                skip_ppn = block * ppb
                                page_state[skip_ppn] = _INVALID
                                block_invalid[block] += 1
                                write_ptr[block] = 1
                                skipped = 2
                                offset = 1
                        else:
                            failed = True
                    else:
                        skip_ppn = block * ppb + offset
                        page_state[skip_ppn] = _INVALID
                        block_invalid[block] += 1
                        write_ptr[block] = offset + 1
                        skipped = 1
                        offset += 1
                if failed:
                    overflow = True
                    new_ppn = ftl._gc_alloc_any(owner)
                    t = self.clock.inter_plane_copy(plane, new_ppn // self.pages_per_plane, t)
                    gc_stats.controller_moves += 1
                else:
                    # inlined _program_state
                    new_ppn = block * ppb + offset
                    write_ptr[block] = offset + 1
                    page_state[new_ppn] = _VALID
                    page_owner[new_ppn] = owner
                    block_valid[block] += 1
                    array.write_stamp = stamp = array.write_stamp + 1
                    block_write_stamp[block] = stamp
                    if skipped:
                        gc_stats.wasted_pages += skipped
                        counters.skipped_pages += skipped
                    t = copy_back(plane, t)
                    gc_stats.copyback_moves += 1
            # inlined _invalidate of the source page
            src_block = ppn // ppb
            page_state[ppn] = _INVALID
            page_owner[ppn] = -1
            block_valid[src_block] -= 1
            block_invalid[src_block] += 1
            gc_stats.moved_pages += 1
            if owner <= -2:  # translation page: SRAM GTD update only
                gtd_ppn[-owner - 2] = new_ppn
            else:
                page_table[owner] = new_ppn
                moved_data.append((owner, new_ppn))
        t = self.clock.erase_block(plane, t)
        array.erase(victim)
        array.release_block(victim)
        gc_stats.erased_blocks += 1
        if moved_data:
            tm = self.tm
            before = tm.stats.gc_batched_updates
            if tm.gc_mode == "batched":
                cmt = ftl.cmt
                protected = cmt._protected
                probation = cmt._probation
                entries = self.entries_per_tpage
                pending = set()
                for lpn, _new_ppn in moved_data:
                    if lpn in protected:
                        protected[lpn] = True
                    elif lpn in probation:
                        probation[lpn] = True
                    else:
                        pending.add(lpn // entries)
                for tvpn in sorted(pending):
                    t = self.write_back(tvpn, t)
                    tm.stats.gc_batched_updates += 1
            else:
                t = tm.gc_update_mappings(moved_data, t)
            gc_stats.translation_updates += tm.stats.gc_batched_updates - before
        return t
