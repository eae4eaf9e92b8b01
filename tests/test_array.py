"""FlashArray NAND state rules: program order, erase discipline, pools."""

import pytest

from repro.flash.address import PageState
from repro.flash.array import FlashArray, FlashStateError
from repro.obs.tracebus import BUS


@pytest.fixture
def array(small_geometry):
    return FlashArray(small_geometry)


def first_ppn(array, block):
    return array.codec.block_first_ppn(block)


def test_initial_state_all_free(array):
    assert (array.page_state_np == PageState.FREE).all()
    assert array.utilization() == 0.0
    for plane in range(array.geometry.num_planes):
        assert array.free_block_count(plane) == array.geometry.physical_blocks_per_plane


def test_program_marks_valid_and_tracks_owner(array):
    block = array.allocate_block(0)
    ppn = first_ppn(array, block)
    array.program(ppn, 42)
    assert array.state_of(ppn) == PageState.VALID
    assert array.owner_of(ppn) == 42
    assert array.block_valid[block] == 1


def test_program_requires_allocated_block(array):
    with pytest.raises(FlashStateError):
        array.program(0, 1)  # block 0 still in the free pool


def test_program_enforces_ascending_order(array):
    block = array.allocate_block(0)
    base = first_ppn(array, block)
    array.program(base + 3, 1)  # skipping forward is legal
    with pytest.raises(FlashStateError):
        array.program(base + 1, 2)  # going backwards is not
    array.program(base + 4, 2)


def test_double_program_rejected(array):
    block = array.allocate_block(0)
    ppn = first_ppn(array, block)
    array.program(ppn, 1)
    with pytest.raises(FlashStateError):
        array.program(ppn, 2)


def test_invalidate_transitions_valid_to_invalid(array):
    block = array.allocate_block(0)
    ppn = first_ppn(array, block)
    array.program(ppn, 1)
    array.invalidate(ppn)
    assert array.state_of(ppn) == PageState.INVALID
    assert array.block_valid[block] == 0
    assert array.block_invalid[block] == 1
    with pytest.raises(FlashStateError):
        array.invalidate(ppn)


def test_skip_page_counts_as_invalid(array):
    block = array.allocate_block(0)
    ppn = first_ppn(array, block)
    array.skip_page(ppn)
    assert array.state_of(ppn) == PageState.INVALID
    assert array.block_invalid[block] == 1
    # Skipped page cannot be programmed afterwards.
    with pytest.raises(FlashStateError):
        array.program(ppn, 1)


def test_erase_requires_no_valid_pages(array):
    block = array.allocate_block(0)
    ppn = first_ppn(array, block)
    array.program(ppn, 1)
    with pytest.raises(FlashStateError):
        array.erase(block)
    array.invalidate(ppn)
    array.erase(block)
    assert array.state_of(ppn) == PageState.FREE
    assert array.block_write_ptr[block] == 0
    assert array.block_erase_count[block] == 1


def test_release_requires_erase(array):
    block = array.allocate_block(0)
    array.program(first_ppn(array, block), 1)
    with pytest.raises(FlashStateError):
        array.release_block(block)
    array.invalidate(first_ppn(array, block))
    array.erase(block)
    array.release_block(block)
    assert array.is_block_free(block)


def test_double_release_rejected(array):
    block = array.allocate_block(0)
    array.release_block(block)
    with pytest.raises(FlashStateError):
        array.release_block(block)


def test_pool_exhaustion_raises(array):
    n = array.geometry.physical_blocks_per_plane
    for _ in range(n):
        array.allocate_block(1)
    with pytest.raises(FlashStateError):
        array.allocate_block(1)
    assert array.free_block_count(1) == 0
    # other planes unaffected
    assert array.free_block_count(0) == n


def test_allocate_release_cycle_preserves_pool(array):
    before = array.free_block_count(2)
    block = array.allocate_block(2)
    assert array.free_block_count(2) == before - 1
    array.release_block(block)
    assert array.free_block_count(2) == before


def test_valid_pages_in_block_ascending(array):
    block = array.allocate_block(0)
    base = first_ppn(array, block)
    array.program(base + 0, 10)
    array.program(base + 2, 11)
    array.program(base + 5, 12)
    array.invalidate(base + 2)
    assert list(array.valid_pages_in_block(block)) == [base, base + 5]


def test_block_free_pages_tracks_write_pointer(array):
    block = array.allocate_block(0)
    ppb = array.geometry.pages_per_block
    assert array.block_free_pages(block) == ppb
    array.program(first_ppn(array, block) + 2, 1)  # skips 0,1
    assert array.block_free_pages(block) == ppb - 3


def test_check_consistency_detects_corruption(array):
    block = array.allocate_block(0)
    array.program(first_ppn(array, block), 1)
    array.check_consistency()
    array.block_valid[block] = 5  # corrupt the counter
    with pytest.raises(FlashStateError):
        array.check_consistency()


def test_erase_count_accumulates(array):
    block = array.allocate_block(0)
    for i in range(3):
        array.program(first_ppn(array, block), i)
        array.invalidate(first_ppn(array, block))
        array.erase(block)
    assert array.block_erase_count[block] == 3


# ---- relocate_pages (batched relocation copies) ------------------------------


def _array_state(array):
    return (
        bytes(array.page_state), array.page_owner.tolist(), array.block_valid.tolist(),
        array.block_invalid.tolist(), array.block_write_ptr.tolist(),
        array.block_write_stamp.tolist(), array.write_stamp,
        None if array.page_gen is None else array.page_gen.tolist(),
    )


def _filled_source(array, owners, plane=1):
    """A source block holding ``owners`` at its first pages."""
    block = array.allocate_block(plane)
    base = first_ppn(array, block)
    for off, owner in enumerate(owners):
        array.program(base + off, owner)
    return [base + off for off in range(len(owners))]


@pytest.mark.parametrize("armed", (False, True))
def test_relocate_pages_equals_the_per_page_sequence(small_geometry, armed):
    """State and ``array`` events equal ``stage_copy_gen`` + ``program``
    + ``invalidate`` page by page (staging is a no-op when disarmed).
    Armed, each destination carries its source's generation, which may
    be older than the owner's latest issued one."""
    owners = [16, 17, 19, 23]
    batch, scalar = FlashArray(small_geometry), FlashArray(small_geometry)
    for array in (batch, scalar):
        if armed:
            array.enable_oob_generations()
            for gen, owner in enumerate(owners, start=3):
                array.lpn_gen[owner] = gen
        srcs = _filled_source(array, owners)
        if armed:
            array.lpn_gen[17] = 40  # newer content issued, not yet on flash
        dst_base = first_ppn(array, array.allocate_block(0))
        dsts = [dst_base + owner - 16 for owner in owners]  # holes at offsets 2, 4..6
    with BUS.capture() as batch_events:
        batch.relocate_pages(srcs, dsts, owners)
    with BUS.capture() as scalar_events:
        for src, dst, owner in zip(srcs, dsts, owners):
            scalar.stage_copy_gen(src)
            scalar.program(dst, owner)
            scalar.invalidate(src)
    assert _array_state(batch) == _array_state(scalar)
    assert [e.name for e in batch_events] == ["program", "invalidate"] * len(owners)
    assert batch_events == scalar_events
    if armed:
        assert [batch.read_gen(dst) for dst in dsts] == [3, 4, 5, 6]
        assert batch._staged_gen is None


@pytest.fixture
def relocation(array):
    """A source block with two valid pages and an open destination."""
    srcs = _filled_source(array, [0, 1])
    dst_block = array.allocate_block(0)
    return array, srcs, first_ppn(array, dst_block)


def test_relocate_pages_rejects_non_free_destination(relocation):
    array, srcs, dst = relocation
    array.program(dst, 7)
    with pytest.raises(FlashStateError, match="program of non-free page"):
        array.relocate_pages(srcs[:1], [dst], [0])


def test_relocate_pages_rejects_out_of_order_destination(relocation):
    array, srcs, dst = relocation
    with pytest.raises(FlashStateError, match="out-of-order program"):
        array.relocate_pages(srcs, [dst + 3, dst + 1], [0, 1])
    # the first page moved before the violation was detected
    assert array.state_of(dst + 3) == PageState.VALID
    assert array.state_of(srcs[0]) == PageState.INVALID


def test_relocate_pages_rejects_unallocated_destination(relocation):
    array, srcs, _ = relocation
    pooled = first_ppn(array, array.plane_blocks(3)[0])
    with pytest.raises(FlashStateError, match="program into unallocated block"):
        array.relocate_pages(srcs[:1], [pooled], [0])


def test_relocate_pages_rejects_non_valid_source(relocation):
    array, srcs, dst = relocation
    array.invalidate(srcs[1])
    with pytest.raises(FlashStateError, match="invalidate of non-valid page"):
        array.relocate_pages(srcs, [dst, dst + 1], [0, 1])
    assert array.state_of(dst + 1) == PageState.FREE
