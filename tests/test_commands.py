"""Multi-plane advanced commands (Section II.B) on the timekeeper."""

import pytest

from repro.flash.geometry import SSDGeometry
from repro.flash.timekeeper import FlashTimekeeper
from repro.flash.timing import TimingParams


@pytest.fixture
def paper_clock():
    return FlashTimekeeper(SSDGeometry(), TimingParams())


def die_planes(clock, die=0):
    return list(clock.geometry.planes_of_die(die))


def test_multi_plane_program_takes_one_program_plus_transfers(paper_clock):
    planes = die_planes(paper_clock)
    xfer = paper_clock.timing.page_transfer_us(paper_clock.geometry.page_size)
    end = paper_clock.multi_plane_program(planes, 0.0)
    # serial data-in transfers, then all programs overlap
    assert end == pytest.approx(len(planes) * xfer + 200.0)
    # much faster than sequential programs on one plane
    assert end < len(planes) * (xfer + 200.0)


def test_multi_plane_erase_takes_one_erase(paper_clock):
    planes = die_planes(paper_clock)
    end = paper_clock.multi_plane_erase(planes, 0.0)
    assert end == pytest.approx(0.2 + 2000.0)
    assert paper_clock.counters.erases == len(planes)


def test_multi_plane_read_senses_concurrently(paper_clock):
    planes = die_planes(paper_clock)
    xfer = paper_clock.timing.page_transfer_us(paper_clock.geometry.page_size)
    end = paper_clock.multi_plane_read(planes, 0.0)
    assert end == pytest.approx(25.0 + len(planes) * xfer)


def test_multi_plane_requires_one_die(paper_clock):
    geom = paper_clock.geometry
    planes = [0, 1]  # different channels -> different dies
    assert geom.plane_to_die(0) != geom.plane_to_die(1)
    with pytest.raises(ValueError):
        paper_clock.multi_plane_program(planes, 0.0)


def test_multi_plane_rejects_duplicates(paper_clock):
    with pytest.raises(ValueError):
        paper_clock.multi_plane_erase([0, 0], 0.0)
    with pytest.raises(ValueError):
        paper_clock.multi_plane_read([], 0.0)


def test_multi_plane_respects_busy_planes(paper_clock):
    planes = die_planes(paper_clock)
    paper_clock.program_page(planes[0], 0.0)  # make one plane busy
    busy_until = paper_clock.plane_free[planes[0]]
    end = paper_clock.multi_plane_erase(planes, 0.0)
    assert end >= busy_until + 2000.0


def test_multi_plane_counts_per_plane_ops(paper_clock):
    planes = die_planes(paper_clock)
    paper_clock.multi_plane_program(planes, 0.0)
    for plane in planes:
        assert paper_clock.counters.plane_ops[plane] == 1


def test_multi_plane_read_plane_busy_matches_its_timeline(paper_clock):
    """A plane's busy time is counted from its own sense start: a plane
    already busy when the command arrives is not charged the wait."""
    assert paper_clock.geometry.plane_to_die(0) == paper_clock.geometry.plane_to_die(8)
    paper_clock.read_page(0, 0.0)
    end = paper_clock.multi_plane_read([0, 8], 0.0)
    # plane 0 was never idle from 0 to its last transfer: busy == timeline
    assert paper_clock.plane_free[0] == pytest.approx(152.8)
    assert paper_clock.counters.plane_busy_us[0] == pytest.approx(paper_clock.plane_free[0])
    # plane 8 sensed from 0 and held its register until its transfer drained
    assert paper_clock.counters.plane_busy_us[8] == pytest.approx(paper_clock.plane_free[8])
    assert end == max(paper_clock.plane_free[0], paper_clock.plane_free[8])
