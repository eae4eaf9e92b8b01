"""Resource-timeline timing model for flash operations.

Each plane and each channel carries a "next free" timeline.  An
operation requested at time ``t`` starts when both the issuing request
and the resources it needs are ready; the timekeeper advances the
timelines and returns the completion time.  Operations on distinct
planes/channels overlap freely — this is exactly the plane-level and
channel-level parallelism of Section II.B:

* ``read_page``   — plane busy for the array sense (25 us), then the
  channel for command + data-out transfer.  The plane's data register is
  held until the transfer drains.
* ``program_page`` — channel for command + data-in transfer, then the
  plane for the program (200 us).
* ``erase_block`` — plane only (command cycle on the channel).
* ``copy_back``   — plane only, sense + program back-to-back, **no
  channel time** (Fig. 3).  Concurrent copy-backs on different planes
  overlap completely.
* ``inter_plane_copy`` — the traditional 4-step path of Fig. 2: read +
  transfer out + transfer in + program, occupying the channel twice.
  ``inter_plane_copies`` prices a merge's whole chain in one fold.
* ``multi_plane_read`` / ``multi_plane_program`` / ``multi_plane_erase``
  — the advanced commands: one operation on each plane of a die, array
  time overlapped, transfers serialised on the die's channel.

This module is the only one that reads or writes the timelines: every
FTL and the DLOOP batch kernel price a page operation by calling these
methods, so there is one timing model to check.
"""

from __future__ import annotations

from typing import Sequence

from repro.flash.counters import FlashCounters
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.obs.tracebus import BUS


class FlashTimekeeper:
    """Tracks when each plane / channel becomes free and prices operations.

    The only owner of the plane and channel timelines: every FTL, the
    DLOOP batch kernel and the multi-plane commands price flash work
    through these methods.  A chip's serial I/O bus (Fig. 1b) needs no
    timeline of its own: every die sits on exactly one channel, so the
    channel timeline already serialises the die's transfers.
    """

    def __init__(self, geometry: SSDGeometry, timing: TimingParams):
        self.geometry = geometry
        self.timing = timing
        # Plain lists: one scalar max/store per op, no boxed numpy floats.
        # Python floats and numpy float64 share IEEE-double arithmetic,
        # so completion times are bit-identical either way.
        self.plane_free = [0.0] * geometry.num_planes
        self.channel_free = [0.0] * geometry.channels
        self.counters = FlashCounters(geometry.num_planes, geometry.channels)
        # Latencies and topology resolved once (TimingParams and the
        # geometry are frozen): one list index per op instead of a
        # ``plane_order`` branch inside the geometry.
        self._page_xfer = timing.page_transfer_us(geometry.page_size)
        self._read_us = timing.page_read_us
        self._program_us = timing.page_program_us
        self._copy_back_us = timing.copy_back_us()
        self._plane_channel = [geometry.plane_to_channel(p) for p in range(geometry.num_planes)]

    # ---- operations --------------------------------------------------------
    #
    # ``a if a > b else b`` is ``max(a, b)`` bit-for-bit here: simulated
    # times are sums of non-negative latencies from 0.0, never -0.0.

    def read_page(self, plane: int, start: float) -> float:
        """Sense a page into the plane register and stream it to the controller."""
        plane_free = self.plane_free
        channel_free = self.channel_free
        channel = self._plane_channel[plane]
        pf = plane_free[plane]
        sense_start = start if start > pf else pf
        sense_end = sense_start + self._read_us
        cf = channel_free[channel]
        xfer_start = sense_end if sense_end > cf else cf
        end = xfer_start + self._page_xfer
        # Register holds the data until the transfer drains.
        plane_free[plane] = end
        channel_free[channel] = end
        counters = self.counters
        counters.reads += 1
        counters.channel_busy_us[channel] += end - xfer_start
        counters.plane_ops[plane] += 1
        counters.plane_busy_us[plane] += end - sense_start
        if BUS.enabled:
            ids = {"plane": plane, "channel": channel}
            BUS.emit("flash", "read", sense_start, end - sense_start, ids, f"plane:{plane}")
            BUS.emit("flash", "xfer_out", xfer_start, end - xfer_start, ids, f"channel:{channel}")
        return end

    def program_page(self, plane: int, start: float) -> float:
        """Stream a page to the plane register and program it."""
        plane_free = self.plane_free
        channel_free = self.channel_free
        channel = self._plane_channel[plane]
        cf = channel_free[channel]
        xfer_start = start if start > cf else cf
        xfer_end = xfer_start + self._page_xfer
        channel_free[channel] = xfer_end
        pf = plane_free[plane]
        prog_start = xfer_end if xfer_end > pf else pf
        end = prog_start + self._program_us
        plane_free[plane] = end
        counters = self.counters
        counters.programs += 1
        counters.channel_busy_us[channel] += xfer_end - xfer_start
        counters.plane_ops[plane] += 1
        counters.plane_busy_us[plane] += end - xfer_start
        if BUS.enabled:
            ids = {"plane": plane, "channel": channel}
            BUS.emit("flash", "program", prog_start, end - prog_start, ids, f"plane:{plane}")
            BUS.emit("flash", "xfer_in", xfer_start, xfer_end - xfer_start, ids, f"channel:{channel}")
        return end

    def erase_block(self, plane: int, start: float) -> float:
        """Erase a block on a plane (channel used only for the command cycle)."""
        channel = self._plane_channel[plane]
        cmd_start = max(start, self.channel_free[channel])
        cmd_end = cmd_start + self.timing.cmd_addr_us
        self.channel_free[channel] = cmd_end
        erase_start = max(cmd_end, self.plane_free[plane])
        end = erase_start + self.timing.block_erase_us
        self.plane_free[plane] = end
        counters = self.counters
        counters.erases += 1
        counters.channel_busy_us[channel] += cmd_end - cmd_start
        counters.plane_ops[plane] += 1
        counters.plane_busy_us[plane] += end - cmd_start
        if BUS.enabled:
            ids = {"plane": plane, "channel": channel}
            BUS.emit("flash", "erase", erase_start, end - erase_start, ids, f"plane:{plane}")
        return end

    def copy_back(self, plane: int, start: float) -> float:
        """Intra-plane copy-back: read + program, zero channel occupancy."""
        plane_free = self.plane_free
        pf = plane_free[plane]
        op_start = start if start > pf else pf
        end = op_start + self._copy_back_us
        plane_free[plane] = end
        counters = self.counters
        counters.copybacks += 1
        counters.plane_ops[plane] += 1
        counters.plane_busy_us[plane] += end - op_start
        if BUS.enabled:
            BUS.emit("flash", "copy_back", op_start, end - op_start,
                     {"plane": plane}, f"plane:{plane}")
        return end

    def inter_plane_copy(self, src_plane: int, dst_plane: int, start: float) -> float:
        """Traditional copy through the controller buffer (Fig. 2)."""
        return self.inter_plane_copies((src_plane,), dst_plane, start)

    def inter_plane_copies(self, src_planes, dst_plane: int, start: float) -> float:
        """Price a chain of controller copies (Fig. 2) from each plane of
        ``src_planes`` into ``dst_plane``; returns when the last ends.

        Each copy is issued when the previous one completes, the first
        at ``start`` (an empty chain returns ``start``).  Per copy the
        fold performs ``read_page(src)`` then ``program_page(dst_plane)``
        — the same additions in the same order — so timelines, counters
        and trace events are bit-identical to calling
        ``inter_plane_copy`` once per page.
        """
        plane_free = self.plane_free
        channel_free = self.channel_free
        counters = self.counters
        channel_busy = counters.channel_busy_us
        plane_ops = counters.plane_ops
        plane_busy = counters.plane_busy_us
        read_us = self._read_us
        program_us = self._program_us
        xfer_us = self._page_xfer
        plane_channel = self._plane_channel
        dst_channel = plane_channel[dst_plane]
        traced = BUS.enabled
        t = start
        n = 0
        for src in src_planes:
            # Read: sense on the source plane, transfer out on its channel.
            channel = plane_channel[src]
            pf = plane_free[src]
            sense_start = t if t > pf else pf
            sense_end = sense_start + read_us
            cf = channel_free[channel]
            out_start = sense_end if sense_end > cf else cf
            read_end = out_start + xfer_us
            plane_free[src] = read_end
            channel_free[channel] = read_end
            channel_busy[channel] += read_end - out_start
            plane_ops[src] += 1
            plane_busy[src] += read_end - sense_start
            # Program: transfer in on the destination channel, then program.
            cf = channel_free[dst_channel]
            in_start = read_end if read_end > cf else cf
            in_end = in_start + xfer_us
            channel_free[dst_channel] = in_end
            pf = plane_free[dst_plane]
            prog_start = in_end if in_end > pf else pf
            end = prog_start + program_us
            plane_free[dst_plane] = end
            channel_busy[dst_channel] += in_end - in_start
            plane_ops[dst_plane] += 1
            plane_busy[dst_plane] += end - in_start
            if traced:
                ids = {"plane": src, "channel": channel}
                BUS.emit("flash", "read", sense_start, read_end - sense_start, ids, f"plane:{src}")
                BUS.emit("flash", "xfer_out", out_start, read_end - out_start, ids, f"channel:{channel}")
                ids = {"plane": dst_plane, "channel": dst_channel}
                BUS.emit("flash", "program", prog_start, end - prog_start, ids, f"plane:{dst_plane}")
                BUS.emit("flash", "xfer_in", in_start, in_end - in_start, ids, f"channel:{dst_channel}")
                BUS.emit("flash", "inter_plane_copy", t, 0.0,
                         {"src_plane": src, "dst_plane": dst_plane}, None, "i")
            t = end
            n += 1
        counters.reads += n
        counters.programs += n
        counters.interplane_copies += n
        return t

    # ---- multi-plane commands (Section II.B) ---------------------------------
    #
    # "Multi-plane command launches multiple read, write, or erasure
    # operations in all planes on the same die."  The array operations
    # overlap across the die's planes; the data transfers still
    # serialise on the die's channel, which is why the paper ranks
    # die-level parallelism as harder to exploit than plane-level.

    def _die_channel(self, planes: Sequence[int]) -> int:
        """Channel of the one die ``planes`` (distinct, non-empty) sit on."""
        if not planes:
            raise ValueError("multi-plane command needs at least one plane")
        if len(set(planes)) != len(planes):
            raise ValueError("multi-plane command planes must be distinct")
        dies = {self.geometry.plane_to_die(p) for p in planes}
        if len(dies) != 1:
            raise ValueError(f"multi-plane command spans dies {sorted(dies)}; must be one die")
        return self._plane_channel[planes[0]]

    def multi_plane_program(self, planes: Sequence[int], start: float) -> float:
        """Program one page on each plane of a die; array time overlaps.

        The per-page data-in transfers share the channel back-to-back,
        then every plane programs concurrently.
        """
        channel = self._die_channel(planes)
        counters = self.counters
        xfer = self._page_xfer
        t = start
        program_starts = []
        for plane in planes:
            t = max(t, self.channel_free[channel])
            xfer_end = t + xfer
            self.channel_free[channel] = xfer_end
            counters.channel_busy_us[channel] += xfer
            if BUS.enabled:
                BUS.emit("flash", "mp_xfer_in", t, xfer,
                         {"plane": plane, "channel": channel}, f"channel:{channel}")
            program_starts.append((plane, xfer_end))
            t = xfer_end
        end = start
        for plane, ready in program_starts:
            op_start = max(ready, self.plane_free[plane])
            op_end = op_start + self._program_us
            self.plane_free[plane] = op_end
            counters.programs += 1
            counters.plane_ops[plane] += 1
            counters.plane_busy_us[plane] += op_end - op_start
            if BUS.enabled:
                BUS.emit("flash", "mp_program", op_start, op_end - op_start,
                         {"plane": plane, "channel": channel}, f"plane:{plane}")
            end = max(end, op_end)
        return end

    def multi_plane_read(self, planes: Sequence[int], start: float) -> float:
        """Sense one page on each plane concurrently, then stream them out."""
        channel = self._die_channel(planes)
        counters = self.counters
        xfer = self._page_xfer
        sense_starts = [max(start, self.plane_free[plane]) for plane in planes]
        end = start
        for plane, sense_start in zip(planes, sense_starts):
            sensed = sense_start + self._read_us
            xfer_start = max(sensed, self.channel_free[channel])
            xfer_end = xfer_start + xfer
            self.channel_free[channel] = xfer_end
            counters.channel_busy_us[channel] += xfer
            # Each plane's register holds its page until its transfer drains.
            self.plane_free[plane] = xfer_end
            counters.reads += 1
            counters.plane_ops[plane] += 1
            counters.plane_busy_us[plane] += xfer_end - sense_start
            if BUS.enabled:
                ids = {"plane": plane, "channel": channel}
                BUS.emit("flash", "mp_read", sense_start, xfer_end - sense_start, ids, f"plane:{plane}")
                BUS.emit("flash", "mp_xfer_out", xfer_start, xfer, ids, f"channel:{channel}")
            end = max(end, xfer_end)
        return end

    def multi_plane_erase(self, planes: Sequence[int], start: float) -> float:
        """Erase one block on each plane of a die in the time of one erase."""
        channel = self._die_channel(planes)
        counters = self.counters
        timing = self.timing
        cmd_start = max(start, self.channel_free[channel])
        cmd_end = cmd_start + timing.cmd_addr_us
        self.channel_free[channel] = cmd_end
        counters.channel_busy_us[channel] += timing.cmd_addr_us
        end = cmd_end
        for plane in planes:
            op_start = max(cmd_end, self.plane_free[plane])
            op_end = op_start + timing.block_erase_us
            self.plane_free[plane] = op_end
            counters.erases += 1
            counters.plane_ops[plane] += 1
            counters.plane_busy_us[plane] += op_end - op_start
            if BUS.enabled:
                BUS.emit("flash", "mp_erase", op_start, op_end - op_start,
                         {"plane": plane, "channel": channel}, f"plane:{plane}")
            end = max(end, op_end)
        return end

    # ---- introspection -------------------------------------------------------

    def quiesce_time(self) -> float:
        """Time at which every resource is idle."""
        return max(max(self.plane_free), max(self.channel_free))

    def reset_measurements(self) -> None:
        """Zero timelines and counters (after preconditioning a device)."""
        self.plane_free[:] = [0.0] * len(self.plane_free)
        self.channel_free[:] = [0.0] * len(self.channel_free)
        # In-place reset keeps references (samplers, exporters) valid.
        self.counters.reset()
        if BUS.enabled:
            # Occupancy checkers must drop busy intervals from before
            # the reset or every post-preconditioning op looks like an
            # overlap with preconditioning history.
            BUS.emit("flash", "timeline_reset", 0.0, 0.0, {}, None, "i")
