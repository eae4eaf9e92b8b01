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
"""

from __future__ import annotations

from repro.flash.counters import FlashCounters
from repro.flash.geometry import SSDGeometry
from repro.flash.timing import TimingParams
from repro.obs.tracebus import BUS


class FlashTimekeeper:
    """Tracks when each plane / channel becomes free and prices operations.

    ``die_aware=True`` adds the chip serial I/O bus of Fig. 1b as a
    third resource level: a transfer then occupies both its channel and
    its die's bus.  With one chip per channel (the default geometry)
    the two coincide and the flag changes nothing; with several chips
    per channel it exposes the die-level contention the paper discusses
    in Section II.B.
    """

    def __init__(self, geometry: SSDGeometry, timing: TimingParams, *, die_aware: bool = False):
        self.geometry = geometry
        self.timing = timing
        self.die_aware = die_aware
        # Plain lists: one scalar max/store per op, no boxed numpy floats.
        # Python floats and numpy float64 share IEEE-double arithmetic,
        # so completion times are bit-identical either way.
        self.plane_free = [0.0] * geometry.num_planes
        self.channel_free = [0.0] * geometry.channels
        self.die_bus_free = [0.0] * geometry.num_dies
        self.counters = FlashCounters(geometry.num_planes, geometry.channels)
        self._page_xfer = timing.page_transfer_us(geometry.page_size)
        # Topology resolved once: one list index per op instead of a
        # ``plane_order`` branch inside the geometry.
        planes = range(geometry.num_planes)
        self._plane_channel = [geometry.plane_to_channel(p) for p in planes]
        self._plane_die = [geometry.plane_to_die(p) for p in planes]

    # ---- helpers ---------------------------------------------------------

    def _channel_of(self, plane: int) -> int:
        return self._plane_channel[plane]

    def _bus_ready(self, plane: int, channel: int, earliest: float) -> float:
        """When the transfer path (channel [+ die bus]) becomes usable."""
        ready = max(earliest, self.channel_free[channel])
        if self.die_aware:
            ready = max(ready, self.die_bus_free[self._plane_die[plane]])
        return ready

    def _bus_hold(self, plane: int, channel: int, until: float) -> None:
        self.channel_free[channel] = until
        if self.die_aware:
            self.die_bus_free[self._plane_die[plane]] = until

    def _note_plane(self, plane: int, start: float, end: float) -> None:
        self.counters.plane_ops[plane] += 1
        self.counters.plane_busy_us[plane] += end - start

    # ---- operations --------------------------------------------------------

    def read_page(self, plane: int, start: float) -> float:
        """Sense a page into the plane register and stream it to the controller."""
        channel = self._channel_of(plane)
        sense_start = max(start, self.plane_free[plane])
        sense_end = sense_start + self.timing.page_read_us
        xfer_start = self._bus_ready(plane, channel, sense_end)
        end = xfer_start + self._page_xfer
        # Register holds the data until the transfer drains.
        self.plane_free[plane] = end
        self._bus_hold(plane, channel, end)
        self.counters.reads += 1
        self.counters.channel_busy_us[channel] += end - xfer_start
        self._note_plane(plane, sense_start, end)
        if BUS.enabled:
            ids = {"plane": plane, "channel": channel}
            BUS.emit("flash", "read", sense_start, end - sense_start, ids, f"plane:{plane}")
            BUS.emit("flash", "xfer_out", xfer_start, end - xfer_start, ids, f"channel:{channel}")
        return end

    def program_page(self, plane: int, start: float) -> float:
        """Stream a page to the plane register and program it."""
        channel = self._channel_of(plane)
        xfer_start = self._bus_ready(plane, channel, start)
        xfer_end = xfer_start + self._page_xfer
        self._bus_hold(plane, channel, xfer_end)
        prog_start = max(xfer_end, self.plane_free[plane])
        end = prog_start + self.timing.page_program_us
        self.plane_free[plane] = end
        self.counters.programs += 1
        self.counters.channel_busy_us[channel] += xfer_end - xfer_start
        self._note_plane(plane, xfer_start, end)
        if BUS.enabled:
            ids = {"plane": plane, "channel": channel}
            BUS.emit("flash", "program", prog_start, end - prog_start, ids, f"plane:{plane}")
            BUS.emit("flash", "xfer_in", xfer_start, xfer_end - xfer_start, ids, f"channel:{channel}")
        return end

    def erase_block(self, plane: int, start: float) -> float:
        """Erase a block on a plane (channel used only for the command cycle)."""
        channel = self._channel_of(plane)
        cmd_start = max(start, self.channel_free[channel])
        cmd_end = cmd_start + self.timing.cmd_addr_us
        self.channel_free[channel] = cmd_end
        erase_start = max(cmd_end, self.plane_free[plane])
        end = erase_start + self.timing.block_erase_us
        self.plane_free[plane] = end
        self.counters.erases += 1
        self.counters.channel_busy_us[channel] += cmd_end - cmd_start
        self._note_plane(plane, cmd_start, end)
        if BUS.enabled:
            ids = {"plane": plane, "channel": channel}
            BUS.emit("flash", "erase", erase_start, end - erase_start, ids, f"plane:{plane}")
        return end

    def copy_back(self, plane: int, start: float) -> float:
        """Intra-plane copy-back: read + program, zero channel occupancy."""
        op_start = max(start, self.plane_free[plane])
        end = op_start + self.timing.copy_back_us()
        self.plane_free[plane] = end
        self.counters.copybacks += 1
        self._note_plane(plane, op_start, end)
        if BUS.enabled:
            BUS.emit("flash", "copy_back", op_start, end - op_start,
                     {"plane": plane}, f"plane:{plane}")
        return end

    def inter_plane_copy(self, src_plane: int, dst_plane: int, start: float) -> float:
        """Traditional copy through the controller buffer (Fig. 2)."""
        return self.inter_plane_copies((src_plane,), dst_plane, start)

    # ---- batch operations ----------------------------------------------------
    #
    # One call prices a whole run of same-kind operations issued at a
    # common ``start`` (a request window's pages, a GC stream) or, for
    # ``inter_plane_copies``, chained end to start (a merge).  The
    # folds are cumulative: each operation's admission point depends on
    # the plane/channel holds left by the previous one, so the general
    # case is a sequential fold over the plane array — exactly the
    # scalar sequence, minus N-1 method dispatches.  Runs that land on a
    # single plane reduce to a closed-form arithmetic chain (each op
    # starts where the last one ended); that path is vectorisable and
    # remains bit-identical because it performs the *same* additions in
    # the same order.  Results are bit-identical to calling the scalar
    # methods in a loop; tests/test_kernels.py and
    # tests/test_timekeeper.py lock this in.

    def read_pages(self, planes, start: float) -> list:
        """Price a read on each plane of ``planes`` (all issued at
        ``start``); returns the per-operation completion times."""
        if BUS.enabled:
            return [self.read_page(plane, start) for plane in planes]
        plane_free = self.plane_free
        channel_free = self.channel_free
        counters = self.counters
        read_us = self.timing.page_read_us
        xfer_us = self._page_xfer
        die_aware = self.die_aware
        plane_channel = self._plane_channel
        ends = []
        for plane in planes:
            channel = plane_channel[plane]
            pf = plane_free[plane]
            sense_start = start if start > pf else pf
            sense_end = sense_start + read_us
            xfer_start = self._bus_ready(plane, channel, sense_end) if die_aware else (
                sense_end if sense_end > channel_free[channel] else channel_free[channel]
            )
            end = xfer_start + xfer_us
            plane_free[plane] = end
            channel_free[channel] = end
            if die_aware:
                self.die_bus_free[self._plane_die[plane]] = end
            counters.reads += 1
            counters.channel_busy_us[channel] += end - xfer_start
            counters.plane_ops[plane] += 1
            counters.plane_busy_us[plane] += end - sense_start
            ends.append(end)
        return ends

    def program_pages(self, planes, start: float) -> list:
        """Price a program on each plane of ``planes`` (all issued at
        ``start``); returns the per-operation completion times."""
        if BUS.enabled:
            return [self.program_page(plane, start) for plane in planes]
        plane_free = self.plane_free
        channel_free = self.channel_free
        counters = self.counters
        program_us = self.timing.page_program_us
        xfer_us = self._page_xfer
        die_aware = self.die_aware
        plane_channel = self._plane_channel
        ends = []
        for plane in planes:
            channel = plane_channel[plane]
            xfer_start = self._bus_ready(plane, channel, start) if die_aware else (
                start if start > channel_free[channel] else channel_free[channel]
            )
            xfer_end = xfer_start + xfer_us
            channel_free[channel] = xfer_end
            if die_aware:
                self.die_bus_free[self._plane_die[plane]] = xfer_end
            pf = plane_free[plane]
            prog_start = xfer_end if xfer_end > pf else pf
            end = prog_start + program_us
            plane_free[plane] = end
            counters.programs += 1
            counters.channel_busy_us[channel] += xfer_end - xfer_start
            counters.plane_ops[plane] += 1
            counters.plane_busy_us[plane] += end - xfer_start
            ends.append(end)
        return ends

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
        die_bus_free = self.die_bus_free
        counters = self.counters
        channel_busy = counters.channel_busy_us
        plane_ops = counters.plane_ops
        plane_busy = counters.plane_busy_us
        read_us = self.timing.page_read_us
        program_us = self.timing.page_program_us
        xfer_us = self._page_xfer
        die_aware = self.die_aware
        plane_channel = self._plane_channel
        plane_die = self._plane_die
        dst_channel = plane_channel[dst_plane]
        dst_die = plane_die[dst_plane]
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
            if die_aware:
                df = die_bus_free[plane_die[src]]
                if df > out_start:
                    out_start = df
            read_end = out_start + xfer_us
            plane_free[src] = read_end
            channel_free[channel] = read_end
            if die_aware:
                die_bus_free[plane_die[src]] = read_end
            channel_busy[channel] += read_end - out_start
            plane_ops[src] += 1
            plane_busy[src] += read_end - sense_start
            # Program: transfer in on the destination channel, then program.
            cf = channel_free[dst_channel]
            in_start = read_end if read_end > cf else cf
            if die_aware:
                df = die_bus_free[dst_die]
                if df > in_start:
                    in_start = df
            in_end = in_start + xfer_us
            channel_free[dst_channel] = in_end
            if die_aware:
                die_bus_free[dst_die] = in_end
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

    # ---- introspection -------------------------------------------------------

    def quiesce_time(self) -> float:
        """Time at which every resource is idle."""
        return max(max(self.plane_free), max(self.channel_free))

    def reset_measurements(self) -> None:
        """Zero timelines and counters (after preconditioning a device)."""
        self.plane_free[:] = [0.0] * len(self.plane_free)
        self.channel_free[:] = [0.0] * len(self.channel_free)
        self.die_bus_free[:] = [0.0] * len(self.die_bus_free)
        # In-place reset keeps references (samplers, exporters) valid.
        self.counters.reset()
        if BUS.enabled:
            # Occupancy checkers must drop busy intervals from before
            # the reset or every post-preconditioning op looks like an
            # overlap with preconditioning history.
            BUS.emit("flash", "timeline_reset", 0.0, 0.0, {}, None, "i")
