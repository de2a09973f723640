"""Conservative-lookahead epoch synchronization across partitions.

Cedar's omega networks have a fixed *minimum* traversal latency -- every
packet spends at least one cycle per stage
(``stages × stage_latency_cycles``), and the boundary channels model the
cut with exactly that latency.  That bound is the conservative lookahead
of classic parallel discrete-event simulation (PARENDI, arXiv:2403.04714):
during an epoch of length ``L`` no partition can observe a message its
peer sent in the same epoch, because a send at cycle ``c`` delivers at
``c + L``, which is provably past the epoch's end.  Each engine therefore
dispatches a whole epoch without null messages or rollback, and partitions
exchange staged messages plus credit returns only at the barrier.

:class:`EpochScheduler` drives any number of engines (one per partition;
the fused machine passes the same engine twice) through lockstep epochs:

1. stamp the epoch on every channel,
2. ``engine.run(until=epoch_end)`` for each partition in order,
3. barrier: drain each channel's outboxes in declaration order and
   schedule deliveries on the destination engine at ``send_cycle +
   latency`` (a later epoch by construction), then return credits to the
   source side, re-arming stalled taps as next-cycle events.

Both flush loops run while every engine is stopped, and their order is
fixed (channels in declaration order, links port-ascending, messages in
send order), so the merged event interleaving -- and hence the run -- is
deterministic for any partitioning.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Sequence, Tuple

from repro.config import CedarConfig
from repro.errors import SimulationError
from repro.hardware.engine import Engine
from repro.partition.boundary import BoundaryChannel


def lookahead_cycles(config: CedarConfig) -> int:
    """Minimum network traversal latency: the sound epoch length.

    Mirrors ``OmegaNetwork``'s stage-count derivation (enough
    ``switch_radix``-way stages to reach every port) times the per-stage
    latency.  The default machine has 2 stages × 1 cycle = 2.
    """
    ports = max(config.num_ces, config.global_memory.num_modules)
    radix = config.network.switch_radix
    stages = 1
    lines = radix
    while lines < ports:
        lines *= radix
        stages += 1
    return max(1, stages * config.network.stage_latency_cycles)


class EpochScheduler:
    """Lockstep epoch driver for a set of partition engines.

    ``channels`` pairs each boundary direction with its source engine (the
    one whose taps feed it) and destination engine (the one that dispatches
    its deliveries).  Declaration order fixes the barrier flush order.
    """

    def __init__(
        self,
        engines: Sequence[Engine],
        channels: Sequence[Tuple[BoundaryChannel, Engine, Engine]],
        epoch_cycles: int,
        max_epochs: int = 10_000_000,
    ) -> None:
        if epoch_cycles < 1:
            raise SimulationError(
                f"epoch length must be >= 1 cycle, got {epoch_cycles}"
            )
        for channel, _source, _dest in channels:
            if channel.latency < epoch_cycles:
                raise SimulationError(
                    f"channel {channel.name} latency {channel.latency} < "
                    f"epoch length {epoch_cycles}: same-epoch delivery "
                    "would break the lookahead guarantee"
                )
        self.engines = list(engines)
        self.channels = list(channels)
        self.epoch_cycles = epoch_cycles
        self.max_epochs = max_epochs
        self.epochs_run = 0
        self.barrier_exchanges = 0

    def run(self, done: Callable[[], bool]) -> int:
        """Advance epochs until ``done()`` holds and the system drains.

        Returns the cycle at the final barrier.  Raises if the system goes
        globally inert (no pending events anywhere, nothing crossed the
        boundary, no credits owed) before ``done()`` -- the partitioned
        analogue of ``CedarMachine.run_kernel``'s deadlock error.
        """
        epoch = max(engine.now for engine in self.engines) // self.epoch_cycles
        iterations = 0
        while True:
            iterations += 1
            if iterations > self.max_epochs:
                raise SimulationError(
                    f"exceeded {self.max_epochs} epochs without completing"
                )
            end = (epoch + 1) * self.epoch_cycles - 1
            for channel, _source, _dest in self.channels:
                channel.epoch = epoch
            for engine in self.engines:
                engine.run(until=end)
            progressed = self._barrier()
            self.epochs_run += 1
            if done() and self._quiescent():
                return end
            if not progressed and all(
                engine.pending() == 0 for engine in self.engines
            ):
                raise SimulationError(
                    "partitioned run stalled before completion: no pending "
                    "events and no boundary traffic at the barrier"
                )
            # Conservative fast-forward: epochs where no engine has an
            # event are provably inert (no events => no sends => empty
            # barriers), so jump straight to the epoch holding the next
            # event -- the partitioned analogue of idle fast-forward.
            pending = [
                cycle
                for cycle in map(Engine.next_event_cycle, self.engines)
                if cycle is not None
            ]
            if pending:
                epoch = max(epoch + 1, min(pending) // self.epoch_cycles)
            else:
                epoch += 1

    def _barrier(self) -> bool:
        """Exchange staged messages and credits; True if anything moved."""
        progressed = False
        for channel, source, dest in self.channels:
            messages = channel.drain_outboxes()
            for message in messages:
                # Strictly future by the lookahead argument; scheduling is
                # legal because no engine is running at a barrier.
                dest.schedule(
                    message.send_cycle + channel.latency - dest.now,
                    partial(channel.deliver, message),
                )
            if messages:
                progressed = True
                self.barrier_exchanges += len(messages)
            credits = channel.take_returned_credits()
            if channel.apply_credits(credits, source):
                progressed = True
        return progressed

    def _quiescent(self) -> bool:
        return all(engine.pending() == 0 for engine in self.engines) and all(
            channel.idle() for channel, _source, _dest in self.channels
        )
