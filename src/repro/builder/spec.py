"""The declarative machine specification and its validation rules.

A :class:`MachineSpec` is pure data: the handful of structural knobs the
design-space study varies, each checked at construction time so an invalid
shape fails *before* any simulator state exists, with a
:class:`~repro.errors.SpecError` naming the offending field.  Everything
else about the machine (vector-unit timings, cache geometry, sync costs)
stays at the paper's values -- the sweep varies structure, not physics.

Validation encodes the constraints the hardware layers assume:

* Radix, module count, interleave, and prefetch buffer must be powers of
  two -- address steering (``address % num_modules``), the shuffle-exchange
  digit arithmetic, and block-aligned prefetch all index by masking.
* The destination-tag routing scheme [Lawr75] spends ``log2(radix)`` tag
  bits per stage; the packet header budgets :data:`MAX_ROUTING_TAG_BITS`
  bits for the tag, which bounds how many ports a spec may connect.
* Port queues below one word cannot hold a packet; absurdly deep queues
  (> :data:`MAX_PORT_QUEUE_WORDS`) would no longer model the paper's
  two-word flow control regime, just hide it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, Optional

from repro.config import MAX_SWITCH_RADIX, network_stages_for
from repro.errors import SpecError

#: Routing-tag bits the packet header can carry.  The first packet word
#: holds routing/control plus the memory address; ten tag bits cover the
#: paper's machine (2 stages x 3 bits) with headroom for e.g. 1024 ports
#: of radix-2 switches, while a 2048-port radix-2 shape -- 11 stages --
#: exceeds the field and must be declared at a higher radix instead.
MAX_ROUTING_TAG_BITS = 10

#: Sanity ceiling on crossbar port queues -- beyond this the network no
#: longer exerts the back-pressure the simulator's flow control models.
MAX_PORT_QUEUE_WORDS = 64

#: Largest prefetch buffer a spec may declare (words).
MAX_PREFETCH_BUFFER_WORDS = 65536

#: Smallest useful prefetch buffer: one compiler-generated block
#: (Section 3.2's 32-word blocks).
MIN_PREFETCH_BUFFER_WORDS = 32


def _is_power_of_two(value: int) -> bool:
    return value >= 1 and (value & (value - 1)) == 0


def _require_int(name: str, value: object) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(name, "must be an integer", value)
    return value


@dataclass(frozen=True)
class MachineSpec:
    """Structural description of one machine in the design space.

    Defaults describe the Cedar of the paper; :data:`CEDAR_SPEC` is that
    default point.  Instances are immutable and validated on construction.
    """

    #: Alliant FX/8 clusters.
    clusters: int = 4
    #: Computational elements per cluster.
    ces_per_cluster: int = 8
    #: Crossbar switch radix (8 = the paper's 8x8 switches).
    switch_radix: int = 8
    #: Network stage count; ``None`` derives it from the port count and
    #: radix, an explicit value must agree with that derivation.
    network_stages: Optional[int] = None
    #: Packet-word capacity of each crossbar input/output port queue.
    port_queue_words: int = 2
    #: Independent global-memory modules.
    memory_modules: int = 32
    #: Consecutive 64-bit words per module before the interleave advances
    #: (1 = the paper's double-word interleave).
    interleave_words: int = 1
    #: Memory modules carrying a synchronization processor (the first N);
    #: ``None`` equips every module, as built.
    sync_processors: Optional[int] = None
    #: Per-CE prefetch buffer capacity in words.
    prefetch_buffer_words: int = 512

    # -- derived shape ---------------------------------------------------

    @property
    def num_ces(self) -> int:
        """Total computational elements."""
        return self.clusters * self.ces_per_cluster

    @property
    def network_ports(self) -> int:
        """Ports each network must connect (CE side vs memory side)."""
        return max(self.num_ces, self.memory_modules)

    @property
    def stage_count(self) -> int:
        """Stages of radix-``switch_radix`` switches, derived or declared."""
        return network_stages_for(self.network_ports, self.switch_radix)

    @property
    def routing_tag_bits(self) -> int:
        """Destination-tag bits consumed end to end (one digit per stage)."""
        return self.stage_count * (self.switch_radix - 1).bit_length()

    @property
    def sync_processor_count(self) -> int:
        """Modules with a synchronization processor (defaults to all)."""
        if self.sync_processors is None:
            return self.memory_modules
        return self.sync_processors

    # -- validation ------------------------------------------------------

    def __post_init__(self) -> None:
        clusters = _require_int("clusters", self.clusters)
        if not 1 <= clusters <= 64:
            raise SpecError("clusters", "must be between 1 and 64", clusters)
        ces = _require_int("ces_per_cluster", self.ces_per_cluster)
        if not 1 <= ces <= 64:
            raise SpecError(
                "ces_per_cluster", "must be between 1 and 64", ces
            )
        if not _is_power_of_two(ces):
            raise SpecError(
                "ces_per_cluster",
                "must be a power of two (CE ports index the network by "
                "digit masking)",
                ces,
            )
        radix = _require_int("switch_radix", self.switch_radix)
        if not _is_power_of_two(radix) or not 2 <= radix <= MAX_SWITCH_RADIX:
            raise SpecError(
                "switch_radix",
                f"must be a power of two between 2 and {MAX_SWITCH_RADIX}",
                radix,
            )
        queue = _require_int("port_queue_words", self.port_queue_words)
        if not 1 <= queue <= MAX_PORT_QUEUE_WORDS:
            raise SpecError(
                "port_queue_words",
                f"must be between 1 and {MAX_PORT_QUEUE_WORDS}",
                queue,
            )
        modules = _require_int("memory_modules", self.memory_modules)
        if not _is_power_of_two(modules) or not 2 <= modules <= 1024:
            raise SpecError(
                "memory_modules",
                "must be a power of two between 2 and 1024 (address "
                "steering interleaves by modulo)",
                modules,
            )
        interleave = _require_int("interleave_words", self.interleave_words)
        if not _is_power_of_two(interleave) or interleave > 64:
            raise SpecError(
                "interleave_words",
                "must be a power of two between 1 and 64",
                interleave,
            )
        if self.sync_processors is not None:
            sync = _require_int("sync_processors", self.sync_processors)
            if not 1 <= sync <= modules:
                raise SpecError(
                    "sync_processors",
                    f"must be between 1 and memory_modules ({modules}), "
                    "or None for all",
                    sync,
                )
        buffer_words = _require_int(
            "prefetch_buffer_words", self.prefetch_buffer_words
        )
        if (
            not _is_power_of_two(buffer_words)
            or not MIN_PREFETCH_BUFFER_WORDS
            <= buffer_words
            <= MAX_PREFETCH_BUFFER_WORDS
        ):
            raise SpecError(
                "prefetch_buffer_words",
                "must be a power of two between "
                f"{MIN_PREFETCH_BUFFER_WORDS} and {MAX_PREFETCH_BUFFER_WORDS}",
                buffer_words,
            )
        derived = network_stages_for(self.network_ports, radix)
        if self.network_stages is not None:
            declared = _require_int("network_stages", self.network_stages)
            if declared != derived:
                raise SpecError(
                    "network_stages",
                    f"{self.network_ports} ports at radix {radix} need "
                    f"exactly {derived} stages",
                    declared,
                )
        tag_bits = derived * (radix - 1).bit_length()
        if tag_bits > MAX_ROUTING_TAG_BITS:
            raise SpecError(
                "network_stages",
                f"routing tag needs {tag_bits} bits "
                f"({derived} stages x {(radix - 1).bit_length()} bits/stage) "
                f"but the packet header budgets {MAX_ROUTING_TAG_BITS}",
                derived,
            )

    # -- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON-safe, field-name keyed)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MachineSpec":
        """Construct and validate a spec from plain data.

        Unknown keys are a :class:`~repro.errors.SpecError` -- a sweep
        axis with a typo'd field name must fail loudly, not silently
        sweep nothing.
        """
        if not isinstance(data, dict):
            raise SpecError("spec", "must be a JSON object", data)
        known = {f.name for f in fields(cls)}
        for key in sorted(data):
            if key not in known:
                raise SpecError(
                    str(key),
                    "unknown spec field; known fields: "
                    + ", ".join(sorted(known)),
                )
        return cls(**data)


#: The Cedar machine of the paper, as a spec.  Elaborates to a
#: configuration equal to :data:`repro.config.DEFAULT_CONFIG` -- the
#: golden-equivalence tests pin this.
CEDAR_SPEC = MachineSpec()
