"""Reference trace record store: one frozen dataclass per record.

This is the oracle the columnar tests hold ``repro.trace.columnar`` to.
A test installs it as ``tracer._store``; its :meth:`ObjectStore.snapshot`
columnarizes the object records, so exporters render it through the same
path as the production ring buffer and must produce byte-identical
output.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.errors import TraceError
from repro.trace import CounterSample, Instant, Span, StringTable, TraceSnapshot

#: Nominal heap bytes per record (dataclass + list slot), so the store
#: reports a ``buffer_bytes`` comparable to the columnar one.
_OBJECT_RECORD_BYTES = 160


class ObjectStore:
    """The reference record store: one frozen dataclass per record.

    At capacity it drops the *newest* record (the columnar rings evict the
    oldest); either way ``dropped`` counts exactly ``total_appended - max_records`` overflow
    records and aggregates stay exact.
    """

    def __init__(self, max_records: int) -> None:
        if max_records < 1:
            raise TraceError(f"max_records must be >= 1, got {max_records}")
        self.max_records = max_records
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.samples: List[CounterSample] = []
        self.dropped = 0
        self.total_appended = 0
        self._seqs: Dict[str, List[int]] = {
            "spans": [], "instants": [], "samples": []
        }

    def _admit(self, kind: str) -> bool:
        seq = self.total_appended
        self.total_appended = seq + 1
        if self.num_records >= self.max_records:
            self.dropped += 1
            return False
        self._seqs[kind].append(seq)
        return True

    def add_span(
        self,
        component: str,
        name: str,
        epoch: int,
        start: int,
        end: int,
        depth: int,
        args: Optional[Dict[str, object]],
    ) -> None:
        if self._admit("spans"):
            self.spans.append(
                Span(component, name, epoch, start, end, depth, args)
            )

    def add_instant(
        self, component: str, name: str, epoch: int, cycle: int, value: object
    ) -> None:
        if self._admit("instants"):
            self.instants.append(Instant(component, name, epoch, cycle, value))

    def add_sample(
        self, component: str, name: str, epoch: int, cycle: int, value: float
    ) -> None:
        if self._admit("samples"):
            self.samples.append(CounterSample(component, name, epoch, cycle, value))

    @property
    def num_records(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.samples)

    @property
    def buffer_bytes(self) -> int:
        return self.num_records * _OBJECT_RECORD_BYTES

    def counts(self) -> Dict[str, int]:
        return {
            "spans": len(self.spans),
            "instants": len(self.instants),
            "samples": len(self.samples),
        }

    def snapshot(self) -> TraceSnapshot:
        """Columnarize the object records (copying; export-path only)."""
        snap = TraceSnapshot()
        table = StringTable()
        intern = table.intern

        def seg(typecode: str, values) -> Tuple[memoryview, ...]:
            return (memoryview(array(typecode, values)),)

        spans = self.spans
        snap.int_columns["spans"] = {
            "seq": seg("q", self._seqs["spans"]),
            "component": seg("q", (intern(s.component) for s in spans)),
            "name": seg("q", (intern(s.name) for s in spans)),
            "epoch": seg("q", (s.epoch for s in spans)),
            "start": seg("q", (s.start for s in spans)),
            "end": seg("q", (s.end for s in spans)),
            "depth": seg("q", (s.depth for s in spans)),
        }
        snap.obj_columns["spans"]["args"] = ([s.args for s in spans],)
        instants = self.instants
        snap.int_columns["instants"] = {
            "seq": seg("q", self._seqs["instants"]),
            "component": seg("q", (intern(i.component) for i in instants)),
            "name": seg("q", (intern(i.name) for i in instants)),
            "epoch": seg("q", (i.epoch for i in instants)),
            "cycle": seg("q", (i.cycle for i in instants)),
        }
        snap.obj_columns["instants"]["value"] = ([i.value for i in instants],)
        samples = self.samples
        snap.int_columns["samples"] = {
            "seq": seg("q", self._seqs["samples"]),
            "component": seg("q", (intern(c.component) for c in samples)),
            "name": seg("q", (intern(c.name) for c in samples)),
            "epoch": seg("q", (c.epoch for c in samples)),
            "cycle": seg("q", (c.cycle for c in samples)),
        }
        snap.float_columns["samples"]["value"] = seg(
            "d", (c.value for c in samples)
        )
        snap.strings = table.strings
        snap.counts = self.counts()
        snap.dropped = self.dropped
        snap.records_seen = self.total_appended
        snap.buffer_bytes = self.buffer_bytes
        return snap
