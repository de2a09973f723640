"""Columnar record storage for the trace bus.

The legacy tracer kept one Python object per record (a frozen dataclass in
a list), which is the scalability ceiling named in ROADMAP item 5: at
million-record scale the object store costs ~2.3 us and a few hundred
bytes per record, and per-worker timelines cannot be merged without
re-materializing every object.  This module stores records the way the
paper's hardware tracers do -- flat, preallocated, bounded:

* each record kind (span / instant / counter sample) is a **ring of flat
  ``array('q')`` / ``array('d')`` columns** (stdlib ``array``: the repo is
  dependency-free by policy) that grows geometrically to ``max_records``
  and then wraps, evicting the **oldest** record machine-wide;
* component and record names are **string-interned** -- columns hold
  integer ids into one :class:`StringTable` per store;
* :meth:`ColumnarStore.snapshot` exports **zero-copy memoryview segments**
  over the live columns (two segments when a ring has wrapped), so taking
  a snapshot never pauses or copies the simulation's timeline;
* :meth:`TraceSnapshot.to_bytes` / :meth:`TraceSnapshot.from_bytes` give
  the wire format that per-worker buffers travel through (``--jobs N``
  runs, serve-tier ``GET /jobs/<id>/trace``) before a
  :class:`~repro.trace.merge.TraceMerger` splices them into one timeline.

Record layout (all int64 unless noted):

=========  =====================================================
spans      seq, component, name, epoch, start, end, depth + args (object)
instants   seq, component, name, epoch, cycle + value (object)
samples    seq, component, name, epoch, cycle + value (float64)
=========  =====================================================

``seq`` is a store-wide monotonic sequence number: it orders eviction
(the globally-oldest record goes first under one shared ``max_records``
budget) and gives merges a deterministic tiebreak for records that share
a cycle.
"""

from __future__ import annotations

import json
import struct
import sys
from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import TraceError

#: First ring allocation; doubles until ``max_records``.
INITIAL_CAPACITY = 1024

#: Wire-format magic; the trailing byte versions the layout.
WIRE_MAGIC = b"CEDARTRC\x01"

#: Column names per kind, in wire order.
SPAN_INT_COLUMNS = ("seq", "component", "name", "epoch", "start", "end", "depth")
INSTANT_INT_COLUMNS = ("seq", "component", "name", "epoch", "cycle")
SAMPLE_INT_COLUMNS = ("seq", "component", "name", "epoch", "cycle")
SAMPLE_FLOAT_COLUMNS = ("value",)

KINDS = ("spans", "instants", "samples")

#: (kind, int column names) in wire order.
INT_LAYOUT = (
    ("spans", SPAN_INT_COLUMNS),
    ("instants", INSTANT_INT_COLUMNS),
    ("samples", SAMPLE_INT_COLUMNS),
)

#: Value types whose ``repr`` is stable across processes.
_STABLE_SCALARS = (int, float, str, bool, type(None))


def render_value(value: object) -> str:
    """Deterministic string form of an instant value.

    Scalars keep their ``repr``; anything else renders as its qualified
    type name, because the default object ``repr`` embeds a memory
    address and would make otherwise-identical traces differ between
    worker processes (breaking ``--jobs N`` merge determinism).
    """
    if isinstance(value, _STABLE_SCALARS):
        return repr(value)
    return f"<{type(value).__module__}.{type(value).__qualname__}>"


class StringTable:
    """Bidirectional string interner: name/component -> dense int id."""

    __slots__ = ("strings", "_ids")

    def __init__(self, strings: Optional[Iterable[str]] = None) -> None:
        self.strings: List[str] = list(strings or ())
        self._ids: Dict[str, int] = {s: i for i, s in enumerate(self.strings)}

    def intern(self, string: str) -> int:
        """The id of ``string``, assigning the next dense id on first use."""
        ident = self._ids.get(string)
        if ident is None:
            ident = self._ids[string] = len(self.strings)
            self.strings.append(string)
        return ident

    def __len__(self) -> int:
        return len(self.strings)


class _Ring:
    """One record kind's bounded ring of flat columns.

    Preallocated ``array('q')`` int columns (plus optional float and
    Python-object columns) with a logical ``tail``/``count`` window.
    Capacity doubles up to ``limit``; beyond that the caller pops the
    oldest record to make room, which is what makes it a ring.
    """

    __slots__ = (
        "int_cols", "float_cols", "obj_cols",
        "capacity", "limit", "tail", "count",
    )

    def __init__(
        self,
        num_ints: int,
        num_floats: int = 0,
        num_objs: int = 0,
        limit: int = 1,
    ) -> None:
        capacity = min(INITIAL_CAPACITY, limit)
        self.capacity = capacity
        self.limit = limit
        self.tail = 0
        self.count = 0
        self.int_cols = [array("q", bytes(8 * capacity)) for _ in range(num_ints)]
        self.float_cols = [array("d", bytes(8 * capacity)) for _ in range(num_floats)]
        self.obj_cols = [[None] * capacity for _ in range(num_objs)]

    # -- writes ------------------------------------------------------------

    def append(
        self,
        ints: Tuple[int, ...],
        floats: Tuple[float, ...] = (),
        objs: Tuple[object, ...] = (),
    ) -> None:
        if self.count == self.capacity:
            self._grow()
        index = self.tail + self.count
        if index >= self.capacity:
            index -= self.capacity
        for col, value in zip(self.int_cols, ints):
            col[index] = value
        for col, value in zip(self.float_cols, floats):
            col[index] = value
        for col, value in zip(self.obj_cols, objs):
            col[index] = value
        self.count += 1

    def pop_oldest(self) -> None:
        for col in self.obj_cols:
            col[self.tail] = None  # release the reference immediately
        self.tail += 1
        if self.tail == self.capacity:
            self.tail = 0
        self.count -= 1

    def oldest_seq(self) -> int:
        return self.int_cols[0][self.tail]

    def _grow(self) -> None:
        new_capacity = min(self.capacity * 2, self.limit)
        first = min(self.count, self.capacity - self.tail)
        rest = self.count - first
        for cols, typecode in ((self.int_cols, "q"), (self.float_cols, "d")):
            for i, col in enumerate(cols):
                grown = array(typecode, bytes(8 * new_capacity))
                view, old = memoryview(grown), memoryview(col)
                view[:first] = old[self.tail:self.tail + first]
                if rest:
                    view[first:self.count] = old[:rest]
                cols[i] = grown
        for i, col in enumerate(self.obj_cols):
            grown = [None] * new_capacity
            grown[:first] = col[self.tail:self.tail + first]
            if rest:
                grown[first:self.count] = col[:rest]
            self.obj_cols[i] = grown
        self.capacity = new_capacity
        self.tail = 0

    # -- reads -------------------------------------------------------------

    def _window(self) -> Tuple[int, int]:
        """(first-segment length, wrapped remainder length)."""
        first = min(self.count, self.capacity - self.tail)
        return first, self.count - first

    def int_segments(self, index: int) -> Tuple[memoryview, ...]:
        return self._segments(memoryview(self.int_cols[index]))

    def float_segments(self, index: int) -> Tuple[memoryview, ...]:
        return self._segments(memoryview(self.float_cols[index]))

    def obj_segments(self, index: int) -> Tuple[Sequence[object], ...]:
        col = self.obj_cols[index]
        first, rest = self._window()
        segments: Tuple[Sequence[object], ...] = (
            col[self.tail:self.tail + first],
        )
        if rest:
            segments += (col[:rest],)
        return segments

    def _segments(self, view: memoryview) -> Tuple[memoryview, ...]:
        first, rest = self._window()
        segments = (view[self.tail:self.tail + first],)
        if rest:
            segments += (view[:rest],)
        return segments

    @property
    def buffer_bytes(self) -> int:
        numeric = 8 * self.capacity * (len(self.int_cols) + len(self.float_cols))
        return numeric + 8 * self.capacity * len(self.obj_cols)


def _materialize(segments: Sequence[Sequence[object]]) -> List[object]:
    """Flatten column segments into one Python list (export-time only)."""
    out: List[object] = []
    for segment in segments:
        if isinstance(segment, memoryview):
            out.extend(segment.tolist())
        else:
            out.extend(segment)
    return out


class TraceSnapshot:
    """A columnar view of one tracer's records plus its exact aggregates.

    Produced zero-copy by :meth:`ColumnarStore.snapshot` (numeric columns
    are memoryview segments over the live rings -- take :meth:`to_bytes`
    to freeze one), by :meth:`from_bytes` when parsing the wire format,
    and by :class:`~repro.trace.merge.TraceMerger` for merged timelines.
    """

    __slots__ = (
        "strings", "counts", "int_columns", "float_columns", "obj_columns",
        "counter_totals", "sampled_counters", "busy_cycles", "span_counts",
        "elapsed_by_epoch", "epochs", "dropped", "records_seen", "values_rendered", "buffer_bytes",
    )

    def __init__(self) -> None:
        self.strings: List[str] = []
        self.counts: Dict[str, int] = {kind: 0 for kind in KINDS}
        #: kind -> column name -> segment tuple; every column starts empty,
        #: so a fresh snapshot is a valid zero-record one.
        self.int_columns: Dict[str, Dict[str, Sequence]] = {
            kind: dict.fromkeys(names, ()) for kind, names in INT_LAYOUT
        }
        self.float_columns: Dict[str, Dict[str, Sequence]] = {
            "spans": {}, "instants": {}, "samples": {"value": ()}
        }
        self.obj_columns: Dict[str, Dict[str, Sequence]] = {
            "spans": {"args": ()}, "instants": {"value": ()}, "samples": {}
        }
        self.counter_totals: Dict[str, Dict[str, float]] = {}
        #: component -> sorted names of its sampled counters (gauges).
        self.sampled_counters: Dict[str, List[str]] = {}
        self.busy_cycles: Dict[str, int] = {}
        self.span_counts: Dict[str, int] = {}
        self.elapsed_by_epoch: Dict[int, int] = {}
        self.epochs = 1
        self.dropped = 0
        self.records_seen = 0
        #: True once instant values have been flattened to their ``repr``
        #: (the wire format cannot carry arbitrary objects).
        self.values_rendered = False
        self.buffer_bytes = 0

    @property
    def num_records(self) -> int:
        return sum(self.counts.values())

    def column(self, kind: str, name: str) -> List[object]:
        """Materialize one column as a flat Python list."""
        for table in (self.int_columns, self.float_columns, self.obj_columns):
            if name in table[kind]:
                return _materialize(table[kind][name])
        raise TraceError(f"snapshot has no column {kind}/{name}")

    def columns(self, kind: str, *names: str) -> Tuple[List[object], ...]:
        return tuple(self.column(kind, name) for name in names)

    def components(self) -> List[str]:
        """Sorted distinct component names across all record kinds."""
        ids = set()
        for kind in KINDS:
            ids.update(self.column(kind, "component"))
        return sorted(self.strings[i] for i in ids)

    def record_epochs(self) -> List[int]:
        """Sorted distinct epochs that actually hold records."""
        epochs = set()
        for kind in KINDS:
            epochs.update(self.column(kind, "epoch"))
        return sorted(epochs)

    # -- wire format --------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize: magic, u32 header length, JSON header, raw columns.

        Numeric columns ship as native-endian int64/float64 (the header
        records byteorder so a cross-endian merge fails loudly instead of
        silently misreading); object columns (span args, instant values)
        ship inside the JSON header, instant values flattened to ``repr``.
        """
        header: Dict[str, object] = {
            "byteorder": sys.byteorder,
            "strings": self.strings,
            "counts": self.counts,
            "counter_totals": self.counter_totals,
            "sampled_counters": self.sampled_counters,
            "busy_cycles": self.busy_cycles,
            "span_counts": self.span_counts,
            "elapsed_by_epoch": {str(k): v for k, v in self.elapsed_by_epoch.items()},
            "epochs": self.epochs,
            "dropped": self.dropped,
            "records_seen": self.records_seen,
            "span_args": _materialize(self.obj_columns["spans"]["args"]),
            "instant_values": [
                value if self.values_rendered else render_value(value)
                for value in _materialize(self.obj_columns["instants"]["value"])
            ],
        }
        blobs: List[bytes] = []
        for kind, names in INT_LAYOUT:
            for name in names:
                blobs.append(_segment_bytes(self.int_columns[kind][name]))
        for name in SAMPLE_FLOAT_COLUMNS:
            blobs.append(_segment_bytes(self.float_columns["samples"][name]))
        head = json.dumps(header, separators=(",", ":")).encode("utf-8")
        return b"".join(
            [WIRE_MAGIC, struct.pack("<I", len(head)), head] + blobs
        )

    @classmethod
    def from_bytes(cls, payload: bytes) -> "TraceSnapshot":
        """Parse the wire format; numeric columns stay zero-copy views."""
        if not payload.startswith(WIRE_MAGIC):
            raise TraceError("not a columnar trace snapshot (bad magic)")
        offset = len(WIRE_MAGIC)
        (head_len,) = struct.unpack_from("<I", payload, offset)
        offset += 4
        try:
            header = json.loads(payload[offset:offset + head_len].decode("utf-8"))
        except ValueError as error:
            raise TraceError(f"corrupt snapshot header: {error}") from None
        offset += head_len
        if header.get("byteorder") != sys.byteorder:
            raise TraceError(
                f"snapshot byteorder {header.get('byteorder')!r} does not "
                f"match this host ({sys.byteorder})"
            )
        snap = cls()
        snap.strings = list(header["strings"])
        snap.counts = {kind: int(header["counts"][kind]) for kind in KINDS}
        snap.counter_totals = header["counter_totals"]
        snap.sampled_counters = header["sampled_counters"]
        snap.busy_cycles = header["busy_cycles"]
        snap.span_counts = header["span_counts"]
        snap.elapsed_by_epoch = {
            int(k): v for k, v in header["elapsed_by_epoch"].items()
        }
        snap.epochs = int(header["epochs"])
        snap.dropped = int(header["dropped"])
        snap.records_seen = int(header["records_seen"])
        snap.values_rendered = True
        view = memoryview(payload)
        for kind, names in INT_LAYOUT:
            count = snap.counts[kind]
            for name in names:
                segment = view[offset:offset + 8 * count].cast("q")
                snap.int_columns[kind][name] = (segment,)
                offset += 8 * count
        for name in SAMPLE_FLOAT_COLUMNS:
            count = snap.counts["samples"]
            segment = view[offset:offset + 8 * count].cast("d")
            snap.float_columns["samples"][name] = (segment,)
            offset += 8 * count
        snap.obj_columns["spans"]["args"] = (list(header["span_args"]),)
        snap.obj_columns["instants"]["value"] = (list(header["instant_values"]),)
        snap.buffer_bytes = len(payload)
        return snap


def _segment_bytes(segments: Sequence[memoryview]) -> bytes:
    return b"".join(
        seg.tobytes() if isinstance(seg, memoryview) else array("q", seg).tobytes()
        for seg in segments
    )


class ColumnarStore:
    """The flat bounded record store behind a columnar :class:`Tracer`.

    One shared ``max_records`` budget spans all three kinds.  At capacity
    the rings *evict the oldest* record machine-wide (smallest ``seq``),
    so a long run always retains its most recent window.  Evictions are
    counted in :attr:`dropped`.
    """

    def __init__(self, max_records: int) -> None:
        if max_records < 1:
            raise TraceError(f"max_records must be >= 1, got {max_records}")
        self.max_records = max_records
        self.strings = StringTable()
        self._spans = _Ring(len(SPAN_INT_COLUMNS), 0, 1, limit=max_records)
        self._instants = _Ring(len(INSTANT_INT_COLUMNS), 0, 1, limit=max_records)
        self._samples = _Ring(len(SAMPLE_INT_COLUMNS), 1, 0, limit=max_records)
        self._seq = 0
        self._retained = 0
        self.dropped = 0  # records evicted oldest-first

    # -- hot appends ---------------------------------------------------------

    def _make_room(self) -> int:
        """Reserve one record slot, evicting the globally-oldest if full."""
        seq = self._seq
        self._seq = seq + 1
        if self._retained >= self.max_records:
            oldest = None
            for ring in (self._spans, self._instants, self._samples):
                if ring.count and (
                    oldest is None or ring.oldest_seq() < oldest.oldest_seq()
                ):
                    oldest = ring
            assert oldest is not None
            oldest.pop_oldest()
            self.dropped += 1
        else:
            self._retained += 1
        return seq

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
        seq = self._make_room()
        intern = self.strings.intern
        self._spans.append(
            (seq, intern(component), intern(name), epoch, start, end, depth),
            objs=(args,),
        )

    def add_instant(
        self, component: str, name: str, epoch: int, cycle: int, value: object
    ) -> None:
        seq = self._make_room()
        intern = self.strings.intern
        self._instants.append(
            (seq, intern(component), intern(name), epoch, cycle), objs=(value,)
        )

    def add_sample(
        self, component: str, name: str, epoch: int, cycle: int, value: float
    ) -> None:
        seq = self._make_room()
        intern = self.strings.intern
        self._samples.append(
            (seq, intern(component), intern(name), epoch, cycle),
            floats=(value,),
        )

    # -- introspection -------------------------------------------------------

    @property
    def num_records(self) -> int:
        return self._retained

    @property
    def total_appended(self) -> int:
        return self._seq

    @property
    def buffer_bytes(self) -> int:
        return (
            self._spans.buffer_bytes
            + self._instants.buffer_bytes
            + self._samples.buffer_bytes
        )

    def counts(self) -> Dict[str, int]:
        return {
            "spans": self._spans.count,
            "instants": self._instants.count,
            "samples": self._samples.count,
        }

    def snapshot(self) -> TraceSnapshot:
        """Zero-copy columnar view of the retained records.

        Numeric columns are memoryview segments over the live rings (two
        segments where a ring has wrapped): nothing is copied and the
        simulation is never paused.  The views track the live buffer --
        serialize with :meth:`TraceSnapshot.to_bytes` before recording
        more if a frozen copy is needed.
        """
        snap = TraceSnapshot()
        snap.strings = self.strings.strings
        snap.counts = self.counts()
        snap.dropped = self.dropped
        snap.records_seen = self._seq
        snap.buffer_bytes = self.buffer_bytes
        for kind, ring, names in (
            ("spans", self._spans, SPAN_INT_COLUMNS),
            ("instants", self._instants, INSTANT_INT_COLUMNS),
            ("samples", self._samples, SAMPLE_INT_COLUMNS),
        ):
            for index, name in enumerate(names):
                snap.int_columns[kind][name] = ring.int_segments(index)
        snap.float_columns["samples"]["value"] = self._samples.float_segments(0)
        snap.obj_columns["spans"]["args"] = self._spans.obj_segments(0)
        snap.obj_columns["instants"]["value"] = self._instants.obj_segments(0)
        return snap
