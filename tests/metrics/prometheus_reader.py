"""A minimal Prometheus exposition reader: the exporter's test oracle.

:func:`parse_prometheus` round-trips :func:`repro.metrics.export.prometheus_text`
and reads a live server's ``/metrics``.  It is a deliberately small subset
(no exemplars, no timestamps) and raises :class:`MetricsError` on any line
it cannot understand, so malformed output fails the test that reads it.
Import it by package path: ``from tests.metrics.prometheus_reader import
parse_prometheus``.
"""

import re
from typing import Dict, List, Tuple

from repro.errors import MetricsError
from repro.metrics.registry import flat_series_name


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


_ESCAPE_RE = re.compile(r"\\(.)")
_ESCAPES = {"n": "\n", '"': '"', "\\": "\\"}


def _unescape(value: str) -> str:
    # Single pass over escape sequences.  Chained str.replace calls corrupt
    # values where one replacement manufactures another's pattern: the
    # two-character value `\` + `n` escapes to `\\n`, which a leading
    # replace(r"\n", "\n") would turn into `\` + newline.  With /metrics
    # serving externally supplied config strings as labels, such values are
    # reachable from the wire, not just from tests.
    return _ESCAPE_RE.sub(
        lambda match: _ESCAPES.get(match.group(1), "\\" + match.group(1)),
        value,
    )


def parse_prometheus(text: str) -> Dict[str, float]:
    """Parse exposition text into ``{name{k=v,...}: value}``."""
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise MetricsError(f"unparseable exposition line: {line!r}")
        labels_text = match.group("labels")
        labels: List[Tuple[str, str]] = []
        if labels_text:
            consumed = 0
            for label_match in _LABEL_RE.finditer(labels_text):
                labels.append(
                    (label_match.group(1), _unescape(label_match.group(2)))
                )
                consumed = label_match.end()
            remainder = labels_text[consumed:].strip().strip(",")
            if remainder:
                raise MetricsError(
                    f"unparseable label fragment {remainder!r} in {line!r}"
                )
        raw = match.group("value")
        try:
            value = float(raw.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError:
            raise MetricsError(f"unparseable sample value {raw!r}") from None
        key = flat_series_name(match.group("name"), tuple(sorted(labels)))
        samples[key] = value
    return samples
