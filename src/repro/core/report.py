"""ASCII report generators: tables and the Figure 3 scatter plot.

The experiment drivers use these helpers to print "the same rows/series the
paper reports" without depending on any plotting library.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.bands import Band, band_thresholds, classify_efficiency


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Render a list of rows as a fixed-width ASCII table."""
    if any(len(row) != len(headers) for row in rows):
        raise ValueError("every row must have one cell per header")
    cells = [[_format_cell(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in cells)) if cells else len(headers[i])
        for i in range(len(headers))
    ]
    lines: List[str] = []
    if title:
        lines.append(title)
    rule = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append(rule)
    for row in cells:
        lines.append(" | ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _format_cell(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.1f}"
    if value is None:
        return "-"
    return str(value)


def efficiency_scatter(
    x_efficiencies: Mapping[str, float],
    y_efficiencies: Mapping[str, float],
    x_processors: int,
    y_processors: int,
    x_label: str = "Cray YMP/8",
    y_label: str = "Cedar",
    width: int = 51,
    height: int = 21,
) -> str:
    """ASCII rendition of Figure 3: per-code efficiency on two machines.

    Each shared code becomes one point labelled by the band letter of the
    *y* machine (U/I/H, matching the figure's legend); the two machines'
    band thresholds are drawn as axis annotations in the footer.
    """
    shared = sorted(set(x_efficiencies) & set(y_efficiencies))
    if not shared:
        raise ValueError("no codes are present on both machines")
    grid = [[" "] * width for _ in range(height)]
    letter = {Band.HIGH: "H", Band.INTERMEDIATE: "I", Band.UNACCEPTABLE: "U"}
    for code in shared:
        x = min(max(x_efficiencies[code], 0.0), 1.0)
        y = min(max(y_efficiencies[code], 0.0), 1.0)
        col = min(int(x * (width - 1)), width - 1)
        row = height - 1 - min(int(y * (height - 1)), height - 1)
        band = classify_efficiency(y_efficiencies[code], y_processors)
        grid[row][col] = letter[band]
    lines = [f"{y_label} efficiency (rows) vs {x_label} efficiency (cols)"]
    lines.extend("|" + "".join(row) for row in grid)
    lines.append("+" + "-" * width)
    x_high, x_ok = band_thresholds(x_processors)
    y_high, y_ok = band_thresholds(y_processors)
    lines.append(
        f"bands ({y_label}): H >= {y_high / y_processors:.2f}, "
        f"I >= {y_ok / y_processors:.2f}; "
        f"({x_label}): H >= {x_high / x_processors:.2f}, "
        f"I >= {x_ok / x_processors:.2f}"
    )
    lines.append("legend: U-Unacceptable  I-Intermediate  H-High")
    return "\n".join(lines)


def band_summary(
    bands: Mapping[str, Band],
) -> Dict[Band, List[str]]:
    """Group code names by band, for the PPT1/Figure 3 narratives."""
    grouped: Dict[Band, List[str]] = {b: [] for b in Band}
    for code in sorted(bands):
        grouped[bands[code]].append(code)
    return grouped


def fraction_description(bands: Mapping[str, Band]) -> str:
    """A sentence in the paper's style: "about one-quarter high and ...".

    Used by the Figure 3 experiment to echo the paper's reading of the plot.
    """
    total = len(bands)
    if total == 0:
        raise ValueError("no codes to describe")
    grouped = band_summary(bands)
    parts = []
    for band in (Band.HIGH, Band.INTERMEDIATE, Band.UNACCEPTABLE):
        count = len(grouped[band])
        parts.append(f"{count}/{total} {band.value}")
    return ", ".join(parts)
