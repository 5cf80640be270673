"""Terminal plotting: inspect HRIRs, CDFs, and timelines without matplotlib.

The offline environment has no plotting stack, and a personalization CLI
should be able to *show* its results anyway.  These helpers render compact
unicode plots — waveform panels, CDFs, Gantt charts and aligned tables —
used by ``uniq-personalize --show``, ``repro.cli timeline`` (a batch
journal as a per-worker Gantt chart) and the fleet drift table.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError


def _validate_1d(values) -> np.ndarray:
    array = np.asarray(values, dtype=float)
    if array.ndim != 1 or array.shape[0] == 0:
        raise SignalError("expected a non-empty 1D sequence")
    if not np.all(np.isfinite(array)):
        raise SignalError("values must be finite")
    return array


def waveform(signal, width: int = 72, height: int = 9, title: str = "") -> str:
    """A multi-row panel of a bipolar signal (e.g. an HRIR).

    The zero line sits mid-panel; samples are block-resampled to ``width``
    columns keeping each block's extreme value so taps never vanish.
    """
    array = _validate_1d(signal)
    if width < 4 or height < 3 or height % 2 == 0:
        raise SignalError("width >= 4 and odd height >= 3 required")
    edges = np.linspace(0, array.shape[0], width + 1).astype(int)
    columns = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        block = array[lo:hi] if hi > lo else array[lo : lo + 1]
        columns.append(block[np.argmax(np.abs(block))])
    columns = np.asarray(columns)
    scale = float(np.max(np.abs(columns)))
    half = height // 2
    grid = [[" "] * width for _ in range(height)]
    for x, value in enumerate(columns):
        if scale == 0:
            level = 0
        else:
            level = int(round(value / scale * half))
        if level == 0:
            grid[half][x] = "·"
        else:
            step = 1 if level > 0 else -1
            for y in range(step, level + step, step):
                grid[half - y][x] = "█"
    lines = ["".join(row) for row in grid]
    if title:
        lines.insert(0, title)
    return "\n".join(lines)


def cdf_plot(values, width: int = 60, markers=(0.5, 0.9)) -> str:
    """An ASCII CDF: one line per decile plus marked quantiles."""
    array = np.sort(_validate_1d(values))
    lines = []
    for q in (0.1, 0.25, 0.5, 0.75, 0.9, 1.0):
        value = float(np.quantile(array, q))
        n = 0 if array[-1] == 0 else int(round(value / max(array[-1], 1e-12) * width))
        mark = " <-" if any(abs(q - m) < 1e-9 for m in markers) else ""
        lines.append(f"p{int(q * 100):3d} | {'█' * n} {value:.2f}{mark}")
    return "\n".join(lines)


def gantt(lanes, t0: float, t1: float, width: int = 72) -> str:
    """A per-lane text Gantt chart over the window ``[t0, t1]``.

    ``lanes`` is a sequence of ``(label, bars, marks)`` triples: each bar
    is ``(start, end, char)`` drawn as a filled run (``end=None`` extends
    to the window edge — an interval still open when recording stopped);
    each mark is ``(t, char)`` stamped on a single column on top of any
    bar.  Used by ``repro.cli timeline`` to draw a batch journal with one
    lane per worker pid — attempt bars, open bars for jobs in flight when
    the journal stopped, and retry / dead-letter marks on one time axis.
    """
    lanes = list(lanes)
    if not lanes:
        raise SignalError("gantt needs at least one lane")
    if not (np.isfinite(t0) and np.isfinite(t1)) or t1 <= t0:
        raise SignalError(f"gantt window must satisfy t0 < t1, got [{t0}, {t1}]")
    if width < 8:
        raise SignalError("gantt width must be >= 8")
    span = t1 - t0

    def column(t: float) -> int:
        return min(max(int((t - t0) / span * width), 0), width - 1)

    label_width = max(len(str(label)) for label, _, _ in lanes)
    lines = []
    for label, bars, marks in lanes:
        row = [" "] * width
        for start, end, char in bars:
            if start is None:
                start = t0
            stop = t1 if end is None else end
            lo, hi = column(start), column(stop)
            for x in range(lo, hi + 1):
                row[x] = char
        for t, char in marks:
            row[column(t)] = char
        lines.append(f"{str(label).rjust(label_width)} |{''.join(row)}|")
    axis = f"{0.0:.2f}s".ljust(width - 6) + f"+{span:.2f}s"
    lines.append(f"{' ' * label_width} |{axis[:width].ljust(width)}|")
    return "\n".join(lines)


def table(headers, rows, aligns=None) -> str:
    """A plain aligned text table (the drift detector's diff renderer).

    ``aligns`` is a per-column sequence of ``"l"``/``"r"`` (default: left
    for the first column, right for the rest — labels then numbers).  Cells
    are stringified as-is; a separator rules under the header row.
    """
    headers = [str(h) for h in headers]
    rows = [[str(cell) for cell in row] for row in rows]
    for row in rows:
        if len(row) != len(headers):
            raise SignalError(
                f"table row has {len(row)} cells for {len(headers)} headers"
            )
    if aligns is None:
        aligns = ["l"] + ["r"] * (len(headers) - 1)
    if len(aligns) != len(headers):
        raise SignalError("aligns must match the header count")
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows)) if rows
        else len(headers[i])
        for i in range(len(headers))
    ]

    def render(cells) -> str:
        parts = []
        for cell, width, align in zip(cells, widths, aligns):
            parts.append(cell.ljust(width) if align == "l" else cell.rjust(width))
        return "  ".join(parts).rstrip()

    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(row) for row in rows)
    return "\n".join(lines)

