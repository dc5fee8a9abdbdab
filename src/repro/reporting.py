"""ASCII rendering of benchmark series (the repo's Fig. 8 / Fig. 10 plots).

Terminal-friendly log-log line charts: x = rank count, y = simulated seconds,
one glyph per series.  Used by the figure benchmarks so a
``pytest benchmarks/ --benchmark-only`` run literally draws the paper's
figures into the report.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

_GLYPHS = "oxv*#@+%&"


def _log(value: float) -> float:
    return math.log10(max(value, 1e-300))


def ascii_chart(series: Mapping[str, Sequence[tuple[float, float]]],
                width: int = 64, height: int = 16,
                x_label: str = "p", y_label: str = "seconds") -> str:
    """Render ``{name: [(x, y), ...]}`` as a log-log ASCII chart."""
    points = [(x, y) for pts in series.values() for x, y in pts if y > 0]
    if not points:
        return "(no data)"
    xs = [_log(x) for x, _ in points]
    ys = [_log(y) for _, y in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]

    def cell(x: float, y: float) -> tuple[int, int]:
        col = int(round((_log(x) - x_lo) / x_span * (width - 1)))
        row = int(round((_log(y) - y_lo) / y_span * (height - 1)))
        return (height - 1) - row, col

    for idx, (name, pts) in enumerate(series.items()):
        glyph = _GLYPHS[idx % len(_GLYPHS)]
        ordered = sorted((x, y) for x, y in pts if y > 0)
        last: tuple[int, int] | None = None
        for x, y in ordered:
            row, col = cell(x, y)
            if last is not None:
                _draw_segment(grid, last, (row, col))
            grid[row][col] = glyph
            last = (row, col)

    top = f"{10 ** y_hi:.3g} {y_label}"
    bottom = f"{10 ** y_lo:.3g}"
    lines = [top.rjust(12)]
    for row in grid:
        lines.append("  |" + "".join(row))
    lines.append("  +" + "-" * width)
    lines.append(f"   {10 ** x_lo:.3g} {x_label}" +
                 f"{10 ** x_hi:.3g} {x_label}".rjust(width - 6))
    lines.append(bottom.rjust(12) + " (lower-left)")
    legend = "   legend: " + "  ".join(
        f"{_GLYPHS[i % len(_GLYPHS)]}={name}"
        for i, name in enumerate(series)
    )
    lines.append(legend)
    return "\n".join(lines)


def _draw_segment(grid: list[list[str]], a: tuple[int, int],
                  b: tuple[int, int]) -> None:
    """Light interpolation dots between consecutive points of one series."""
    (r0, c0), (r1, c1) = a, b
    steps = max(abs(r1 - r0), abs(c1 - c0))
    for s in range(1, steps):
        r = r0 + (r1 - r0) * s // steps
        c = c0 + (c1 - c0) * s // steps
        if grid[r][c] == " ":
            grid[r][c] = "·"


def _human_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024 or unit == "GiB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{int(n)} B"
        n /= 1024
    return f"{n:.1f} GiB"  # pragma: no cover - fallthrough guarded above


def op_bytes_table(totals: Mapping[str, Mapping[str, float]]) -> str:
    """Aligned table of per-op trace aggregates.

    ``totals`` is :meth:`repro.mpi.tracing.TraceRecorder.per_op_totals`
    output: ``{op: {calls, sent, recvd, bytes, seconds}}``.  Rows are sorted
    by total bytes, heaviest first — the communication profile of a run at a
    glance.
    """
    if not totals:
        return "(no trace)"
    head = (f"{'op':<24}{'calls':>8}{'sent':>12}{'recvd':>12}"
            f"{'bytes':>12}{'v-seconds':>12}")
    rows = [head]
    ordered = sorted(totals.items(),
                     key=lambda kv: (-kv[1]["bytes"], kv[0]))
    for op, agg in ordered:
        rows.append(
            f"{op:<24}{int(agg['calls']):>8}"
            f"{_human_bytes(agg['sent']):>12}{_human_bytes(agg['recvd']):>12}"
            f"{_human_bytes(agg['bytes']):>12}{agg['seconds']:>12.6f}"
        )
    return "\n".join(rows)
