"""Plain-text table and figure rendering for benchmark output, and the
one markdown-to-HTML converter the operator reports share.

Benchmarks print the same rows/series the paper reports; these helpers
keep that output aligned and dependency-free (no plotting stack in the
offline environment).
"""

from __future__ import annotations

import html
import os
from typing import Iterable, List, Optional, Sequence

import numpy as np

__all__ = ["format_table", "ascii_chart", "markdown_to_html", "write_report"]

_HTML_STYLE = (
    "body{font-family:sans-serif;max-width:60em;margin:2em auto;"
    "padding:0 1em;color:#222}"
    "table{border-collapse:collapse;margin:1em 0}"
    "td,th{border:1px solid #bbb;padding:0.3em 0.6em;"
    "text-align:left;font-size:0.9em}"
    "th{background:#eee}"
    "h1,h2,h3{color:#134}"
    "code{background:#f4f4f4;padding:0 0.2em}"
    ".critical{color:#a11}.warning{color:#b60}"
)

#: Severities whose table rows get a CSS class of the same name.
_SEVERITIES = ("critical", "warning")


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: Optional[str] = None,
) -> str:
    """Fixed-width table with a header rule.

    Floats render with 4 significant digits; everything else with
    ``str``.
    """
    def fmt(cell: object) -> str:
        if isinstance(cell, float):
            return f"{cell:.4g}"
        return str(cell)

    str_rows: List[List[str]] = [[fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, header has {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    header_line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in str_rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def ascii_chart(
    x: np.ndarray,
    series: dict,
    width: int = 72,
    height: int = 18,
    x_label: str = "x",
    y_label: str = "y",
    logx: bool = False,
) -> str:
    """Minimal ASCII line chart: one character per series.

    ``series`` maps a single-character label to a y-vector aligned with
    ``x``.  Good enough to eyeball the Fig. 4 / Fig. 9 curve shapes in a
    terminal.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise ValueError("need at least two x samples")
    for label, y in series.items():
        if len(label) != 1:
            raise ValueError(f"series labels must be 1 char, got {label!r}")
        if np.asarray(y).shape != x.shape:
            raise ValueError(f"series {label!r} length mismatch")
    xs = np.log10(np.maximum(x, 1e-12)) if logx else x
    x0, x1 = float(xs.min()), float(xs.max())
    all_y = np.concatenate([np.asarray(y, dtype=np.float64) for y in series.values()])
    y0, y1 = float(all_y.min()), float(all_y.max())
    if y1 == y0:
        y1 = y0 + 1.0
    grid = [[" "] * width for _ in range(height)]
    for label, y in series.items():
        y = np.asarray(y, dtype=np.float64)
        for xi, yi in zip(xs, y):
            col = int(round((xi - x0) / (x1 - x0) * (width - 1)))
            row = int(round((yi - y0) / (y1 - y0) * (height - 1)))
            grid[height - 1 - row][col] = label
    lines = [f"{y_label} [{y0:.3g} .. {y1:.3g}]"]
    lines += ["|" + "".join(r) for r in grid]
    lines.append("+" + "-" * width)
    lines.append(
        f" {x_label} [{x.min():.3g} .. {x.max():.3g}]"
        + (" (log scale)" if logx else "")
    )
    return "\n".join(lines)


def markdown_to_html(markdown: str, *, title: str) -> str:
    """A self-contained HTML page of a markdown report.

    Reads the subset the reports write: ``#`` to ``###`` headings,
    ``- `` bullets, pipe tables (a body row holding a ``critical`` or
    ``warning`` cell gets that CSS class), whole-line ``_emphasis_``,
    and inline backtick-code and ``**strong**`` spans.
    """
    out = [
        "<!doctype html>",
        "<html><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
    ]
    in_table = False
    for line in markdown.splitlines():
        stripped = line.strip()
        if stripped.startswith("|"):
            cells = [c.strip() for c in stripped.strip("|").split("|")]
            if all(c and set(c) <= {"-", ":"} for c in cells):
                continue  # separator row
            tag, css = "td", ""
            if not in_table:
                out.append("<table>")
                in_table = True
                tag = "th"
            else:
                severity = next((s for s in _SEVERITIES if s in cells), None)
                if severity is not None:
                    css = f" class='{severity}'"
            out.append(
                f"<tr{css}>"
                + "".join(f"<{tag}>{_inline_html(c)}</{tag}>" for c in cells)
                + "</tr>"
            )
            continue
        if in_table:
            out.append("</table>")
            in_table = False
        level = len(stripped) - len(stripped.lstrip("#"))
        if 1 <= level <= 3:
            text = _inline_html(stripped[level:].strip())
            out.append(f"<h{level}>{text}</h{level}>")
        elif stripped.startswith("- "):
            out.append(f"<div>&bull; {_inline_html(stripped[2:])}</div>")
        elif len(stripped) > 2 and stripped[0] == stripped[-1] == "_":
            out.append(f"<p><em>{_inline_html(stripped[1:-1])}</em></p>")
        elif stripped:
            out.append(f"<p>{_inline_html(stripped)}</p>")
    if in_table:
        out.append("</table>")
    out.append("</body></html>")
    return "\n".join(out) + "\n"


def _spans(text: str, marker: str, tag: str) -> List[str]:
    """``text`` split on ``marker``, every second piece wrapped in
    ``tag``."""
    parts = text.split(marker)
    for i in range(1, len(parts), 2):
        parts[i] = f"<{tag}>{parts[i]}</{tag}>"
    return parts


def _inline_html(text: str) -> str:
    parts = _spans(html.escape(text), "`", "code")
    for i in range(0, len(parts), 2):  # outside code spans
        parts[i] = "".join(_spans(parts[i], "**", "strong"))
    return "".join(parts)


def write_report(path, markdown: str, *, title: str) -> None:
    """Write a markdown report to ``path``; an ``.html``/``.htm`` path
    (any case) gets it as :func:`markdown_to_html`."""
    text = markdown
    if os.fspath(path).lower().endswith((".html", ".htm")):
        text = markdown_to_html(markdown, title=title)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
