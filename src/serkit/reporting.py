"""Report CSV emission and SVG bar charts.

Reports are `metric,value` CSV with a stable row order. Charts are
hand-rolled SVG (textual, diffable, dependency-free) with deterministic
bytes for fixed inputs.
"""

from __future__ import annotations

import math
import os

from .datapipe import text_lines
from .errors import DataError
from .evaluation import EvalReport


def format_value(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_report_csv(path: str, report: EvalReport) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("metric,value\n")
        for metric, value in report.rows():
            handle.write(f"{metric},{format_value(value)}\n")


def read_report_csv(path: str) -> dict:
    metrics = {}
    for line_no, line in text_lines(path):
        line = line.strip()
        if line_no == 1:
            if line != "metric,value":
                raise DataError(f"{path}:1: expected header 'metric,value', got {line!r}")
            continue
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DataError(f"{path}:{line_no}: expected 'metric,value'")
        name, raw = parts
        try:
            metrics[name] = float(raw)
        except ValueError:
            raise DataError(f"{path}:{line_no}: bad value {raw!r}") from None
    if not metrics:
        raise DataError(f"report is empty: {path}")
    return metrics


# -- SVG bars -----------------------------------------------------------------

_BAR_COLORS = ("#4878a8", "#e08840", "#6aa86a", "#b05454")


def svg_bar_chart(groups: list, metrics: tuple = ("uar_7", "uar_4"),
                  title: str = "UAR by run") -> str:
    """Grouped bar chart: one group per (name, metrics dict) pair.

    Values are expected in [0, 1]; bar heights are proportional to the
    values within coordinate rounding (2 decimals).
    """
    if not groups:
        raise DataError("no report groups to chart")
    margin, bar_w, gap, plot_h = 50, 34, 28, 200
    group_w = bar_w * len(metrics)
    width = margin * 2 + len(groups) * group_w + (len(groups) - 1) * gap
    height = plot_h + 80
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<text x="{width / 2:.2f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{margin}" y1="{30 + plot_h}" x2="{width - margin}" y2="{30 + plot_h}" '
        'stroke="#333" stroke-width="1"/>',
    ]
    for g_index, (name, values) in enumerate(groups):
        x0 = margin + g_index * (group_w + gap)
        for m_index, metric in enumerate(metrics):
            value = values.get(metric)
            if value is None or (isinstance(value, float) and math.isnan(value)):
                continue
            bar_h = max(0.0, min(1.0, value)) * plot_h
            x = x0 + m_index * bar_w
            y = 30 + plot_h - bar_h
            color = _BAR_COLORS[m_index % len(_BAR_COLORS)]
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w - 4}" height="{bar_h:.2f}" '
                f'fill="{color}"><title>{metric}={value:.4f}</title></rect>'
            )
            parts.append(
                f'<text x="{x + (bar_w - 4) / 2:.2f}" y="{y - 4:.2f}" text-anchor="middle" '
                f'font-size="9">{value:.3f}</text>'
            )
        parts.append(
            f'<text x="{x0 + group_w / 2:.2f}" y="{30 + plot_h + 16}" text-anchor="middle" '
            f'font-size="11">{name}</text>'
        )
    for m_index, metric in enumerate(metrics):
        color = _BAR_COLORS[m_index % len(_BAR_COLORS)]
        lx = margin + m_index * 90
        parts.append(f'<rect x="{lx}" y="{height - 24}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{lx + 16}" y="{height - 14}" font-size="11">{metric}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(path: str, svg: str) -> None:
    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg)
