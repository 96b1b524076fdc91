"""Minimal static SVG rendering: polylines for histograms/densities and
scatter plots for clouds.  Axes are linear; histogram/cloud axes are labeled
in percent.  Cloud scatters use equal axis scales by default because unequal
scales visually distort the tilt of a cloud.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["polyline_svg", "scatter_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _frame(width, height, margin, x_label, y_label, x_ticks, y_ticks, to_px):
    parts = [
        f'<rect x="{margin}" y="{margin}" width="{width - 2 * margin}" '
        f'height="{height - 2 * margin}" fill="none" stroke="black"/>'
    ]
    for xv, label in x_ticks:
        px, _ = to_px(xv, 0)
        parts.append(
            f'<line x1="{_fmt(px)}" y1="{height - margin}" x2="{_fmt(px)}" '
            f'y2="{height - margin + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(px)}" y="{height - margin + 18}" font-size="11" '
            f'text-anchor="middle">{label}</text>'
        )
    for yv, label in y_ticks:
        _, py = to_px(0, yv)
        parts.append(
            f'<line x1="{margin - 5}" y1="{_fmt(py)}" x2="{margin}" y2="{_fmt(py)}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{_fmt(py + 4)}" font-size="11" '
            f'text-anchor="end">{label}</text>'
        )
    parts.append(
        f'<text x="{width / 2}" y="{height - 5}" font-size="12" text-anchor="middle">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{height / 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2})">{y_label}</text>'
    )
    return parts


def polyline_svg(
    series: Sequence[tuple[Sequence[float], Sequence[float]]],
    x_label: str = "share (%)",
    y_label: str = "weight",
    x_percent: bool = True,
    width: int = 640,
    height: int = 420,
) -> str:
    """Render (x, y) series as SVG polylines on shared linear axes."""
    margin = 50
    xs_all = [x for xs, _ in series for x in xs]
    ys_all = [y for _, ys in series for y in ys]
    if not xs_all or not ys_all:
        raise ValueError("polyline_svg needs at least one (x, y) point")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = 0.0, max(max(ys_all), 1e-12)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def to_px(x, y):
        px = margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)
        py = height - margin - (y - y_lo) / (y_hi - y_lo) * (height - 2 * margin)
        return px, py

    scale = 100.0 if x_percent else 1.0
    x_ticks = [
        (x_lo + f * (x_hi - x_lo), f"{scale * (x_lo + f * (x_hi - x_lo)):g}")
        for f in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    y_ticks = [(f * y_hi, f"{f * y_hi:g}") for f in (0.0, 0.5, 1.0)]

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        *_frame(width, height, margin, x_label, y_label, x_ticks, y_ticks, to_px),
    ]
    for i, (xs, ys) in enumerate(series):
        pts = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(x, y) for x, y in zip(xs, ys)))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{_PALETTE[i % len(_PALETTE)]}" stroke-width="1.5"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def scatter_svg(
    points: Sequence[tuple[float, float]],
    x_label: str = "turnout (%)",
    y_label: str = "share (%)",
    equal_scales: bool = True,
    width: int = 520,
    height: int = 520,
) -> str:
    """Render unit-square points as an SVG scatter, equal axis scales by default."""
    margin = 50
    if equal_scales:
        side = min(width, height)
        width = height = side

    def to_px(x, y):
        px = margin + x * (width - 2 * margin)
        py = height - margin - y * (height - 2 * margin)
        return px, py

    ticks = [(f, f"{100 * f:g}") for f in (0.0, 0.25, 0.5, 0.75, 1.0)]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        *_frame(width, height, margin, x_label, y_label, ticks, ticks, to_px),
    ]
    for x, y in points:
        px, py = to_px(x, y)
        parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="1.5" fill="#1f77b4" fill-opacity="0.5"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
