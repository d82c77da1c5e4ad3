"""Minimal SVG polyline plots, no plotting dependency."""

from __future__ import annotations

WIDTH, HEIGHT = 640, 420
MARGIN = 60
COLORS = ("#1f6fb2", "#d1495b", "#3a7d44", "#8d5a97", "#c77d1e", "#4a4a4a")


def _ticks(lo: float, hi: float, n: int = 5):
    span = hi - lo
    return [lo + span * i / (n - 1) for i in range(n)]


def polyline_plot(path, series, title="", xlabel="", ylabel=""):
    """Write an SVG line plot.

    series: list of (label, xs, ys) triples sharing one coordinate frame.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys]
    if not xs_all:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return MARGIN + (x - x_lo) / (x_hi - x_lo) * (WIDTH - 2 * MARGIN)

    def sy(y):
        return HEIGHT - MARGIN - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * MARGIN)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="24" text-anchor="middle" font-size="15" '
        f'font-family="sans-serif">{title}</text>',
    ]
    # axes
    parts.append(
        f'<line x1="{MARGIN}" y1="{HEIGHT - MARGIN}" x2="{WIDTH - MARGIN}" '
        f'y2="{HEIGHT - MARGIN}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN}" y1="{MARGIN}" x2="{MARGIN}" y2="{HEIGHT - MARGIN}" stroke="black"/>'
    )
    for t in _ticks(x_lo, x_hi):
        parts.append(
            f'<text x="{sx(t):.1f}" y="{HEIGHT - MARGIN + 18}" text-anchor="middle" '
            f'font-size="11" font-family="sans-serif">{t:.4g}</text>'
        )
    for t in _ticks(y_lo, y_hi):
        parts.append(
            f'<text x="{MARGIN - 8}" y="{sy(t) + 4:.1f}" text-anchor="end" '
            f'font-size="11" font-family="sans-serif">{t:.4g}</text>'
        )
    parts.append(
        f'<text x="{WIDTH / 2}" y="{HEIGHT - 12}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{HEIGHT / 2}" text-anchor="middle" font-size="12" '
        f'font-family="sans-serif" transform="rotate(-90 16 {HEIGHT / 2})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = COLORS[i % len(COLORS)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.6" fill="{color}"/>')
        parts.append(
            f'<text x="{WIDTH - MARGIN + 4}" y="{MARGIN + 16 * i + 4}" font-size="11" '
            f'font-family="sans-serif" fill="{color}" text-anchor="end">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")
