"""Minimal static SVG line charts of experiment rows.

Just enough for the experiment reports: linear axes, a handful of series,
no external dependencies.  Output is deterministic (fixed float formatting,
no timestamps) so rerunning a config reproduces the SVG byte for byte.
"""

from __future__ import annotations

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 72, 24, 40, 52
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b", "#e377c2")


def _fmt(v):
    return f"{v:.6g}"


def _ticks(lo, hi, k=5):
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (k - 1)
    return [lo + i * step for i in range(k)]


def render_line_chart(series, title="", xlabel="", ylabel=""):
    """Render [(name, xs, ys), ...] to an SVG string."""
    pts = [(x, y) for _, xs, ys in series for x, y in zip(xs, ys)]
    if not pts:
        raise ValueError("nothing to plot")
    xlo, xhi = min(p[0] for p in pts), max(p[0] for p in pts)
    ylo, yhi = min(p[1] for p in pts), max(p[1] for p in pts)
    if xhi == xlo:
        xlo, xhi = xlo - 0.5, xhi + 0.5
    if yhi == ylo:
        ylo, yhi = ylo - 0.5, yhi + 0.5
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    iw, ih = _W - _ML - _MR, _H - _MT - _MB

    def sx(x):
        return _ML + (x - xlo) / (xhi - xlo) * iw

    def sy(y):
        return _MT + (yhi - y) / (yhi - ylo) * ih

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="12">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2:.1f}" y="20" text-anchor="middle" font-size="14">{title}</text>',
    ]
    # axes
    out.append(
        f'<path d="M {_ML} {_MT} V {_H - _MB} H {_W - _MR}" fill="none" stroke="black"/>'
    )
    for tx in _ticks(xlo, xhi):
        X = sx(tx)
        out.append(f'<line x1="{X:.1f}" y1="{_H - _MB}" x2="{X:.1f}" y2="{_H - _MB + 5}" stroke="black"/>')
        out.append(f'<text x="{X:.1f}" y="{_H - _MB + 18}" text-anchor="middle">{_fmt(tx)}</text>')
    for ty in _ticks(ylo, yhi):
        Y = sy(ty)
        out.append(f'<line x1="{_ML - 5}" y1="{Y:.1f}" x2="{_ML}" y2="{Y:.1f}" stroke="black"/>')
        out.append(f'<text x="{_ML - 8}" y="{Y + 4:.1f}" text-anchor="end">{_fmt(ty)}</text>')
    out.append(
        f'<text x="{_ML + iw / 2:.1f}" y="{_H - 12}" text-anchor="middle">{xlabel}</text>'
    )
    out.append(
        f'<text x="18" y="{_MT + ih / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 18 {_MT + ih / 2:.1f})">{ylabel}</text>'
    )
    for i, (name, xs, ys) in enumerate(series):
        color = _COLORS[i % len(_COLORS)]
        path = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(xs, ys))
        out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in zip(xs, ys):
            out.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')
        ly = _MT + 14 + 16 * i
        out.append(f'<line x1="{_W - _MR - 120}" y1="{ly}" x2="{_W - _MR - 100}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        out.append(f'<text x="{_W - _MR - 94}" y="{ly + 4}">{name}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"
