"""Deterministic SVG rendering of trees and objective level curves.

Coordinates use the mathematical y-up convention via an explicit flip in the
world-to-view transform, with a 16-unit margin.  The stroke palette is fixed
(documented in the README) and floats are written with four decimals, so the
same scene always produces byte-identical SVG.

Level curves of the weighted distance sum f(X) = sum w_i |X - P_i| are traced
along `grid` evenly spaced rays from its minimizer, the weighted median c.  f
is convex, so every ray crosses each level above f(c) exactly once, at a
radius below (level + f(c)) / sum w, where the lower bound
f(c + r d) >= r sum w - f(c) guarantees it.  The crossing is found by Newton's
method on g(r) = f(c + r d) - level from that radius: g is convex and
increasing along the ray, so the steps fall monotonically onto the crossing
without passing it, and stop where a step no longer lowers r.
"""

from __future__ import annotations

import math

from .errors import QuadFTError, _Record
from .fermat import _median, _positive_weights
from .geometry import _count, linspace

PALETTE = {
    "background": "#ffffff",
    "outline": "#1f2937",
    "tree": "#b91c1c",
    "node": "#1d4ed8",
    "vertex": "#111827",
    "curve": "#7c3aed",
    "label": "#374151",
}

DEFAULT_WIDTH = 640.0
MARGIN = 16.0
LEVEL_GRID = 129


def _fmt(v: float) -> str:
    out = f"{v:.4f}"
    return "0.0000" if out == "-0.0000" else out


# ------------------------------------------------------------------ #
# Level curves
# ------------------------------------------------------------------ #

def level_curve_loops(points, weights, levels, grid: int = LEVEL_GRID):
    """The curves f(X) = L of f(X) = sum w_i |X - P_i| over the Points P_i,
    traced along `grid` rays from the weighted median c.

    Returns (level, loops) pairs in increasing level order: one closed loop
    per level above f(c), none for a level at or below it.  QuadFTError
    unless there is one positive, finite weight per point (at least one)
    and every level is finite.
    """
    if _count(grid, "grid") < 1:
        raise QuadFTError("grid must be at least 1")
    points, weights = list(points), _positive_weights(weights)
    if not points or len(weights) != len(points):
        raise QuadFTError(f"need one weight per point, got {len(weights)} weights "
                          f"for {len(points)} points")
    levels = sorted(levels)
    if not all(math.isfinite(lvl) for lvl in levels):
        raise QuadFTError(f"levels must be finite, got {levels}")
    cx, cy = _median(points, weights)[0].as_tuple()
    anchors = [(w, p.x, p.y) for w, p in zip(weights, points)]

    def f(x, y):
        return sum(w * math.hypot(x - px, y - py) for w, px, py in anchors)

    def crossing(dx, dy, level, r):
        # Newton on g(r) = f(c + r d) - level from a radius where g >= 0: g is
        # convex and increasing, so no step passes the crossing, and r falls
        # until a step no longer lowers it
        while True:
            x, y = cx + r * dx, cy + r * dy
            value = slope = 0.0
            for w, px, py in anchors:
                ex, ey = x - px, y - py
                dist = math.hypot(ex, ey)
                value += w * dist
                if dist > 0.0:
                    slope += w * (ex * dx + ey * dy) / dist
            g = value - level
            if g <= 0.0 or slope <= 0.0:
                return x, y
            below = r - g / slope
            if below >= r:
                return x, y
            r = below

    fc, total = f(cx, cy), sum(weights)
    rays = [(math.cos(t), math.sin(t)) for t in linspace(0.0, 2.0 * math.pi, grid + 1)[:-1]]
    curves = []
    for lvl in levels:
        # f(c + r d) >= r * total - f(c), so every ray reaches lvl by this radius
        hi = (lvl + fc) / total
        loop = [crossing(dx, dy, lvl, hi) for dx, dy in rays] if lvl > fc else []
        curves.append((lvl, [loop + loop[:1]] if loop else []))
    return curves


# ------------------------------------------------------------------ #
# Scene rendering
# ------------------------------------------------------------------ #

class Scene(_Record):
    """Everything the renderer draws, in world coordinates; `level_curves`
    holds (value, [loop, ...]) pairs."""

    __slots__ = _fields = ("quad", "tree_edges", "nodes", "level_curves")

    def __init__(self, quad: tuple[tuple[float, float], ...],
                 tree_edges: tuple[tuple[tuple[float, float], tuple[float, float]], ...] = (),
                 nodes: tuple[tuple[float, float, str], ...] = (), level_curves: tuple = ()):
        object.__setattr__(self, "quad", quad)
        object.__setattr__(self, "tree_edges", tree_edges)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "level_curves", level_curves)


def render_scene(scene: Scene) -> str:
    """The scene as SVG, `DEFAULT_WIDTH` wide, its vertices labelled A1..A4."""
    xs = [p[0] for p in scene.quad] + [n[0] for n in scene.nodes]
    ys = [p[1] for p in scene.quad] + [n[1] for n in scene.nodes]
    for _, loops in scene.level_curves:
        for loop in loops:
            xs.extend(p[0] for p in loop)
            ys.extend(p[1] for p in loop)
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    scale = (DEFAULT_WIDTH - 2.0 * MARGIN) / (max_x - min_x)
    height = (max_y - min_y) * scale + 2.0 * MARGIN

    def view(p):
        # y-up world mapped into the y-down SVG frame
        return (
            MARGIN + (p[0] - min_x) * scale,
            height - MARGIN - (p[1] - min_y) * scale,
        )

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(DEFAULT_WIDTH)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(DEFAULT_WIDTH)} {_fmt(height)}">'
    )
    out.append(
        f'<rect x="0" y="0" width="{_fmt(DEFAULT_WIDTH)}" height="{_fmt(height)}" '
        f'fill="{PALETTE["background"]}"/>'
    )
    for _, loops in scene.level_curves:
        for loop in loops:
            pts = " ".join(f"{_fmt(vx)},{_fmt(vy)}" for vx, vy in map(view, loop))
            closed = loop[0] == loop[-1]
            tag = "polygon" if closed else "polyline"
            out.append(
                f'<{tag} points="{pts}" fill="none" stroke="{PALETTE["curve"]}" '
                f'stroke-width="1.0"/>'
            )
    quad_pts = " ".join(f"{_fmt(vx)},{_fmt(vy)}" for vx, vy in map(view, scene.quad))
    out.append(
        f'<polygon points="{quad_pts}" fill="none" stroke="{PALETTE["outline"]}" '
        f'stroke-width="1.5"/>'
    )
    for a, b in scene.tree_edges:
        (x1, y1), (x2, y2) = view(a), view(b)
        out.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{PALETTE["tree"]}" stroke-width="1.5"/>'
        )
    for vx, vy, label in scene.nodes:
        cx, cy = view((vx, vy))
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3.0" fill="{PALETTE["node"]}"/>'
        )
        out.append(
            f'<text x="{_fmt(cx + 6.0)}" y="{_fmt(cy - 6.0)}" fill="{PALETTE["label"]}" '
            f'font-family="monospace" font-size="12">{label}</text>'
        )
    for label, p in zip(("A1", "A2", "A3", "A4"), scene.quad):
        cx, cy = view(p)
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="2.5" fill="{PALETTE["vertex"]}"/>'
        )
        out.append(
            f'<text x="{_fmt(cx + 6.0)}" y="{_fmt(cy + 12.0)}" fill="{PALETTE["label"]}" '
            f'font-family="monospace" font-size="12">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
