"""Deterministic SVG rendering of trees and objective level curves.

Coordinates use the mathematical y-up convention via an explicit flip in the
world-to-view transform, with a 16-unit margin.  The stroke palette is fixed
(documented in the README) and floats are written with four decimals, so the
same scene always produces byte-identical SVG.

Level curves of f(X) = sum w_i |X - P_i| are traced by marching squares on a
configurable grid; segment endpoints are identified by the grid edge they sit
on, which makes loop chaining exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import linspace

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
# Marching squares
# ------------------------------------------------------------------ #

def _edge_point(kind, ix, iy, xs, ys, grid, level):
    if kind == "h":
        va, vb = grid[iy][ix], grid[iy][ix + 1]
        t = (level - va) / (vb - va)
        return (xs[ix] + t * (xs[ix + 1] - xs[ix]), ys[iy])
    va, vb = grid[iy][ix], grid[iy + 1][ix]
    t = (level - va) / (vb - va)
    return (xs[ix], ys[iy] + t * (ys[iy + 1] - ys[iy]))


def marching_squares(xs, ys, grid, level):
    """Closed/open polylines of the iso-contour grid == level.

    `grid` holds one row of values per y sample, indexed grid[iy][ix].
    Returns a list of loops, each a list of (x, y) points; endpoints are keyed
    by grid-edge identity so adjacent cells chain exactly.
    """
    ny, nx = len(grid), len(grid[0])
    inside = [[v < level for v in row] for row in grid]
    segments = []  # (edge_id_a, edge_id_b)
    points = {}    # edge_id -> (x, y)

    def edge_id(kind, ix, iy):
        key = (kind, ix, iy)
        if key not in points:
            points[key] = _edge_point(kind, ix, iy, xs, ys, grid, level)
        return key

    for iy in range(ny - 1):
        for ix in range(nx - 1):
            b = (
                inside[iy][ix],
                inside[iy][ix + 1],
                inside[iy + 1][ix + 1],
                inside[iy + 1][ix],
            )
            if all(b) or not any(b):
                continue
            crossed = []
            if b[0] != b[1]:
                crossed.append(edge_id("h", ix, iy))
            if b[1] != b[2]:
                crossed.append(edge_id("v", ix + 1, iy))
            if b[2] != b[3]:
                crossed.append(edge_id("h", ix, iy + 1))
            if b[3] != b[0]:
                crossed.append(edge_id("v", ix, iy))
            if len(crossed) == 2:
                segments.append((crossed[0], crossed[1]))
            elif len(crossed) == 4:
                # Saddle cell: pair by the interpolated center value.
                center = 0.25 * (
                    grid[iy][ix] + grid[iy][ix + 1] + grid[iy + 1][ix] + grid[iy + 1][ix + 1]
                )
                if (center < level) == b[0]:
                    segments.append((crossed[0], crossed[1]))
                    segments.append((crossed[2], crossed[3]))
                else:
                    segments.append((crossed[0], crossed[3]))
                    segments.append((crossed[1], crossed[2]))

    neighbours: dict = {}
    for idx, (a, b) in enumerate(segments):
        neighbours.setdefault(a, []).append((b, idx))
        neighbours.setdefault(b, []).append((a, idx))
    used = [False] * len(segments)
    loops = []
    for start_idx, (a0, b0) in enumerate(segments):
        if used[start_idx]:
            continue
        used[start_idx] = True
        chain = [a0, b0]
        # extend forward until the loop closes or dead-ends
        while True:
            tail = chain[-1]
            nxt = next(
                ((other, idx) for other, idx in neighbours[tail] if not used[idx]), None
            )
            if nxt is None:
                break
            used[nxt[1]] = True
            chain.append(nxt[0])
            if nxt[0] == chain[0]:
                break
        loops.append([points[eid] for eid in chain])
    return loops


def distance_sum_grid(points, weights, xs, ys):
    """f(X) = sum w_i |X - P_i| on the xs x ys grid, one row per y value."""
    anchors = list(zip(weights, points))
    rows = []
    for y in ys:
        row = []
        for x in xs:
            total = 0.0
            for w, (px, py) in anchors:
                total += w * math.hypot(x - px, y - py)
            row.append(total)
        rows.append(row)
    return rows


def level_curve_loops(points, weights, levels, center, grid: int = LEVEL_GRID):
    """Trace the iso-curves of the weighted distance sum at the given values.

    The sampling window is centred so every requested sublevel set closes
    inside it: f exceeds max(levels) once |X - center| > (max_level / sum w)
    plus the spread of the anchor points.
    """
    points = [tuple(p) for p in points]
    total_w = sum(weights)
    spread = max(math.hypot(px - center[0], py - center[1]) for px, py in points)
    radius = max(levels) / total_w + spread * 1.1 + 1e-9
    xs = linspace(center[0] - radius, center[0] + radius, grid)
    ys = linspace(center[1] - radius, center[1] + radius, grid)
    field = distance_sum_grid(points, weights, xs, ys)
    return [(lvl, marching_squares(xs, ys, field, lvl)) for lvl in sorted(levels)]


# ------------------------------------------------------------------ #
# Scene rendering
# ------------------------------------------------------------------ #

@dataclass
class Scene:
    """Everything the renderer draws, in world coordinates."""

    quad: tuple[tuple[float, float], ...]
    tree_edges: tuple[tuple[tuple[float, float], tuple[float, float]], ...] = ()
    nodes: tuple[tuple[float, float, str], ...] = ()
    vertex_labels: tuple[str, ...] = ("A1", "A2", "A3", "A4")
    level_curves: tuple = ()   # ((value, [loop, ...]), ...)


def render_scene(scene: Scene, width: float = DEFAULT_WIDTH) -> str:
    xs = [p[0] for p in scene.quad] + [n[0] for n in scene.nodes]
    ys = [p[1] for p in scene.quad] + [n[1] for n in scene.nodes]
    for _, loops in scene.level_curves:
        for loop in loops:
            xs.extend(p[0] for p in loop)
            ys.extend(p[1] for p in loop)
    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    dx = max(max_x - min_x, 1e-9)
    dy = max(max_y - min_y, 1e-9)
    scale = (width - 2.0 * MARGIN) / dx
    height = dy * scale + 2.0 * MARGIN

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
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">'
    )
    out.append(
        f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'fill="{PALETTE["background"]}"/>'
    )
    for value, loops in scene.level_curves:
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
    for label, p in zip(scene.vertex_labels, scene.quad):
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
