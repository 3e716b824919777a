"""Independent reference computations for the test suite.

Everything here deliberately avoids the closed-form layers under test: minima
come from dense grids with local refinement or from convex-programming style
iteration on coordinates, so a bug in an angle formula cannot hide in its own
verification.
"""

from __future__ import annotations

import math

import numpy as np


def distance_field(points_xy, weights, xx, yy):
    total = np.zeros_like(xx)
    for (px, py), w in zip(points_xy, weights):
        total += w * np.hypot(xx - px, yy - py)
    return total


def grid_min(points_xy, weights, lo, hi, n):
    xs = np.linspace(lo[0], hi[0], n)
    ys = np.linspace(lo[1], hi[1], n)
    xx, yy = np.meshgrid(xs, ys)
    field = distance_field(points_xy, weights, xx, yy)
    iy, ix = np.unravel_index(np.argmin(field), field.shape)
    return (xs[ix], ys[iy]), float(field[iy, ix])


def refined_grid_min(points_xy, weights, n0=400, zooms=6, nz=41):
    """Brute-force minimizer of sum w_i |X - P_i|: dense grid over the bounding
    box, then shrinking-window refinements around the incumbent.

    The window shrinks gently (x0.4 per zoom): on strongly anisotropic valleys
    (optimum near a vertex) the grid argmin wanders several cells along the
    flat direction, and an aggressive zoom would clip the true optimum out.
    """
    xs = [p[0] for p in points_xy]
    ys = [p[1] for p in points_xy]
    lo = (min(xs), min(ys))
    hi = (max(xs), max(ys))
    best, value = grid_min(points_xy, weights, lo, hi, n0)
    window = (max(hi[0] - lo[0], hi[1] - lo[1]) / (n0 - 1)) * 4.0
    for _ in range(zooms):
        lo = (best[0] - window, best[1] - window)
        hi = (best[0] + window, best[1] + window)
        best, value = grid_min(points_xy, weights, lo, hi, nz)
        window *= 0.4
    return best, value


def pull_at(points, weights, p):
    """Norm of sum w_i (P_i - p) / |P_i - p| over the Points P_i: the
    gradient of the weighted distance sum at p, which is off every P_i."""
    sx = sy = 0.0
    for q, w in zip(points, weights):
        dx, dy = q.x - p.x, q.y - p.y
        r = math.hypot(dx, dy)
        sx += w * dx / r
        sy += w * dy / r
    return math.hypot(sx, sy)


def _weiszfeld_xy(points_xy, weights, start, iters=2000, tol=1e-13):
    x, y = start
    total = sum(weights)
    for _ in range(iters):
        num_x = num_y = den = 0.0
        rx = ry = 0.0
        for (px, py), w in zip(points_xy, weights):
            d = math.hypot(x - px, y - py)
            if d < 1e-300:
                d = 1e-300
            num_x += w * px / d
            num_y += w * py / d
            den += w / d
            rx += w * (px - x) / d
            ry += w * (py - y) / d
        if math.hypot(rx, ry) < tol * total:
            break
        x, y = num_x / den, num_y / den
    return (x, y)


def gauss_min_oracle(quad_xy, weights, xg):
    """Minimize B1|A1-n0| + B4|A4-n0| + B2|A2-n0'| + B3|A3-n0'| + xg|n0-n0'|
    by alternating geometric medians, then a safeguarded Newton polish on all
    four coordinates.  Returns (n0, n0p)."""
    a1, a2, a3, a4 = quad_xy
    b1, b2, b3, b4 = weights
    n0 = (0.7 * (a1[0] + a4[0]) / 2 + 0.3 * (a2[0] + a3[0]) / 2,
          0.7 * (a1[1] + a4[1]) / 2 + 0.3 * (a2[1] + a3[1]) / 2)
    n0p = (0.3 * (a1[0] + a4[0]) / 2 + 0.7 * (a2[0] + a3[0]) / 2,
           0.3 * (a1[1] + a4[1]) / 2 + 0.7 * (a2[1] + a3[1]) / 2)
    for _ in range(400):
        n0 = _weiszfeld_xy([a1, a4, n0p], [b1, b4, xg], n0, iters=300, tol=1e-11)
        n0p = _weiszfeld_xy([a2, a3, n0], [b2, b3, xg], n0p, iters=300, tol=1e-11)

    def objective(z):
        p = (z[0], z[1])
        q = (z[2], z[3])
        return (b1 * math.hypot(p[0] - a1[0], p[1] - a1[1])
                + b4 * math.hypot(p[0] - a4[0], p[1] - a4[1])
                + b2 * math.hypot(q[0] - a2[0], q[1] - a2[1])
                + b3 * math.hypot(q[0] - a3[0], q[1] - a3[1])
                + xg * math.hypot(p[0] - q[0], p[1] - q[1]))

    def grad_hess(z):
        g = np.zeros(4)
        h = np.zeros((4, 4))
        for sl, anchors in ((slice(0, 2), [(a1, b1), (a4, b4)]),
                            (slice(2, 4), [(a2, b2), (a3, b3)])):
            for (px, py), w in anchors:
                d = np.array([px, py]) - z[sl]
                r = np.hypot(*d)
                u = d / r
                g[sl] -= w * u
                h[sl, sl] += (w / r) * (np.eye(2) - np.outer(u, u))
        d = z[2:] - z[:2]
        r = np.hypot(*d)
        u = d / r
        g[:2] -= xg * u
        g[2:] += xg * u
        blk = (xg / r) * (np.eye(2) - np.outer(u, u))
        h[:2, :2] += blk
        h[2:, 2:] += blk
        h[:2, 2:] -= blk
        h[2:, :2] -= blk
        return g, h

    z = np.array([n0[0], n0[1], n0p[0], n0p[1]])
    fz = objective(z)
    for _ in range(100):
        g, h = grad_hess(z)
        try:
            step = np.linalg.solve(h + 1e-13 * np.eye(4), -g)
        except np.linalg.LinAlgError:
            break
        t = 1.0
        while t > 1e-12:
            zn = z + t * step
            fn = objective(zn)
            if fn <= fz:
                z, fz = zn, fn
                break
            t *= 0.5
        else:
            break
        if np.linalg.norm(t * step) < 1e-14:
            break
    return (z[0], z[1]), (z[2], z[3])


def rigid_transform(points_xy, theta, tx, ty):
    c, s = math.cos(theta), math.sin(theta)
    return [(c * x - s * y + tx, s * x + c * y + ty) for x, y in points_xy]


def random_convex_quad(rng, min_gap=0.35, min_cross=0.05):
    """Strictly convex counterclockwise quadrilateral from polar sampling."""
    while True:
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, 4))
        gaps = np.diff(ang, append=ang[0] + 2.0 * math.pi)
        if gaps.min() < min_gap:
            continue
        rad = rng.uniform(1.0, 4.0, 4)
        pts = [
            (r * math.cos(a) + rng.uniform(-0.2, 0.2),
             r * math.sin(a) + rng.uniform(-0.2, 0.2))
            for r, a in zip(rad, ang)
        ]
        crosses = []
        for i in range(4):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % 4]
            cx, cy = pts[(i + 2) % 4]
            crosses.append((bx - ax) * (cy - by) - (by - ay) * (cx - bx))
        if all(c > min_cross for c in crosses):
            return pts
