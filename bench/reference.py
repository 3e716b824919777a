"""Independent reference computations that the benchmark checks quadft against.

Nothing here imports quadft, and nothing reuses its formulas: points are plain
(x, y) tuples and every result comes from first principles.

- The degree-four point is the weighted geometric median, found by a
  vertex-safe Weiszfeld iteration and polished by Newton steps on the
  gradient.  Kuhn's test (a vertex absorbs when the pull of the other three
  weights does not exceed its own weight) decides the absorbed case.
- The plasticity line is every weight quadruple that keeps a point P in
  balance at a fixed total: the two balance equations sum B_i u_i = 0 plus
  sum B_i = c, solved for B1, B2, B3 as affine functions of B4.
- The absorbing value comes in closed form.  When the Gauss edge collapses,
  both interior nodes sit at P, and the node joined to A1 and A4 balances
  B1 u1 + B4 u4 against the collapsed edge, so x_G(B4) = |B1(B4) u1 + B4 u4|.
  Along the line this is |a + B4 b|, whose minimum over B4 is the universal
  minimum u_FT and whose level sets are the roots of a quadratic.
"""

from __future__ import annotations

import math

WEISZFELD_TOL = 1e-13
WEISZFELD_MAX_ITER = 5_000


def _unit(p, q):
    dx, dy = q[0] - p[0], q[1] - p[1]
    d = math.hypot(dx, dy)
    return dx / d, dy / d


def _cross(u, v):
    return u[0] * v[1] - u[1] * v[0]


def pull(p, anchors, weights, skip=None):
    """Sum of weighted unit vectors from p toward each anchor (one skipped)."""
    sx = sy = 0.0
    for i, (q, w) in enumerate(zip(anchors, weights)):
        if i == skip:
            continue
        ux, uy = _unit(p, q)
        sx += w * ux
        sy += w * uy
    return sx, sy


def balance_residual(p, anchors, weights) -> float:
    """Norm of the weighted unit-vector sum at p: zero at a free node."""
    return math.hypot(*pull(p, anchors, weights))


def absorbed_vertex(points, weights) -> int | None:
    """0-based index of the vertex that absorbs the optimum (Kuhn), else None."""
    for i in range(len(points)):
        if math.hypot(*pull(points[i], points, weights, skip=i)) <= weights[i]:
            return i
    return None


def kuhn_slack(points, weights, i: int) -> float:
    """Weight of vertex i minus the pull of the others there (>= 0: absorbs)."""
    return weights[i] - math.hypot(*pull(points[i], points, weights, skip=i))


def _newton_polish(points, weights, x, y, steps=30):
    """Newton steps on the gradient of sum w_i |X - P_i| (2x2 Hessian)."""
    total = sum(weights)
    for _ in range(steps):
        gx = gy = hxx = hxy = hyy = 0.0
        for (px, py), w in zip(points, weights):
            dx, dy = x - px, y - py
            r = math.hypot(dx, dy)
            ux, uy = dx / r, dy / r
            gx += w * ux
            gy += w * uy
            hxx += w * (1.0 - ux * ux) / r
            hxy -= w * ux * uy / r
            hyy += w * (1.0 - uy * uy) / r
        if math.hypot(gx, gy) < 1e-15 * total:
            break
        det = hxx * hyy - hxy * hxy
        if det <= 0.0:
            break
        nx = x - (hyy * gx - hxy * gy) / det
        ny = y - (hxx * gy - hxy * gx) / det
        if balance_residual((nx, ny), points, weights) >= math.hypot(gx, gy):
            break
        x, y = nx, ny
    return x, y


def geometric_median(points, weights):
    """Point minimizing sum w_i |X - P_i|: the absorbing vertex when Kuhn's
    test says so, otherwise Weiszfeld from the weighted centroid (a vertex is
    never reached, since the optimum is interior) and a Newton polish."""
    i = absorbed_vertex(points, weights)
    if i is not None:
        return points[i]
    total = sum(weights)
    x = sum(w * p[0] for p, w in zip(points, weights)) / total
    y = sum(w * p[1] for p, w in zip(points, weights)) / total
    for _ in range(WEISZFELD_MAX_ITER):
        num_x = num_y = den = rx = ry = 0.0
        for (px, py), w in zip(points, weights):
            d = math.hypot(px - x, py - y)
            if d == 0.0:
                x, y = x + 1e-9 * (1.0 + abs(x)), y
                break
            num_x += w * px / d
            num_y += w * py / d
            den += w / d
            rx += w * (px - x) / d
            ry += w * (py - y) / d
        else:
            if math.hypot(rx, ry) < WEISZFELD_TOL * total:
                break
            x, y = num_x / den, num_y / den
    return _newton_polish(points, weights, x, y)


def _solve3(m, rhs):
    """Cramer's rule for a 3x3 system."""
    def det(a):
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))

    d = det(m)
    out = []
    for j in range(3):
        mj = [[rhs[i] if k == j else m[i][k] for k in range(3)] for i in range(3)]
        out.append(det(mj) / d)
    return out


class Line:
    """Weights B_i = x_i B4 + y_i (i = 1..3) that keep `point` balanced at
    total c, with the open B4 interval on which all four stay positive."""

    def __init__(self, points, point, c):
        u = [_unit(point, v) for v in points]
        m = [[u[0][0], u[1][0], u[2][0]],
             [u[0][1], u[1][1], u[2][1]],
             [1.0, 1.0, 1.0]]
        at0 = _solve3(m, [0.0, 0.0, c])                # B4 = 0
        at1 = _solve3(m, [-u[3][0], -u[3][1], c - 1.0])  # B4 = 1
        self.point = point
        self.c = c
        self.units = u
        self.coefficients = tuple((b1 - b0, b0) for b0, b1 in zip(at0, at1))
        lo, hi = 0.0, math.inf
        for x, y in self.coefficients:
            if x < 0.0:
                hi = min(hi, -y / x)
            elif x > 0.0:
                lo = max(lo, -y / x)
        self.interval = (lo, hi)

    def weights_at(self, b4):
        return tuple(x * b4 + y for x, y in self.coefficients) + (b4,)

    def _ab(self):
        """x_G(B4) = |a + B4 b| with a = y1 u1 and b = x1 u1 + u4."""
        (x1, y1), u1, u4 = self.coefficients[0], self.units[0], self.units[3]
        a = (y1 * u1[0], y1 * u1[1])
        b = (x1 * u1[0] + u4[0], x1 * u1[1] + u4[1])
        return a, b

    def absorbing_value(self, b4) -> float:
        a, b = self._ab()
        return math.hypot(a[0] + b4 * b[0], a[1] + b4 * b[1])

    def universal_minimum(self):
        """(u_FT, B4*): the distance from the origin to the line a + B4 b,
        with B4* clamped to the admissible interval."""
        a, b = self._ab()
        bb = b[0] * b[0] + b[1] * b[1]
        lo, hi = self.interval
        b4 = min(max(-(a[0] * b[0] + a[1] * b[1]) / bb, lo), hi)
        if lo < b4 < hi:
            return abs(_cross(a, b)) / math.sqrt(bb), b4
        return self.absorbing_value(b4), b4

    def level_set(self, u):
        """All admissible B4 with absorbing value u: roots of
        |b|^2 t^2 + 2 (a.b) t + |a|^2 - u^2 = 0."""
        a, b = self._ab()
        qa = b[0] * b[0] + b[1] * b[1]
        qb = 2.0 * (a[0] * b[0] + a[1] * b[1])
        qc = a[0] * a[0] + a[1] * a[1] - u * u
        disc = qb * qb - 4.0 * qa * qc
        if disc < 0.0:
            return []
        s = math.sqrt(disc)
        lo, hi = self.interval
        roots = sorted({(-qb - s) / (2.0 * qa), (-qb + s) / (2.0 * qa)})
        return [r for r in roots if lo < r < hi]


def diagonal_intersection(points):
    """Intersection of the diagonals A1A3 and A2A4."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = points
    d1 = (x3 - x1, y3 - y1)
    d2 = (x4 - x2, y4 - y2)
    t = _cross((x2 - x1, y2 - y1), d2) / _cross(d1, d2)
    return x1 + t * d1[0], y1 + t * d1[1]


def inside_convex(p, points, tol) -> bool:
    """p inside the counterclockwise polygon, up to `tol` in length."""
    n = len(points)
    for i in range(n):
        a, b = points[i], points[(i + 1) % n]
        edge = (b[0] - a[0], b[1] - a[1])
        if _cross(edge, (p[0] - a[0], p[1] - a[1])) < -tol * math.hypot(*edge):
            return False
    return True


def similarity(scale=1.0, theta=0.0, shift=(0.0, 0.0)):
    """p -> scale * R(theta) p + shift, the map an instance was built with."""
    c, s = math.cos(theta), math.sin(theta)

    def apply(p):
        return (scale * (c * p[0] - s * p[1]) + shift[0],
                scale * (s * p[0] + c * p[1]) + shift[1])

    return apply
