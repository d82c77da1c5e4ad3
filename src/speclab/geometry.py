"""Parametric convex planar domains and their triangulations.

Domain constructors produce counterclockwise convex polygons; curved
boundaries (sector arcs, constant-width arcs) are approximated by inscribed
chords, so the polygon is always a subset of the true domain and mesh
vertices never leave it.

Meshing: rhombi, half rhombi and rectangles are meshed as affine images of
a structured triangulated reference square (quality is preserved under the
anisotropy of thin rhombi, where fan meshing degrades); generic convex
polygons are fan-triangulated from the centroid and uniformly refined.
Boundary edges carry condition markers ('N' or 'D') assigned from named
edge classes ('side', 'base', 'arc', 'radial') by a dirichlet class set.

Random inclusion pairs use an explicit 64-bit shift-register generator
(xorshift64*, published constants) so ratio scans reproduce across
platforms and languages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

NEUMANN = "N"
DIRICHLET = "D"
ALL_CLASSES = "*"


# ---------------------------------------------------------------------------
# domain specifications


@dataclass(frozen=True)
class Rhombus:
    """Planar double cone: vertices (+-D/2, 0), (0, +-(D/2) tan(theta))."""

    D: float
    theta: float

    def __post_init__(self):
        if not self.D > 0:
            raise ValueError("rhombus diagonal must be positive")
        if not 0 < self.theta < math.pi / 2:
            raise ValueError("rhombus half-opening must lie in (0, pi/2)")


@dataclass(frozen=True)
class HalfRhombus:
    """Upper half of the rhombus, cut along the long diagonal.

    base_marker is the boundary condition for the cut ('dirichlet' realizes
    the antisymmetric nodal configuration, 'neumann' the symmetric one).
    """

    D: float
    theta: float
    base_marker: str = "dirichlet"

    def __post_init__(self):
        if not self.D > 0:
            raise ValueError("rhombus diagonal must be positive")
        if not 0 < self.theta < math.pi / 2:
            raise ValueError("rhombus half-opening must lie in (0, pi/2)")
        if self.base_marker not in ("neumann", "dirichlet"):
            raise ValueError(f"unknown base marker {self.base_marker!r}")


@dataclass(frozen=True)
class Rectangle:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("rectangle sides must be positive")


@dataclass(frozen=True)
class Square:
    side: float

    def __post_init__(self):
        if not self.side > 0:
            raise ValueError("square side must be positive")


@dataclass(frozen=True)
class EquilateralTriangle:
    side: float

    def __post_init__(self):
        if not self.side > 0:
            raise ValueError("triangle side must be positive")


@dataclass(frozen=True)
class RegularPolygon:
    n_vertices: int
    circumradius: float

    def __post_init__(self):
        if self.n_vertices < 3:
            raise ValueError("need at least 3 vertices")
        if not self.circumradius > 0:
            raise ValueError("circumradius must be positive")


@dataclass(frozen=True)
class Sector:
    """Circular sector of radius R and opening angle `opening`, apex at the
    origin, symmetric about the x axis; the arc is inscribed with n_arc chords."""

    R: float
    opening: float
    n_arc: int = 64

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError("sector radius must be positive")
        if not 0 < self.opening < 2 * math.pi:
            raise ValueError("sector opening must lie in (0, 2 pi)")
        if self.n_arc < 1:
            raise ValueError("need at least one arc chord")


@dataclass(frozen=True)
class ReuleauxTriangle:
    """Constant-width domain from three circular arcs, n_arc chords each."""

    width: float
    n_arc: int = 64

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")
        if self.n_arc < 1:
            raise ValueError("need at least one arc chord")


@dataclass(frozen=True)
class ConvexHullPolygon:
    """Explicit convex polygon, vertices counterclockwise."""

    vertices: tuple

    def __post_init__(self):
        verts = tuple(tuple(map(float, v)) for v in self.vertices)
        object.__setattr__(self, "vertices", verts)
        if len(verts) < 3:
            raise ValueError("polygon needs at least 3 vertices")
        arr = np.array(verts)
        if _signed_area(arr) <= 0:
            raise ValueError("polygon vertices must be counterclockwise")
        n = len(verts)
        for i in range(n):
            a, b, c = arr[i], arr[(i + 1) % n], arr[(i + 2) % n]
            if _cross(b - a, c - b) < 0:
                raise ValueError("polygon vertices must be in convex position")


DomainSpec = Union[
    Rhombus,
    HalfRhombus,
    Rectangle,
    Square,
    EquilateralTriangle,
    RegularPolygon,
    Sector,
    ReuleauxTriangle,
    ConvexHullPolygon,
]


def _cross(u, v) -> float:
    return float(u[0] * v[1] - u[1] * v[0])


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _build_with_classes(spec: DomainSpec):
    """Vertices (ccw) and the class label of each polygon edge i -> i+1."""
    if isinstance(spec, Rhombus):
        h = 0.5 * spec.D * math.tan(spec.theta)
        poly = np.array([(-0.5 * spec.D, 0.0), (0.0, -h), (0.5 * spec.D, 0.0), (0.0, h)])
        return poly, ["side"] * 4
    if isinstance(spec, HalfRhombus):
        h = 0.5 * spec.D * math.tan(spec.theta)
        poly = np.array([(-0.5 * spec.D, 0.0), (0.5 * spec.D, 0.0), (0.0, h)])
        return poly, ["base", "side", "side"]
    if isinstance(spec, Square):
        spec = Rectangle(spec.side, spec.side)
    if isinstance(spec, Rectangle):
        a, b = spec.a, spec.b
        poly = np.array([(0.0, 0.0), (a, 0.0), (a, b), (0.0, b)])
        return poly, ["bottom", "right", "top", "left"]
    if isinstance(spec, EquilateralTriangle):
        s = spec.side
        poly = np.array([(0.0, 0.0), (s, 0.0), (0.5 * s, 0.5 * math.sqrt(3.0) * s)])
        return poly, ["side"] * 3
    if isinstance(spec, RegularPolygon):
        n, R = spec.n_vertices, spec.circumradius
        ang = 2.0 * math.pi * np.arange(n) / n
        poly = np.column_stack([R * np.cos(ang), R * np.sin(ang)])
        return poly, ["side"] * n
    if isinstance(spec, Sector):
        half = 0.5 * spec.opening
        ang = np.linspace(-half, half, spec.n_arc + 1)
        arc = np.column_stack([spec.R * np.cos(ang), spec.R * np.sin(ang)])
        poly = np.vstack([[0.0, 0.0], arc])
        classes = ["radial"] + ["arc"] * spec.n_arc + ["radial"]
        return poly, classes
    if isinstance(spec, ReuleauxTriangle):
        w = spec.width
        corners = np.array(
            [(0.0, 0.0), (w, 0.0), (0.5 * w, 0.5 * math.sqrt(3.0) * w)]
        )
        pts = []
        for i in range(3):
            center = corners[i]
            start = corners[(i + 1) % 3]
            a0 = math.atan2(start[1] - center[1], start[0] - center[0])
            for t in range(spec.n_arc):
                a = a0 + (t / spec.n_arc) * (math.pi / 3.0)
                pts.append(center + w * np.array([math.cos(a), math.sin(a)]))
        return np.array(pts), ["arc"] * (3 * spec.n_arc)
    if isinstance(spec, ConvexHullPolygon):
        poly = np.array(spec.vertices)
        return poly, ["side"] * len(poly)
    raise TypeError(f"unknown domain spec {spec!r}")


def build(spec: DomainSpec) -> np.ndarray:
    """Counterclockwise convex polygon approximating the domain (inscribed)."""
    return _build_with_classes(spec)[0]


def diameter(polygon: np.ndarray) -> float:
    """Maximal pairwise vertex distance (the diameter, for convex polygons)."""
    poly = np.asarray(polygon, dtype=float)
    if len(poly) < 2:
        raise ValueError("need at least 2 vertices")
    d2 = np.sum((poly[:, None, :] - poly[None, :, :]) ** 2, axis=2)
    return math.sqrt(float(d2.max()))


def area(polygon: np.ndarray) -> float:
    """Shoelace area of a simple polygon (positive)."""
    poly = np.asarray(polygon, dtype=float)
    if len(poly) < 3:
        raise ValueError("need at least 3 vertices")
    a = abs(_signed_area(poly))
    if a == 0.0:
        raise ValueError("degenerate polygon")
    return a


def scale_spec(spec: DomainSpec, c: float) -> DomainSpec:
    """The same domain scaled by a factor c > 0."""
    if not c > 0:
        raise ValueError("scale factor must be positive")
    if isinstance(spec, Rhombus):
        return Rhombus(spec.D * c, spec.theta)
    if isinstance(spec, HalfRhombus):
        return HalfRhombus(spec.D * c, spec.theta, spec.base_marker)
    if isinstance(spec, Rectangle):
        return Rectangle(spec.a * c, spec.b * c)
    if isinstance(spec, Square):
        return Square(spec.side * c)
    if isinstance(spec, EquilateralTriangle):
        return EquilateralTriangle(spec.side * c)
    if isinstance(spec, RegularPolygon):
        return RegularPolygon(spec.n_vertices, spec.circumradius * c)
    if isinstance(spec, Sector):
        return Sector(spec.R * c, spec.opening, spec.n_arc)
    if isinstance(spec, ReuleauxTriangle):
        return ReuleauxTriangle(spec.width * c, spec.n_arc)
    if isinstance(spec, ConvexHullPolygon):
        return ConvexHullPolygon(tuple((x * c, y * c) for x, y in spec.vertices))
    raise TypeError(f"unknown domain spec {spec!r}")


def domain_label(spec: DomainSpec) -> str:
    if isinstance(spec, Rhombus):
        return f"rhombus(D={spec.D:g},theta={math.degrees(spec.theta):.4g}deg)"
    if isinstance(spec, HalfRhombus):
        return (
            f"half_rhombus(D={spec.D:g},theta={math.degrees(spec.theta):.4g}deg,"
            f"base={spec.base_marker})"
        )
    if isinstance(spec, Rectangle):
        return f"rectangle({spec.a:g}x{spec.b:g})"
    if isinstance(spec, Square):
        return f"square({spec.side:g})"
    if isinstance(spec, EquilateralTriangle):
        return f"equilateral_triangle({spec.side:g})"
    if isinstance(spec, RegularPolygon):
        return f"regular_polygon(n={spec.n_vertices},R={spec.circumradius:g})"
    if isinstance(spec, Sector):
        return f"sector(R={spec.R:g},opening={spec.opening:g})"
    if isinstance(spec, ReuleauxTriangle):
        return f"reuleaux_triangle(w={spec.width:g})"
    if isinstance(spec, ConvexHullPolygon):
        return f"hull_polygon({len(spec.vertices)} vertices)"
    return repr(spec)


# ---------------------------------------------------------------------------
# seeded random inclusion pairs


class Xorshift64Star:
    """xorshift64* generator: shifts (12, 25, 27), multiplier
    2685821657736338717; uniform doubles from the top 53 bits."""

    _MASK = (1 << 64) - 1
    _MULT = 2685821657736338717

    def __init__(self, seed: int):
        state = int(seed) & self._MASK
        if state == 0:
            state = 0x9E3779B97F4A7C15
        self.state = state

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & self._MASK
        x ^= x >> 27
        self.state = x
        return (x * self._MULT) & self._MASK

    def uniform(self) -> float:
        """Uniform double in [0, 1)."""
        return (self.next_u64() >> 11) * 2.0**-53


def convex_hull(points: Sequence[Sequence[float]]) -> np.ndarray:
    """Andrew monotone chain; counterclockwise, collinear points dropped."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) < 3:
        return np.array(pts, dtype=float)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(
                np.subtract(out[-1], out[-2]), np.subtract(p, out[-1])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return np.array(lower[:-1] + upper[:-1], dtype=float)


def point_in_convex(poly: np.ndarray, p, margin: float = 0.0) -> bool:
    """Half-plane test against all edges of a ccw convex polygon."""
    n = len(poly)
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        if _cross(b - a, np.subtract(p, a)) < margin:
            return False
    return True


def inclusion_pair(seed: int, n_outer: int, n_inner: int):
    """A nested convex pair (inner, outer), deterministic from the seed.

    The outer polygon is the hull of n_outer points uniform in the unit
    disk; the inner one is the hull of n_inner points uniform in the outer
    polygon (rejection sampling on the same stream).  Containment is
    verified exactly by half-plane tests; degenerate draws (hull collapse
    or area <= 1e-4) are resampled up to 100 times.
    """
    if n_outer < 3 or n_inner < 3:
        raise ValueError("need at least 3 points for each polygon")
    rng = Xorshift64Star(seed)
    for _ in range(100):
        outer_pts = []
        while len(outer_pts) < n_outer:
            x = 2.0 * rng.uniform() - 1.0
            y = 2.0 * rng.uniform() - 1.0
            if x * x + y * y <= 1.0:
                outer_pts.append((x, y))
        outer = convex_hull(outer_pts)
        if len(outer) < 3 or abs(_signed_area(outer)) <= 1e-4:
            continue
        xmin, ymin = outer.min(axis=0)
        xmax, ymax = outer.max(axis=0)
        inner_pts = []
        rejected = 0
        while len(inner_pts) < n_inner and rejected < 10_000:
            x = xmin + rng.uniform() * (xmax - xmin)
            y = ymin + rng.uniform() * (ymax - ymin)
            if point_in_convex(outer, (x, y)):
                inner_pts.append((x, y))
            else:
                rejected += 1
        if len(inner_pts) < n_inner:
            continue
        inner = convex_hull(inner_pts)
        if len(inner) < 3 or abs(_signed_area(inner)) <= 1e-4:
            continue
        if not all(point_in_convex(outer, p) for p in inner):
            raise AssertionError("containment violated; construction bug")
        return inner, outer
    raise RuntimeError(f"no nondegenerate inclusion pair after 100 attempts (seed {seed})")


# ---------------------------------------------------------------------------
# meshes


@dataclass
class Mesh:
    """Triangulated domain with boundary condition markers.

    vertices: (nv, 2) float; triangles: (nt, 3) int, positively oriented;
    boundary_edges: (nb, 2) int; boundary_markers: length-nb list of
    'N'/'D'; h: maximal edge length.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_markers: list
    h: float

    @property
    def dof_count(self) -> int:
        return int(len(self.vertices))

    def validate(self) -> None:
        v, t = self.vertices, self.triangles
        p = v[t]
        areas = 0.5 * (
            (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
        )
        if np.any(areas <= 0):
            raise ValueError("mesh has non-positive triangle orientation")
        edge_count: dict = {}
        for tri in t:
            for i in range(3):
                key = tuple(sorted((int(tri[i]), int(tri[(i + 1) % 3]))))
                edge_count[key] = edge_count.get(key, 0) + 1
        boundary = {k for k, c in edge_count.items() if c == 1}
        marked = {tuple(sorted(map(int, e))) for e in self.boundary_edges}
        if boundary != marked:
            raise ValueError("boundary markers do not cover the boundary edges")
        if len(self.boundary_markers) != len(self.boundary_edges):
            raise ValueError("marker count mismatch")
        degree: dict = {}
        for a, b in boundary:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        if any(dg != 2 for dg in degree.values()):
            raise ValueError("boundary edges do not form closed loops")


def _max_edge(vertices: np.ndarray, triangles: np.ndarray) -> float:
    p = vertices[triangles]
    lengths = [
        np.linalg.norm(p[:, i] - p[:, (i + 1) % 3], axis=1).max() for i in range(3)
    ]
    return float(max(lengths))


def _boundary_edges_of(triangles: np.ndarray):
    count: dict = {}
    for tri in triangles:
        for i in range(3):
            a, b = int(tri[i]), int(tri[(i + 1) % 3])
            key = (a, b) if a < b else (b, a)
            count[key] = count.get(key, 0) + 1
    return [k for k, c in count.items() if c == 1]


def _structured_grid(nx: int, ny: int):
    """Unit square grid with antidiagonal cell splits (the antidiagonal of
    each cell is a mesh edge, so the line u+v=1 is resolved when nx=ny)."""
    us = np.linspace(0.0, 1.0, nx + 1)
    vs = np.linspace(0.0, 1.0, ny + 1)
    U, V = np.meshgrid(us, vs, indexing="ij")
    verts = np.column_stack([U.ravel(), V.ravel()])
    idx = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    tris = []
    for i in range(nx):
        for j in range(ny):
            a, b = idx[i, j], idx[i + 1, j]
            c, d = idx[i + 1, j + 1], idx[i, j + 1]
            tris.append([a, b, d])
            tris.append([b, c, d])
    return verts, np.array(tris, dtype=np.int64)


def _affine_mesh(spec, n_cells: int, half: bool):
    """Rhombus (or its upper half) as the affine image of the unit square."""
    D, theta = spec.D, spec.theta
    h = 0.5 * D * math.tan(theta)
    uv, tris = _structured_grid(n_cells, n_cells)
    x = (uv[:, 0] - uv[:, 1]) * (0.5 * D)
    y = (uv[:, 0] + uv[:, 1] - 1.0) * h
    verts = np.column_stack([x, y])
    if half:
        keep = []
        s = uv[:, 0] + uv[:, 1]
        for tri in tris:
            if s[tri].sum() >= 3.0 - 1e-12:  # centroid on or above u+v=1
                keep.append(tri)
        tris = np.array(keep, dtype=np.int64)
        used = np.unique(tris)
        remap = -np.ones(len(verts), dtype=np.int64)
        remap[used] = np.arange(len(used))
        verts = verts[used]
        tris = remap[tris]
    classes = {}
    for a, b in _boundary_edges_of(tris):
        ya, yb = verts[a, 1], verts[b, 1]
        if half and abs(ya) < 1e-12 * D and abs(yb) < 1e-12 * D:
            classes[(a, b)] = "base"
        else:
            classes[(a, b)] = "side"
    return verts, tris, classes


def _rectangle_mesh(a: float, b: float, target_h: Optional[float]):
    """Aspect-aware structured grid on [0,a]x[0,b]."""
    if target_h is None:
        target_h = 0.25 * max(a, b)
    nx = max(1, int(math.ceil(a / target_h)))
    ny = max(1, int(math.ceil(b / target_h)))
    uv, tris = _structured_grid(nx, ny)
    verts = np.column_stack([uv[:, 0] * a, uv[:, 1] * b])
    classes = {}
    for i, j in _boundary_edges_of(tris):
        x0, y0 = verts[i]
        x1, y1 = verts[j]
        if y0 == 0.0 and y1 == 0.0:
            classes[(i, j)] = "bottom"
        elif y0 == b and y1 == b:
            classes[(i, j)] = "top"
        elif x0 == 0.0 and x1 == 0.0:
            classes[(i, j)] = "left"
        else:
            classes[(i, j)] = "right"
    return verts, tris, classes


def _fan_mesh(poly: np.ndarray, edge_classes):
    """Fan triangulation from the centroid; edge i inherits class i."""
    n = len(poly)
    centroid = poly.mean(axis=0)
    verts = np.vstack([poly, centroid])
    tris = np.array([[i, (i + 1) % n, n] for i in range(n)], dtype=np.int64)
    classes = {}
    for i in range(n):
        a, b = i, (i + 1) % n
        key = (a, b) if a < b else (b, a)
        classes[key] = edge_classes[i]
    return verts, tris, classes


def refine_mesh(mesh: Mesh) -> Mesh:
    """Uniform refinement: every triangle into 4 via edge midpoints.

    h halves exactly and the triangle count quadruples; boundary sub-edges
    inherit their parent's marker.  Midpoints are numbered after the old
    vertices in order of first visit: triangle by triangle (edges ab, bc,
    ca), then the boundary edges.
    """
    verts = mesh.vertices
    tris = mesh.triangles.astype(np.int64, copy=False)
    edges = mesh.boundary_edges.astype(np.int64, copy=False).reshape(-1, 2)
    nt = len(tris)
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    visits = np.concatenate([np.stack([a, b, b, c, c, a], axis=1).reshape(-1, 2), edges])
    lo = visits.min(axis=1)
    hi = visits.max(axis=1)
    _, first, inverse = np.unique(
        lo * len(verts) + hi, return_index=True, return_inverse=True
    )
    by_visit = np.argsort(first)
    rank = np.empty_like(by_visit)
    rank[by_visit] = np.arange(len(by_visit))
    mid = len(verts) + rank[inverse]
    firsts = first[by_visit]
    vertices = np.vstack([verts, (verts[lo[firsts]] + verts[hi[firsts]]) * 0.5])

    ab, bc, ca = mid[: 3 * nt].reshape(nt, 3).T
    triangles = np.stack(
        [a, ab, ca, ab, b, bc, ca, bc, c, ab, bc, ca], axis=1
    ).reshape(-1, 3)
    m = mid[3 * nt :]
    boundary = np.stack([edges[:, 0], m, m, edges[:, 1]], axis=1).reshape(-1, 2)
    return Mesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=boundary,
        boundary_markers=[marker for marker in mesh.boundary_markers for _ in range(2)],
        h=_max_edge(vertices, triangles),
    )


def triangulate(
    spec: DomainSpec,
    target_h: Optional[float] = None,
    dirichlet_classes: Optional[frozenset] = None,
) -> Mesh:
    """Mesh the domain with boundary markers.

    target_h=None builds the minimal base mesh of the variant's family.
    dirichlet_classes marks matching edge classes 'D' ('*' matches every
    class); the default is a pure Neumann boundary.  Requesting a class
    that matches no edge is an error.
    """
    dirichlet = set(dirichlet_classes or ())
    if isinstance(spec, HalfRhombus) and spec.base_marker == "dirichlet":
        dirichlet.add("base")

    if isinstance(spec, (Rhombus, HalfRhombus)):
        # longest edge of the 1-cell mesh: the long diagonal (chopped into
        # n segments) or, for wide openings, the mapped grid edge
        edge1 = max(spec.D, math.hypot(0.5 * spec.D, 0.5 * spec.D * math.tan(spec.theta)))
        if target_h is None:
            n_cells = 8
        else:
            n_cells = max(1, int(math.ceil(edge1 / target_h)))
        verts, tris, classes = _affine_mesh(spec, n_cells, isinstance(spec, HalfRhombus))
        mesh = _finalize(verts, tris, classes, dirichlet)
    elif isinstance(spec, (Rectangle, Square)):
        a, b = (spec.a, spec.b) if isinstance(spec, Rectangle) else (spec.side, spec.side)
        verts, tris, classes = _rectangle_mesh(a, b, target_h)
        mesh = _finalize(verts, tris, classes, dirichlet)
    else:
        poly, edge_classes = _build_with_classes(spec)
        verts, tris, classes = _fan_mesh(poly, edge_classes)
        mesh = _finalize(verts, tris, classes, dirichlet)
        if target_h is not None:
            while mesh.h > target_h:
                mesh = refine_mesh(mesh)
    return mesh


def _finalize(verts, tris, classes, dirichlet):
    edges = []
    markers = []
    matched_any = not dirichlet
    for (a, b), cls in classes.items():
        edges.append((a, b))
        if ALL_CLASSES in dirichlet or cls in dirichlet:
            markers.append(DIRICHLET)
            matched_any = True
        else:
            markers.append(NEUMANN)
    if not matched_any:
        raise ValueError(f"dirichlet classes {sorted(dirichlet)} matched no boundary edge")
    vertices = np.asarray(verts, dtype=float)
    triangles = np.asarray(tris, dtype=np.int64)
    return Mesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=np.array(edges, dtype=np.int64),
        boundary_markers=markers,
        h=_max_edge(vertices, triangles),
    )


# ---------------------------------------------------------------------------
# mesh text format: header "nv nt nb", vertices "x y", triangles "i j k",
# boundary "i j N|D"


def write_mesh(mesh: Mesh, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"{len(mesh.vertices)} {len(mesh.triangles)} {len(mesh.boundary_edges)}\n")
        for x, y in mesh.vertices:
            fh.write(f"{x:.17g} {y:.17g}\n")
        for i, j, k in mesh.triangles:
            fh.write(f"{i} {j} {k}\n")
        for (i, j), m in zip(mesh.boundary_edges, mesh.boundary_markers):
            fh.write(f"{i} {j} {m}\n")


def read_mesh(path) -> Mesh:
    with open(path, "r", encoding="utf-8") as fh:
        nv, nt, nb = map(int, fh.readline().split())
        verts = np.array([list(map(float, fh.readline().split())) for _ in range(nv)])
        tris = np.array(
            [list(map(int, fh.readline().split())) for _ in range(nt)], dtype=np.int64
        )
        edges = []
        markers = []
        for _ in range(nb):
            i, j, m = fh.readline().split()
            edges.append((int(i), int(j)))
            if m not in (NEUMANN, DIRICHLET):
                raise ValueError(f"unknown boundary marker {m!r}")
            markers.append(m)
    return Mesh(
        vertices=verts,
        triangles=tris,
        boundary_edges=np.array(edges, dtype=np.int64),
        boundary_markers=markers,
        h=_max_edge(verts, tris),
    )
