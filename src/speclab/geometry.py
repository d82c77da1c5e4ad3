"""Parametric convex planar domains and their triangulations.

Domain constructors produce counterclockwise convex polygons; curved
boundaries (sector arcs, constant-width arcs) are approximated by inscribed
chords, so the polygon is always a subset of the true domain and mesh
vertices never leave it.

Each spec's `outline()` is that polygon, an (n, 2) array.  Only a
symmetry cell, a `Part`, declares edges of it Dirichlet (`Part.dirichlet`),
and states the floor that lets it stand for its domain's mu_1 (`Part.floor`).

Meshing: each whole domain has one base mesh.  Rhombi and rectangles are
meshed as affine images of a structured triangulated reference square
(quality is preserved under the anisotropy of thin rhombi, where fan meshing
degrades); generic convex polygons are fan-triangulated from the centroid.
A `Part` (a half rhombus, a quarter regular polygon, a half Reuleaux
triangle) is its whole domain's base mesh cut to the part: the triangles
whose centroid lies inside it, which must tile it.
Finer meshes are uniform refinements of the base mesh; on a structured grid
they are the same grid with 2^r times the cells per side.
Boundary edges carry condition markers ('N' or 'D') set by one rule: the
problem is Neumann or Dirichlet (`triangulate`'s flag), and a Neumann
problem is 'D' on the outline edges that the domain declares Dirichlet.

Random inclusion pairs use an explicit 64-bit shift-register generator
(xorshift64*, published constants) so ratio scans reproduce across
platforms and languages.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .constants import payne_weinberger_lower
from .specfun import as_index

NEUMANN = "N"
DIRICHLET = "D"


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

    def outline(self) -> np.ndarray:
        h = 0.5 * self.D * math.tan(self.theta)
        return np.array([(-0.5 * self.D, 0.0), (0.0, -h), (0.5 * self.D, 0.0), (0.0, h)])


@dataclass(frozen=True)
class Rectangle:
    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0):
            raise ValueError("rectangle sides must be positive")

    def outline(self) -> np.ndarray:
        a, b = self.a, self.b
        return np.array([(0.0, 0.0), (a, 0.0), (a, b), (0.0, b)])


@dataclass(frozen=True)
class EquilateralTriangle:
    side: float

    def __post_init__(self):
        if not self.side > 0:
            raise ValueError("triangle side must be positive")

    def outline(self) -> np.ndarray:
        s = self.side
        return np.array([(0.0, 0.0), (s, 0.0), (0.5 * s, 0.5 * math.sqrt(3.0) * s)])


@dataclass(frozen=True)
class RegularPolygon:
    n_vertices: int
    circumradius: float

    def __post_init__(self):
        as_index(self.n_vertices, "vertex count")
        if self.n_vertices < 3:
            raise ValueError("need at least 3 vertices")
        if not self.circumradius > 0:
            raise ValueError("circumradius must be positive")

    def outline(self) -> np.ndarray:
        n, R = self.n_vertices, self.circumradius
        ang = 2.0 * math.pi * np.arange(n) / n
        return np.column_stack([R * np.cos(ang), R * np.sin(ang)])


@dataclass(frozen=True)
class Sector:
    """Circular sector of radius R and opening angle `opening` in (0, pi],
    apex at the origin, symmetric about the x axis; the arc is inscribed with
    n_arc chords.  A wider sector is not convex: its apex turns clockwise.
    A half disk (opening pi) needs at least two chords: its one chord would
    pass through the apex and enclose no area."""

    R: float
    opening: float
    n_arc: int = 64

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError("sector radius must be positive")
        if not 0 < self.opening <= math.pi:
            raise ValueError("sector opening must lie in (0, pi]")
        as_index(self.n_arc, "arc chord count")
        if self.n_arc < (2 if self.opening == math.pi else 1):
            raise ValueError("need at least one arc chord, two for an opening of pi")

    def outline(self) -> np.ndarray:
        half = 0.5 * self.opening
        ang = np.linspace(-half, half, self.n_arc + 1)
        arc = np.column_stack([self.R * np.cos(ang), self.R * np.sin(ang)])
        return np.vstack([[0.0, 0.0], arc])


@dataclass(frozen=True)
class ReuleauxTriangle:
    """Constant-width domain from three circular arcs, n_arc chords each."""

    width: float
    n_arc: int = 64

    def __post_init__(self):
        if not self.width > 0:
            raise ValueError("width must be positive")
        as_index(self.n_arc, "arc chord count")
        if self.n_arc < 1:
            raise ValueError("need at least one arc chord")

    def outline(self) -> np.ndarray:
        w = self.width
        corners = np.array(
            [(0.0, 0.0), (w, 0.0), (0.5 * w, 0.5 * math.sqrt(3.0) * w)]
        )
        pts = []
        for i in range(3):
            center = corners[i]
            start = corners[(i + 1) % 3]
            a0 = math.atan2(start[1] - center[1], start[0] - center[0])
            for t in range(self.n_arc):
                a = a0 + (t / self.n_arc) * (math.pi / 3.0)
                pts.append(center + w * np.array([math.cos(a), math.sin(a)]))
        return np.array(pts)


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
        if not _signed_area(arr) > 0:  # a NaN coordinate fails too
            raise ValueError("polygon vertices must be counterclockwise")
        edge = np.roll(arr, -1, axis=0) - arr
        after = np.roll(edge, -1, axis=0)
        cross = edge[:, 0] * after[:, 1] - edge[:, 1] * after[:, 0]
        repeats = np.flatnonzero(~edge.any(axis=1))
        if len(repeats):
            raise ValueError(f"polygon vertex {verts[repeats[0]]} repeats consecutively")
        if not np.all(cross >= 0):  # a NaN turn fails too
            raise ValueError("polygon vertices must be in convex position")
        # every turn is convex, so the turns add up to 2 pi times the winding
        # number, and a polygon that goes round twice passes the tests above
        turn = np.arctan2(cross, np.sum(edge * after, axis=1)).sum()
        if not abs(turn - 2.0 * math.pi) < math.pi:
            raise ValueError(f"polygon must wind once, its total turn is {turn:.6g}")

    def outline(self) -> np.ndarray:
        return np.array(self.vertices)


@dataclass(frozen=True)
class Part:
    """A symmetry cell of a whole domain (never itself a part): the convex
    region of it between mirror axes, the indices i of the region's outline
    edges i -> i+1 that are Dirichlet cuts (the others are Neumann), its floor.

    Its mesh is the whole domain's base mesh cut to the region (see
    `triangulate`), and the whole mesh is the cell's plus its mirror images,
    so the whole domain's pencil splits into the cell's under each choice of
    Neumann (even) or Dirichlet (odd) cuts.  floor bounds from below, on
    every mesh, each positive eigenvalue of the whole domain that is not also
    the cell's (None: no claim), so a cell's mu_1 below it is the domain's.
    Each factory below derives it from its arguments and proves it there.
    """

    whole: DomainSpec
    region: ConvexHullPolygon
    dirichlet: frozenset = frozenset()
    floor: float | None = None

    def __post_init__(self):
        if isinstance(self.whole, Part):
            raise ValueError("a part's whole domain must not itself be a part")
        object.__setattr__(self, "dirichlet", frozenset(self.dirichlet))
        n = len(self.region.vertices)
        if not self.dirichlet <= set(range(n)):
            raise ValueError(f"cut indices must name edges 0..{n - 1} of the region")

    def outline(self) -> np.ndarray:
        return self.region.outline()


def half_rhombus(D: float, theta: float, cut: str = DIRICHLET) -> Part:
    """Upper half of Rhombus(D, theta), cut along the long diagonal (region
    edge 0): a Dirichlet cut (the default) carries the rhombus's modes that
    are odd about it, a Neumann cut the even ones.

    The Neumann-cut half's floor is pi^2/(4 h^2), h = (D/2) tan(theta) its
    height.  The modes it drops are the Dirichlet-cut half's, and Poincare
    on that half's vertical fibres, Dirichlet at the cut and of height at
    most h, puts its tau_1 at or above pi^2/(4 h^2), on every mesh (min-max).
    The Dirichlet-cut half drops the even modes, mu_1 among them, and has no
    floor."""
    whole = Rhombus(D, theta)
    if cut not in (NEUMANN, DIRICHLET):
        raise ValueError(f"half rhombus cut must be {NEUMANN!r} or {DIRICHLET!r}")
    region = ConvexHullPolygon(whole.outline()[[0, 2, 3]])
    if cut == DIRICHLET:
        return Part(whole, region, {0})
    h = 0.5 * whole.D * math.tan(whole.theta)
    return Part(whole, region, floor=math.pi**2 / (4.0 * h**2))


def quarter_regular_polygon(n: int, R: float) -> Part:
    """Quarter of RegularPolygon(n, R), n divisible by 4: vertices 0..n/4 and
    the centre, cut along the axis through vertex 0 (the x axis, region edge
    n/4 + 1) with a Neumann condition and along the axis through vertex n/4
    (the y axis, region edge n/4) with a Dirichlet one.  It carries the
    polygon's modes that are even about the x axis and odd about the y axis,
    among them cos(theta).

    Its floor is min((n/(2R))^2, pi^2/D^2), D the quarter's diameter.  The
    rotation by 2 pi/n maps the fan mesh onto itself, so a mode odd about the
    x axis either shares its eigenvalue with an even one (a 2-dimensional
    representation of the dihedral group) or is odd about every vertex axis:
    it vanishes on all n spokes, and on each circle of radius r <= R the
    angular Poincare inequality gives |grad u|^2 >= (n/(2r))^2 u^2 in the
    mean.  The even modes that this quarter drops are the all-Neumann
    quarter's, a convex domain, so Payne-Weinberger (1960; Bebendorf 2003
    corrected the proof) puts the positive ones at or above pi^2/D^2.  Both
    bounds hold on every mesh (min-max)."""
    whole = RegularPolygon(n, R)
    if n % 4:
        raise ValueError("quarter regular polygon needs a vertex count divisible by 4")
    q = n // 4
    region = ConvexHullPolygon(np.vstack([whole.outline()[: q + 1], [(0.0, 0.0)]]))
    spokes = (whole.n_vertices / (2.0 * whole.circumradius)) ** 2
    return Part(whole, region, {q}, min(spokes, payne_weinberger_lower(diameter(region.outline()))))


def half_reuleaux_triangle(width: float, n_arc: int = 64) -> Part:
    """Right half of ReuleauxTriangle(width, n_arc), n_arc even, cut with a
    Neumann condition along its vertical mirror axis, from the bottom arc's
    midpoint (whole outline vertex 2 n_arc + n_arc/2) to the top corner
    (vertex n_arc).  It carries the triangle's modes that are even about the
    cut.

    Its floor is pi^2/((sqrt(3) - 1)^2 w^2).  The fan mesh is invariant under
    the three mirrors (the dihedral group D3), so a mode odd about the cut
    either shares its eigenvalue with an even one (the 2-dimensional
    representation) or is odd about all three axes.  Then it vanishes on the
    rays to the top corner and to the 30-degree arc midpoint, fan spokes that
    bound a sixth whose horizontal fibres start on the vertical ray and are
    at most (sqrt(3) - 1) w/2 long: the 1-D Poincare inequality puts its
    eigenvalue at or above the floor, on every mesh (min-max)."""
    whole = ReuleauxTriangle(width, n_arc)
    if n_arc % 2:
        raise ValueError("half Reuleaux triangle needs an even arc chord count")
    n = n_arc
    poly = whole.outline()
    region = ConvexHullPolygon(np.vstack([poly[2 * n + n // 2 :], poly[: n + 1]]))
    return Part(whole, region, floor=math.pi**2 / ((math.sqrt(3.0) - 1.0) * whole.width) ** 2)


DomainSpec = Union[
    Rhombus,
    Rectangle,
    EquilateralTriangle,
    RegularPolygon,
    Sector,
    ReuleauxTriangle,
    ConvexHullPolygon,
    Part,
]


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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


# ---------------------------------------------------------------------------
# seeded random inclusion pairs


class Xorshift64Star:
    """xorshift64* generator: shifts (12, 25, 27), multiplier
    2685821657736338717; uniform doubles from the top 53 bits."""

    _MASK = (1 << 64) - 1
    _MULT = 2685821657736338717

    def __init__(self, seed: int):
        state = as_index(seed, "seed") & self._MASK
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
            # pop the last point while out[-2] -> out[-1] -> p does not turn
            # left (cross product <= 0), in scalar arithmetic
            while len(out) >= 2 and (
                (out[-1][0] - out[-2][0]) * (p[1] - out[-1][1])
                - (out[-1][1] - out[-2][1]) * (p[0] - out[-1][0])
            ) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(pts)
    upper = chain(reversed(pts))
    return np.array(lower[:-1] + upper[:-1], dtype=float)


def _edge_sides(poly: np.ndarray, points: np.ndarray) -> np.ndarray:
    """The (m, n) crosses of each edge i -> i+1 of the polygon with each of the
    m points taken relative to vertex i: positive left of the edge's line and
    zero on it, so a point lies in a ccw convex polygon when its row is >= 0."""
    edge = np.concatenate([poly[1:], poly[:1]]) - poly
    rel = points[:, None, :] - poly[None]
    return edge[:, 0] * rel[..., 1] - edge[:, 1] * rel[..., 0]


def point_in_convex(poly: np.ndarray, p) -> bool:
    """Half-plane test against all edges of a ccw convex polygon; a point on
    the boundary is inside, one with a NaN coordinate outside."""
    return bool(np.all(_edge_sides(poly, np.array([p], dtype=float)) >= 0))


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
        if not np.all(_edge_sides(outer, inner) >= 0):
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
    'N'/'D'.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    boundary_markers: list

    def validate(self) -> None:
        v, t = self.vertices, self.triangles
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(f"vertices must be an (n, 2) array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("mesh has a non-finite vertex coordinate")
        if t.ndim != 2 or t.shape[1] != 3 or not len(t):
            raise ValueError(f"triangles must be a nonempty (n, 3) array, got shape {t.shape}")
        if t.min() < 0 or t.max() >= len(v):
            raise ValueError("triangle vertex index out of range")
        if not np.all(_triangle_areas(v, t) > 0):  # a NaN area fails too
            raise ValueError("mesh has non-positive triangle orientation")
        boundary = _boundary_edges_of(t)
        marked = np.sort(np.asarray(self.boundary_edges, dtype=np.int64).reshape(-1, 2), axis=1)
        if set(map(tuple, boundary.tolist())) != set(map(tuple, marked.tolist())):
            raise ValueError("boundary markers do not cover the boundary edges")
        if len(self.boundary_markers) != len(self.boundary_edges):
            raise ValueError("marker count mismatch")
        degree = np.bincount(boundary.ravel())
        if np.any(degree[degree > 0] != 2):
            raise ValueError("boundary edges do not form closed loops")


def _triangle_areas(verts: np.ndarray, tris: np.ndarray) -> np.ndarray:
    """Signed area of each triangle, positive when it is counterclockwise."""
    p = verts[tris]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
    )


def _boundary_edges_of(triangles: np.ndarray) -> np.ndarray:
    """Edges of exactly one triangle, as (low, high) vertex pairs in order of
    first visit (edges ab, bc, ca of each triangle in turn)."""
    tris = np.asarray(triangles, dtype=np.int64)
    edges = np.sort(tris[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2), axis=1)
    _, first, count = np.unique(
        edges[:, 0] * (tris.max() + 1) + edges[:, 1], return_index=True, return_counts=True
    )
    return edges[np.sort(first[count == 1])]


def _structured_grid(nx: int, ny: int):
    """Unit square grid with antidiagonal cell splits (the antidiagonal of
    each cell is a mesh edge, so the line u+v=1 is resolved when nx=ny)."""
    us = np.linspace(0.0, 1.0, nx + 1)
    vs = np.linspace(0.0, 1.0, ny + 1)
    U, V = np.meshgrid(us, vs, indexing="ij")
    verts = np.column_stack([U.ravel(), V.ravel()])
    idx = np.arange((nx + 1) * (ny + 1), dtype=np.int64).reshape(nx + 1, ny + 1)
    a, b, c, d = idx[:-1, :-1], idx[1:, :-1], idx[1:, 1:], idx[:-1, 1:]
    # cell (i, j) in row-major order gives triangles abd, bcd
    return verts, np.stack([a, b, d, b, c, d], axis=-1).reshape(-1, 3)


def _keep_inside(verts: np.ndarray, tris: np.ndarray, poly: np.ndarray):
    """The triangles whose centroid lies strictly inside the ccw convex poly,
    in their order, on the vertices they use, renumbered in their order."""
    tris = tris[np.all(_edge_sides(poly, verts[tris].mean(axis=1)) > 0, axis=1)]
    used = np.unique(tris)
    remap = np.empty(len(verts), dtype=np.int64)
    remap[used] = np.arange(len(used))
    return verts[used], remap[tris]


def _rhombus_grid(poly: np.ndarray):
    """The rhombus outline poly, vertices (-D/2, 0), (0, -h), (D/2, 0) and
    (0, h), as the affine image of the 8 x 8 unit-square grid.

    The grid map (u, v) -> (1 - v, 1 - u) maps every cell and its split onto
    another's and is the mirror y -> -y across the long diagonal, a line of
    grid edges; with power-of-two grid coordinates the image is exact in
    floating point, so at every refinement the rhombus mesh is its upper
    half's (`half_rhombus`) plus that mesh's mirror image, bit for bit."""
    half_d, h = poly[2, 0], poly[3, 1]
    uv, tris = _structured_grid(8, 8)
    return np.column_stack([(uv[:, 0] - uv[:, 1]) * half_d, (uv[:, 0] + uv[:, 1] - 1.0) * h]), tris


def _centroid_fan(poly: np.ndarray):
    """The polygon fan-triangulated from its vertex centroid."""
    n = len(poly)
    i = np.arange(n)
    verts = np.vstack([poly, poly.mean(axis=0)])
    return verts, np.column_stack([i, (i + 1) % n, np.full(n, n)])


def _rectangle_grid(poly: np.ndarray):
    """Aspect-aware structured grid on [0,a]x[0,b], (a, b) the corner poly[2],
    with cells of side at most a quarter of the longer side."""
    a, b = map(float, poly[2])
    side = 0.25 * max(a, b)
    uv, tris = _structured_grid(math.ceil(a / side), math.ceil(b / side))
    return np.column_stack([uv[:, 0] * a, uv[:, 1] * b]), tris


def _nearest_outline_edge(poly: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Index of the polygon edge i -> i+1 nearest to each point."""
    ex, ey = (np.concatenate([poly[1:], poly[:1]]) - poly).T
    dx = points[:, :1] - poly[:, 0]
    dy = points[:, 1:] - poly[:, 1]
    t = np.clip((dx * ex + dy * ey) / (ex * ex + ey * ey), 0.0, 1.0)
    return ((dx - t * ex) ** 2 + (dy - t * ey) ** 2).argmin(axis=1)


def refine_mesh(mesh: Mesh) -> Mesh:
    """Uniform refinement: every triangle into 4 via edge midpoints.

    Every edge halves and the triangle count quadruples; boundary sub-edges
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
    )


# Structured grids keep their quality under the anisotropy of thin rhombi and
# rectangles; every other whole domain is fan-triangulated.
_GRID_MESHES = {Rhombus: _rhombus_grid, Rectangle: _rectangle_grid}


def triangulate(spec: DomainSpec, dirichlet: bool = False) -> Mesh:
    """The base mesh of the spec, with boundary markers.

    A whole domain's base mesh is its family's (`_GRID_MESHES`, else the
    centroid fan of its outline).  A `Part`'s is its whole domain's base mesh
    cut to the region (`_keep_inside`); ValueError when the kept triangles'
    area differs from the region's by more than 1e-12 relative, as it does
    when the region does not run along the base mesh's edges.  Finer meshes
    are uniform refinements of it (`refine_mesh`).

    dirichlet marks every boundary edge 'D' (the Dirichlet Laplacian).
    Otherwise an edge is 'D' when it lies on an outline edge that the
    domain declares Dirichlet (a part's Dirichlet cuts) and 'N' elsewhere.
    """
    poly = spec.outline()
    part = isinstance(spec, Part)
    whole = spec.whole if part else spec
    base = _GRID_MESHES.get(type(whole), _centroid_fan)
    verts, tris = base(whole.outline() if part else poly)
    if part:
        verts, tris = _keep_inside(verts, tris, poly)
        # the kept triangles tile the region to rounding when it runs along
        # mesh edges, and miss or overhang it by whole triangles otherwise
        kept, target = float(_triangle_areas(verts, tris).sum()), area(poly)
        if not abs(kept - target) <= 1e-12 * target:
            raise ValueError(
                f"part region does not run along the edges of the {type(whole).__name__} "
                f"base mesh: its kept triangles cover {kept:.12g} of its area {target:.12g}"
            )
    edges = _boundary_edges_of(tris)
    nearest = _nearest_outline_edge(poly, 0.5 * (verts[edges[:, 0]] + verts[edges[:, 1]]))
    cuts = spec.dirichlet if part else frozenset()
    markers = [DIRICHLET if dirichlet or i in cuts else NEUMANN for i in nearest]
    return Mesh(
        vertices=verts,
        triangles=tris,
        boundary_edges=edges,
        boundary_markers=markers,
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
    """Mesh from a file in the text format of `write_mesh`; raises ValueError
    when the file does not describe a valid mesh (`Mesh.validate`)."""
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
    mesh = Mesh(
        vertices=verts,
        triangles=tris,
        boundary_edges=np.array(edges, dtype=np.int64),
        boundary_markers=markers,
    )
    mesh.validate()
    return mesh
