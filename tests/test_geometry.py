"""Tests for domain construction, measures, inclusion pairs and meshing."""

import dataclasses
import math
import typing

import numpy as np
import pytest

from speclab import constants
from speclab import geometry as geo


def brute_diameter(poly):
    return max(
        math.dist(p, q) for i, p in enumerate(poly) for q in poly[i + 1 :]
    )


def refined(spec, times):
    """The spec's base mesh after `times` uniform refinements."""
    mesh = geo.triangulate(spec)
    for _ in range(times):
        mesh = geo.refine_mesh(mesh)
    return mesh


def declaring(spec, edges):
    """spec with its outline edges i -> i+1, i in edges, declared Dirichlet
    too: a part gains them as cuts, and a whole domain becomes the part that
    is all of it."""
    if not edges:
        return spec
    if isinstance(spec, geo.Part):
        return dataclasses.replace(spec, dirichlet=spec.dirichlet | edges)
    return geo.Part(spec, geo.ConvexHullPolygon(spec.outline()), edges)


# outline edge indices: a rectangle's sides from the bottom counterclockwise,
# and a sector's arc chords (edges 0 and n_arc + 1 are its radii)
BOTTOM, RIGHT, TOP, LEFT = range(4)


def arc(sector):
    return frozenset(range(1, sector.n_arc + 1))


def rotate(poly, angle, center=(0.3, -0.7)):
    c, s = math.cos(angle), math.sin(angle)
    out = []
    for x, y in poly:
        dx, dy = x - center[0], y - center[1]
        out.append((center[0] + c * dx - s * dy, center[1] + s * dx + c * dy))
    return np.array(out)


# ---------------------------------------------------------------------------
# builders


def test_rhombus_build():
    poly = geo.Rhombus(2.0, math.pi / 4).outline()
    ref = {(-1.0, 0.0), (0.0, -1.0), (1.0, 0.0), (0.0, 1.0)}
    assert {tuple(np.round(p, 12)) for p in poly} == ref


def test_square_diameter_normalization():
    poly = geo.Rectangle(math.sqrt(2.0), math.sqrt(2.0)).outline()
    assert geo.diameter(poly) == pytest.approx(2.0, rel=1e-14)


def test_reuleaux_constant_width():
    poly = geo.ReuleauxTriangle(2.0, 64).outline()
    d2 = np.sum((poly[:, None] - poly[None, :]) ** 2, axis=2)
    assert math.sqrt(d2.max()) == pytest.approx(2.0, abs=1e-12)


def test_sector_vertices_on_circle():
    spec = geo.Sector(1.5, math.pi / 3, 32)
    poly = spec.outline()
    assert len(poly) == 34  # apex + 33 arc points
    radii = np.linalg.norm(poly[1:], axis=1)
    assert np.allclose(radii, 1.5, atol=1e-14)


def test_sector_opening_is_at_most_pi():
    # past pi the apex turns clockwise: the outline is not convex
    for opening in (4.0, math.pi + 1e-9, 0.0):
        with pytest.raises(ValueError, match="opening"):
            geo.Sector(1.0, opening, 16)
    half_disk = geo.Sector(1.0, math.pi, 16)
    geo.ConvexHullPolygon(half_disk.outline())
    refined(half_disk, 2).validate()


def test_sector_encloses_a_positive_area():
    # one chord across a half disk passes through the apex: a zero-area sliver
    with pytest.raises(ValueError, match="two for an opening of pi"):
        geo.Sector(1.0, math.pi, 1)
    # two chords make the half disk's inscribed square; one chord a triangle
    for opening, n_arc, expected in ((math.pi, 2, 1.0), (3.0, 1, 0.5 * math.sin(3.0)),
                                     (1e-3, 1, 0.5 * math.sin(1e-3))):
        sector = geo.Sector(1.0, opening, n_arc)
        assert geo.area(sector.outline()) == pytest.approx(expected, rel=1e-12)


# an example of every spec type and of each cell that the experiments solve,
# keyed by the test ids
EXAMPLES = {
    "Rhombus": geo.Rhombus(2.0, 0.1),
    "HalfRhombus": geo.half_rhombus(2.0, 0.3),
    "Rectangle": geo.Rectangle(1.0, 0.01),
    "EquilateralTriangle": geo.EquilateralTriangle(2.0),
    "RegularPolygon": geo.RegularPolygon(7, 1.0),
    "QuarterRegularPolygon": geo.quarter_regular_polygon(8, 1.0),
    "Sector": geo.Sector(1.0, 1.654, 16),
    "ReuleauxTriangle": geo.ReuleauxTriangle(1.0, 8),
    "HalfReuleauxTriangle": geo.half_reuleaux_triangle(1.0, 8),
    "ConvexHullPolygon": geo.ConvexHullPolygon(((0, 0), (1, 0), (1.2, 0.7), (0.3, 0.9))),
}


def test_examples_cover_every_spec_type():
    # a type added to DomainSpec must be added to EXAMPLES
    assert {type(spec) for spec in EXAMPLES.values()} == set(typing.get_args(geo.DomainSpec))
    assert len(typing.get_args(geo.DomainSpec)) == 8


@pytest.mark.parametrize("name", EXAMPLES)
def test_build_polygons_ccw_convex(name):
    spec = EXAMPLES[name]
    poly = spec.outline()
    assert poly.ndim == 2 and poly.shape[1] == 2
    if isinstance(spec, geo.Part):
        assert spec.dirichlet <= set(range(len(poly)))
    assert geo._signed_area(poly) > 0
    edge = np.roll(poly, -1, axis=0) - poly
    after = np.roll(edge, -1, axis=0)
    assert np.all(edge[:, 0] * after[:, 1] - edge[:, 1] * after[:, 0] >= -1e-12)
    mesh = geo.triangulate(spec)
    mesh.validate()
    for _ in range(3):
        mesh = geo.refine_mesh(mesh)
        mesh.validate()


# ---------------------------------------------------------------------------
# measures


def test_diameter_rhombus_long_diagonal():
    for theta in (0.1, 0.4, math.pi / 4 - 0.01):
        assert geo.diameter(geo.Rhombus(3.0, theta).outline()) == pytest.approx(3.0)


def test_diameter_regular_polygon_bounds():
    poly = geo.RegularPolygon(64, 1.0).outline()
    d = geo.diameter(poly)
    assert d == pytest.approx(brute_diameter([tuple(p) for p in poly]), rel=1e-14)
    assert 2.0 * math.cos(math.pi / 64) <= d <= 2.0


def test_area_values():
    assert geo.area(geo.Rectangle(1.0, 1.0).outline()) == pytest.approx(1.0, rel=1e-14)
    for theta in (0.2, 0.7):
        assert geo.area(geo.Rhombus(2.0, theta).outline()) == pytest.approx(
            2.0 * math.tan(theta), rel=1e-13
        )
    n = 256
    assert geo.area(geo.RegularPolygon(n, 1.0).outline()) == pytest.approx(
        0.5 * n * math.sin(2 * math.pi / n), rel=1e-13
    )
    assert abs(geo.area(geo.RegularPolygon(256, 1.0).outline()) - math.pi) < 1e-3


def test_measures_rigid_motion_invariant():
    poly = geo.RegularPolygon(9, 1.3).outline()
    for angle in (0.3, 1.1, 2.9):
        rot = rotate(poly, angle)
        assert geo.diameter(rot) == pytest.approx(geo.diameter(poly), abs=1e-12)
        assert geo.area(rot) == pytest.approx(geo.area(poly), abs=1e-12)


# ---------------------------------------------------------------------------
# inclusion pairs


def test_inclusion_pair_containment_and_determinism():
    inner, outer = geo.inclusion_pair(1, 12, 6)
    inner2, outer2 = geo.inclusion_pair(1, 12, 6)
    assert np.array_equal(inner, inner2) and np.array_equal(outer, outer2)
    for p in inner:
        assert geo.point_in_convex(outer, p)
    assert geo.diameter(inner) <= geo.diameter(outer) + 1e-15
    assert 0 < geo.area(inner) < geo.area(outer) < math.pi
    # golden values frozen from the first implementation run (seed 1)
    assert geo.area(inner) == pytest.approx(0.3426896399347, rel=1e-12)
    assert geo.area(outer) == pytest.approx(1.30824846090748, rel=1e-12)


def test_point_in_convex_counts_the_boundary_as_inside():
    poly = geo.ConvexHullPolygon(((0, 0), (1, 0), (1.2, 0.7), (0.3, 0.9))).outline()
    # every vertex, and the midpoint of edge 0, which lies exactly on it
    for p in [*poly, (0.5, 0.0)]:
        assert geo.point_in_convex(poly, p)
    # 1e-9 off the midpoint of each edge, along its outward normal or against it
    for a, b in zip(poly, np.roll(poly, -1, axis=0)):
        normal = np.array([b[1] - a[1], a[0] - b[0]]) / math.dist(a, b)
        assert not geo.point_in_convex(poly, 0.5 * (a + b) + 1e-9 * normal)
        assert geo.point_in_convex(poly, 0.5 * (a + b) - 1e-9 * normal)
    assert not geo.point_in_convex(poly, (math.nan, 0.5))


def test_inclusion_pair_seeds_differ():
    a = geo.inclusion_pair(1, 12, 6)
    b = geo.inclusion_pair(2, 12, 6)
    assert not np.array_equal(a[1], b[1])


def test_inclusion_pair_many_seeds_valid():
    for seed in range(1, 40):
        inner, outer = geo.inclusion_pair(seed, 12, 6)
        assert all(geo.point_in_convex(outer, p) for p in inner)


def test_xorshift_reference_stream():
    # first outputs for seed state 1 (after the seed-mixing xor)
    rng = geo.Xorshift64Star(1)
    vals = [rng.uniform() for _ in range(4)]
    assert all(0.0 <= v < 1.0 for v in vals)
    rng2 = geo.Xorshift64Star(1)
    assert [rng2.uniform() for _ in range(4)] == vals


def _numpy_convex_hull(points):
    """convex_hull as it was written with two np.subtract calls per point:
    the oracle for the scalar cross product."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) < 3:
        return np.array(pts, dtype=float)

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2:
                u, v = np.subtract(out[-1], out[-2]), np.subtract(p, out[-1])
                if not float(u[0] * v[1] - u[1] * v[0]) <= 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    return np.array(lower[:-1] + upper[:-1], dtype=float)


def test_convex_hull_matches_the_numpy_cross_product():
    # python floats as the outer draws make them, numpy rows as the inner
    # draws do, and sets with duplicate and collinear points
    rng = np.random.default_rng(2)
    cases = [rng.uniform(-1.0, 1.0, (n, 2)) for n in (6, 12) * 1000]
    cases += [[tuple(map(float, p)) for p in pts] for pts in cases[:200]]
    cases += [np.round(rng.uniform(-1.0, 1.0, (12, 2)), 1) for _ in range(200)]
    cases += [[(0, 0), (1, 0), (2, 0), (1, 1)], [(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]]
    for pts in cases:
        hull, expected = geo.convex_hull(pts), _numpy_convex_hull(pts)
        assert hull.shape == expected.shape and np.array_equal(hull, expected)


def test_xorshift_seed_must_be_an_integer():
    for bad in (1.5, 2.0, True, "3"):
        with pytest.raises(ValueError, match="seed must be an integer"):
            geo.Xorshift64Star(bad)
    assert geo.Xorshift64Star(np.int64(5)).uniform() == geo.Xorshift64Star(5).uniform()


# ---------------------------------------------------------------------------
# meshing


def area_sum(mesh):
    p = mesh.vertices[mesh.triangles]
    return float(
        np.sum(
            0.5
            * (
                (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
                - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0])
            )
        )
    )


def test_square_mesh_partitions_area():
    mesh = geo.triangulate(geo.Rectangle(1.0, 1.0))
    mesh.validate()
    assert area_sum(mesh) == pytest.approx(1.0, abs=1e-12)


def test_rhombus_mesh_default_neumann():
    mesh = geo.triangulate(geo.Rhombus(2.0, 0.1))
    mesh.validate()
    assert set(mesh.boundary_markers) == {"N"}
    assert area_sum(mesh) == pytest.approx(2.0 * math.tan(0.1), rel=1e-12)


def test_half_rhombus_base_dirichlet():
    mesh = geo.triangulate(geo.half_rhombus(2.0, 0.3))
    mesh.validate()
    base_edges = [
        (e, m)
        for e, m in zip(mesh.boundary_edges, mesh.boundary_markers)
        if abs(mesh.vertices[e[0], 1]) < 1e-12 and abs(mesh.vertices[e[1], 1]) < 1e-12
    ]
    assert base_edges and all(m == "D" for _, m in base_edges)
    others = [
        m
        for e, m in zip(mesh.boundary_edges, mesh.boundary_markers)
        if not (abs(mesh.vertices[e[0], 1]) < 1e-12 and abs(mesh.vertices[e[1], 1]) < 1e-12)
    ]
    assert others and all(m == "N" for m in others)


def test_half_rhombus_cut_condition():
    assert geo.half_rhombus(2.0, 0.3).dirichlet == {0}  # the base
    mesh = geo.triangulate(geo.half_rhombus(2.0, 0.3, geo.NEUMANN))
    mesh.validate()
    assert set(mesh.boundary_markers) == {"N"}
    with pytest.raises(ValueError, match="cut"):
        geo.half_rhombus(2.0, 0.3, "*")


# every example, and the half rhombus with each cut
MARKER_EXAMPLES = dict(EXAMPLES)
MARKER_EXAMPLES["HalfRhombus-Neumann-cut"] = geo.half_rhombus(2.0, 0.3, geo.NEUMANN)


def refinements_0_to_2(mesh):
    return [mesh, geo.refine_mesh(mesh), geo.refine_mesh(geo.refine_mesh(mesh))]


@pytest.mark.parametrize("name", MARKER_EXAMPLES)
def test_dirichlet_problem_marks_every_boundary_edge(name):
    for mesh in refinements_0_to_2(geo.triangulate(MARKER_EXAMPLES[name], dirichlet=True)):
        mesh.validate()
        assert mesh.boundary_markers == [geo.DIRICHLET] * len(mesh.boundary_edges)


def on_declared_edge(spec, p, q):
    """Whether the boundary edge pq lies on an outline edge that spec declares
    Dirichlet: the base (y = 0) of a Dirichlet-cut half rhombus, or the y-axis
    cut of a quarter regular polygon (whose ends are rounded off x = 0)."""
    whole = spec.whole if isinstance(spec, geo.Part) else None
    if isinstance(whole, geo.Rhombus) and spec.dirichlet:
        return p[1] == q[1] == 0.0
    if isinstance(whole, geo.RegularPolygon):
        return max(abs(p[0]), abs(q[0])) < 1e-12
    return False


@pytest.mark.parametrize("name", MARKER_EXAMPLES)
def test_neumann_problem_marks_only_the_edges_the_domain_declares(name):
    spec = MARKER_EXAMPLES[name]
    for mesh in refinements_0_to_2(geo.triangulate(spec)):
        expected = [
            geo.DIRICHLET if on_declared_edge(spec, p, q) else geo.NEUMANN
            for p, q in mesh.vertices[mesh.boundary_edges]
        ]
        assert mesh.boundary_markers == expected
        assert (geo.DIRICHLET in expected) == (isinstance(spec, geo.Part) and bool(spec.dirichlet))


@pytest.mark.parametrize("deg", [5.0, 20.0, 45.0])
def test_rhombus_mesh_is_half_mesh_and_its_mirror_image(deg):
    # (u, v) -> (1 - v, 1 - u) maps the rhombus grid onto itself as the mirror
    # y -> -y, so the rhombus mesh is the half mesh plus that mesh's mirror
    # image, with bit-exact coordinates, at every refinement
    full = geo.triangulate(geo.Rhombus(2.0, math.radians(deg)))
    half = geo.triangulate(geo.half_rhombus(2.0, math.radians(deg), geo.NEUMANN))

    def triangles(mesh, sign=1.0):
        points = mesh.vertices * (1.0, sign)
        return {frozenset(map(tuple, points[t].tolist())) for t in mesh.triangles}

    for _ in range(3):
        upper, lower = triangles(half), triangles(half, -1.0)
        assert not upper & lower
        assert triangles(full) == upper | lower
        assert len(full.triangles) == 2 * len(half.triangles)
        full, half = geo.refine_mesh(full), geo.refine_mesh(half)


@pytest.mark.parametrize(
    "part, parts, inside",
    [
        # the quarter of the 256-gon between the positive x and y axes
        (geo.quarter_regular_polygon(256, 1.0), 4, lambda c: (c[:, 0] > 0.0) & (c[:, 1] > 0.0)),
        # the half of the Reuleaux triangle right of its vertical axis x = w/2
        (geo.half_reuleaux_triangle(2.0, 64), 2, lambda c: c[:, 0] > 1.0),
        # the half of the rhombus above its long diagonal, with each cut
        (geo.half_rhombus(2.0, math.radians(20.0), geo.NEUMANN), 2, lambda c: c[:, 1] > 0.0),
        (geo.half_rhombus(2.0, math.radians(20.0)), 2, lambda c: c[:, 1] > 0.0),
    ],
    ids=["QuarterRegularPolygon", "HalfReuleauxTriangle", "half_rhombus-N", "half_rhombus-D"],
)
def test_part_mesh_is_the_whole_fans_triangles_inside_it(part, parts, inside):
    # the part is cut from its whole domain's base mesh (a fan or the rhombus
    # grid), so at every refinement its mesh is the whole mesh's triangles
    # inside it, bit-exact up to numbering
    whole, mesh = geo.triangulate(part.whole), geo.triangulate(part)

    def triangles(mesh, keep):
        return {frozenset(map(tuple, mesh.vertices[t].tolist())) for t in mesh.triangles[keep]}

    for _ in range(3):
        keep = inside(whole.vertices[whole.triangles].mean(axis=1))
        assert triangles(mesh, slice(None)) == triangles(whole, keep)
        assert len(mesh.triangles) == np.count_nonzero(keep) == len(whole.triangles) // parts
        whole, mesh = geo.refine_mesh(whole), geo.refine_mesh(mesh)


def test_quarter_polygon_needs_vertex_count_divisible_by_four():
    # vertices 0..n/4 and the centre; the cuts are the last two outline edges
    quarter = geo.quarter_regular_polygon(8, 1.0)
    poly = quarter.outline()
    assert len(poly) == 4 and quarter.dirichlet == {2}
    assert np.array_equal(poly[-1], (0.0, 0.0))
    for n in (6, 7, 10):
        with pytest.raises(ValueError, match="divisible by 4"):
            geo.quarter_regular_polygon(n, 1.0)


def test_half_reuleaux_needs_even_arc_count():
    # from the bottom arc's midpoint through the right corner to the top one
    poly = geo.half_reuleaux_triangle(2.0, 4).outline()
    assert len(poly) == 7
    assert poly[0] == pytest.approx((1.0, math.sqrt(3.0) - 2.0), abs=1e-15)
    assert poly[-1] == pytest.approx((1.0, math.sqrt(3.0)), abs=1e-15)
    with pytest.raises(ValueError, match="even"):
        geo.half_reuleaux_triangle(2.0, 5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: geo.RegularPolygon(4.5, 1.0),
        lambda: geo.RegularPolygon(8.0, 1.0),
        lambda: geo.Sector(1.0, 1.0, 2.5),
        lambda: geo.ReuleauxTriangle(2.0, 2.5),
        lambda: geo.quarter_regular_polygon(8.0, 1.0),
        lambda: geo.half_reuleaux_triangle(2.0, 64.0),
    ],
    ids=["polygon-4.5", "polygon-8.0", "sector", "reuleaux", "quarter", "half-reuleaux"],
)
def test_vertex_and_chord_counts_must_be_integers(make):
    # a fractional vertex count would build an irregular polygon
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_half_rhombus_floor_is_the_fibre_bound():
    # pi^2/(4 h^2), h = (D/2) tan(theta); at D = 2 it is the sweep's
    # tau1_lower_bound pi^2/(4 tan^2(theta)) bit for bit, since D/2 = 1 exactly
    for deg in np.linspace(2.0, 45.0, 861):
        theta = math.radians(deg)
        floor = geo.half_rhombus(2.0, theta, geo.NEUMANN).floor
        assert floor == math.pi**2 / (4.0 * (0.5 * 2.0 * math.tan(theta)) ** 2)
        assert floor == math.pi**2 / (4.0 * math.tan(theta) ** 2)
    wide = geo.half_rhombus(3.0, 0.3, geo.NEUMANN).floor
    assert wide == math.pi**2 / (4.0 * (1.5 * math.tan(0.3)) ** 2)


def test_quarter_and_reuleaux_floors_are_their_closed_forms():
    # min((n/(2R))^2, pi^2/D^2), D the quarter's diameter: the square's odd
    # modes set it (4 < pi^2/2 at R = 1), the 256-gon's all-Neumann quarter
    for n, R, spokes_set_it in ((4, 1.0, True), (256, 1.0, False), (12, 0.7, False)):
        quarter = geo.quarter_regular_polygon(n, R)
        spokes = (n / (2.0 * R)) ** 2
        convex = constants.payne_weinberger_lower(geo.diameter(quarter.outline()))
        assert quarter.floor == min(spokes, convex)
        assert quarter.floor == (spokes if spokes_set_it else convex)
    # pi^2/((sqrt(3) - 1)^2 w^2)
    for width, n_arc in ((2.0, 64), (1.0, 8)):
        half = geo.half_reuleaux_triangle(width, n_arc)
        assert half.floor == math.pi**2 / ((math.sqrt(3.0) - 1.0) * width) ** 2


OCTAGON = geo.RegularPolygon(8, 1.0)
OCTAGON_HALF = geo.ConvexHullPolygon(OCTAGON.outline()[:5])  # vertices 0..4


def test_cells_without_a_certificate_have_no_floor():
    # the Dirichlet-cut half drops the even modes, mu_1 among them
    assert geo.half_rhombus(2.0, 0.3).floor is None
    assert geo.half_rhombus(2.0, 0.3, geo.DIRICHLET).floor is None
    assert geo.Part(OCTAGON, OCTAGON_HALF).floor is None
    assert geo.Part(OCTAGON, OCTAGON_HALF, {4}).floor is None


@pytest.mark.parametrize(
    "make, match",
    [
        (lambda: geo.Part(geo.quarter_regular_polygon(8, 1.0), OCTAGON_HALF), "itself be a part"),
        (lambda: geo.Part(OCTAGON, OCTAGON_HALF, {5}), "edges 0..4"),
        (lambda: geo.Part(OCTAGON, OCTAGON_HALF, {-1}), "edges 0..4"),
        (
            lambda: geo.Part(OCTAGON, geo.ConvexHullPolygon(OCTAGON_HALF.vertices[::-1])),
            "counterclockwise",
        ),
        (
            lambda: geo.Part(OCTAGON, geo.ConvexHullPolygon(((1, 0), (0, 1), (0.1, 0.1), (-1, 0)))),
            "convex position",
        ),
    ],
    ids=["whole-is-a-part", "cut-past-last-edge", "negative-cut", "clockwise", "nonconvex"],
)
def test_invalid_part_is_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


def test_part_off_the_base_mesh_is_rejected():
    # the half of the 16-gon between the midpoints of edges 0 and 8 cuts the
    # fan's triangles 0 and 8 through their centroids: both are dropped, and
    # the kept triangles miss 1/8 of the half's area
    whole = geo.RegularPolygon(16, 1.0)
    poly = whole.outline()
    mids = 0.5 * (poly[[0, 8]] + poly[[1, 9]])
    half = geo.Part(whole, geo.ConvexHullPolygon(np.vstack([mids[0], poly[1:9], mids[1]])))
    with pytest.raises(ValueError, match="does not run along"):
        geo.triangulate(half)
    # on the mesh, the half through vertices 0 and 8 tiles to rounding
    on_mesh = geo.triangulate(geo.Part(whole, geo.ConvexHullPolygon(poly[:9])))
    assert area_sum(on_mesh) == pytest.approx(geo.area(poly) / 2.0, rel=1e-14)


def max_edge(mesh):
    p = mesh.vertices[mesh.triangles]
    return max(np.linalg.norm(p[:, i] - p[:, (i + 1) % 3], axis=1).max() for i in range(3))


def test_refinement_halves_h_quadruples_triangles():
    mesh = geo.triangulate(geo.RegularPolygon(12, 1.0))
    fine = geo.refine_mesh(mesh)
    fine.validate()
    assert len(fine.triangles) == 4 * len(mesh.triangles)
    assert max_edge(fine) == pytest.approx(max_edge(mesh) / 2.0, rel=1e-12)


def reference_refine(mesh):
    """Midpoint refinement one edge at a time (oracle for refine_mesh)."""
    verts = [tuple(v) for v in mesh.vertices]
    midpoint = {}

    def mid(a, b):
        key = (a, b) if a < b else (b, a)
        if key not in midpoint:
            midpoint[key] = len(verts)
            va, vb = verts[a], verts[b]
            verts.append(((va[0] + vb[0]) * 0.5, (va[1] + vb[1]) * 0.5))
        return midpoint[key]

    tris = []
    for a, b, c in mesh.triangles:
        ab, bc, ca = mid(int(a), int(b)), mid(int(b), int(c)), mid(int(c), int(a))
        tris.extend([[a, ab, ca], [ab, b, bc], [ca, bc, c], [ab, bc, ca]])
    edges = []
    markers = []
    for (a, b), marker in zip(mesh.boundary_edges, mesh.boundary_markers):
        m = mid(int(a), int(b))
        edges.extend([(int(a), m), (m, int(b))])
        markers.extend([marker, marker])
    return geo.Mesh(
        vertices=np.array(verts),
        triangles=np.array(tris, dtype=np.int64),
        boundary_edges=np.array(edges, dtype=np.int64),
        boundary_markers=markers,
    )


@pytest.mark.parametrize(
    "spec,dirichlet",
    [
        (geo.RegularPolygon(256, 1.0), None),
        (geo.Rhombus(2.0, math.radians(5.0)), None),
        (geo.half_rhombus(2.0, 0.3), None),
        (geo.Rectangle(1.0, 1.0), frozenset({LEFT})),
        (geo.Sector(1.0, math.pi / 3, 32), arc(geo.Sector(1.0, math.pi / 3, 32))),
    ],
)
def test_refine_mesh_matches_reference(spec, dirichlet):
    mesh = ref = geo.triangulate(declaring(spec, dirichlet))
    for _ in range(3):
        mesh, ref = geo.refine_mesh(mesh), reference_refine(ref)
        for field in ("vertices", "triangles", "boundary_edges"):
            got, want = getattr(mesh, field), getattr(ref, field)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert mesh.boundary_markers == ref.boundary_markers


def reference_boundary_edges(triangles):
    """Boundary edges counted one triangle at a time (oracle for _boundary_edges_of)."""
    count = {}
    for tri in triangles:
        for i in range(3):
            a, b = int(tri[i]), int(tri[(i + 1) % 3])
            key = (a, b) if a < b else (b, a)
            count[key] = count.get(key, 0) + 1
    return [k for k, c in count.items() if c == 1]


def reference_structured_grid(nx, ny):
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


def reference_grid_mesh(spec, refinements, dirichlet):
    """Rhombus and rectangle meshes with 2^refinements times the base mesh's
    cells per side, built one cell, triangle and edge at a time, each type by
    its own branch (oracle for triangulate and refine_mesh).  A half rhombus
    keeps the cells above the long diagonal.  An edge is 'D' on the outline
    edges that a half rhombus declares and on those whose indices are in
    dirichlet."""
    dirichlet = set(dirichlet or ())
    scale = 2**refinements
    half = isinstance(spec, geo.Part)
    rhombus = spec.whole if half else spec
    if isinstance(rhombus, geo.Rhombus):
        D = rhombus.D
        h = 0.5 * D * math.tan(rhombus.theta)
        uv, tris = reference_structured_grid(8 * scale, 8 * scale)
        verts = np.column_stack([(uv[:, 0] - uv[:, 1]) * (0.5 * D), (uv[:, 0] + uv[:, 1] - 1.0) * h])
        if half:
            s = uv[:, 0] + uv[:, 1]
            tris = np.array([t for t in tris if s[t].sum() >= 3.0 - 1e-12], dtype=np.int64)
            used = np.unique(tris)
            remap = -np.ones(len(verts), dtype=np.int64)
            remap[used] = np.arange(len(used))
            verts, tris = verts[used], remap[tris]
            dirichlet |= spec.dirichlet
        sides = {}
        for a, b in reference_boundary_edges(tris):
            on_base = abs(verts[a, 1]) < 1e-12 * D and abs(verts[b, 1]) < 1e-12 * D
            x, y = 0.5 * (verts[a] + verts[b])
            if half:  # base, right side, left side
                sides[(a, b)] = 0 if on_base else 1 if x > 0 else 2
            else:  # lower left, lower right, upper right, upper left
                sides[(a, b)] = (1 if y < 0 else 2) if x > 0 else (0 if y < 0 else 3)
    else:
        a, b = spec.a, spec.b
        side = 0.25 * max(a, b)
        uv, tris = reference_structured_grid(math.ceil(a / side) * scale, math.ceil(b / side) * scale)
        verts = np.column_stack([uv[:, 0] * a, uv[:, 1] * b])
        sides = {}
        for i, j in reference_boundary_edges(tris):
            (x0, y0), (x1, y1) = verts[i], verts[j]
            if y0 == 0.0 and y1 == 0.0:
                sides[(i, j)] = BOTTOM
            elif y0 == b and y1 == b:
                sides[(i, j)] = TOP
            elif x0 == 0.0 and x1 == 0.0:
                sides[(i, j)] = LEFT
            else:
                sides[(i, j)] = RIGHT
    markers = ["D" if side in dirichlet else "N" for side in sides.values()]
    return verts, tris, np.array(list(sides), dtype=np.int64), markers


@pytest.mark.parametrize(
    "spec,r,dirichlet",
    [
        (geo.Rhombus(2.0, math.radians(5.0)), 0, None),
        (geo.Rhombus(2.0, 1.2), 1, frozenset(range(4))),
        (geo.half_rhombus(2.0, 0.3), 0, None),
        (geo.half_rhombus(2.0, math.radians(5.0)), 0, None),
        (geo.half_rhombus(2.0, 1.3), 0, frozenset({1, 2})),
        (geo.Rectangle(1.9, 0.02), 0, None),
        (geo.Rectangle(1.0, 0.01), 3, frozenset({LEFT})),
        (geo.Rectangle(1.0, 1.0), 0, frozenset({TOP})),
        (geo.Rectangle(math.sqrt(2.0), math.sqrt(2.0)), 1, frozenset({BOTTOM, RIGHT})),
        (geo.Rhombus(2.0, math.radians(5.0)), 2, None),
        (geo.half_rhombus(2.0, math.radians(5.0)), 2, frozenset({1, 2})),
    ],
)
def test_grid_meshes_match_reference(spec, r, dirichlet):
    """The base mesh is the oracle's array for array.  Refined r times, it is
    the oracle's grid with 2^r times the cells, up to vertex numbering: every
    finer mesh of these families is a refinement of the base mesh, and this
    is the grid it stands for.  The outline edges in dirichlet are marked on
    the base mesh and carried down."""
    mesh = geo.triangulate(declaring(spec, dirichlet))
    for _ in range(r):
        mesh = geo.refine_mesh(mesh)
    verts, tris, edges, markers = reference_grid_mesh(spec, r, dirichlet)
    if r == 0:
        for got, want in ((mesh.vertices, verts), (mesh.triangles, tris), (mesh.boundary_edges, edges)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert mesh.boundary_markers == markers
        return
    # the same coordinates: each mesh vertex is within 1e-12 of one oracle vertex
    dist = np.linalg.norm(mesh.vertices[:, None] - verts[None], axis=2)
    to_ref = dist.argmin(axis=1)
    assert dist[np.arange(len(to_ref)), to_ref].max() <= 1e-12
    assert sorted(to_ref.tolist()) == list(range(len(verts)))
    assert len(mesh.triangles) == len(tris)
    assert {frozenset(to_ref[t].tolist()) for t in mesh.triangles} == {frozenset(t) for t in tris.tolist()}
    assert len(mesh.boundary_edges) == len(edges)
    assert {(frozenset(to_ref[e].tolist()), m) for e, m in zip(mesh.boundary_edges, mesh.boundary_markers)} == {
        (frozenset(e), m) for e, m in zip(edges.tolist(), markers)
    }


def test_boundary_edges_match_reference():
    for spec in (geo.Sector(1.0, 1.0, 8), geo.RegularPolygon(12, 1.0)):
        tris = refined(spec, 3).triangles
        assert geo._boundary_edges_of(tris).tolist() == [list(e) for e in reference_boundary_edges(tris)]


def test_inscribed_vertices_stay_inside():
    # sector and constant-width meshes keep vertices in the true domain
    mesh = refined(geo.Sector(1.0, 1.654, 32), 3)
    assert np.all(np.linalg.norm(mesh.vertices, axis=1) <= 1.0 + 1e-12)
    w = 2.0
    mesh = refined(geo.ReuleauxTriangle(w, 16), 2)
    corners = np.array([(0.0, 0.0), (w, 0.0), (0.5 * w, 0.5 * math.sqrt(3) * w)])
    for c in corners:
        assert np.all(np.linalg.norm(mesh.vertices - c, axis=1) <= w + 1e-12)


def test_thin_rectangle_mesh_quality():
    mesh = refined(geo.Rectangle(1.0, 0.01), 3)
    mesh.validate()
    assert area_sum(mesh) == pytest.approx(0.01, rel=1e-12)


def test_mesh_io_roundtrip(tmp_path):
    spec = geo.Sector(1.0, 1.0, 8)
    mesh = geo.triangulate(declaring(spec, arc(spec)))
    assert mesh.boundary_markers.count(geo.DIRICHLET) == spec.n_arc
    path = tmp_path / "mesh.txt"
    geo.write_mesh(mesh, path)
    back = geo.read_mesh(path)
    back.validate()
    assert np.allclose(back.vertices, mesh.vertices)
    assert np.array_equal(back.triangles, mesh.triangles)
    assert back.boundary_markers == mesh.boundary_markers


@pytest.mark.parametrize(
    "defect",
    [
        "missing boundary edge",
        "vertex index out of range",
        "empty mesh",
        "triangle rows of 2 indices",
        "vertex rows of 1 coordinate",
        "nan vertex",
        "inf vertex",
    ],
)
def test_read_mesh_rejects_invalid_file(tmp_path, defect):
    mesh = refined(geo.Rectangle(1.0, 1.0), 1)
    path = tmp_path / "mesh.txt"
    geo.write_mesh(mesh, path)
    lines = path.read_text().splitlines()
    nv, nt, nb = map(int, lines[0].split())
    if defect == "missing boundary edge":
        lines[0] = f"{nv} {nt} {nb - 1}"
        del lines[-1]
    elif defect == "vertex index out of range":
        lines[1 + nv] = f"0 1 {nv}"
    elif defect == "empty mesh":
        lines = ["0 0 0"]
    elif defect == "triangle rows of 2 indices":
        for i in range(1 + nv, 1 + nv + nt):
            lines[i] = " ".join(lines[i].split()[:2])
    elif defect == "vertex rows of 1 coordinate":
        for i in range(1, 1 + nv):
            lines[i] = lines[i].split()[0]
    else:
        lines[1] = f"{defect.split()[0]} 0"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        geo.read_mesh(path)


def test_mesh_io_header(tmp_path):
    mesh = geo.triangulate(geo.Rectangle(1.0, 1.0))
    path = tmp_path / "mesh.txt"
    geo.write_mesh(mesh, path)
    first = path.read_text().splitlines()[0].split()
    assert list(map(int, first)) == [
        len(mesh.vertices),
        len(mesh.triangles),
        len(mesh.boundary_edges),
    ]


def test_convex_hull_polygon_validation():
    with pytest.raises(ValueError):
        geo.ConvexHullPolygon(((0, 0), (1, 0), (1, 1), (0.5, 0.2)))  # nonconvex
    with pytest.raises(ValueError):
        geo.ConvexHullPolygon(((0, 0), (0, 1), (1, 0)))  # clockwise
    with pytest.raises(ValueError):
        geo.ConvexHullPolygon(((0, 0), (1, 0), (math.nan, 1)))
    # a zero-length edge makes no turn, so the convexity test alone passes it
    for verts, vertex in (
        (((0, 0), (1, 0), (1, 0), (0, 1)), r"\(1\.0, 0\.0\)"),
        (((0, 0), (1, 0), (0, 1), (0, 0)), r"\(0\.0, 0\.0\)"),
    ):
        with pytest.raises(ValueError, match=f"vertex {vertex} repeats"):
            geo.ConvexHullPolygon(verts)
    # collinear vertices make a straight angle, not a repeat
    geo.triangulate(geo.ConvexHullPolygon(((0, 0), (0.5, 0), (1, 0), (0, 1)))).validate()


def test_convex_hull_polygon_must_wind_once():
    # the triangle traversed twice has positive area and only convex turns,
    # but its turns add up to 4 pi, and its fan would cover the triangle twice
    with pytest.raises(ValueError, match="wind once"):
        geo.ConvexHullPolygon(((0, 0), (1, 0), (0, 1), (0, 0), (1, 0), (0, 1)))
    geo.ConvexHullPolygon(((0, 0), (1, 0), (0, 1)))
