"""Tests for P1 assembly, the eigensolver, and Richardson extrapolation."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sparse
import scipy.sparse.linalg

from speclab import constants, fem, geometry as geo, spectra

PI2 = math.pi**2


# a rectangle's outline edges, from the bottom counterclockwise
BOTTOM, RIGHT, TOP, LEFT = range(4)


def refined(spec, times, dirichlet=False):
    """The spec's base mesh after `times` uniform refinements.  dirichlet is
    triangulate's flag, or a set of outline edges i -> i+1 that the spec
    declares Dirichlet as the part that is all of it."""
    if not isinstance(dirichlet, bool):
        spec = geo.Part(spec, geo.ConvexHullPolygon(spec.outline()), dirichlet)
        dirichlet = False
    mesh = geo.triangulate(spec, dirichlet)
    for _ in range(times):
        mesh = geo.refine_mesh(mesh)
    return mesh


def make_mesh(verts, tris, markers=None):
    verts = np.asarray(verts, dtype=float)
    tris = np.asarray(tris, dtype=np.int64)
    edges = geo._boundary_edges_of(tris)
    if markers is None:
        markers = ["N"] * len(edges)
    return geo.Mesh(
        vertices=verts,
        triangles=tris,
        boundary_edges=np.array(edges, dtype=np.int64),
        boundary_markers=markers,
    )


# ---------------------------------------------------------------------------
# assembly


def test_reference_triangle_element_stiffness():
    # hand integration of the barycentric gradient products
    mesh = make_mesh([(0, 0), (1, 0), (0, 1)], [[0, 1, 2]])
    K, _ = fem.assemble(mesh)
    ref = np.array([[1.0, -0.5, -0.5], [-0.5, 0.5, 0.0], [-0.5, 0.0, 0.5]])
    assert np.allclose(K.toarray(), ref, atol=1e-15)


def test_stiffness_row_sums_vanish():
    mesh = make_mesh([(0, 0), (1, 0), (1, 1), (0, 1)], [[0, 1, 2], [0, 2, 3]])
    K, _ = fem.assemble(mesh)
    assert np.allclose(np.asarray(K.sum(axis=1)).ravel(), 0.0, atol=1e-14)
    big = refined(geo.RegularPolygon(16, 1.0), 3)
    K, _ = fem.assemble(big)
    assert np.abs(np.asarray(K.sum(axis=1))).max() < 1e-12


def test_mass_sums_to_area():
    for spec, times in ((geo.Rectangle(1.0, 1.0), 1), (geo.Rhombus(2.0, 0.35), 0), (geo.RegularPolygon(12, 1.0), 2)):
        mesh = refined(spec, times)
        _, M = fem.assemble(mesh)
        assert M.sum() == pytest.approx(
            geo.area(spec.outline()), rel=1e-12
        )


def test_assemble_rejects_degenerate_triangle():
    # the threshold is relative to the longest edge: at any scale the square
    # assembles and a collapsed triangle, or a NaN vertex, is rejected
    for scale in (1.0, 1e-6, 1e6):
        square = np.array([(0, 0), (1, 0), (1, 1), (0, 1)]) * scale
        fem.assemble(make_mesh(square, [[0, 1, 2], [0, 2, 3]]))
        for bad in ((2.0, 2e-16), (math.nan, 1.0)):
            mesh = make_mesh(square, [[0, 1, 2], [0, 2, 3]])
            mesh.vertices[2] = np.multiply(bad, scale)
            with pytest.raises(ValueError, match="degenerate"):
                fem.assemble(mesh)


@pytest.mark.parametrize(
    "spec, dirichlet",
    [
        (geo.RegularPolygon(7, 1.0), None),  # centroid fan
        (geo.Rhombus(2.0, math.radians(25.0)), None),  # affine grid
        (geo.Rectangle(1.0, 1.0), frozenset({LEFT, BOTTOM})),  # Dirichlet edges
    ],
)
def test_dense_assembly_matches_sparse(monkeypatch, spec, dirichlet):
    mesh = refined(spec, 1, dirichlet or False)
    dense = fem._assemble_dense(mesh)
    sparse_km = fem.assemble(mesh)
    for D, S in zip(dense, sparse_km):
        S = S.toarray()
        assert np.abs(D - S).max() <= 1e-15 * np.abs(S).max()
    constrained = fem.dirichlet_dofs(mesh)
    assert (constrained.size > 0) == (dirichlet is not None)
    marked = np.asarray(mesh.boundary_markers) == geo.DIRICHLET
    assert np.array_equal(constrained, np.unique(mesh.boundary_edges[marked]))
    # the eliminated pencil, and the pairs solved from dense and sparse input:
    # the matrix format picks the solver, so these are the two branches
    keep = np.setdiff1d(np.arange(len(mesh.vertices)), constrained)
    for D, S in zip(dense, sparse_km):
        S = S[keep][:, keep].toarray()
        assert np.abs(D[np.ix_(keep, keep)] - S).max() <= 1e-15 * np.abs(S).max()
    eigsh_calls = []
    eigsh = fem.eigsh

    def counting_eigsh(*args, **kwargs):
        eigsh_calls.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(fem, "eigsh", counting_eigsh)
    from_dense = fem.solve_smallest(*dense, constrained, 3)
    assert eigsh_calls == []
    from_sparse = fem.solve_smallest(*sparse_km, constrained, 3)
    assert eigsh_calls == [1]
    scale = from_sparse.eigenvalues[-1]
    assert np.allclose(from_dense.eigenvalues, from_sparse.eigenvalues, rtol=1e-12, atol=1e-12 * scale)


def _looped_element_triplets(mesh):
    """The element triplets built by one pass per entry (i, j), as assembly
    built them before it broadcast: the oracle for their order and bits."""
    p = mesh.vertices[mesh.triangles]
    b = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]], axis=1)
    c = np.stack([p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    rows, cols, k_vals, m_vals = [], [], [], []
    for i in range(3):
        for j in range(3):
            rows.append(mesh.triangles[:, i])
            cols.append(mesh.triangles[:, j])
            k_vals.append((b[:, i] * b[:, j] + c[:, i] * c[:, j]) / (4.0 * area))
            m_vals.append((1.0 / 6.0 if i == j else 1.0 / 12.0) * area)
    return tuple(map(np.concatenate, (rows, cols, k_vals, m_vals)))


@pytest.mark.parametrize(
    "spec, dirichlet",
    [
        (geo.ConvexHullPolygon(tuple(map(tuple, geo.inclusion_pair(3, 12, 6)[1]))), False),  # fan
        (geo.Rhombus(2.0, math.radians(25.0)), False),  # affine grid
        (geo.half_reuleaux_triangle(2.0, 8), False),  # a Part
        (geo.RegularPolygon(9, 1.0), True),  # every edge Dirichlet
    ],
    ids=["fan", "grid", "part", "dirichlet"],
)
def test_element_triplets_match_the_loop(spec, dirichlet):
    # K and M stay bit-identical: same entries, same order, same dtypes
    mesh = refined(spec, 2, dirichlet)
    for new, old in zip(fem._element_triplets(mesh), _looped_element_triplets(mesh)):
        assert new.dtype == old.dtype
        assert np.array_equal(new, old)


# ---------------------------------------------------------------------------
# solve_smallest on closed-form domains


def test_unit_square_neumann():
    mesh = refined(geo.Rectangle(1.0, 1.0), 4)
    res = fem.solve_mesh(mesh, 2)
    assert res.eigenvalues[0] <= 1e-8 * res.eigenvalues[1]
    assert res.eigenvalues[1] == pytest.approx(PI2, rel=0.01)
    assert res.residuals.max() <= fem.DEFAULT_TOL


def test_thin_rectangle_segment_surrogate():
    mesh = refined(geo.Rectangle(1.0, 0.01), 5)
    res = fem.solve_mesh(mesh, 2)
    assert res.eigenvalues[1] == pytest.approx(PI2, rel=0.01)


def test_mixed_square_one_side_dirichlet():
    # separable closed form: tau_1 = pi^2/4 (mixed segment times Neumann factor)
    mesh = refined(geo.Rectangle(1.0, 1.0), 4, frozenset({LEFT}))
    K, M = fem.assemble(mesh)
    res = fem.solve_smallest(K, M, fem.dirichlet_dofs(mesh), 1)
    ref = spectra.segment_spectrum(1.0, "mixed", 1).values[0]
    assert res.eigenvalues[0] == pytest.approx(ref, rel=0.01)


def test_dirichlet_square():
    mesh = refined(geo.Rectangle(1.0, 1.0), 4, True)
    res = fem.solve_mesh(mesh, 1)
    assert res.eigenvalues[0] == pytest.approx(2 * PI2, rel=0.01)


def test_solver_determinism():
    mesh = refined(geo.RegularPolygon(64, 1.0), 4)
    a = fem.solve_mesh(mesh, 3)
    b = fem.solve_mesh(mesh, 3)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)


def test_dense_path_matches_full_dense_solve():
    # at most 400 unknowns: only the wanted pairs are computed, and they must
    # agree with the full generalized spectrum of the unshifted pencil
    for spec, dirichlet in ((geo.Sector(1.0, 1.0, 16), False), (geo.Rectangle(1.0, 1.0), True)):
        mesh = refined(spec, 1, dirichlet)
        K, M = fem._assemble_dense(mesh)
        constrained = fem.dirichlet_dofs(mesh)
        keep = np.setdiff1d(np.arange(K.shape[0]), constrained)
        assert keep.size <= 400
        full = scipy.linalg.eigh(K[np.ix_(keep, keep)], M[np.ix_(keep, keep)], eigvals_only=True)
        res = fem.solve_smallest(K, M, constrained, 4)
        assert np.allclose(res.eigenvalues, full[:4], rtol=1e-12, atol=1e-12 * full[3])


def test_dense_solve_builds_no_sparse_matrix_and_calls_eigh_once(monkeypatch):
    def no_sparse(*args, **kwargs):
        raise AssertionError("a dense solve built a scipy.sparse matrix")

    eigh_calls = []
    eigh = scipy.linalg.eigh

    def counting_eigh(*args, **kwargs):
        eigh_calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(fem.sparse, "csr_matrix", no_sparse)
    monkeypatch.setattr(fem.scipy.linalg, "eigh", counting_eigh)
    for dirichlet in (False, True):
        mesh = refined(geo.RegularPolygon(9, 1.0), 1, dirichlet)
        assert len(mesh.vertices) <= 400
        eigh_calls.clear()
        res = fem.solve_mesh(mesh, 2)
        assert eigh_calls == [1]
        assert res.residuals.max() <= fem.DEFAULT_TOL


def test_sliced_dense_solve_builds_no_sparse_matrix(monkeypatch):
    def no_sparse(*args, **kwargs):
        raise AssertionError("a sliced solve built a scipy.sparse matrix")

    for dirichlet, n_eigs in ((False, 2), (True, 1)):
        coarse = refined(geo.RegularPolygon(9, 1.0), 2, dirichlet)
        shift = fem.solve_mesh(coarse, n_eigs).eigenvalues[-1]
        mesh = geo.refine_mesh(coarse)
        assert len(mesh.vertices) <= 400
        with monkeypatch.context() as patch:
            patch.setattr(fem.sparse, "csr_matrix", no_sparse)
            res = fem.solve_mesh(mesh, n_eigs, slice_at=shift)
        assert res.slicing == fem.SLICED
        assert res.residuals.max() <= 0.1 * fem.DEFAULT_TOL


def test_dense_residuals_without_rayleigh_ritz():
    # the dense solve is not refined: its backward errors must stay a tenth of
    # the tolerance on the scan's meshes, thin reference rectangle included
    specs = [geo.Rectangle(1.9, 0.02)]
    for seed in (1, 2, 3):
        for poly in geo.inclusion_pair(seed, 12, 6):
            specs.append(geo.ConvexHullPolygon(tuple(map(tuple, poly))))
    rungs = 0
    for spec in specs:
        ladder = [geo.refine_mesh(geo.triangulate(spec))]  # refinements=3
        for _ in range(2):
            ladder.append(geo.refine_mesh(ladder[-1]))
        for mesh in ladder:
            if len(mesh.vertices) <= 400:
                rungs += 1
                assert fem.solve_mesh(mesh, 2).residuals.max() <= 0.1 * fem.DEFAULT_TOL
    assert rungs >= 3 * len(specs) - 1


def _indefinite_sygv(A, B):
    """?sygv's result for a projected mass matrix that is not definite."""
    return np.zeros(len(A)), np.eye(len(A)), len(A) + 1


def test_rayleigh_ritz_failure_raises(monkeypatch):
    mesh = refined(geo.Rectangle(1.0, 1.0), 4)
    assert len(mesh.vertices) > 400

    monkeypatch.setattr(fem, "_SYGV", _indefinite_sygv)
    with pytest.raises(fem.NonConvergenceError):
        fem.solve_mesh(mesh, 2)


def test_nan_eigenpairs_raise(monkeypatch):
    # NaN > tol is False: a NaN residual must fail the check, not slip past it
    eigh = scipy.linalg.eigh

    def nan_eigh(*args, **kwargs):
        vals, vecs = eigh(*args, **kwargs)
        return vals, np.full_like(vecs, np.nan)

    monkeypatch.setattr(fem.scipy.linalg, "eigh", nan_eigh)
    mesh = refined(geo.Rectangle(1.0, 1.0), 1)
    assert len(mesh.vertices) <= 400
    with pytest.raises(fem.NonConvergenceError, match="nan"):
        fem.solve_mesh(mesh, 2)


@pytest.mark.parametrize("side", [1e-4, 1e-3, 1e-2, 1e2, 1e4])
def test_eigenpair_check_does_not_see_the_domains_scale(side):
    # scaling the square by s leaves K and multiplies M by s^2: the backward
    # error is unchanged, so every size solves, and mu s^2 is the unit square's
    unit = fem.mu_k(geo.Rectangle(1.0, 1.0), 1, 3)
    scaled = fem.mu_k(geo.Rectangle(side, side), 1, 3)
    assert scaled.value * side**2 == pytest.approx(unit.value, rel=1e-12, abs=0.0)
    assert scaled.residual <= fem.DEFAULT_TOL


def test_thin_hull_passes_the_eigenpair_check():
    # an absolute residual check rejected this hull (2.5e-9 > 1e-9)
    w = 0.001
    hull = geo.ConvexHullPolygon(
        ((-0.98, 0.0), (-0.3, -w / 2), (0.4, -w / 2), (0.98, 0.0), (0.2, w / 2), (-0.5, w / 2))
    )
    res = fem.mu_k(hull, 1, 3)
    assert res.residual <= fem.DEFAULT_TOL
    assert res.monotone and 0.0 < res.value < res.values[2]
    assert res.slicing == fem.SLICED  # its finest mesh (217 unknowns) is dense


def _perturbed(vals, vecs, M):
    """The pairs with eigenvectors moved by 1e-10 times a fixed random vector
    of unit M-norm."""
    w = np.random.default_rng(0).standard_normal(vecs.shape)
    w /= np.sqrt(np.einsum("ij,ij->j", w, np.asarray(M @ w)))
    return vals, vecs + 1e-10 * w


@pytest.mark.parametrize("side", [1e-4, 1.0, 1e4])
@pytest.mark.parametrize("times", [1, 4], ids=["dense", "sparse"])
def test_perturbed_eigenvector_is_rejected(side, times, monkeypatch):
    # a 1e-10 error in an M-normalized eigenvector fails the check at any
    # scale (its backward error is ~5e-11), on either solver path
    mesh = refined(geo.Rectangle(side, side), times)
    assert fem.solve_mesh(mesh, 2).residuals.max() <= fem.DEFAULT_TOL
    eigh, refine = scipy.linalg.eigh, fem._rayleigh_ritz_refine
    monkeypatch.setattr(
        fem.scipy.linalg, "eigh", lambda A, B, **kwargs: _perturbed(*eigh(A, B, **kwargs), B)
    )

    def perturbed_refine(solve, K, M, *args):
        mu, vecs, eta = refine(solve, K, M, *args)
        return (*_perturbed(mu, vecs, M), eta)

    monkeypatch.setattr(fem, "_rayleigh_ritz_refine", perturbed_refine)
    with pytest.raises(fem.NonConvergenceError, match="backward error"):
        fem.solve_mesh(mesh, 2)


# ---------------------------------------------------------------------------
# spectrum slicing of a dense mesh


@pytest.mark.parametrize("zero_diagonal", [False, True])
@pytest.mark.parametrize("seed", range(3))
def test_sytrf_count_matches_eigh(seed, zero_diagonal):
    # Sylvester's law of inertia: the negative eigenvalues of the block
    # diagonal D are those of A.  A zero diagonal forces 2x2 pivots.
    rng = np.random.default_rng(seed)
    n = 40 + 7 * seed
    B = rng.standard_normal((n, n))
    A = B + B.T - rng.uniform(-3.0, 3.0) * np.eye(n)
    if zero_diagonal:
        np.fill_diagonal(A, 0.0)
    sytrf = scipy.linalg.lapack.get_lapack_funcs("sytrf", (A,))
    ldu, ipiv, info = sytrf(A, lower=1)
    assert info == 0
    assert np.any(ipiv < 0) or not zero_diagonal
    assert fem._negative_pivots(ldu, ipiv) == np.count_nonzero(np.linalg.eigvalsh(A) < 0)


def _sliced(spec, n_eigs, refinements=2, shift=None):
    """The finest mesh of the spec's Neumann ladder, sliced at the middle
    mesh's n_eigs-th eigenvalue (or at `shift`): the mesh, the shift, the
    sliced EigResult and the mesh's full spectrum from one dense eigh."""
    middle = refined(spec, refinements - 1)
    mesh = geo.refine_mesh(middle)
    assert len(mesh.vertices) <= 400
    if shift is None:
        shift = fem.solve_mesh(middle, n_eigs).eigenvalues[-1]
    full = scipy.linalg.eigh(*fem._assemble_dense(mesh), eigvals_only=True)
    return mesh, shift, fem.solve_mesh(mesh, n_eigs, shift), full


def _same_pairs(sliced, full):
    # the zero mode is exact only to ~1e-11 absolute in the full solve
    assert sliced.slicing == fem.SLICED
    mu = sliced.eigenvalues
    n = len(mu)
    assert np.allclose(mu[1:], full[1:n], rtol=1e-12, atol=0.0)
    assert abs(mu[0]) <= 1e-12 * mu[-1] and abs(full[0]) <= 1e-9 * mu[-1]
    assert sliced.residuals.max() <= 0.1 * fem.DEFAULT_TOL


def test_slicing_double_eigenvalue_of_the_square():
    # the sqrt(2) square's mu_1 is double (split by 1.4e-7 on its mesh):
    # sliced at the middle mesh's mu_2, the finest mesh has three eigenvalues
    # below the shift (mu_0 and both copies of mu_1), all three returned
    square = geo.Rectangle(math.sqrt(2.0), math.sqrt(2.0))
    mesh, shift, sliced, full = _sliced(square, 3)
    K, M = fem._assemble_dense(mesh)
    sytrf = scipy.linalg.lapack.get_lapack_funcs("sytrf", (K,))
    ldu, ipiv, _ = sytrf(K - shift * M, lower=1)
    assert fem._negative_pivots(ldu, ipiv) == 3
    assert full[2] == pytest.approx(full[1], rel=1e-6)
    _same_pairs(sliced, full)


def test_slicing_near_degenerate_hull_pair():
    # a regular hexagon (double mu_1) with one vertex moved by 1e-3: mu_1 and
    # mu_2 lie 1e-3 apart, and slicing still separates them
    hexagon = geo.RegularPolygon(6, 1.0).outline()
    hexagon[0] *= 1.001
    hull = geo.ConvexHullPolygon(tuple(map(tuple, hexagon)))
    _, _, sliced, full = _sliced(hull, 3, refinements=3)
    assert 1e-5 < full[2] / full[1] - 1.0 < 1e-2
    _same_pairs(sliced, full)


def test_slicing_above_the_next_eigenvalue_still_returns_mu1():
    # a shift above mu_2^h counts three eigenvalues below it; mu_1 is still
    # the second of the two pairs returned
    hull = geo.ConvexHullPolygon(tuple(map(tuple, geo.inclusion_pair(1, 12, 6)[1])))
    shift = fem.solve_mesh(refined(hull, 2), 3).eigenvalues[2]
    _, _, sliced, full = _sliced(hull, 2, refinements=3, shift=shift)
    assert full[2] < shift < full[3]
    _same_pairs(sliced, full)


def test_slicing_fallback_is_the_dense_solve():
    # below mu_1^h the count (1) cannot cover the two wanted pairs: the slice
    # is rejected and the dense eigensolve gives the pairs, bit for bit
    hull = geo.ConvexHullPolygon(tuple(map(tuple, geo.inclusion_pair(2, 12, 6)[0])))
    mesh, _, _, full = _sliced(hull, 2, refinements=3)
    low = fem.solve_mesh(mesh, 2, slice_at=0.5 * full[1])
    dense = fem.solve_mesh(mesh, 2)
    assert low.slicing == "fallback: count 1 outside 2..20" and dense.slicing == ""
    assert np.array_equal(low.eigenvalues, dense.eigenvalues)
    assert np.array_equal(low.residuals, dense.residuals)


def test_sliced_pairs_must_pass_the_eigenpair_check(monkeypatch):
    # sliced eigenvectors moved by 1e-10 fail the backward-error check: the
    # slice is rejected for the dense eigensolve, not raised
    hull = geo.ConvexHullPolygon(tuple(map(tuple, geo.inclusion_pair(2, 12, 6)[0])))
    mesh, shift, _, _ = _sliced(hull, 2, refinements=3)
    cut = fem._slice

    def perturbed_slice(Kc, Mc, *args):
        return _perturbed(*cut(Kc, Mc, *args), Mc)

    monkeypatch.setattr(fem, "_slice", perturbed_slice)
    res = fem.solve_mesh(mesh, 2, slice_at=shift)
    assert res.slicing.startswith("fallback: backward error")
    assert np.array_equal(res.eigenvalues, fem.solve_mesh(mesh, 2).eigenvalues)


def test_slicing_fallbacks_are_counted(monkeypatch):
    # one subspace step never reaches the backward-error target: every dense
    # finest mesh of the scan falls back, is counted, and gives the dense
    # solve's values, so the report matches an unsliced one
    from speclab import experiments

    sliced = experiments.cmd_ratio_scan(n_pairs=2, refinements=2)
    assert sliced.metadata["sliced_rungs"] == sliced.metadata["ladders"] == 7
    monkeypatch.setattr(fem, "_SLICE_MAXITER", 1)
    report = experiments.cmd_ratio_scan(n_pairs=2, refinements=2)
    assert report.all_passed
    assert report.metadata["sliced_rungs"] == 0
    assert report.metadata["slice_fallbacks"] == 7

    def rejected_slice(*args):
        raise fem.NonConvergenceError("forced")

    monkeypatch.setattr(fem, "_slice", rejected_slice)
    unsliced = experiments.cmd_ratio_scan(n_pairs=2, refinements=2)
    assert unsliced.rows == report.rows


def test_projected_solve_failure_rejects_a_slice_but_raises_when_sparse(monkeypatch):
    # the slice and the sparse refinement share one Ritz iteration: when its
    # projected solve fails, a slice falls back to the dense eigensolve and is
    # counted, while the sparse path has no fallback and raises
    from speclab import experiments

    hull = geo.ConvexHullPolygon(tuple(map(tuple, geo.inclusion_pair(2, 12, 6)[0])))
    mesh, shift, _, _ = _sliced(hull, 2, refinements=3)
    dense = fem.solve_mesh(mesh, 2)
    monkeypatch.setattr(fem, "_SYGV", _indefinite_sygv)  # the dense eigensolve does not call it
    res = fem.solve_mesh(mesh, 2, slice_at=shift)
    assert res.slicing.startswith("fallback: projected solve failed")
    assert np.array_equal(res.eigenvalues, dense.eigenvalues)
    report = experiments.cmd_ratio_scan(n_pairs=2, refinements=2)
    assert report.all_passed
    assert report.metadata["sliced_rungs"] == 0
    assert report.metadata["slice_fallbacks"] == 7
    with pytest.raises(fem.NonConvergenceError, match="projected solve failed"):
        fem.solve_mesh(refined(geo.Rectangle(1.0, 1.0), 4), 2)


@pytest.mark.parametrize("order", range(2, 9))
def test_projected_pairs_match_eigh(order):
    rng = np.random.default_rng(order)
    for _ in range(20):
        G, H = rng.standard_normal((2, order, order))
        A = G + G.T
        B = H @ H.T + order * np.eye(order)
        mu, Y = fem._projected_pairs(A, B)
        expected = scipy.linalg.eigh(A, B, eigvals_only=True)
        assert np.all(np.diff(mu) >= 0)
        assert np.abs(mu - expected).max() <= 1e-13 * np.abs(expected).max()
        assert np.abs(Y.T @ B @ Y - np.eye(order)).max() <= 1e-13
        assert np.abs(A @ Y - B @ Y * mu).max() <= 1e-13 * np.abs(A).max() * np.abs(Y).max()


def test_projected_pairs_reject_an_indefinite_mass_and_nan(monkeypatch):
    A, nan = np.diag([1.0, 2.0, 3.0]), np.diag([1.0, np.nan, 3.0])
    for pencil in ((A, np.diag([1.0, -1.0, 1.0])), (nan, np.eye(3)), (A, nan)):
        with pytest.raises(fem.NonConvergenceError, match="projected solve failed"):
            fem._projected_pairs(*pencil)
    # a non-finite result is rejected even when ?sygv reports success
    monkeypatch.setattr(fem, "_SYGV", lambda A, B: (np.array([1.0, np.inf, 3.0]), np.eye(3), 0))
    with pytest.raises(fem.NonConvergenceError, match="not finite"):
        fem._projected_pairs(A, np.eye(3))


def test_nan_block_fails_at_the_first_step():
    # a NaN must not iterate for _SLICE_MAXITER steps: the projected solve
    # sees it on the first and raises
    K, M = fem._assemble_dense(refined(geo.RegularPolygon(9, 1.0), 1))
    factor = scipy.linalg.cho_factor(K + M)
    norms = fem._one_norms(K, M)
    solves = []

    def solve(B):
        solves.append(1)
        return scipy.linalg.cho_solve(factor, B, check_finite=False)

    X = np.cos(np.outer(np.linspace(0.0, math.pi, len(K)), np.arange(3)))
    mu = fem._rayleigh_ritz_refine(solve, K, M, X, 2, norms, 1)[0]
    assert np.isfinite(mu).all()
    X[4, 1] = np.nan
    solves.clear()
    with pytest.raises(fem.NonConvergenceError, match="projected solve failed"):
        fem._rayleigh_ritz_refine(solve, K, M, X, 2, norms, fem._SLICE_MAXITER)
    assert solves == [1]


class _NoIndexing(sparse.csr_matrix):
    """A sparse matrix that may not be indexed, so not copied by elimination."""

    def __getitem__(self, key):
        raise AssertionError("an unconstrained pencil was copied by elimination")


def test_unconstrained_sparse_solve_skips_elimination():
    # with nothing constrained the pencil is solved as given, and bit for bit
    # as its elimination by an all-true mask
    K, M = fem.assemble(refined(geo.Rhombus(2.0, math.radians(20.0)), 2))
    keep = np.ones(K.shape[0], dtype=bool)
    direct = fem.solve_smallest(_NoIndexing(K), _NoIndexing(M), [], 3)
    eliminated = fem.solve_smallest(K[keep][:, keep], M[keep][:, keep], [], 3)
    assert np.array_equal(direct.eigenvalues, eliminated.eigenvalues)
    assert np.array_equal(direct.residuals, eliminated.residuals)


class _CountingFactor:
    """splu result whose solve counts right-hand sides."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts
        counts.append(0)

    def solve(self, rhs, *args, **kwargs):
        self._counts[-1] += 1 if np.ndim(rhs) == 1 else np.shape(rhs)[1]
        return self._lu.solve(rhs, *args, **kwargs)


@pytest.mark.parametrize(
    "spec", [geo.Rhombus(2.0, math.radians(5.0)), geo.RegularPolygon(256, 1.0)]
)
def test_linear_solves_per_factorization_bounded(monkeypatch, spec):
    # with 2k + 2 Krylov vectors and the 1e-11 stop, every mesh of the ladder
    # takes 13-16 solves, Rayleigh-Ritz included
    counts = []
    splu = fem.splu
    monkeypatch.setattr(fem, "splu", lambda A: _CountingFactor(splu(A), counts))
    fem.mu_k(spec, 1, refinements=3)
    assert counts and max(counts) <= 25


def _first_sparse_rung(spec):
    mesh = geo.triangulate(spec)
    while len(mesh.vertices) - len(fem.dirichlet_dofs(mesh)) <= 400:
        mesh = geo.refine_mesh(mesh)
    return mesh


@pytest.mark.parametrize(
    "spec",
    [
        geo.Rectangle(math.sqrt(2.0), math.sqrt(2.0)),  # double mu_1
        geo.RegularPolygon(256, 1.0),  # double mu_1
        geo.EquilateralTriangle(2.0),  # double mu_1
        geo.Rhombus(2.0, math.radians(10.0)),
        geo.half_rhombus(2.0, math.radians(10.0)),  # Dirichlet base
        geo.Rectangle(1.9, 0.02),  # thin: ill-conditioned mass matrix
    ],
)
def test_sparse_solve_matches_full_dense_spectrum(spec):
    # the small Krylov space must neither skip nor swap an eigenvalue, which
    # the residual check cannot see: compare with a dense solve of the same
    # eliminated, shifted pencil
    mesh = _first_sparse_rung(spec)
    constrained = fem.dirichlet_dofs(mesh)
    K, M = fem.assemble(mesh)
    keep = np.setdiff1d(np.arange(K.shape[0]), constrained)
    Kc, Mc = K[keep][:, keep].toarray(), M[keep][:, keep].toarray()
    sigma = 1.0 / M.sum()
    full = scipy.linalg.eigh(
        Kc + sigma * Mc, Mc, eigvals_only=True, subset_by_index=[0, fem.N_EIGS_MAX - 1]
    ) - sigma
    for n_eigs in (1, 2, 4, 6, 20):
        res = fem.solve_smallest(K, M, constrained, n_eigs)
        ref = full[:n_eigs]
        # absolute floor of 1 for the Neumann zero mode
        assert np.all(np.abs(res.eigenvalues - ref) <= 1e-9 * np.maximum(np.abs(ref), 1.0))


def _converged_eigenvalues(mesh, n_eigs):
    """The mesh's n_eigs smallest eigenvalues as Rayleigh quotients, summed in
    long double, of eigenvectors from Lanczos run to machine precision and
    five further steps of inverse subspace iteration."""
    K, M = fem.assemble(mesh)
    keep = np.setdiff1d(np.arange(K.shape[0]), fem.dirichlet_dofs(mesh))
    Kc, Mc = K[keep][:, keep].tocsc(), M[keep][:, keep].tocsc()
    A = (Kc + Mc / M.sum()).tocsc()
    solve = scipy.sparse.linalg.splu(A).solve
    v0 = np.linspace(1.0, 2.0, len(keep))
    _, X = scipy.sparse.linalg.eigsh(A, k=n_eigs, M=Mc, sigma=0.0, tol=0.0, v0=v0)
    for _ in range(5):
        Q = np.linalg.qr(solve(Mc @ X))[0]
        X = Q @ scipy.linalg.eigh(Q.T @ (Kc @ Q), Q.T @ (Mc @ Q))[1]
    X = X.astype(np.longdouble)

    def quadratic_form(B, x):
        B = B.tocoo()
        return np.sum(B.data.astype(np.longdouble) * x[B.row] * x[B.col])

    return np.array([float(quadratic_form(Kc, x) / quadratic_form(Mc, x)) for x in X.T])


@pytest.mark.parametrize(
    "spec, times",
    [
        (geo.Rectangle(1.9, 0.02), 4),  # 1,105 unknowns
        (geo.half_rhombus(2.0, math.radians(5.0), geo.NEUMANN), 4),  # the sweep's finest 5 deg mesh
    ],
)
def test_sparse_solve_is_converged(spec, times):
    # one Ritz step on the unshifted pencil, from the 1e-11 Lanczos block,
    # gives mu_1 to 1e-11 relative on these high-aspect meshes
    mesh = refined(spec, times)
    assert len(mesh.vertices) > 400
    mu = fem.solve_mesh(mesh, 2).eigenvalues[1]
    assert mu == pytest.approx(_converged_eigenvalues(mesh, 2)[1], rel=1e-11, abs=0.0)


# ---------------------------------------------------------------------------
# extrapolation drivers


def test_mu1_square_table_row():
    res = fem.mu_k(geo.Rectangle(math.sqrt(2.0), math.sqrt(2.0)), 1, refinements=4)
    assert res.value == pytest.approx(PI2 / 2.0, rel=0.002)
    assert res.monotone
    assert 1.5 < res.fitted_order < 2.5


def test_mu1_disk_table_row():
    res = fem.mu_k(geo.RegularPolygon(256, 1.0), 1, refinements=3)
    assert res.value == pytest.approx(spectra.disk_mu1(1.0), rel=0.005)
    assert res.value == pytest.approx(3.39, rel=0.005)


def test_mu1_equilateral_triangle_table_row():
    res = fem.mu_k(geo.EquilateralTriangle(2.0), 1, refinements=5)
    assert res.value == pytest.approx(4 * PI2 / 9.0, rel=0.005)


def test_lambda1_square():
    res = fem.dirichlet_lambda_k(geo.Rectangle(1.0, 1.0), 1, refinements=4)
    assert res.value == pytest.approx(2 * PI2, rel=0.005)


def test_lambda1_disk_dirichlet_ball():
    res = fem.dirichlet_lambda_k(geo.RegularPolygon(256, 1.0), 1, refinements=3)
    assert res.value == pytest.approx(spectra.cone_tau1(1.0, 2), rel=0.005)
    assert res.value == pytest.approx(5.783, rel=0.005)


def test_discrete_eigenvalues_decrease_under_refinement():
    for spec in (geo.Rectangle(1.0, 1.0), geo.Rhombus(2.0, math.radians(20)), geo.EquilateralTriangle(1.0)):
        for res in fem.mu_spectrum(spec, 5, refinements=3):
            v0, v1, v2 = res.values
            scale = abs(v2) + 1e-12
            assert v0 >= v1 - 1e-9 * scale and v1 >= v2 - 1e-9 * scale
            assert res.monotone


def test_neumann_below_dirichlet_same_mesh():
    for spec, times in ((geo.Rectangle(1.0, 1.0), 2), (geo.RegularPolygon(16, 1.0), 3)):
        mesh_n = refined(spec, times)
        mesh_d = refined(spec, times, True)
        rn = fem.solve_mesh(mesh_n, 6)
        K, M = fem.assemble(mesh_d)
        rd = fem.solve_smallest(K, M, fem.dirichlet_dofs(mesh_d), 5)
        for k in range(1, 6):
            assert rn.eigenvalues[k] <= rd.eigenvalues[k - 1] + 1e-10


def test_matrix_level_scaling():
    c = 2.5
    base = fem.mu_k(geo.EquilateralTriangle(1.0), 1, refinements=3)
    scaled = fem.mu_k(geo.EquilateralTriangle(c), 1, refinements=3)
    assert scaled.value == pytest.approx(base.value / c**2, rel=1e-10)


# ---------------------------------------------------------------------------
# inequality property suites (criterion 7 domains)

SUITE_SPECS = [
    geo.Rectangle(math.sqrt(2.0), math.sqrt(2.0)),
    geo.Rhombus(2.0, math.radians(10.0)),
    geo.EquilateralTriangle(2.0),
    geo.RegularPolygon(64, 1.0),
]


@pytest.fixture(scope="module")
def suite_results():
    out = {}
    for spec in SUITE_SPECS:
        poly = spec.outline()
        diam = geo.diameter(poly)
        out[spec] = (
            diam,
            fem.mu_spectrum(spec, 5, refinements=4),
            fem.dirichlet_spectrum(spec, 5, refinements=4),
        )
    return out


def test_payne_weinberger_lower_bound(suite_results):
    for spec, (diam, mus, _) in suite_results.items():
        assert mus[0].value >= 0.995 * constants.payne_weinberger_lower(diam)


def test_kroger_upper_bound(suite_results):
    for spec, (diam, mus, _) in suite_results.items():
        for k in range(1, 6):
            bound = constants.kroger_upper(k, 2, diam)
            assert mus[k - 1].value <= 1.005 * bound


def test_bracketing_chain(suite_results):
    for spec, (_, mus, lams) in suite_results.items():
        for k in range(1, 6):
            tol = 1e-10 + mus[k - 1].error_estimate + lams[k - 1].error_estimate
            assert mus[k - 1].value <= lams[k - 1].value + tol


# ---------------------------------------------------------------------------
# mixed problems from the nodal analysis


def test_half_rhombus_mixed_lower_bound():
    # the certificate of the Neumann-cut half's floor: with Dirichlet on the
    # long diagonal, tau_1 >= pi^2 / (4 h^2), h = (D/2) tan(theta), on every rung
    for deg in (30.0, 10.0, 5.0):
        theta = math.radians(deg)
        floor = geo.half_rhombus(2.0, theta, geo.NEUMANN).floor
        res = fem.mu_k(geo.half_rhombus(2.0, theta), 1, refinements=4)
        assert all(tau > floor for tau in res.values)
        assert res.value >= 0.995 * floor


@pytest.mark.parametrize("deg", [20.0, 40.0, 45.0])
def test_rhombus_spectrum_is_merge_of_mirror_halves(deg):
    # the rhombus mesh is the half mesh plus its mirror image, so the rhombus
    # pencil splits exactly into the Neumann-cut (even) and Dirichlet-cut
    # (odd) halves' pencils
    theta = math.radians(deg)
    full = fem.solve_mesh(refined(geo.Rhombus(2.0, theta), 2), 5).eigenvalues[1:]
    even = fem.solve_mesh(refined(geo.half_rhombus(2.0, theta, geo.NEUMANN), 2), 5).eigenvalues[1:]
    odd = fem.solve_mesh(refined(geo.half_rhombus(2.0, theta), 2), 4).eigenvalues
    merged = np.sort(np.concatenate([even, odd]))[:4]
    assert np.allclose(full, merged, rtol=1e-9, atol=0.0)
    if deg == 40.0:
        # the odd tau_1 = 6.78 sits between the even mu_1 = 5.10 and mu_2 = 11.41
        assert even[0] < odd[0] < even[1]
        assert full[1] == pytest.approx(odd[0], rel=1e-9)


# the quarter 256-gon's cuts: outline edge 64 is the y axis, 65 the x axis
QUARTER = geo.quarter_regular_polygon(256, 1.0)
Y_CUT, X_CUT = 64, 65


def quarter_with_cuts(cuts):
    """The table's quarter with Dirichlet cuts on the axes in cuts."""
    return geo.Part(QUARTER.whole, QUARTER.region, cuts)


def test_polygon_spectrum_is_merge_of_mirror_halves():
    # the 256-gon's fan is its quarter mirrored across both axes, up to
    # rounding, so its spectrum is the merge of the quarter's four problems:
    # Neumann (even) or Dirichlet (odd) on each cut
    full = fem.solve_mesh(refined(QUARTER.whole, 2), 10).eigenvalues
    problems = {
        cuts: fem.solve_mesh(refined(quarter_with_cuts(cuts), 2), 10).eigenvalues
        for cuts in map(frozenset, ((), {Y_CUT}, {X_CUT}, {X_CUT, Y_CUT}))
    }
    merged = np.sort(np.concatenate(list(problems.values())))[:10]
    assert abs(full[0]) < 1e-9 and abs(merged[0]) < 1e-9  # the constant mode
    assert np.allclose(full[1:], merged[1:], rtol=1e-9, atol=0.0)
    # mu_1 is double: cos(theta) solves the quarter with the Dirichlet y cut
    # (the table's quarter), sin(theta) the one with the Dirichlet x cut
    cos, sin = problems[frozenset({Y_CUT})][0], problems[frozenset({X_CUT})][0]
    assert full[1] == pytest.approx(cos, rel=1e-9, abs=0.0) == sin
    table = quarter_with_cuts({Y_CUT})
    assert (table.whole, table.region, table.dirichlet) == (
        QUARTER.whole, QUARTER.region, QUARTER.dirichlet
    )


def test_neumann_quarter_lies_above_payne_weinberger():
    # the certificate of the quarter's floor: the all-Neumann quarter is
    # convex, so its mu_1 is at least pi^2/D^2 = pi^2/2, and each rung is at
    # least mu_1 (min-max); j'_{2,1}^2 = 9.33 of the quarter disk is close
    floor = QUARTER.floor
    assert floor == pytest.approx(PI2 / 2.0, rel=1e-15)
    rungs = [fem.solve_mesh(refined(quarter_with_cuts(()), r), 2).eigenvalues[1] for r in (1, 2, 3)]
    assert all(floor < mu < 10.1 for mu in rungs)
    assert rungs[0] > rungs[1] > rungs[2]


def test_reuleaux_sixth_lies_above_fibre_bound():
    # the certificate of the Reuleaux half's floor: a mode odd about all three
    # axes solves the sixth between the rays to the top corner and to the
    # 30-degree arc midpoint with both rays Dirichlet, and its eigenvalue is
    # at least pi^2/((sqrt(3) - 1)^2 w^2) = 4.6042 at w = 2
    half = geo.half_reuleaux_triangle(2.0, 64)
    whole, floor = half.whole, half.floor
    centre = (1.0, 1.0 / math.sqrt(3.0))
    sixth = np.vstack([centre, whole.outline()[32:65]])  # arc 0, 30 to 60 degrees
    assert floor == pytest.approx(4.6042, abs=1e-4)
    part = geo.Part(whole, geo.ConvexHullPolygon(sixth), {0, len(sixth) - 1})  # both rays
    rungs = [fem.solve_mesh(refined(part, r), 1).eigenvalues[0] for r in (2, 3, 4)]
    assert all(floor < tau < 23.0 for tau in rungs)


@pytest.mark.parametrize(
    "part",
    [QUARTER, geo.half_reuleaux_triangle(2.0, 64)],
    ids=["QuarterRegularPolygon", "HalfReuleauxTriangle"],
)
def test_symmetry_part_gives_whole_mu1(part):
    # every rung of the part's ladder is the whole domain's, to rounding
    half, whole = fem.mu_k(part, 1, refinements=3), fem.mu_k(part.whole, 1, refinements=3)
    assert np.allclose(half.values, whole.values, rtol=1e-9, atol=0.0)
    assert half.value == pytest.approx(whole.value, rel=1e-9, abs=0.0)


def test_mu_spectrum_indexes_constrained_problems_from_one():
    # the half rhombus's Dirichlet base makes it a constrained problem: its
    # spectrum is tau_1, tau_2, ... exactly as mu_k indexes it
    spec = geo.half_rhombus(2.0, math.radians(30.0))
    spectrum = fem.mu_spectrum(spec, 3, refinements=2)
    for k, res in enumerate(spectrum, start=1):
        assert res.value == pytest.approx(fem.mu_k(spec, k, refinements=2).value, rel=1e-9)
    with pytest.raises(ValueError):
        fem.mu_k(spec, 0, refinements=2)
    with pytest.raises(ValueError):
        fem.mu_k(geo.Rectangle(1.0, 1.0), -1, refinements=2)


def test_cone_squeeze_via_sector():
    # flat cone tau_1 in [cos^2(theta) j01^2, j01^2] * 4/D^2, widened by the
    # FEM estimate; the sector realizes the cone with a Dirichlet cap.  The
    # Richardson step of fem.mu_k at refinements 3, from its two finer rungs
    j01sq = spectra.cone_tau1(1.0, 2)
    for deg in (10.0, 5.0):
        theta = math.radians(deg)
        spec = geo.Sector(1.0, 2.0 * theta, 64)
        arc = frozenset(range(1, spec.n_arc + 1))  # edges 0 and n_arc + 1 are radii
        v1, v2 = (fem.solve_mesh(refined(spec, r, arc), 1).eigenvalues[0] for r in (2, 3))
        value = v2 + (v2 - v1) / 3.0
        pad = abs(value - v2) + 2e-3 * j01sq
        assert math.cos(theta) ** 2 * j01sq - pad <= value <= j01sq + pad


def test_solve_from_mesh_file(tmp_path):
    # the solver consumes the mesh text format directly
    mesh = refined(geo.Rectangle(1.0, 1.0), 3)
    path = tmp_path / "square.mesh"
    geo.write_mesh(mesh, path)
    loaded = geo.read_mesh(path)
    res = fem.solve_mesh(loaded, 2)
    assert res.eigenvalues[1] == pytest.approx(PI2, rel=0.02)


def test_solve_errors():
    mesh = geo.triangulate(geo.Rectangle(1.0, 1.0))
    K, M = fem.assemble(mesh)
    with pytest.raises(ValueError):
        fem.solve_smallest(K, M, [], 0)
    with pytest.raises(ValueError):
        fem.solve_smallest(K, M, range(K.shape[0]), 1)
    # indices outside 0..n-1 are rejected, not dropped or wrapped around
    for bad in ([K.shape[0]], [-1]):
        with pytest.raises(ValueError, match="constrained dofs"):
            fem.solve_smallest(K, M, bad, 2)


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: fem.mu_k(spec, 1.0),
        lambda spec: fem.mu_k(spec, True),  # a bool is not an index
        lambda spec: fem.mu_k(spec, 1, refinements=3.0),
        lambda spec: fem.dirichlet_lambda_k(spec, np.float64(1.0)),
        lambda spec: fem.mu_spectrum(spec, True),  # a bool is not an index
        lambda spec: fem.dirichlet_spectrum(spec, 2.0),
        lambda spec: fem.solve_mesh(geo.triangulate(spec), 2.0),
    ],
    ids=["k", "bool k", "refinements", "dirichlet k", "bool k_max", "k_max", "n_eigs"],
)
def test_indices_must_be_integers(call):
    # a float or bool index raises ValueError up front, not TypeError in the ladder
    with pytest.raises(ValueError, match="must be an integer"):
        call(geo.Rectangle(1.0, 1.0))
