"""P1 finite elements for the Laplace eigenproblem on triangle meshes.

Assembly produces the standard piecewise-linear stiffness and consistent
mass matrices.  Only `solve_mesh` applies the size rule: systems of at most
400 unknowns are assembled as dense arrays, larger ones as sparse matrices,
and the matrix format picks the solver.  A dense pencil gets one dense
generalized eigensolve for the wanted pairs; a sparse one is solved for the
smallest modes by shift-invert Lanczos with a direct sparse factorization
and refined by one Rayleigh-Ritz pass.  The Lanczos run is sized to the
request: 2k + 2 Krylov vectors for k pairs, stopped at 1e-11 relative Ritz
accuracy.  The Rayleigh-Ritz pass, one inverse-iteration step plus a
projected solve, squares the eigenvector error and so carries the last
digits, and every pair must still pass the backward-error check.

A dense pencil given an upper bound for its largest wanted eigenvalue (the
finest mesh of a ladder, bounded by the middle mesh's value) is solved by
spectrum slicing instead: one LDL^T factorization at the bound, whose
inertia counts the eigenvalues below it (Sylvester's law; Parlett, The
Symmetric Eigenvalue Problem, 1980), then subspace iteration with that
factor (Ericsson and Ruhe, Math. Comp. 35, 1980).  The slice is accepted
only if the Ritz values below the bound match the count and every pair
passes the backward-error check; otherwise the dense eigensolve gives the
pairs, and the result records why.

Dirichlet degrees of freedom are eliminated by row/column deletion.  Both
the pure Neumann zero mode and the constrained problems are handled by
solving with the definite pencil K + sigma*M, sigma = 1/|Omega| with
|Omega| = 1^T M 1 the domain area, and back-transforming.  This shift is
the natural eigenvalue scale of the domain and does not grow under
refinement, so the wanted modes stay well separated from the rest of the
spectrum on fine meshes and subtracting the shift from the computed
eigenvalues cancels few digits.  Iteration starts from a fixed
deterministic vector or block, so repeated runs give bit-identical results.

Discrete eigenvalues of the conforming method approach the continuum from
above at rate O(h^2); the refinement drivers solve on meshes h, h/2, h/4
and Richardson-extrapolate assuming that exact order.  They share one
indexing rule: eigenvalues of a pure Neumann boundary are indexed from
k = 0 (mu_0 = 0), those of a problem with any Dirichlet edge from k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sparse
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh, splu

from . import geometry
from .geometry import DomainSpec, Mesh

# Largest accepted eigenpair backward error (EigResult): ~100 times the largest
# measured by the unsliced solvers, 9.0e-15 over the FEM commands and 1.5e-14
# over the tests.  A sliced solve iterates until its pairs reach a tenth of it.
DEFAULT_TOL = 1e-12
MAXITER_PER_EIG = 500
N_EIGS_MAX = 20
_DENSE_CUTOFF = 400
# Lanczos sized to the request: scipy's default Krylov size, max(2k + 1, 20),
# builds 20 vectors per restart to find 1-2 pairs, and tol=0 iterates to
# machine precision, digits the Rayleigh-Ritz pass supplies anyway.
_KRYLOV_VECTORS_PER_EIG = 2
_LANCZOS_TOL = 1e-11
# Spectrum slicing (solve_smallest's slice_at) gives up after this many
# subspace steps; the scan's finest rungs take about five.
_SLICE_MAXITER = 30
SLICED = "sliced"


class NonConvergenceError(RuntimeError):
    """Eigensolver failed to converge or residuals exceeded the tolerance."""


def _element_triplets(mesh: Mesh):
    """Rows, columns and stiffness and mass values of every element entry.

    Entry (i, j) of each triangle's 3x3 element matrices, ordered by (i, j)
    and then by triangle; summing duplicates gives the global K and M.
    Raises on degenerate triangles (area <= 1e-14 h^2, h the mesh's longest
    edge).
    """
    verts = mesh.vertices
    tris = mesh.triangles
    p = verts[tris]  # (nt, 3, 2)
    # cyclic edge differences give the barycentric gradients
    b = np.stack(
        [p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]],
        axis=1,
    )
    c = np.stack(
        [p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]],
        axis=1,
    )
    det = b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0]  # signed, = 2*area for ccw
    area = 0.5 * det
    # hypot(b_i, c_i) is the length of the edge opposite vertex i
    if not np.all(area > 1e-14 * np.hypot(b, c).max() ** 2):  # a NaN fails too
        raise ValueError("degenerate triangle in mesh (area <= 1e-14 h^2)")

    rows = []
    cols = []
    k_vals = []
    m_vals = []
    for i in range(3):
        for j in range(3):
            rows.append(tris[:, i])
            cols.append(tris[:, j])
            k_vals.append((b[:, i] * b[:, j] + c[:, i] * c[:, j]) / (4.0 * area))
            m_factor = 1.0 / 6.0 if i == j else 1.0 / 12.0
            m_vals.append(m_factor * area)
    return (
        np.concatenate(rows),
        np.concatenate(cols),
        np.concatenate(k_vals),
        np.concatenate(m_vals),
    )


def assemble(mesh: Mesh):
    """Stiffness K and consistent mass M as sparse symmetric matrices.

    K row sums vanish (constants lie in the kernel) before any boundary
    constraint is applied.  Raises on degenerate triangles
    (area <= 1e-14 h^2, h the mesh's longest edge).
    """
    rows, cols, k_vals, m_vals = _element_triplets(mesh)
    nv = len(mesh.vertices)
    K = sparse.csr_matrix((k_vals, (rows, cols)), shape=(nv, nv))
    M = sparse.csr_matrix((m_vals, (rows, cols)), shape=(nv, nv))
    return K, M


def _assemble_dense(mesh: Mesh):
    """K and M of `assemble` as dense arrays, scattered without scipy.sparse."""
    rows, cols, k_vals, m_vals = _element_triplets(mesh)
    nv = len(mesh.vertices)
    flat = rows * nv + cols
    K = np.bincount(flat, weights=k_vals, minlength=nv * nv).reshape(nv, nv)
    M = np.bincount(flat, weights=m_vals, minlength=nv * nv).reshape(nv, nv)
    return K, M


def dirichlet_dofs(mesh: Mesh) -> np.ndarray:
    """Sorted vertex indices lying on any Dirichlet-marked boundary edge."""
    marked = np.asarray(mesh.boundary_markers) == geometry.DIRICHLET
    on_dirichlet = np.zeros(len(mesh.vertices), dtype=bool)
    on_dirichlet[mesh.boundary_edges[marked]] = True
    return np.flatnonzero(on_dirichlet)


@dataclass
class EigResult:
    """Eigenvalues of the constrained pencil with solver diagnostics; residuals
    holds each pair's backward error ||K u - mu M u||_2 / ((||K||_1 + |mu|
    ||M||_1) ||u||_2), which does not change when the domain is scaled.
    slicing is "" when the solve was not sliced (no slice_at, or a sparse
    pencil), SLICED when the certified slice gave the pairs, and "fallback:
    <reason>" when the slice was rejected and the dense eigensolve gave them."""

    eigenvalues: np.ndarray
    residuals: np.ndarray
    dof_count: int
    slicing: str = ""


def solve_smallest(K, M, constrained_dofs, n_eigs: int, slice_at=None) -> EigResult:
    """n_eigs smallest generalized eigenvalues of the constrained pencil.

    K and M are both dense arrays or both scipy.sparse matrices, and the
    format picks the solver; `solve_mesh` decides it by system size.
    constrained_dofs (indices in 0..n-1) are eliminated by row/column
    deletion.  The remaining pencil is shifted to (K + sigma M, M) with
    sigma = 1/|Omega|, where |Omega| = 1^T M 1 sums the full mass matrix
    before elimination; the shifted operator is definite for Neumann and
    constrained problems alike.  A dense pencil gives its n_eigs smallest
    pairs from one dense generalized eigensolve.  A sparse pencil is
    factorized once, solved by shift-invert Lanczos about zero with
    min(dim, 2 n_eigs + 2) Krylov vectors and stopping tolerance 1e-11, and
    refined by one Rayleigh-Ritz pass, which supplies the digits the early
    stop leaves out.  Every pair's backward error (EigResult.residuals) must
    not exceed DEFAULT_TOL.  Every failure of either solver raises
    NonConvergenceError.

    slice_at, if given, is an upper bound for the n_eigs-th eigenvalue of the
    constrained pencil (K, M), such as its value on the next coarser mesh of a
    uniform refinement ladder.  A dense pencil is then solved by spectrum
    slicing: K - slice_at M is factored once as L D L^T (LAPACK ?sytrf), and
    the negative eigenvalues of the 1x1 and 2x2 blocks of D count the c
    eigenvalues below slice_at (Sylvester's law of inertia).  Subspace
    iteration with that factor, from a fixed block of c + 2 vectors that is
    orthonormalized and Rayleigh-Ritz projected each step, runs until every
    wanted pair's backward error is at most DEFAULT_TOL / 10.  The result is
    accepted only if exactly c Ritz values lie below slice_at and every pair
    passes the backward-error check; otherwise the dense eigensolve gives the
    pairs, and EigResult.slicing says why.  A sparse pencil ignores slice_at.
    """
    if n_eigs < 1 or n_eigs > N_EIGS_MAX:
        raise ValueError(f"n_eigs must be 1..{N_EIGS_MAX}")
    n_full = K.shape[0]
    constrained = np.asarray(constrained_dofs, dtype=np.int64)
    if constrained.size and (constrained.min() < 0 or constrained.max() >= n_full):
        raise ValueError(f"constrained dofs must lie in 0..{n_full - 1}")
    keep = np.ones(n_full, dtype=bool)
    keep[constrained] = False
    dim = int(np.count_nonzero(keep))
    if dim == 0:
        raise ValueError("constraint elimination left an empty system")
    if dim <= n_eigs:
        raise ValueError(f"system of dimension {dim} cannot deliver {n_eigs} eigenpairs")
    sigma = 1.0 / M.sum()

    Kc, Mc = K, M
    slicing = ""
    if not sparse.issparse(K):
        if dim < n_full:  # a fancy-indexed copy costs ~1 ms at 400 unknowns
            Kc, Mc = K[np.ix_(keep, keep)], M[np.ix_(keep, keep)]
        norms = _one_norms(Kc, Mc)
        if slice_at is not None:
            mu, vecs, slicing = _slice(Kc, Mc, float(slice_at), n_eigs, norms)
        if slicing != SLICED:
            mu, vecs = _dense_pairs(Kc, Mc, sigma, n_eigs)
    else:
        if dim < n_full:
            Kc, Mc = K[keep][:, keep], M[keep][:, keep]
        Kc, Mc = Kc.tocsc(), Mc.tocsc()
        A = (Kc + sigma * Mc).tocsc()
        try:
            lu = splu(A)
        except RuntimeError as exc:
            raise NonConvergenceError(f"sparse factorization failed: {exc}") from exc
        op_inv = LinearOperator(A.shape, matvec=lu.solve, dtype=float)
        v0 = np.linspace(1.0, 2.0, dim)  # fixed start vector: deterministic runs
        try:
            vals, vecs = eigsh(
                A,
                k=n_eigs,
                M=Mc,
                sigma=0.0,
                which="LM",
                v0=v0,
                OPinv=op_inv,
                ncv=min(dim, _KRYLOV_VECTORS_PER_EIG * (n_eigs + 1)),
                maxiter=MAXITER_PER_EIG * n_eigs,
                tol=_LANCZOS_TOL,
            )
        except ArpackNoConvergence as exc:
            raise NonConvergenceError(f"shift-invert iteration failed: {exc}") from exc
        vecs = vecs[:, np.argsort(vals)]
        vals, vecs = _rayleigh_ritz_refine(lu.solve, A, Mc, vecs)
        mu = vals - sigma
        norms = _one_norms(Kc, Mc)

    residuals = _backward_errors(Kc @ vecs, Mc @ vecs, mu, vecs, norms)
    if slicing == SLICED and not np.all(residuals <= DEFAULT_TOL):
        slicing = f"fallback: backward error {residuals.max():.3e}"
        mu, vecs = _dense_pairs(Kc, Mc, sigma, n_eigs)
        residuals = _backward_errors(Kc @ vecs, Mc @ vecs, mu, vecs, norms)
    if not np.all(residuals <= DEFAULT_TOL):  # a NaN residual fails too
        raise NonConvergenceError(
            f"eigenpair backward error {residuals.max():.3e} exceeds tolerance {DEFAULT_TOL:.1e}"
        )
    return EigResult(eigenvalues=mu, residuals=residuals, dof_count=dim, slicing=slicing)


def _one_norms(Kc, Mc):
    """||Kc||_1 and ||Mc||_1, the scales of the backward error."""
    return tuple(abs(X).sum(axis=0).max() for X in (Kc, Mc))


def _backward_errors(KX, MX, mu, X, norms):
    """Each pair's normwise backward error ||K x - mu M x||_2 / ((||K||_1 +
    |mu| ||M||_1) ||x||_2), from the products KX = K X and MX = M X (Higham
    and Higham, SIAM J. Matrix Anal. Appl. 20 (1998))."""
    k_norm, m_norm = norms
    return np.linalg.norm(KX - MX * mu, axis=0) / (
        (k_norm + np.abs(mu) * m_norm) * np.linalg.norm(X, axis=0)
    )


def _dense_pairs(Kc, Mc, sigma, n_eigs):
    """The n_eigs smallest pairs of the dense pencil from one generalized
    eigensolve of the definite (Kc + sigma Mc, Mc)."""
    try:
        vals, vecs = scipy.linalg.eigh(Kc + sigma * Mc, Mc, subset_by_index=[0, n_eigs - 1])
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NonConvergenceError(f"dense eigensolve failed: {exc}") from exc
    return vals - sigma, vecs


def _negative_pivots(ldu, ipiv) -> int:
    """Negative eigenvalues of D in a lower ?sytrf factor (ldu, ipiv), which
    are those of the factored matrix by Sylvester's law of inertia.  A 1x1
    block counts by its sign.  A 2x2 block is marked by equal negative ipiv
    entries at rows k and k + 1; Bunch-Kaufman pivoting takes one, [a b; b
    c], only when |a c| < 0.41 b^2, so its determinant is negative and it
    holds exactly one negative eigenvalue."""
    one_by_one = ipiv > 0
    negative_1x1 = np.count_nonzero(ldu.diagonal()[one_by_one] < 0)
    return int(negative_1x1 + np.count_nonzero(~one_by_one) // 2)


def _slice(Kc, Mc, shift, n_eigs, norms):
    """The n_eigs smallest pairs of the dense pencil (Kc, Mc) by spectrum
    slicing at `shift`, an upper bound for the n_eigs-th eigenvalue:
    (eigenvalues, eigenvectors, SLICED), or (None, None, "fallback:
    <reason>") when the count is out of range, a projected solve fails, the
    iteration does not converge or the Ritz values below the shift do not
    match the count.  See solve_smallest."""
    n = Kc.shape[0]
    shifted = Mc * -shift
    shifted += Kc
    sytrf, sytrs = scipy.linalg.lapack.get_lapack_funcs(("sytrf", "sytrs"), (shifted,))
    # shifted is symmetric, so its transpose is the Fortran-ordered array
    # that sytrf overwrites with the factor instead of copying it
    ldu, ipiv, info = sytrf(shifted.T, lower=1, overwrite_a=1)
    if info != 0:
        return None, None, f"fallback: singular factor at pivot {info}"
    count = _negative_pivots(ldu, ipiv)
    if not n_eigs <= count <= min(N_EIGS_MAX, n - 2):
        return None, None, f"fallback: count {count} outside {n_eigs}..{min(N_EIGS_MAX, n - 2)}"
    # fixed start block, so that repeated runs give bit-identical results
    X = np.cos(np.outer(np.linspace(0.0, math.pi, n), np.arange(count + 2)))
    MX = Mc @ X
    want = slice(n_eigs)
    for _ in range(_SLICE_MAXITER):
        W, _ = sytrs(ldu, ipiv, MX, lower=1)
        Q = np.linalg.qr(W)[0]
        KQ, MQ = Kc @ Q, Mc @ Q
        try:
            mu, Y = scipy.linalg.eigh(Q.T @ KQ, Q.T @ MQ)
        except (np.linalg.LinAlgError, ValueError) as exc:
            return None, None, f"fallback: projected solve failed: {exc}"
        X, MX = Q @ Y, MQ @ Y
        eta = _backward_errors(KQ @ Y[:, want], MX[:, want], mu[want], X[:, want], norms)
        if np.all(eta <= 0.1 * DEFAULT_TOL):
            break
    else:
        return None, None, f"fallback: backward error {eta.max():.3e} after {_SLICE_MAXITER} steps"
    below = int(np.count_nonzero(mu < shift))
    if below != count:
        return None, None, f"fallback: {below} Ritz values below the shift, count {count}"
    return mu[want], X[:, want], SLICED


def _rayleigh_ritz_refine(solve, A, Mc, vecs):
    """One inverse-iteration pass on the Ritz basis, then a projected solve.

    `solve` applies A^{-1}; the step damps the basis toward the smallest
    pencil eigenvectors and cuts residuals well below the floor left by the
    mass-matrix conditioning on high-aspect meshes.  Returns the pairs in
    ascending order; a failed projected solve raises NonConvergenceError.
    """
    W = solve(np.asarray(Mc @ vecs))
    G = W.T @ (Mc @ W)
    H = W.T @ (A @ W)
    try:
        small_vals, Y = scipy.linalg.eigh(H, G)
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NonConvergenceError(f"Rayleigh-Ritz projected solve failed: {exc}") from exc
    refined = W @ Y
    # normalize columns in the M inner product
    norms = np.sqrt(np.einsum("ij,ij->j", refined, np.asarray(Mc @ refined)))
    refined /= norms
    return small_vals, refined


def solve_mesh(mesh: Mesh, n_eigs: int, slice_at=None) -> EigResult:
    """Assemble and solve one mesh, honoring its boundary markers.

    The one place that applies the size rule: up to _DENSE_CUTOFF unknowns
    the pencil is dense and never builds a scipy.sparse matrix.  slice_at is
    solve_smallest's.
    """
    constrained = dirichlet_dofs(mesh)
    if len(mesh.vertices) - len(constrained) <= _DENSE_CUTOFF:
        K, M = _assemble_dense(mesh)
    else:
        K, M = assemble(mesh)
    return solve_smallest(K, M, constrained, n_eigs, slice_at)


@dataclass
class ExtrapolationResult:
    """Richardson-extrapolated eigenvalue over meshes h, h/2, h/4."""

    value: float
    error_estimate: float
    values: tuple
    residual: float
    fitted_order: float
    monotone: bool
    slicing: str = ""  # the finest mesh's EigResult.slicing


def _extrapolate(spec: DomainSpec, ks, refinements: int, dirichlet: bool) -> list:
    """Extrapolated k-th eigenvalues, k in ks, from one mesh ladder.

    The ladder is triangulated first (`geometry.triangulate(spec,
    dirichlet)`): its markers decide whether k counts from 0 (pure Neumann)
    or from 1 (any Dirichlet edge), and every mesh is solved for exactly the
    pairs up to the largest k.  Uniform refinement nests the P1 spaces, so
    each discrete eigenvalue can only fall from one mesh to the next: the
    finest mesh is sliced at the middle mesh's largest wanted eigenvalue.
    """
    if refinements < 2:
        raise ValueError("need at least 2 refinements for h, h/2, h/4 meshes")
    mesh = geometry.triangulate(spec, dirichlet)
    for _ in range(refinements - 2):
        mesh = geometry.refine_mesh(mesh)
    ladder = [mesh]
    for _ in range(2):
        ladder.append(geometry.refine_mesh(ladder[-1]))
    offset = int(geometry.DIRICHLET in mesh.boundary_markers)
    ks = list(ks)
    if not ks or min(ks) < offset:
        raise ValueError(
            f"eigenvalue indices {ks} must start at {offset}: Neumann problems "
            "index from k = 0, constrained problems from k = 1"
        )
    n_eigs = max(ks) + 1 - offset
    results = [solve_mesh(m, n_eigs) for m in ladder[:2]]
    results.append(solve_mesh(ladder[2], n_eigs, slice_at=results[1].eigenvalues[-1]))
    out = []
    for k in ks:
        vals = tuple(float(r.eigenvalues[k - offset]) for r in results)
        v0, v1, v2 = vals
        extrapolated = v2 + (v2 - v1) / 3.0
        err = abs(extrapolated - v2)
        scale = max(abs(v) for v in vals) + 1e-300
        monotone = v0 >= v1 - 1e-9 * scale and v1 >= v2 - 1e-9 * scale
        num, den = v0 - v1, v1 - v2
        fitted = math.log2(num / den) if (num > 0 and den > 0) else math.nan
        out.append(
            ExtrapolationResult(
                value=extrapolated,
                error_estimate=err,
                values=vals,
                residual=max(float(r.residuals.max()) for r in results),
                fitted_order=fitted,
                monotone=monotone,
                slicing=results[2].slicing,
            )
        )
    return out


def mu_k(spec: DomainSpec, k: int, refinements: int = 3) -> ExtrapolationResult:
    """Extrapolated k-th eigenvalue of the Neumann problem: from k = 0
    (mu_0 = 0) for a pure Neumann boundary, from k = 1 when the domain
    declares a Dirichlet edge (the base of a Dirichlet-cut half rhombus, the
    y-axis cut of a quarter regular polygon)."""
    return _extrapolate(spec, [k], refinements, False)[0]


def mu_spectrum(spec: DomainSpec, k_max: int, refinements: int = 3) -> list:
    """Extrapolated k = 1..k_max eigenvalues from a single mesh ladder:
    mu_1..mu_k_max for a pure Neumann boundary (mu_0 = 0 is skipped), the
    first k_max constrained eigenvalues when the domain has a Dirichlet edge."""
    return _extrapolate(spec, range(1, k_max + 1), refinements, False)


def dirichlet_lambda_k(spec: DomainSpec, k: int, refinements: int = 3) -> ExtrapolationResult:
    """Extrapolated k-th Dirichlet eigenvalue (k >= 1), all markers Dirichlet."""
    return _extrapolate(spec, [k], refinements, True)[0]


def dirichlet_spectrum(spec: DomainSpec, k_max: int, refinements: int = 3) -> list:
    """Extrapolated lambda_1..lambda_k_max from a single mesh ladder."""
    return _extrapolate(spec, range(1, k_max + 1), refinements, True)
