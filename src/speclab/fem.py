"""P1 finite elements for the Laplace eigenproblem on triangle meshes.

Assembly produces the standard piecewise-linear stiffness and consistent
mass matrices.  Only `solve_mesh` applies the size rule: systems of at most
400 unknowns are assembled as dense arrays, larger ones as sparse matrices,
and the matrix format picks the solver.  A dense pencil gets one dense
generalized eigensolve for the wanted pairs; a sparse one is solved for the
smallest modes by shift-invert Lanczos with a direct sparse factorization,
sized to the request: 2k + 2 Krylov vectors for k pairs, stopped at 1e-11
relative Ritz accuracy.

A dense pencil given an upper bound for its largest wanted eigenvalue (the
finest mesh of a ladder, bounded by the middle mesh's value) is solved by
spectrum slicing instead: one LDL^T factorization at the bound, whose
inertia counts the eigenvalues below it (Sylvester's law; Parlett, The
Symmetric Eigenvalue Problem, 1980).  The slice is accepted only if the
Ritz values below the bound match the count and every pair passes the
backward-error check; otherwise the dense eigensolve gives the pairs, and
the result records why.

Both factored solves share one Ritz iteration: subspace iteration with the
factor and Rayleigh-Ritz projection on the unshifted pencil (K, M)
(Ericsson and Ruhe, Math. Comp. 35, 1980).  It takes the slice's fixed
start block to convergence, and one step of it squares the eigenvector
error of the early-stopped Lanczos pairs.  Its step calls LAPACK directly:
?geqrf and ?orgqr orthonormalize the block, and ?sygv solves the small
projected pencil, whose failure or non-finite result raises.

Dirichlet degrees of freedom are eliminated by row/column deletion.  The
pure Neumann K is singular, so the sparse factorization is of the definite
K + sigma*M, sigma = 1/|Omega| with |Omega| = 1^T M 1 the domain area, the
domain's natural eigenvalue scale, which does not grow under refinement.
The shift serves only that factorization: every eigenvalue comes from the
unshifted pencil, and no shift is subtracted.  Iteration starts from a
fixed deterministic vector or block, so repeated runs give bit-identical
results.

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
from .specfun import as_index

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
# The Ritz step's LAPACK routines, called directly.  On a 181 x 4 block (one
# core of a 2-vCPU x86 host) np.linalg.qr takes 23 us against 4 us for ?geqrf
# and ?orgqr, and scipy.linalg.eigh of the 4 x 4 projected pencil 22 us
# against 4 us for ?sygv: the rest is argument checking and copying.
_GEQRF, _ORGQR, _SYGV = scipy.linalg.lapack.get_lapack_funcs(
    ("geqrf", "orgqr", "sygv"), dtype=np.float64
)


class NonConvergenceError(RuntimeError):
    """Eigensolver failed to converge or residuals exceeded the tolerance."""


def _element_triplets(mesh: Mesh):
    """Rows, columns and stiffness and mass values of every element entry.

    Entry (i, j) of each triangle's 3x3 element matrices, ordered by (i, j)
    and then by triangle; summing duplicates gives the global K and M.
    Raises on degenerate triangles (area <= 1e-14 h^2, h the mesh's longest
    edge).
    """
    p = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    # cyclic edge differences give the barycentric gradients, one row per vertex
    b = np.stack([p[:, 1, 1] - p[:, 2, 1], p[:, 2, 1] - p[:, 0, 1], p[:, 0, 1] - p[:, 1, 1]])
    c = np.stack([p[:, 2, 0] - p[:, 1, 0], p[:, 0, 0] - p[:, 2, 0], p[:, 1, 0] - p[:, 0, 0]])
    det = b[0] * c[1] - b[1] * c[0]  # signed, = 2*area for ccw
    area = 0.5 * det
    # hypot(b_i, c_i) is the length of the edge opposite vertex i
    if not np.all(area > 1e-14 * np.hypot(b, c).max() ** 2):  # a NaN fails too
        raise ValueError("degenerate triangle in mesh (area <= 1e-14 h^2)")

    # axis 0 is i, axis 1 is j and axis 2 the triangle, flattened in that order
    tris = mesh.triangles.T
    k_vals = (b[:, None] * b[None] + c[:, None] * c[None]) / (4.0 * area)
    m_vals = np.where(np.eye(3, dtype=bool), 1.0 / 6.0, 1.0 / 12.0)[..., None] * area
    return (
        np.repeat(tris, 3, axis=0).ravel(),
        np.tile(tris, (3, 1)).ravel(),
        k_vals.ravel(),
        m_vals.ravel(),
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
    deletion, which leaves the pencil (Kc, Mc).  A dense pencil gives its
    n_eigs smallest pairs from one dense generalized eigensolve.  A sparse
    pencil is factorized once as Kc + sigma Mc, sigma = 1/|Omega| with
    |Omega| = 1^T M 1 summed before elimination, which is definite for
    Neumann and constrained problems alike; it is solved by shift-invert
    Lanczos about zero with min(dim, 2 n_eigs + 2) Krylov vectors and
    stopping tolerance 1e-11, and one step of _rayleigh_ritz_refine with
    the same factor supplies the digits the early stop leaves out.  Every
    pair's backward error (EigResult.residuals) must not exceed DEFAULT_TOL.
    Every failure of either solver raises NonConvergenceError.

    slice_at, if given, is an upper bound for the n_eigs-th eigenvalue of
    (Kc, Mc), such as its value on the next coarser mesh of a uniform
    refinement ladder.  A dense pencil is then solved by `_slice`; if the
    slice or the backward-error check of its pairs raises
    NonConvergenceError, the dense eigensolve gives the pairs and
    EigResult.slicing records "fallback: <reason>".  A sparse pencil ignores
    slice_at.
    """
    n_eigs = as_index(n_eigs, "n_eigs")
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

    Kc, Mc = K, M
    if sparse.issparse(K):
        if dim < n_full:
            Kc, Mc = K[keep][:, keep], M[keep][:, keep]
        Kc, Mc = Kc.tocsc(), Mc.tocsc()
    elif dim < n_full:  # a fancy-indexed copy costs ~1 ms at 400 unknowns
        Kc, Mc = K[np.ix_(keep, keep)], M[np.ix_(keep, keep)]
    norms = _one_norms(Kc, Mc)
    if sparse.issparse(Kc):
        A = (Kc + Mc / M.sum()).tocsc()
        try:
            lu = splu(A)
        except RuntimeError as exc:
            raise NonConvergenceError(f"sparse factorization failed: {exc}") from exc
        try:
            _, vecs = eigsh(
                A,
                k=n_eigs,
                M=Mc,
                sigma=0.0,
                which="LM",
                v0=np.linspace(1.0, 2.0, dim),  # fixed start vector: deterministic runs
                OPinv=LinearOperator(A.shape, matvec=lu.solve, dtype=float),
                ncv=min(dim, _KRYLOV_VECTORS_PER_EIG * (n_eigs + 1)),
                maxiter=MAXITER_PER_EIG * n_eigs,
                tol=_LANCZOS_TOL,
            )
        except ArpackNoConvergence as exc:
            raise NonConvergenceError(f"shift-invert iteration failed: {exc}") from exc
        mu, vecs, _ = _rayleigh_ritz_refine(lu.solve, Kc, Mc, vecs, n_eigs, norms, 1)
        return _checked(Kc, Mc, mu, vecs, norms)
    slicing = ""
    if slice_at is not None:
        try:
            return _checked(Kc, Mc, *_slice(Kc, Mc, float(slice_at), n_eigs, norms), norms, SLICED)
        except NonConvergenceError as exc:
            slicing = f"fallback: {exc}"
    return _checked(Kc, Mc, *_dense_pairs(Kc, Mc, n_eigs), norms, slicing)


def _one_norms(Kc, Mc):
    """||Kc||_1 and ||Mc||_1, the scales of the backward error."""
    return tuple(abs(X).sum(axis=0).max() for X in (Kc, Mc))


def _backward_errors(KX, MX, mu, X, norms):
    """Each pair's normwise backward error ||K x - mu M x||_2 / ((||K||_1 +
    |mu| ||M||_1) ||x||_2), from the products KX = K X and MX = M X (Higham
    and Higham, SIAM J. Matrix Anal. Appl. 20 (1998))."""
    k_norm, m_norm = norms
    R = KX - MX * mu
    # the column 2-norms as np.linalg.norm(., axis=0) sums them, without its
    # per-call argument handling, which the Ritz step pays every iteration
    return np.sqrt((R * R).sum(axis=0)) / (
        (k_norm + np.abs(mu) * m_norm) * np.sqrt((X * X).sum(axis=0))
    )


def _checked(Kc, Mc, mu, vecs, norms, slicing="") -> EigResult:
    """The pairs (mu, vecs) of (Kc, Mc) as an EigResult, if every pair's
    backward error is at most DEFAULT_TOL; raises NonConvergenceError if not."""
    residuals = _backward_errors(Kc @ vecs, Mc @ vecs, mu, vecs, norms)
    if not np.all(residuals <= DEFAULT_TOL):  # a NaN residual fails too
        raise NonConvergenceError(
            f"backward error {residuals.max():.3e} exceeds tolerance {DEFAULT_TOL:.1e}"
        )
    return EigResult(eigenvalues=mu, residuals=residuals, dof_count=Kc.shape[0], slicing=slicing)


def _dense_pairs(Kc, Mc, n_eigs):
    """The n_eigs smallest pairs of the dense pencil (Kc, Mc) from one
    generalized eigensolve."""
    try:
        return scipy.linalg.eigh(Kc, Mc, subset_by_index=[0, n_eigs - 1])
    except (np.linalg.LinAlgError, ValueError) as exc:
        raise NonConvergenceError(f"dense eigensolve failed: {exc}") from exc


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
    slicing at `shift`, an upper bound for the n_eigs-th eigenvalue.

    Kc - shift Mc is factored once as L D L^T (LAPACK ?sytrf), and the
    negative eigenvalues of the 1x1 and 2x2 blocks of D count the c
    eigenvalues below the shift (Sylvester's law of inertia).  Up to
    _SLICE_MAXITER steps of _rayleigh_ritz_refine with that factor, from a
    fixed block of c + 2 vectors, bring every wanted pair's backward error
    to DEFAULT_TOL / 10.  The pairs are accepted only if then exactly c
    Ritz values lie below the shift.  Raises NonConvergenceError, with the
    reason, when the factor is singular, the count is out of range, a
    projected solve fails, the iteration does not converge or the Ritz
    values below the shift do not match the count."""
    n = Kc.shape[0]
    shifted = Mc * -shift
    shifted += Kc
    sytrf, sytrs = scipy.linalg.lapack.get_lapack_funcs(("sytrf", "sytrs"), (shifted,))
    # shifted is symmetric, so its transpose is the Fortran-ordered array
    # that sytrf overwrites with the factor instead of copying it
    ldu, ipiv, info = sytrf(shifted.T, lower=1, overwrite_a=1)
    if info != 0:
        raise NonConvergenceError(f"singular factor at pivot {info}")
    count = _negative_pivots(ldu, ipiv)
    if not n_eigs <= count <= min(N_EIGS_MAX, n - 2):
        raise NonConvergenceError(f"count {count} outside {n_eigs}..{min(N_EIGS_MAX, n - 2)}")
    # fixed start block, so that repeated runs give bit-identical results
    X = np.cos(np.outer(np.linspace(0.0, math.pi, n), np.arange(count + 2)))
    mu, X, eta = _rayleigh_ritz_refine(
        lambda B: sytrs(ldu, ipiv, B, lower=1)[0], Kc, Mc, X, n_eigs, norms, _SLICE_MAXITER
    )
    if not np.all(eta <= 0.1 * DEFAULT_TOL):
        raise NonConvergenceError(f"backward error {eta.max():.3e} after {_SLICE_MAXITER} steps")
    below = int(np.count_nonzero(mu < shift))
    if below != count:
        raise NonConvergenceError(f"{below} Ritz values below the shift, count {count}")
    return mu[:n_eigs], X[:, :n_eigs]


def _rayleigh_ritz_refine(solve, Kc, Mc, X, n_eigs, norms, steps):
    """Subspace iteration with Rayleigh-Ritz projection on the pencil (Kc, Mc).

    `solve` applies the inverse of a factored shifted pencil Kc - s Mc to a
    block.  Each step orthonormalizes solve(Mc X) by QR (LAPACK ?geqrf and
    ?orgqr) and replaces X by the Ritz vectors of the projected pencil
    (`_projected_pairs`), which are Mc-orthonormal.  The step damps the
    block toward the eigenvectors nearest s and, from a converged start,
    squares the eigenvector error.  The iteration stops once the n_eigs
    smallest pairs' backward errors are at most DEFAULT_TOL / 10, or after
    `steps` steps.  Returns every Ritz value in ascending order, the Ritz
    vectors and the n_eigs smallest pairs' backward errors; a failed
    projected solve raises NonConvergenceError.

    From the second step on, the blocks handed to `solve` and to the QR are
    Fortran-ordered, the layout LAPACK reads without a copy.
    """
    want = slice(n_eigs)
    MX = Mc @ X
    for _ in range(steps):
        qr, tau = _GEQRF(solve(MX), overwrite_a=1)[:2]
        Q = _ORGQR(qr, tau, overwrite_a=1)[0]
        KQ, MQ = Kc @ Q, Mc @ Q
        mu, Y = _projected_pairs(Q.T @ KQ, Q.T @ MQ)
        X, MX = Q @ Y, np.matmul(MQ, Y, order="F")
        eta = _backward_errors(KQ @ Y[:, want], MX[:, want], mu[want], X[:, want], norms)
        if np.all(eta <= 0.1 * DEFAULT_TOL):
            break
    return mu, X, eta


def _projected_pairs(A, B):
    """Every eigenpair of the small definite pencil (A, B), read from the
    lower triangles, with ascending values and B-orthonormal vectors (LAPACK
    ?sygv).  Raises NonConvergenceError when ?sygv reports a failure, such
    as an indefinite B, or returns a value that is not finite."""
    mu, Y, info = _SYGV(A, B)
    if info != 0:
        raise NonConvergenceError(f"projected solve failed: ?sygv info {info}")
    if not (np.isfinite(mu).all() and np.isfinite(Y).all()):
        raise NonConvergenceError("projected solve failed: a result is not finite")
    return mu, Y


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
    ks = [as_index(k, "eigenvalue index") for k in ks]
    if as_index(refinements, "refinements") < 2:
        raise ValueError("need at least 2 refinements for h, h/2, h/4 meshes")
    mesh = geometry.triangulate(spec, dirichlet)
    for _ in range(refinements - 2):
        mesh = geometry.refine_mesh(mesh)
    ladder = [mesh]
    for _ in range(2):
        ladder.append(geometry.refine_mesh(ladder[-1]))
    offset = int(geometry.DIRICHLET in mesh.boundary_markers)
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
    return _extrapolate(spec, range(1, as_index(k_max, "k_max") + 1), refinements, False)


def dirichlet_lambda_k(spec: DomainSpec, k: int, refinements: int = 3) -> ExtrapolationResult:
    """Extrapolated k-th Dirichlet eigenvalue (k >= 1), all markers Dirichlet."""
    return _extrapolate(spec, [k], refinements, True)[0]


def dirichlet_spectrum(spec: DomainSpec, k_max: int, refinements: int = 3) -> list:
    """Extrapolated lambda_1..lambda_k_max from a single mesh ladder."""
    return _extrapolate(spec, range(1, as_index(k_max, "k_max") + 1), refinements, True)
