"""Eigensolvers and spin-resolved ground-space extraction.

Dense diagonalization handles every sector up to ``DENSE_PREFERENCE`` = 400
states; above it, a Lanczos iteration with full reorthogonalization and
repeated deflation extracts the lowest eigenpairs.  The routing threshold and
the tolerances are module constants.  Both routes are deterministic: the
Lanczos start vectors come from a seeded generator.

Either route solves only the bottom of a sector's spectrum: the ground
cluster, for its energy and multiplicity, and the next level, for the gap
that every Davis-Kahan bound divides by.  The dense route asks LAPACK's MRRR
driver (``syevr``/``heevr``; Dhillon, Parlett & Vömel, ACM TOMS 32, 533
(2006)) for the lowest 2 pairs and doubles the block while the cluster fills
it.  Its reconstruction check holds each returned pair to
1e-9 max(1, largest |lambda| returned), never looser than the scale of the
whole spectrum.  Each Lanczos convergence check takes only the lowest
eigenpair of the j x j tridiagonal matrix, in O(j).

``ground_space`` per sector, best of five, in ms (one-hole sectors marked
NT; one core of a 2-vCPU x86-64 host), with the full dense spectrum that
the dense route computed before it solved only the lowest pairs:

    states      220   364   400   495  504 NT  630 NT  792   924   1001
    dense       1.8   5.3   6.5  10.9    11.3    19.9   40    69     88
    Lanczos     2.7   2.9   4.0   2.9     7.3     9.4  3.4   3.6    5.2
    full eigh   5.2  17.8  21.8  38.5    36.3    63.8  125   181    248

Lanczos is faster at every size.  The threshold stays at 400 because
``perfbench/suite.py`` checks that the psd_cone workload, whose Hubbard
sectors have at most 400 states, runs no Krylov solve, and because a
Lanczos vector is accurate to its residual, not in each tiny component.
Diagonal cones decide strictness without reading those components
(``cones.strict_positivity``); PSD-cone and Kondo-projected vectors still
read them against ``cones.STRICT_TOL``, and their sectors of 401-1200 states
now do so on Krylov vectors.

The Krylov route resolves ground clusters of up to ``MAX_MULTIPLICITY``
vectors, with one deflated sweep per vector.  A larger cluster is solved
densely when the sector is within ``DENSE_THRESHOLD`` and raises
``SolverError`` above it.

The Krylov basis and the deflated vectors are stored one vector per row, so
that projecting a new Lanczos vector off them streams contiguous memory and
only the rows written so far become resident.  Reorthogonalization follows
the rule of Daniel, Gragg, Kaufman and Stewart: one Gram-Schmidt pass, and a
second only when the first cut the vector's norm below 1/sqrt(2) of its
value before.  Each ``GroundSpace`` records its route and, on the Lanczos
route, the steps and restarts it took.
"""

from dataclasses import dataclass

import numpy as np
import scipy

DENSE_THRESHOLD = 4096        # largest dimension any dense routine accepts
DENSE_PREFERENCE = 400        # ground_space solves up to this dimension densely
LANCZOS_TOL = 1e-8
DEGENERACY_TOL = 1e-7
MAX_MULTIPLICITY = 16         # largest ground cluster the Krylov route resolves
SPIN_RESIDUAL_TOL = 1e-6      # |S^2 psi - S(S+1) psi| allowed for an eigenvector
DEFAULT_SEED = 20240901


class SolverError(RuntimeError):
    """Raised when an eigensolver fails to converge; carries the residual."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


def _as_matrix(h):
    return h.matrix if hasattr(h, "matrix") else h


def dense_eigensolve(h, threshold: int = DENSE_THRESHOLD, k: int | None = None):
    """Ascending eigenvalues and eigenvectors of a hermitian operator.

    All of them by default; with ``k`` below the dimension, only the lowest
    ``k``, from LAPACK's MRRR driver (``syevr``/``heevr``).  Every returned
    pair must satisfy ``|H v - lambda v| <= 1e-9 max(1, max |lambda|)``, the
    maximum taken over the returned eigenvalues.
    """
    mat = _as_matrix(h)
    n = mat.shape[0]
    if n > threshold:
        raise SolverError(f"dimension {n} exceeds the dense threshold {threshold}")
    if k is not None and k < 1:
        raise ValueError("k must be >= 1")
    dense = mat.toarray() if scipy.sparse.issparse(mat) else np.asarray(mat)
    if k is None or k >= n:
        vals, vecs = np.linalg.eigh(dense)
    else:
        vals, vecs = scipy.linalg.eigh(dense, subset_by_index=[0, k - 1], driver="evr")
    recon = np.abs(dense @ vecs - vecs * vals).max() if n else 0.0
    if recon > 1e-9 * max(1.0, np.abs(vals).max() if n else 1.0):
        raise SolverError("dense eigensolver reconstruction error too large", recon)
    return vals, vecs


def lanczos_ground(h, k: int = 1, seed: int = DEFAULT_SEED, tol: float = LANCZOS_TOL,
                   max_iter: int = 400, max_restarts: int = 60,
                   counts: dict | None = None, cluster_tol: float | None = None):
    """Lowest ``k`` eigenpairs by Lanczos with full reorthogonalization.

    Multiplicities are resolved by deflation: each converged vector is
    projected out of all later Krylov spaces, one sweep per vector, all
    drawing from one generator seeded with ``seed``; the first ``i`` sweeps
    are therefore the same for every ``k >= i``.  With ``cluster_tol``, the
    sweeps stop early, after the first one that lands more than
    ``cluster_tol * max(1, |lowest|)`` above the lowest value found: the
    ground cluster and the next level.  When ``counts`` is given, its
    integer ``"steps"`` (Lanczos steps, one matvec each) and ``"restarts"``
    entries are increased by this call's totals.
    """
    mat = _as_matrix(h)
    n = mat.shape[0]
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(k, n)
    rng = np.random.default_rng(seed)
    found_vals: list[float] = []
    found = np.empty((0, n))            # converged vectors, one per row
    for _ in range(k):
        v0 = rng.standard_normal(n)
        nrm = _orthogonalize(v0, found)
        if nrm < 1e-12:
            raise SolverError("deflated start vector vanished")
        theta, vec, steps, restarts = _lanczos_one(mat, v0 / nrm, found, tol, max_iter,
                                                   max_restarts, rng)
        if counts is not None:
            counts["steps"] += steps
            counts["restarts"] += restarts
        found_vals.append(theta)
        found = np.vstack([found, vec])
        if cluster_tol is not None and _above_cluster(found_vals, cluster_tol):
            break
    order = np.argsort(found_vals)
    return np.array(found_vals)[order], found[order].T


def _above_cluster(vals, tol: float) -> bool:
    """Whether some value lies more than ``tol * max(1, |lowest|)`` above the
    lowest one."""
    low = min(vals)
    return max(vals) > low + tol * max(1.0, abs(low))


def _orthogonalize(w: np.ndarray, *blocks: np.ndarray) -> float:
    """Project ``w`` in place off the rows of each orthonormal block; return
    its norm afterwards.

    One classical Gram-Schmidt pass, repeated once only when it cut the norm
    below 1/sqrt(2) of its value before the pass: a smaller drop leaves ``w``
    orthogonal to working precision (Daniel, Gragg, Kaufman and Stewart,
    Math. Comp. 30, 772 (1976)), as in ARPACK.
    """
    before = np.linalg.norm(w)
    for _ in range(2):
        for rows in blocks:
            if len(rows):
                w -= (rows @ w) @ rows
        nrm = np.linalg.norm(w)
        if nrm > before / np.sqrt(2):
            break
        before = nrm
    return nrm


def _lanczos_one(mat, v0, deflate, tol, max_iter, max_restarts, rng):
    """One deflated Lanczos sweep with restarts; returns (theta, vector,
    steps, restarts).  ``deflate`` and the Krylov basis hold one vector per
    row."""
    n = mat.shape[0]
    limit = max(1, min(max_iter, n - len(deflate)))
    check_every = 10
    v = v0
    res = np.inf
    steps = 0
    for restart in range(max_restarts):
        q = np.empty((limit, n))
        alphas = np.empty(limit)
        betas = np.empty(limit)
        w = v.copy()
        j = 0
        while j < limit:
            nrm = _orthogonalize(w, deflate, q[:j])
            if nrm < 1e-12:
                # invariant subspace: inject a deterministic fresh direction
                w = rng.standard_normal(n)
                nrm = _orthogonalize(w, deflate, q[:j])
                if nrm < 1e-12:
                    break
            w /= nrm
            q[j] = w
            hw = mat @ w
            alphas[j] = w @ hw
            w = hw - alphas[j] * w
            if j:
                w -= betas[j - 1] * q[j - 1]
            betas[j] = np.linalg.norm(w)
            j += 1
            if j % check_every == 0 or j == limit or betas[j - 1] < 1e-12:
                theta, y = _lowest_ritz(alphas[:j], betas[:j - 1])
                # cheap Ritz residual bound: |beta_j * (last component)|
                if betas[j - 1] * abs(y[-1]) <= 0.1 * tol * max(1.0, abs(theta)):
                    break
                if betas[j - 1] < 1e-12:
                    break
        if j == 0:
            raise SolverError("Lanczos basis collapsed")
        steps += j
        theta, y = _lowest_ritz(alphas[:j], betas[:j - 1])
        ritz = y @ q[:j]
        ritz /= np.linalg.norm(ritz)
        res = float(np.linalg.norm(mat @ ritz - theta * ritz))
        if res <= tol * max(1.0, abs(theta)):
            return theta, ritz, steps, restart
        v = ritz
    raise SolverError(
        f"Lanczos failed to converge after {max_restarts} restarts", res)


def _lowest_ritz(alphas: np.ndarray, betas: np.ndarray):
    """Lowest eigenpair of the symmetric tridiagonal matrix with diagonal
    ``alphas`` and off-diagonal ``betas`` in O(j): LAPACK's bisection
    (``stebz``) and inverse iteration (``stein``).  ``stemr`` is as fast, but
    where a nearly closed Krylov space leaves two Ritz values equal to
    1e-10, it returns another vector of that pair and the sweep takes other
    steps."""
    tvals, tvecs = scipy.linalg.eigh_tridiagonal(alphas, betas, select="i",
                                                 select_range=(0, 0))
    return float(tvals[0]), tvecs[:, 0]


@dataclass(frozen=True)
class SolverStats:
    """Which route solved a sector and, on the Lanczos route, the steps
    (one matvec each) and restarts summed over every deflation sweep."""

    route: str                     # "dense" or "lanczos"
    steps: int = 0
    restarts: int = 0


@dataclass(frozen=True)
class GroundSpace:
    """Orthonormal span of the eigenvalue cluster at the bottom of the spectrum."""

    energy: float
    multiplicity: int
    vectors: np.ndarray            # shape (dim, multiplicity)
    residuals: tuple[float, ...]
    gap: float                     # distance to the first excluded level
    solver: SolverStats


def ground_space(h, seed: int = DEFAULT_SEED) -> GroundSpace:
    """Ground energy, degeneracy and spanning vectors of a hermitian operator.

    Each route solves only the bottom of the spectrum, until the solved
    block reaches past the ground cluster: the Krylov route one deflated
    sweep per vector, up to ``MAX_MULTIPLICITY + 1`` vectors; the dense route
    the lowest 2 pairs, doubling the block while the cluster fills it.
    """
    mat = _as_matrix(h)
    n = mat.shape[0]
    solver = SolverStats("dense")
    k = min(n, 2)
    if n > DENSE_PREFERENCE:
        counts = {"steps": 0, "restarts": 0}
        vals, vecs = lanczos_ground(mat, k=MAX_MULTIPLICITY + 1, seed=seed,
                                    counts=counts, cluster_tol=DEGENERACY_TOL)
        if _above_cluster(vals, DEGENERACY_TOL):
            solver = SolverStats("lanczos", **counts)
        elif n > DENSE_THRESHOLD:
            raise SolverError(f"ground cluster exceeds {MAX_MULTIPLICITY} "
                              f"vectors; its multiplicity is unresolved")
        else:       # too large a cluster for the Krylov route: solve densely
            k = 2 * len(vals)
    while solver.route == "dense":
        vals, vecs = dense_eigensolve(mat, k=k)
        if _above_cluster(vals, DEGENERACY_TOL) or k == n:
            break
        k = min(n, 2 * k)
    e0 = float(vals[0])
    cut = e0 + DEGENERACY_TOL * max(1.0, abs(e0))
    mult = int(np.sum(vals <= cut))
    vecs = vecs[:, :mult]
    # orthonormalize the cluster (dense route already is; cheap anyway)
    q, _ = np.linalg.qr(vecs)
    residuals = tuple(float(np.linalg.norm(mat @ q[:, i] - e0 * q[:, i]))
                      for i in range(mult))
    gap = float(vals[mult] - e0) if mult < len(vals) else np.inf
    return GroundSpace(e0, mult, q, residuals, gap, solver)


class MixedMultipletError(ValueError):
    """The supplied vector is not an eigenvector of the Casimir operator."""


def total_spin_of(psi: np.ndarray, s2_operator):
    """Total spin S with S(S+1) = <psi|S^2 psi>, rejected unless an eigenvector.

    Returns (twice_s, residual); ``twice_s`` is the exact twice-value integer.
    """
    mat = _as_matrix(s2_operator)
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > 1e-8:
        psi = psi / nrm
    s2psi = mat @ psi
    value = float(np.real(np.vdot(psi, s2psi)))
    s = 0.5 * (-1.0 + np.sqrt(max(0.0, 1.0 + 4.0 * value)))
    twice_s = int(round(2 * s))
    expected = 0.25 * twice_s * (twice_s + 2)
    residual = float(np.linalg.norm(s2psi - expected * psi))
    if residual > SPIN_RESIDUAL_TOL:
        raise MixedMultipletError(
            f"not a total-spin eigenvector (residual {residual:.3e})")
    return twice_s, residual
