"""Eigensolvers and spin-resolved ground-space extraction.

Dense diagonalization handles every sector up to ``DENSE_PREFERENCE`` = 400
states; above it, a Lanczos iteration with full reorthogonalization and
repeated deflation extracts the lowest eigenpairs.  The routing threshold and
the tolerances are module constants.  Both routes are deterministic: the
Lanczos start vectors come from a seeded generator.

``ground_space`` per sector, best of five, dense / Lanczos in ms (one-hole
sectors marked NT):

    states   220   364   400   495   504 NT  630 NT  792   924   1001
    dense    5.4  15.3    18  30.6    27.7      50    89   145    163
    Lanczos  4.4   6.7    10   4.9    27.1      34   5.4   5.1    9.9

Lanczos is already faster at 220 and 364 states.  The threshold stays at 400
because ``perfbench/suite.py`` checks that the psd_cone workload, whose
Hubbard sectors have at most 400 states, runs no Krylov solve, and because a
Lanczos vector is accurate to its residual, not in each tiny component.
Diagonal cones decide strictness without reading those components
(``cones.strict_positivity``); PSD-cone and Kondo-projected vectors still
read them against ``cones.STRICT_TOL``, and their sectors of 401-1200 states
now do so on Krylov vectors.

The Krylov route resolves ground clusters of up to ``MAX_MULTIPLICITY``
vectors.  A larger cluster is solved densely when the sector is within
``DENSE_THRESHOLD`` and raises ``SolverError`` above it.

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


def dense_eigensolve(h, threshold: int = DENSE_THRESHOLD):
    """Full ascending spectrum and eigenvectors of a hermitian operator."""
    mat = _as_matrix(h)
    n = mat.shape[0]
    if n > threshold:
        raise SolverError(f"dimension {n} exceeds the dense threshold {threshold}")
    dense = mat.toarray() if scipy.sparse.issparse(mat) else np.asarray(mat)
    vals, vecs = np.linalg.eigh(dense)
    recon = np.abs(dense @ vecs - vecs * vals).max() if n else 0.0
    if recon > 1e-9 * max(1.0, np.abs(vals).max() if n else 1.0):
        raise SolverError("dense eigensolver reconstruction error too large", recon)
    return vals, vecs


def lanczos_ground(h, k: int = 1, seed: int = DEFAULT_SEED, tol: float = LANCZOS_TOL,
                   max_iter: int = 400, max_restarts: int = 60,
                   counts: dict | None = None):
    """Lowest ``k`` eigenpairs by Lanczos with full reorthogonalization.

    Multiplicities are resolved by deflation: each converged vector is
    projected out of all later Krylov spaces.  Deterministic for a fixed seed.
    When ``counts`` is given, its integer ``"steps"`` (Lanczos steps, one
    matvec each) and ``"restarts"`` entries are increased by this call's
    totals.
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
    order = np.argsort(found_vals)
    return np.array(found_vals)[order], found[order].T


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
                tvals, tvecs = _tridiag_eigh(alphas[:j], betas[:j - 1])
                # cheap Ritz residual bound: |beta_j * (last component)|
                if betas[j - 1] * abs(tvecs[-1, 0]) <= 0.1 * tol * max(1.0, abs(tvals[0])):
                    break
                if betas[j - 1] < 1e-12:
                    break
        if j == 0:
            raise SolverError("Lanczos basis collapsed")
        steps += j
        tvals, tvecs = _tridiag_eigh(alphas[:j], betas[:j - 1])
        theta = float(tvals[0])
        ritz = tvecs[:, 0] @ q[:j]
        ritz /= np.linalg.norm(ritz)
        res = float(np.linalg.norm(mat @ ritz - theta * ritz))
        if res <= tol * max(1.0, abs(theta)):
            return theta, ritz, steps, restart
        v = ritz
    raise SolverError(
        f"Lanczos failed to converge after {max_restarts} restarts", res)


def _tridiag_eigh(alphas: np.ndarray, betas: np.ndarray):
    tri = np.diag(alphas)
    for i in range(len(betas)):
        tri[i, i + 1] = tri[i + 1, i] = betas[i]
    return np.linalg.eigh(tri)


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
    """Ground energy, degeneracy and spanning vectors of a hermitian operator."""
    mat = _as_matrix(h)
    n = mat.shape[0]
    solver = SolverStats("dense")
    if n > DENSE_PREFERENCE:
        counts = {"steps": 0, "restarts": 0}
        k = min(n, 2)
        while True:
            vals, vecs = lanczos_ground(mat, k=k, seed=seed, counts=counts)
            cut = vals[0] + DEGENERACY_TOL * max(1.0, abs(vals[0]))
            if vals[-1] > cut or k == n:
                solver = SolverStats("lanczos", **counts)
                break
            if k > MAX_MULTIPLICITY:
                if n > DENSE_THRESHOLD:
                    raise SolverError(f"ground cluster exceeds {MAX_MULTIPLICITY} "
                                      f"vectors; its multiplicity is unresolved")
                break       # too large a cluster for the Krylov route: solve densely
            k = min(n, MAX_MULTIPLICITY + 1, 2 * k)
    if solver.route == "dense":
        vals, vecs = dense_eigensolve(mat)
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
