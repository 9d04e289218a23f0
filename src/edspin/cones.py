"""Finite-dimensional self-dual cones and the order-preservation checks.

Two kinds of cone occur.  A *diagonal* cone is the nonnegative orthant in a
distinguished signed basis (the |X, Xbar>-type vectors at half filling on the
exchange-coupled models, the one-hole |sigma> vectors, and the doubled-site
analogue for the two-species model).  A *PSD-matrix* cone collects vectors
whose coefficient array over (row set, column set) labels is a positive
semi-definite matrix; it is the half-filled itinerant-model cone.

Both are self-dual.  For diagonal cones positivity preservation of a matrix
is equivalent to entrywise nonnegativity and can be tested exactly; the
semigroup e^{-tH} preserves the cone for every t iff H has nonpositive
off-diagonal entries in the distinguished basis (Metzler form), and is
ergodic iff additionally the off-diagonal support graph is irreducible.  The
ergodicity test reads both conditions off the stored entries of the sparse
matrix S H S, S = diag(signs), and counts components with a sparse graph
search; it never forms a dense copy.

Strict positivity of a diagonal-cone sector ground vector is decided by a
certified Perron-Frobenius margin, not by the vector's raw coefficients,
whose tiny entries a Krylov solver only knows to its residual.  With
B = S H S Metzler and irreducible, sigma = max diag(B) + max(1, |E0|) makes
sigma I - B entrywise nonnegative and primitive, and the iteration
x <- (sigma I - B) x / |.|, started from the solved vector with its negative
entries clipped to zero, never subtracts: each entry keeps its relative
accuracy (Faris, J. Math. Phys. 13, 1285 (1972)).  The refined vector is accepted only when it lies within
2 max(residual) / gap (plus roundoff) of the solved vector, the Davis-Kahan
bound on the solved vector's distance from the true ground vector (Davis &
Kahan, SIAM J. Numer. Anal. 7, 1 (1970)); the margin is its least entry.
Vectors that are no sector's eigenvector (projections, order units) and PSD
cones keep the raw test against ``STRICT_TOL``.

For PSD-matrix cones map positivity is only sampled: the sampled cone
members are the columns of one block R, and every sampled overlap is an
entry of the Gram matrix R^H A R.  For the semigroup, A R = e^{-beta H} R
at both times of ``SEMIGROUP_BETAS`` comes from one ``expm_multiply`` call
on an evenly spaced time grid (Al-Mohy & Higham, SIAM J. Sci. Comput. 33,
488 (2011)), without a dense exponential; the norm estimate that picks its
step count is made once per sector, not once per time.  The load-bearing
claims (uniqueness and strict positivity of sector ground vectors) are
checked exactly and reported as consequence-verified.

The checks that work on dense arrays (``conjugate_matrix`` and what calls
it, and the sampled positivity check) refuse dimensions above
``spectra.DENSE_THRESHOLD`` before they allocate them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .fock import (SectorBasis, hubbard_labels, hubbard_sign_table,
                   kondo_labels, kondo_sign_table, mlm_sign_table,
                   nt_sign_table)
from .operators import SparseOperator, embed_isometry, nesting_projection
from .spectra import DENSE_THRESHOLD, GroundSpace, ground_space

STRICT_TOL = 1e-10
SAMPLE_COUNT = 200
SEMIGROUP_BETAS = (0.1, 1.0)  # sampled semigroup times: both ends of one time grid
SAMPLE_SEED = 7
EDGE_TOL = 1e-12
PERRON_RTOL = 1e-9       # refinement stops once min x moves less than this, relative
PERRON_MAX_STEPS = 200   # step cap of the refinement


def _operator_matrix(a):
    """The matrix of an operator: sparse as given, anything else as an array."""
    mat = a.matrix if isinstance(a, SparseOperator) else a
    return mat if scipy.sparse.issparse(mat) else np.asarray(mat)


def _check_dense_size(dim: int, what: str) -> None:
    if dim > DENSE_THRESHOLD:
        raise ValueError(f"{what}: dimension {dim} is above the dense limit "
                         f"{DENSE_THRESHOLD}")


@dataclass(frozen=True)
class DiagonalCone:
    """Nonnegative-coefficient cone in a distinguished signed basis."""

    signs: np.ndarray
    basis: SectorBasis | None = None
    name: str = "diagonal"

    @property
    def dim(self) -> int:
        return len(self.signs)

    def to_distinguished(self, psi: np.ndarray) -> np.ndarray:
        return self.signs * psi

    def order_unit(self) -> np.ndarray:
        """The uniform vector: every distinguished coefficient equal to one."""
        return self.signs.astype(float).copy()

    def conjugate_matrix(self, a) -> np.ndarray:
        """Dense matrix of ``a`` in the distinguished basis (diagonal sign flip)."""
        _check_dense_size(self.dim, "conjugate_matrix")
        mat = _operator_matrix(a)
        dense = mat.toarray() if scipy.sparse.issparse(mat) else mat
        return self.signs[:, None] * dense * self.signs[None, :]

    def conjugate_sparse(self, a) -> scipy.sparse.csr_matrix:
        """S a S with S = diag(signs), as canonical (sorted, summed) CSR."""
        mat = scipy.sparse.csr_matrix(_operator_matrix(a))
        if not mat.has_canonical_format:
            mat = mat.copy()
            mat.sum_duplicates()
        rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
        data = self.signs[rows] * mat.data * self.signs[mat.indices]
        return scipy.sparse.csr_matrix((data, mat.indices, mat.indptr), shape=mat.shape)


@dataclass(frozen=True)
class PSDMatrixCone:
    """Cone of vectors whose zero-padded coefficient array is PSD."""

    signs: np.ndarray
    row_labels: tuple[int, ...]
    col_labels: tuple[int, ...]
    pairs: tuple[np.ndarray, np.ndarray]   # (row, column) positions per basis index
    basis: SectorBasis | None = None
    name: str = "psd-matrix"

    @property
    def dim(self) -> int:
        return len(self.signs)

    def coefficient_matrix(self, psi: np.ndarray) -> np.ndarray:
        a = np.zeros((len(self.row_labels), len(self.col_labels)), dtype=psi.dtype)
        a[self.pairs] = self.signs * psi
        return a

    def vector_of_matrix(self, a: np.ndarray) -> np.ndarray:
        return self.signs * a[self.pairs]

    def order_unit(self) -> np.ndarray:
        """Coefficient array equal to the identity on the diagonal labels."""
        rows, cols = self.pairs
        return self.signs * (np.array(self.row_labels)[rows]
                             == np.array(self.col_labels)[cols])

    def label_units(self) -> list[np.ndarray]:
        """The members with coefficient array one on a single diagonal label
        and zero elsewhere, in label order."""
        _, rows, cols = np.intersect1d(self.row_labels, self.col_labels,
                                       return_indices=True)
        out = []
        for r, c in zip(rows, cols):
            a = np.zeros((len(self.row_labels), len(self.col_labels)))
            a[r, c] = 1.0
            out.append(self.vector_of_matrix(a))
        return out


Cone = DiagonalCone | PSDMatrixCone


def trivial_diagonal_cone(dim: int) -> DiagonalCone:
    return DiagonalCone(np.ones(dim), None, "orthant")


# cone constructors ----------------------------------------------------------

def mlm_cone(basis: SectorBasis, part_b_mask: int | None = None) -> DiagonalCone:
    return DiagonalCone(np.array(mlm_sign_table(basis, part_b_mask), dtype=float),
                        basis, "half-filled-diagonal")


def nt_cone(basis: SectorBasis) -> DiagonalCone:
    return DiagonalCone(np.array(nt_sign_table(basis), dtype=float),
                        basis, "one-hole-diagonal")


def _psd_cone(row_keys, col_keys, signs, basis: SectorBasis, name: str
              ) -> PSDMatrixCone:
    rows, pair_rows = np.unique(row_keys, return_inverse=True)
    cols, pair_cols = np.unique(col_keys, return_inverse=True)
    return PSDMatrixCone(np.array(signs, dtype=float), tuple(rows.tolist()),
                         tuple(cols.tolist()), (pair_rows, pair_cols), basis, name)


def hubbard_cone(basis: SectorBasis) -> PSDMatrixCone:
    x, y = hubbard_labels(basis)
    return _psd_cone(x, y, hubbard_sign_table(basis), basis, "half-filled-psd")


def kondo_cone(basis: SectorBasis, coupling_sign: str) -> PSDMatrixCone:
    u, v = kondo_labels(basis)
    return _psd_cone(u, v, kondo_sign_table(basis, coupling_sign),
                     basis, f"kondo-psd-{coupling_sign}")


def kondo_diagonal_restriction(basis: SectorBasis, coupling_sign: str
                               ) -> tuple[np.ndarray, DiagonalCone]:
    """Indices of the singly-occupied-conduction states and the diagonal cone
    they span (the doubled-site half-filled cone)."""
    up, dn = basis.fields()[:2]
    idx = np.flatnonzero(((up | dn) == (1 << basis.n_sites) - 1) & ((up & dn) == 0))
    signs = np.array(kondo_sign_table(basis, coupling_sign), dtype=float)[idx]
    return idx, DiagonalCone(signs, None, f"kondo-diagonal-{coupling_sign}")


# membership and gauges ------------------------------------------------------

def _imag_excess(psi: np.ndarray) -> float:
    return float(np.abs(psi.imag).max()) if np.iscomplexobj(psi) and psi.size else 0.0


def membership(psi: np.ndarray, cone: Cone, tol: float = STRICT_TOL
               ) -> tuple[bool, float]:
    """(is member, margin); margin is the minimal coefficient or eigenvalue."""
    if psi.shape[0] != cone.dim:
        raise ValueError("dimension mismatch")
    if isinstance(cone, DiagonalCone):
        dist = cone.to_distinguished(psi)
        margin = float(dist.real.min())
        ok = margin >= -tol and _imag_excess(dist) <= tol
        return ok, margin
    a = cone.coefficient_matrix(psi)
    herm_dev = float(np.abs(a - a.conj().T).max())
    margin = float(np.linalg.eigvalsh(0.5 * (a + a.conj().T)).min())
    return (herm_dev <= max(tol, 1e-8) and margin >= -tol), margin


@dataclass(frozen=True)
class StrictnessVerdict:
    ok: bool
    margin: float                  # least coefficient or eigenvalue
    steps: int                     # Perron-Frobenius refinement steps (0: raw test)
    bound: float                   # accuracy bound the decision relied on


def strict_positivity(psi: np.ndarray, cone: Cone, tol: float = STRICT_TOL, *,
                      h=None, ground: GroundSpace | None = None,
                      ergodic: "ErgodicityVerdict | None" = None
                      ) -> StrictnessVerdict:
    """Strict positivity of a cone vector.

    Given the sector operator ``h`` and the solved ``ground`` space that the
    gauge-fixed ``psi`` came from, a diagonal cone takes the certified
    Perron-Frobenius rule (module docstring), whose bound is the agreement
    bound; ``ergodic`` is the sector's ergodicity verdict when already made.
    Anything else is a member whose least coefficient or eigenvalue exceeds
    ``tol``, which is then the bound.
    """
    if isinstance(cone, DiagonalCone) and ground is not None:
        return _perron_strictness(psi, cone, h, ground, ergodic, tol)
    member, margin = membership(psi, cone, tol)
    return StrictnessVerdict(member and margin > tol, margin, 0, tol)


def _perron_strictness(psi: np.ndarray, cone: DiagonalCone, h, ground: GroundSpace,
                       ergodic: "ErgodicityVerdict | None", tol: float
                       ) -> StrictnessVerdict:
    """The Perron-Frobenius refinement of the solved vector ``psi`` in the
    distinguished basis."""
    solved = cone.to_distinguished(psi)
    bound = 2 * max(ground.residuals) / ground.gap if np.isfinite(ground.gap) else 0.0
    if ergodic is None:
        ergodic = ergodicity(h, cone, tol)
    if not ergodic.ok:
        return StrictnessVerdict(False, float(solved.real.min()), 0, bound)
    b = cone.conjugate_sparse(h)
    n = b.shape[0]
    # the shift puts sigma strictly above max diag(B), so sigma I - B is
    # primitive: its Perron root sigma - E0 strictly dominates every other
    # eigenvalue in modulus.  The positive off-diagonals that the Metzler
    # test accepts up to tol are clipped, so no step subtracts.
    sigma = float(b.diagonal().real.max()) + max(1.0, abs(ground.energy))
    m = sigma * scipy.sparse.identity(n, format="csr") - b.real
    m.data = np.maximum(m.data, 0.0)
    x = np.maximum(solved.real, 0.0)
    x /= np.linalg.norm(x)
    low, steps = float(x.min()), 0
    while n > 1 and steps < PERRON_MAX_STEPS:
        x = m @ x
        x /= np.linalg.norm(x)
        steps += 1
        low, before = float(x.min()), low
        if low > 0 and abs(low - before) <= PERRON_RTOL * low:
            break
    # each step sums at most (row length) nonnegative terms
    bound += (steps + 1) * max(1, int(np.diff(m.indptr).max())) * np.finfo(float).eps
    return StrictnessVerdict(bool(low > 0 and np.linalg.norm(x - solved) <= bound),
                             low, steps, bound)


def gauge_fix(psi: np.ndarray, cone: Cone) -> np.ndarray:
    """Multiply by the unit phase making the order-unit overlap real positive."""
    xi = cone.order_unit()
    overlap = np.vdot(xi, psi)
    if abs(overlap) < 1e-12 * max(1.0, float(np.linalg.norm(psi))):
        raise ValueError("gauge undefined: zero overlap with the order unit")
    return psi * (overlap.conjugate() / abs(overlap))


def modular_conjugation(psi: np.ndarray, cone: Cone) -> np.ndarray:
    """Componentwise conjugation in the distinguished basis (antilinear involution)."""
    return cone.signs * np.conj(cone.signs * psi)


# positivity preservation ----------------------------------------------------

@dataclass(frozen=True)
class PreservationVerdict:
    preserving: bool
    mode: str                      # "exact" or "sampled"
    margin: float
    witness: str | None = None

    def to_dict(self) -> dict:
        d = {"preserving": self.preserving, "mode": self.mode, "margin": self.margin}
        if self.witness:
            d["witness"] = self.witness
        return d


def _sample_psd_members(cone: PSDMatrixCone, count: int, seed: int) -> np.ndarray:
    """Rank-one label outer products plus random mixed-rank PSD arrays, as the
    columns of one block."""
    rng = np.random.default_rng(seed)
    nr = len(cone.row_labels)
    out = cone.label_units()
    for _ in range(count):
        rank = int(rng.integers(1, nr + 1))
        gmat = rng.standard_normal((nr, rank))
        out.append(cone.vector_of_matrix(gmat @ gmat.T))
    return np.column_stack(out)


def _least_sampled_overlap(members: np.ndarray, images: np.ndarray,
                           tol: float) -> tuple[float, str | None]:
    """Least Re <sigma, A rho> over all pairs of sampled members, from the
    Gram block members^H (A members); the witness names the first least
    pair (rho index major) when it lies below -tol."""
    gram = (members.conj().T @ images).real.T      # [rho, sigma]
    k, k2 = np.unravel_index(int(gram.argmin()), gram.shape)
    worst = float(gram[k, k2])
    witness = f"sampled pair ({k}, {k2}) gives overlap {worst:.3e}" if worst < -tol else None
    return worst, witness


def positivity_preserving(a, cone: Cone, tol: float = STRICT_TOL,
                          samples: int = SAMPLE_COUNT, seed: int = SAMPLE_SEED
                          ) -> PreservationVerdict:
    """Does ``a`` map the cone into itself?  Exact for diagonal cones, sampled
    (hence non-exhaustive) for PSD-matrix cones."""
    if isinstance(cone, DiagonalCone):
        b = cone.conjugate_matrix(a)
        margin = float(b.real.min())
        if margin >= -tol and _imag_excess(b) <= tol:
            return PreservationVerdict(True, "exact", margin)
        i, j = np.unravel_index(int(b.real.argmin()), b.shape)
        return PreservationVerdict(False, "exact", margin,
                                   f"negative entry at ({i}, {j})")
    _check_dense_size(cone.dim, "sampled positivity check")
    members = _sample_psd_members(cone, samples, seed)
    worst, witness = _least_sampled_overlap(members, _operator_matrix(a) @ members, tol)
    return PreservationVerdict(worst >= -tol, "sampled", worst, witness)


# ergodicity -----------------------------------------------------------------

@dataclass(frozen=True)
class ErgodicityVerdict:
    verdict: str                   # ergodic | not-ergodic | consequence-verified | consequence-failed
    metzler_margin: float | None = None
    connected: bool | None = None
    strict_margin: float | None = None
    multiplicity: int | None = None
    semigroup_margin: float | None = None
    witness: str | None = None

    @property
    def ok(self) -> bool:
        return self.verdict in ("ergodic", "consequence-verified")

    def to_dict(self) -> dict:
        d = {"verdict": self.verdict}
        for k in ("metzler_margin", "connected", "strict_margin", "multiplicity",
                  "semigroup_margin", "witness"):
            v = getattr(self, k)
            if v is not None:
                d[k] = v
        return d


def _structural_ergodicity(b: scipy.sparse.csr_matrix, tol: float) -> ErgodicityVerdict:
    """Metzler form and irreducibility of ``b`` = S H S, read off its stored
    off-diagonal entries in row-major order.

    The margin is -max(0, largest off-diagonal entry): the unstored entries
    and the diagonal count as zeros, so a Metzler matrix has margin -0.0.
    """
    n = b.shape[0]
    b = b.tocoo()
    off = b.row != b.col
    rows, cols, vals = b.row[off], b.col[off], b.data[off]
    top = max(0.0, float(vals.real.max())) if vals.size else 0.0
    metzler_margin = -top if n else 0.0
    metzler = top <= tol and _imag_excess(vals) <= tol
    edge = np.abs(vals) > EDGE_TOL
    support = scipy.sparse.coo_matrix(
        (np.ones(int(edge.sum())), (rows[edge], cols[edge])), shape=(n, n))
    ncomp = int(scipy.sparse.csgraph.connected_components(support, directed=False)[0])
    connected = ncomp <= 1
    if metzler and connected:
        return ErgodicityVerdict("ergodic", metzler_margin, True)
    reasons = []
    if not metzler:
        if top > 0:     # the row-major first largest entry
            k = int(vals.real.argmax())
            i, j = rows[k], cols[k]
        else:           # only an imaginary part offends; the largest real
            i = j = 0   # part is a zero, first met on the diagonal at (0, 0)
        reasons.append(f"positive off-diagonal at ({i}, {j})")
    if not connected:
        reasons.append(f"off-diagonal support splits into {ncomp} components")
    return ErgodicityVerdict("not-ergodic", metzler_margin, connected,
                             witness="; ".join(reasons))


def ergodicity(h, cone: Cone, tol: float = STRICT_TOL,
               samples: int = 40, seed: int = SAMPLE_SEED,
               ground: GroundSpace | None = None) -> ErgodicityVerdict:
    """Semigroup ergodicity of e^{-t h} with respect to the cone.

    Diagonal cones admit an exact structural test: Metzler off-diagonals
    plus irreducibility, both read off the sparse S h S (connected
    components of its off-diagonal support).  PSD-matrix cones get the
    consequence test: unique sector ground state, strictly positive after
    gauge fixing, plus sampled positivity of the semigroup at the times
    ``SEMIGROUP_BETAS``, whose action on the block of sampled members comes
    from one ``expm_multiply`` call.  ``ground`` is the sector's
    already-solved ground space; without it the sector is solved here.
    """
    mat = _operator_matrix(h)
    if isinstance(cone, DiagonalCone):
        return _structural_ergodicity(cone.conjugate_sparse(mat), tol)
    # consequence route
    gs = ground_space(mat) if ground is None else ground
    if gs.multiplicity != 1:
        return ErgodicityVerdict("consequence-failed", multiplicity=gs.multiplicity,
                                 witness="sector ground state is degenerate")
    psi = gauge_fix(gs.vectors[:, 0], cone)
    strict = strict_positivity(psi, cone, tol)
    ok, margin = strict.ok, strict.margin
    members = _sample_psd_members(cone, samples, seed)
    semi_tol = max(tol, 1e-8)
    semi_margin = np.inf
    start, stop = SEMIGROUP_BETAS
    all_images = scipy.sparse.linalg.expm_multiply(-mat, members, start=start, stop=stop,
                                                   num=2, endpoint=True)
    for beta, images in zip(SEMIGROUP_BETAS, all_images):
        worst, witness = _least_sampled_overlap(members, images, semi_tol)
        semi_margin = min(semi_margin, worst)
        if worst < -semi_tol:
            return ErgodicityVerdict("consequence-failed", strict_margin=margin,
                                     multiplicity=1, semigroup_margin=worst,
                                     witness=f"semigroup at beta={beta}: {witness}")
    if not ok:
        return ErgodicityVerdict("consequence-failed", strict_margin=margin,
                                 multiplicity=1, semigroup_margin=float(semi_margin),
                                 witness="ground vector not strictly positive")
    return ErgodicityVerdict("consequence-verified", strict_margin=margin,
                             multiplicity=1, semigroup_margin=float(semi_margin))


# monotonicity ---------------------------------------------------------------

def monotonicity_check(a, c, cone: DiagonalCone, betas=(0.5, 1.0),
                       tol: float = 1e-10) -> tuple[bool, float]:
    """Entrywise e^{-beta (a - c)} >= e^{-beta a} given a Metzler and c >= 0.

    Raises if the preconditions fail; returns (holds, worst margin).
    """
    if not isinstance(cone, DiagonalCone):
        raise ValueError("monotonicity check needs a diagonal cone")
    amat = cone.conjugate_matrix(a)
    cmat = cone.conjugate_matrix(c)
    off = amat - np.diag(np.diag(amat))
    if off.size and off.real.max() > tol:
        raise ValueError("precondition failed: semigroup of A does not preserve the cone")
    if cmat.size and cmat.real.min() < -tol:
        raise ValueError("precondition failed: C does not preserve the cone")
    worst = np.inf
    for beta in betas:
        diff = scipy.linalg.expm(-beta * (amat - cmat)) - scipy.linalg.expm(-beta * amat)
        worst = min(worst, float(diff.real.min()))
    return worst >= -tol, worst


# nesting consistency --------------------------------------------------------

@dataclass(frozen=True)
class NestingVerdict:
    rays_embed: bool
    rays_project: bool
    order_unit_strict: bool
    margin: float

    @property
    def ok(self) -> bool:
        return self.rays_embed and self.rays_project and self.order_unit_strict

    def to_dict(self) -> dict:
        return {"rays_embed": self.rays_embed, "rays_project": self.rays_project,
                "order_unit_strict": self.order_unit_strict, "margin": self.margin,
                "ok": self.ok}


def _extreme_rays(cone: Cone, samples: int, seed: int) -> list[np.ndarray]:
    if isinstance(cone, DiagonalCone):
        rays = []
        for i in range(cone.dim):
            v = np.zeros(cone.dim)
            v[i] = cone.signs[i]
            rays.append(v)
        return rays
    rng = np.random.default_rng(seed)
    nr = len(cone.row_labels)
    rays = cone.label_units()
    for _ in range(samples):
        v = rng.standard_normal(nr)
        rays.append(cone.vector_of_matrix(np.outer(v, v)))
    return rays


def nesting_consistency(cone_small: Cone, cone_big: Cone,
                        tol: float = STRICT_TOL, samples: int = 24,
                        seed: int = SAMPLE_SEED) -> NestingVerdict:
    """Extreme rays embed forward, project backward, and the projected order
    unit is strictly positive: the executable face of cone consistency."""
    if cone_small.basis is None or cone_big.basis is None:
        raise ValueError("nesting checks need basis-attached cones")
    iso = embed_isometry(cone_small.basis, cone_big.basis)
    proj = nesting_projection(iso)
    ok_fwd = True
    worst = np.inf
    for ray in _extreme_rays(cone_small, samples, seed):
        member, margin = membership(iso.matrix @ ray, cone_big, tol)
        worst = min(worst, margin)
        ok_fwd = ok_fwd and member
    ok_bwd = True
    for ray in _extreme_rays(cone_big, samples, seed + 1):
        member, margin = membership(proj @ ray, cone_small, tol)
        worst = min(worst, margin)
        ok_bwd = ok_bwd and member
    projected_unit = proj @ cone_big.order_unit()
    strict = strict_positivity(projected_unit, cone_small, tol)
    return NestingVerdict(ok_fwd, ok_bwd, strict.ok, float(min(worst, strict.margin)))
