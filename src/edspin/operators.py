"""Sparse-matrix assembly of one- and two-body operators.

Operators are assembled directly per sector basis; applying an operator
string to a basis state and dropping targets that fall outside the basis is
exactly the compression P A P onto the subspace, which is what the
constrained kinds (single occupancy, one hole, localized-spin) require.
Each string acts on the whole array of packed states at once (Sandvik,
arXiv:1101.3281): bit operations give the targets, the popcount of the
bits of the preceding orbitals gives the Jordan-Wigner sign, and a binary
search of the sorted codomain finds the target rows.

Everything is real except the second spin component, which is kept as an
explicitly complex matrix and only ever enters through compositions that are
real again.  Total spin is read off the raising operator S+ of
``ladder_ops`` alone: on a sector of fixed M, S^2 = S+^T S+ + M(M+1), so S^2
is never formed as a matrix (``spectra.total_spin_of``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
import scipy

from .fock import (SectorBasis, SubspaceKind, enumerate_sector,
                   mlm_sign_table, orbital_index, orbital_masks, pack)
from .lattice import Graph, bipartition

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class SparseOperator:
    """Immutable sparse matrix tied to its domain/codomain sector bases."""

    matrix: scipy.sparse.csr_matrix
    domain: SectorBasis
    codomain: SectorBasis
    hermitian: bool = False

    def __post_init__(self) -> None:
        if self.matrix.shape != (self.codomain.dim, self.domain.dim):
            raise ValueError("matrix shape does not match the bases")
        if self.hermitian:
            dev = (self.matrix - self.matrix.conj().T)
            if dev.nnz and abs(dev).max() > HERMITICITY_TOL:
                raise ValueError("operator claimed hermitian is not")

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def to_coo_text(self) -> str:
        """Coordinate text export: one "row col value" line per entry."""
        coo = self.matrix.tocoo()
        lines = [f"shape {coo.shape[0]} {coo.shape[1]}"]
        order = np.lexsort((coo.col, coo.row))
        for k in order:
            lines.append(f"{coo.row[k]} {coo.col[k]} {coo.data[k]!r}")
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generic operator-string assembly
# ---------------------------------------------------------------------------

def assemble(codomain: SectorBasis, domain: SectorBasis,
             terms: list[tuple[complex, tuple[tuple[bool, int], ...]]],
             hermitian: bool = False, dtype=float) -> SparseOperator:
    """Sum of coefficient * operator-string terms as a sparse matrix.

    A string is (create?, orbital) factors, the rightmost acting first.
    Target states outside ``codomain`` are dropped (subspace compression).
    Phonon occupancies are untouched by fermionic strings.
    """
    bit, before = orbital_masks(domain.n_sites, domain.species_count)
    rows, cols, vals = [np.empty(0, int)], [np.empty(0, int)], [np.empty(0)]
    for coeff, string in terms:
        words, col = domain.words, np.arange(domain.electron_dim)
        parity = np.zeros(len(words), np.uint8)
        for create, orb in reversed(string):
            keep = ((words & bit[orb]) == 0) == create
            words, col, parity = words[keep], col[keep], parity[keep]
            parity ^= np.bitwise_count(words & before[orb]) & 1
            words = words ^ bit[orb]
        row = codomain.lookup(words)
        hit = row >= 0
        rows.append(row[hit])
        cols.append(col[hit])
        vals.append(coeff * np.where(parity[hit], -1, 1))
    # the sparse format's index sort is not stable, so this input order fixes
    # the order in which duplicates are summed: column-major, term order
    # within a column, as a loop over the domain states gives it
    col = np.concatenate(cols)
    order = np.argsort(col, kind="stable")
    mat = scipy.sparse.csr_matrix((np.concatenate(vals)[order],
                                   (np.concatenate(rows)[order], col[order])),
                                  shape=(codomain.electron_dim, domain.electron_dim),
                                  dtype=dtype)
    mat.sum_duplicates()
    if domain.subspace.n_max is not None:   # electron-major: phonons minor
        # kron of an empty factor is float64 whatever the factors' dtype
        eye = scipy.sparse.identity(domain.phonon_dim, format="csr")
        mat = scipy.sparse.kron(mat, eye, format="csr").astype(dtype, copy=False)
    return SparseOperator(mat, domain, codomain, hermitian)


def electron_basis(basis: SectorBasis) -> SectorBasis:
    """The electron factor of a phonon-product basis (identity if no phonons)."""
    if basis.subspace.n_max is None:
        return basis
    return dataclasses.replace(basis, subspace=dataclasses.replace(basis.subspace,
                                                                   n_max=None))


def diagonal_operator(basis: SectorBasis, values: np.ndarray,
                      hermitian: bool = True) -> SparseOperator:
    mat = scipy.sparse.diags(values, format="csr")
    return SparseOperator(mat, basis, basis, hermitian)


# ---------------------------------------------------------------------------
# elementary fermion operators between sectors
# ---------------------------------------------------------------------------

def annihilation_matrix(codomain: SectorBasis, domain: SectorBasis, x: int,
                        spin: int, species: int = 0) -> SparseOperator:
    orb = orbital_index(x, spin, species, domain.species_count)
    return assemble(codomain, domain, [(1.0, ((False, orb),))])


def creation_matrix(codomain: SectorBasis, domain: SectorBasis, x: int,
                    spin: int, species: int = 0) -> SparseOperator:
    orb = orbital_index(x, spin, species, domain.species_count)
    return assemble(codomain, domain, [(1.0, ((True, orb),))])


def number_values(basis: SectorBasis, species: int = 0) -> np.ndarray:
    """Per-state site occupation table n[state, site] for one species."""
    up, dn = basis.fields()[2 * species:2 * species + 2]
    sites = np.arange(basis.n_sites, dtype=np.uint64)
    return (((up[:, None] >> sites) & 1) + ((dn[:, None] >> sites) & 1)).astype(float)


# ---------------------------------------------------------------------------
# spin algebra
# ---------------------------------------------------------------------------

def _site_spins(basis: SectorBasis) -> list[tuple[int, int]]:
    """All (site, species) pairs carrying spin in this basis."""
    pairs = [(x, 0) for x in range(basis.n_sites)]
    if basis.species_count == 2:
        pairs += [(x, 1) for x in range(basis.n_sites)]
    return pairs


def _raise_string(x: int, species: int, spc: int) -> tuple[tuple[bool, int], ...]:
    return ((True, orbital_index(x, 0, species, spc)),
            (False, orbital_index(x, 1, species, spc)))


def _lower_string(x: int, species: int, spc: int) -> tuple[tuple[bool, int], ...]:
    return ((True, orbital_index(x, 1, species, spc)),
            (False, orbital_index(x, 0, species, spc)))


def spin_op(basis: SectorBasis, x: int, i: int, species: int = 0) -> SparseOperator:
    """Single-site spin component; i=2 is complex, the others real."""
    spc = basis.species_count
    if i == 3:
        up, dn = basis.fields()[2 * species:2 * species + 2]
        ups, dns = ((up >> x) & 1).astype(int), ((dn >> x) & 1).astype(int)
        return diagonal_operator(basis, 0.5 * (ups - dns))
    if i == 1:
        terms = [(0.5, _raise_string(x, species, spc)),
                 (0.5, _lower_string(x, species, spc))]
        return assemble(basis, basis, terms, hermitian=True)
    if i == 2:
        terms = [(-0.5j, _raise_string(x, species, spc)),
                 (0.5j, _lower_string(x, species, spc))]
        return assemble(basis, basis, terms, hermitian=True, dtype=complex)
    raise ValueError("spin component must be 1, 2 or 3")


def spin_dot(basis: SectorBasis, a: tuple[int, int], b: tuple[int, int]) -> SparseOperator:
    """S_a . S_b for (site, species) pairs, assembled from real strings."""
    terms = _spin_dot_terms(basis, a, b)
    return assemble(basis, basis, terms, hermitian=True)


def _spin_dot_terms(basis: SectorBasis, a: tuple[int, int], b: tuple[int, int]):
    spc = basis.species_count
    xa, sa = a
    xb, sb = b
    out = [(0.5, _raise_string(xa, sa, spc) + _lower_string(xb, sb, spc)),
           (0.5, _lower_string(xa, sa, spc) + _raise_string(xb, sb, spc))]
    # S3 S3 via quadratic strings: S3 = (n_up - n_dn)/2
    for su, csa in ((0, 0.25), (1, -0.25)):
        for sv, csb in ((0, 1.0), (1, -1.0)):
            out.append((csa * csb,
                        ((True, orbital_index(xa, su, sa, spc)),
                         (False, orbital_index(xa, su, sa, spc)),
                         (True, orbital_index(xb, sv, sb, spc)),
                         (False, orbital_index(xb, sv, sb, spc)))))
    return out


def _ladder_terms(basis: SectorBasis, delta: int):
    """S+ (delta = 2) or S- (delta = -2) as one string per spin carrier."""
    spc = basis.species_count
    string = _raise_string if delta == 2 else _lower_string
    return [(1.0, string(x, species, spc)) for x, species in _site_spins(basis)]


def ladder_ops(basis_m: SectorBasis, basis_target: SectorBasis) -> SparseOperator:
    """S+ (or S-) mapping ``basis_m`` into ``basis_target``.

    Raising if the target sector sits one unit above, lowering if one below.
    An empty target (no states: ``basis_m`` is the top or bottom sector) gives
    the 0 x dim matrix.  The phonon factor is the identity.
    """
    if basis_m.subspace != basis_target.subspace or basis_m.n_electrons != basis_target.n_electrons:
        raise ValueError("sector mismatch: different subspace kinds")
    if basis_m.twice_m is None or basis_target.twice_m is None:
        raise ValueError("ladder operators need definite M sectors")
    delta = basis_target.twice_m - basis_m.twice_m
    if delta not in (2, -2):
        raise ValueError("target sector must differ by one unit of M")
    return assemble(basis_target, basis_m, _ladder_terms(basis_m, delta))


# ---------------------------------------------------------------------------
# model building blocks
# ---------------------------------------------------------------------------

def hopping(basis: SectorBasis, t: np.ndarray) -> SparseOperator:
    """sum t_xy c*_{x sigma} c_{y sigma}; acts on the conduction species."""
    t = np.asarray(t, dtype=float)
    n = basis.n_sites
    if t.shape != (n, n):
        raise ValueError("hopping matrix has wrong shape")
    if not np.allclose(t, t.T, atol=1e-14):
        raise ValueError("hopping matrix must be symmetric")
    spc = basis.species_count
    terms = []
    for x in range(n):
        for y in range(n):
            if t[x, y] != 0.0:
                for s in (0, 1):
                    terms.append((t[x, y],
                                  ((True, orbital_index(x, s, 0, spc)),
                                   (False, orbital_index(y, s, 0, spc)))))
    return assemble(basis, basis, terms, hermitian=True)


def coulomb(basis: SectorBasis, u: np.ndarray) -> SparseOperator:
    """sum (U_xy / 2)(n_x - 1)(n_y - 1); diagonal in the occupation basis."""
    u = np.asarray(u, dtype=float)
    n = basis.n_sites
    if u.shape != (n, n):
        raise ValueError("interaction matrix has wrong shape")
    if not np.allclose(u, u.T, atol=1e-14):
        raise ValueError("interaction matrix must be symmetric")
    occ = number_values(basis, species=0) - 1.0
    vals = 0.5 * np.einsum("ix,xy,iy->i", occ, u, occ)
    return diagonal_operator(basis, vals)


def gutzwiller(basis: SectorBasis) -> SparseOperator:
    """Projection onto configurations without doubly occupied conduction sites."""
    up, dn = basis.fields()[:2]
    return diagonal_operator(basis, ((up & dn) == 0).astype(float))


# ---------------------------------------------------------------------------
# whole Fock space and the hole-particle transformation
# ---------------------------------------------------------------------------

def full_fock_basis(g: Graph) -> SectorBasis:
    """Every occupation state of the one-species Fock space over ``g``."""
    # every (up, dn) pair: the packed words are all of 0 .. 4^n - 1
    words = np.arange(1 << (2 * g.vertex_count), dtype=np.uint64)
    return SectorBasis(g, SubspaceKind.full(-1), -1, None, words)


def hole_particle(basis: SectorBasis) -> SparseOperator:
    """Unitary signed permutation W mapping down-spin particles to holes.

    Built as the ordered product of single-mode particle-hole unitaries
    (c_dn + c*_dn) over all sites, preceded by parity corrections
    (1 - 2 n_dn) on one sublattice; this is the unique structure (up to a
    global phase) conjugating c_up to itself and c_dn to gamma c*_dn with
    gamma = +1 on part A and -1 on part B.
    """
    g = basis.graph
    bp = bipartition(g)
    if bp is None:
        raise ValueError("graph is not bipartite")
    n = g.vertex_count
    corrected = bp.part_a if n % 2 == 0 else bp.part_b
    w = scipy.sparse.identity(basis.dim, format="csr")
    for x in range(n):
        orb = orbital_index(x, 1)
        u_x = assemble(basis, basis, [(1.0, ((False, orb),)), (1.0, ((True, orb),))])
        w = w @ u_x.matrix
    up, dn = basis.fields()
    for z in corrected:
        w = scipy.sparse.diags(1.0 - 2.0 * ((dn >> z) & 1), format="csr") @ w
    if n % 2:
        # odd site count: the mode product flips c_up; undo with the up parity
        w = scipy.sparse.diags(1.0 - 2.0 * (np.bitwise_count(up) & 1), format="csr") @ w
    return SparseOperator(w.tocsr(), basis, basis)


# ---------------------------------------------------------------------------
# phonons
# ---------------------------------------------------------------------------

def phonon_ops(n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Truncated single-mode ladder matrices (b, b dagger); b†|n_max> = 0."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    b = np.zeros((n_max + 1, n_max + 1))
    for k in range(1, n_max + 1):
        b[k - 1, k] = np.sqrt(k)
    return b, b.T.copy()


def phonon_site_matrix(n_sites: int, n_max: int, site: int,
                       single: np.ndarray) -> scipy.sparse.csr_matrix:
    """Single-mode matrix acting on one site of the phonon product space."""
    dim = n_max + 1
    out = scipy.sparse.identity(1, format="csr")
    for x in range(n_sites):
        factor = (scipy.sparse.csr_matrix(single) if x == site
                  else scipy.sparse.identity(dim, format="csr"))
        out = scipy.sparse.kron(out, factor, format="csr")
    return out


def phonon_number_total(n_sites: int, n_max: int) -> scipy.sparse.csr_matrix:
    b, bdag = phonon_ops(n_max)
    nmat = bdag @ b
    dim = (n_max + 1) ** n_sites
    out = scipy.sparse.csr_matrix((dim, dim))
    for x in range(n_sites):
        out = out + phonon_site_matrix(n_sites, n_max, x, nmat)
    return out.tocsr()


# ---------------------------------------------------------------------------
# nesting: embeddings and projections between lattices
# ---------------------------------------------------------------------------

def _rest_graph(g_small: Graph, g_big: Graph) -> tuple[Graph, int]:
    """Complement part of a nested pair, relabeled to 0..k-1, plus its B mask."""
    m = g_small.vertex_count
    if g_big.vertex_count <= m:
        raise ValueError("second graph must strictly contain the first")
    for (u, v) in g_small.edges:
        if not g_big.has_edge(u, v):
            raise ValueError("vertex sets are not nested with consistent labels")
    for (u, v) in g_big.edges:
        if u < m and v < m and not g_small.has_edge(u, v):
            raise ValueError("small graph is not the induced subgraph of the big one")
    k = g_big.vertex_count - m
    rest_edges = tuple((u - m, v - m) for u, v in g_big.edges if u >= m and v >= m)
    bp = bipartition(g_big)
    if bp is None:
        raise ValueError("graph is not bipartite")
    bmask = 0
    for v in bp.part_b:
        if v >= m:
            bmask |= 1 << (v - m)
    return Graph(k, rest_edges), bmask


def uniform_rest_vector(g_small: Graph, g_big: Graph, signed: bool = True
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The normalized uniform single-occupancy vector on big minus small, in
    canonical coordinates: the (up, dn) site masks of its states, relabeled
    to 0..k-1, and their weights.

    ``signed`` uses the inherited sublattice signs (the half-filled-class
    convention); the one-hole class carries no sublattice structure and uses
    the plain uniform vector.
    """
    rest, bmask = _rest_graph(g_small, g_big)
    basis = enumerate_sector(rest, SubspaceKind.single_occupancy())
    up, dn = basis.fields()
    signs = mlm_sign_table(basis, bmask if signed else 0)
    return up, dn, signs * 2.0 ** (-rest.vertex_count / 2.0)


def embed_isometry(basis_small: SectorBasis, basis_big: SectorBasis) -> SparseOperator:
    """Isometry eta -> eta tensor (uniform rest vector), in canonical coordinates.

    Requires the small vertex set to be an initial segment of the big one;
    then, under the site-interleaved construction of the distinguished basis
    vectors, tensor concatenation is free of permutation signs.
    """
    if basis_small.subspace.kind != basis_big.subspace.kind:
        raise ValueError("incompatible subspace kinds")
    if basis_small.subspace.n_max is not None:
        raise ValueError("phonon-product bases are not supported here")
    g_small, g_big = basis_small.graph, basis_big.graph
    m = g_small.vertex_count
    rest_up, rest_dn, weights = uniform_rest_vector(
        g_small, g_big, signed=basis_small.subspace.kind != "one_hole")
    up, dn = basis_small.fields()
    big = pack((up[:, None] | rest_up << m, dn[:, None] | rest_dn << m),
               g_big.vertex_count)
    rows = basis_big.lookup(big.ravel())
    if (rows < 0).any():
        raise ValueError("embedded state missing from the big basis")
    cols = np.repeat(np.arange(basis_small.dim), len(weights))
    vals = np.tile(weights, basis_small.dim)
    mat = scipy.sparse.csr_matrix((vals, (rows, cols)),
                                  shape=(basis_big.dim, basis_small.dim))
    return SparseOperator(mat, basis_small, basis_big)


def nesting_projection(iso: SparseOperator) -> scipy.sparse.csr_matrix:
    """Adjoint map from the big space onto small-space coordinates."""
    return iso.matrix.conj().T.tocsr()
