"""Independent reference implementations used as test oracles.

Everything here is deliberately written against different machinery than the
package: states are dictionaries keyed by sorted orbital tuples, spin chains
are built from Pauli kron products, and combinatorial counts come straight
from binomials.  Of ``edspin.fock`` only sector enumeration and the packed
word format are used (a test keeps it so); basis rows are read as plain
(up, dn, fup, fdn, ph) tuples.  ``full_schedule_summary`` builds and solves
sectors with the package, but solves every one of them and counts the
ground level across sectors, without the SU(2) argument ``verify`` rests on.
"""

from bisect import bisect_left
from itertools import product

import numpy as np
import scipy.sparse as sp

from edspin.hamiltonians import build
from edspin.operators import total_spin_squared
from edspin.spectra import ground_space, total_spin_of

# symbolic second quantization ------------------------------------------------

def sym_create(state: dict, orb: int) -> dict:
    out = {}
    for occ, c in state.items():
        pos = bisect_left(occ, orb)          # occupied orbitals below orb
        if occ[pos:pos + 1] == (orb,):
            continue
        new = occ[:pos] + (orb,) + occ[pos:]
        out[new] = out.get(new, 0) + c * (-1) ** pos
    return out


def sym_annihilate(state: dict, orb: int) -> dict:
    out = {}
    for occ, c in state.items():
        pos = bisect_left(occ, orb)
        if occ[pos:pos + 1] != (orb,):
            continue
        new = occ[:pos] + occ[pos + 1:]
        out[new] = out.get(new, 0) + c * (-1) ** pos
    return out


def sym_apply(state: dict, ops) -> dict:
    """Apply a list of ("c"/"C", orbital) factors right-to-left."""
    for kind, orb in reversed(ops):
        state = sym_create(state, orb) if kind == "C" else sym_annihilate(state, orb)
        if not state:
            return {}
    return state


def orb(x: int, spin: int) -> int:
    return 2 * x + spin


def interleaved_cons(n: int, b_set: set, x_set: set, d_set: set) -> dict:
    """Site-interleaved construction of the signed half-filling vectors."""
    state = {(): 1}
    for x in reversed(range(n)):
        state = sym_create(state, orb(x, 1))
        if x in d_set:
            state = sym_annihilate(state, orb(x, 1))
        if x in x_set:
            state = sym_create(state, orb(x, 0))
    pref = (-1) ** (len(b_set) + len(d_set & b_set))
    return {k: pref * v for k, v in state.items()}


def one_hole_vector(n: int, sigma: tuple) -> dict:
    """c_(hole, aux) prod' c*_(x, sigma_x) |empty> with the aux spin cancelling."""
    hole = sigma.index(0)
    state = {(): 1}
    for x in reversed(range(n)):
        s = sigma[x] if x != hole else 1
        state = sym_create(state, orb(x, 0 if s == 1 else 1))
    return sym_annihilate(state, orb(hole, 0))


# spin-chain oracle -----------------------------------------------------------

_SX = np.array([[0, 1], [1, 0]]) * 0.5
_SY = np.array([[0, -1j], [1j, 0]]) * 0.5
_SZ = np.array([[1, 0], [0, -1]]) * 0.5


def spin_site_op(n: int, x: int, comp: np.ndarray) -> np.ndarray:
    out = np.eye(1)
    for k in range(n):
        out = np.kron(out, comp if k == x else np.eye(2))
    return out


def heisenberg_kron(n: int, j: np.ndarray) -> np.ndarray:
    """sum J_xy S_x.S_y on the 2^n spin space (no fermions involved)."""
    h = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for x in range(n):
        for y in range(x + 1, n):
            if j[x, y] != 0:
                for comp in (_SX, _SY, _SZ):
                    h += j[x, y] * spin_site_op(n, x, comp) @ spin_site_op(n, y, comp)
    return h


def coupled_spins_ground(s_a: float, s_b: float) -> float:
    """Ground energy of S_A . S_B = (S(S+1) - S_A(S_A+1) - S_B(S_B+1)) / 2."""
    s_min = abs(s_a - s_b)
    return 0.5 * (s_min * (s_min + 1) - s_a * (s_a + 1) - s_b * (s_b + 1))


# dense structural ergodicity ---------------------------------------------------

def union_find_components(b: np.ndarray, edge_tol: float = 1e-12) -> int:
    """Components of the off-diagonal support of a dense matrix (either
    direction of an entry counts as an edge)."""
    n = b.shape[0]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(n):
        for j in range(i + 1, n):
            if abs(b[i, j]) > edge_tol or abs(b[j, i]) > edge_tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    return len({find(i) for i in range(n)})


def dense_diagonal_ergodicity(h, signs: np.ndarray, tol: float = 1e-10) -> dict:
    """The Metzler-plus-irreducible verdict on a dense copy of S h S, in the
    dictionary form of the package's ergodicity verdict."""
    dense = h.toarray() if hasattr(h, "toarray") else np.asarray(h)
    b = signs[:, None] * dense * signs[None, :]
    off = b - np.diag(np.diag(b))
    imag = float(np.abs(off.imag).max()) if np.iscomplexobj(off) and off.size else 0.0
    metzler = off.size == 0 or (off.real.max() <= tol and imag <= tol)
    ncomp = union_find_components(b)
    out = {"verdict": "ergodic" if metzler and ncomp <= 1 else "not-ergodic",
           "metzler_margin": float(-off.real.max()) if off.size else 0.0,
           "connected": ncomp <= 1}
    reasons = []
    if not metzler:
        i, j = np.unravel_index(int(off.real.argmax()), off.shape)
        reasons.append(f"positive off-diagonal at ({i}, {j})")
    if ncomp > 1:
        reasons.append(f"off-diagonal support splits into {ncomp} components")
    if reasons:
        out["witness"] = "; ".join(reasons)
    return out


# per-state operator assembly -------------------------------------------------
#
# The package applies each operator string to the whole packed basis at once.
# This is the per-state loop it replaced, over plain row tuples, with
# occupations packed in spin-orbital order and a dictionary index of the
# codomain.

def basis_rows(basis) -> list[tuple]:
    """Every basis state as an (up, dn, fup, fdn, ph) tuple, in row order
    (electron states major, phonon occupations minor, site 0 most significant)."""
    from edspin.fock import unpack
    n, n_max = basis.n_sites, basis.subspace.n_max
    phonons = [()] if n_max is None else list(product(range(n_max + 1), repeat=n))
    masks = [m.tolist() for m in unpack(basis.words, n, basis.species_count)]
    pad = (0,) * (4 - len(masks))
    return [(*fields, *pad, ph) for fields in zip(*masks) for ph in phonons]


def _orbital_occ(row, n_sites: int, species_count: int) -> int:
    """Occupation integer with bit 2x+s (one species) or 4x+2sp+s (two)."""
    occ = 0
    for x in range(n_sites):
        for f, mask in enumerate(row[:2 * species_count]):
            occ |= ((mask >> x) & 1) << (2 * species_count * x + f)
    return occ


def _state_key(occ: int, n_sites: int, species_count: int, ph: tuple) -> tuple:
    fields = [0, 0, 0, 0]
    for x in range(n_sites):
        for f in range(2 * species_count):
            fields[f] |= ((occ >> (2 * species_count * x + f)) & 1) << x
    return (*fields, ph)


def _apply_string(occ: int, ops) -> tuple[int, int] | None:
    """Apply (create?, orbital) factors right-to-left; None if annihilated."""
    sign = 1
    for create, orb in reversed(ops):
        if ((occ >> orb) & 1) == create:
            return None
        if (occ & ((1 << orb) - 1)).bit_count() & 1:
            sign = -sign
        occ ^= 1 << orb
    return occ, sign


def reference_assemble(codomain, domain, terms, hermitian=False, dtype=float):
    """``operators.assemble`` one domain state at a time."""
    from edspin.operators import SparseOperator, electron_basis
    if domain.subspace.n_max is not None:
        # electron-major layout: resolve the strings on the electron factor
        inner = reference_assemble(electron_basis(codomain), electron_basis(domain),
                                   terms, dtype=dtype)
        mat = sp.kron(inner.matrix, sp.identity(domain.phonon_dim, format="csr"),
                      format="csr").astype(dtype, copy=False)
        return SparseOperator(mat, domain, codomain, hermitian)
    n, spc = domain.n_sites, domain.species_count
    index = {r: i for i, r in enumerate(basis_rows(codomain))}
    rows, cols, vals = [], [], []
    for j, r in enumerate(basis_rows(domain)):
        occ = _orbital_occ(r, n, spc)
        for coeff, ops in terms:
            res = _apply_string(occ, ops)
            if res is None:
                continue
            target, sign = res
            i = index.get(_state_key(target, n, spc, r[4]))
            if i is None:
                continue
            rows.append(i)
            cols.append(j)
            vals.append(coeff * sign)
    mat = sp.csr_matrix((vals, (rows, cols)), shape=(codomain.dim, domain.dim),
                        dtype=dtype)
    mat.sum_duplicates()
    return SparseOperator(mat, domain, codomain, hermitian)


def reference_number_values(basis, species: int = 0) -> np.ndarray:
    out = np.zeros((basis.dim, basis.n_sites))
    for i, r in enumerate(basis_rows(basis)):
        up, dn = r[2 * species:2 * species + 2]
        for x in range(basis.n_sites):
            out[i, x] = ((up >> x) & 1) + ((dn >> x) & 1)
    return out


def reference_magnetization_values(basis) -> np.ndarray:
    out = np.zeros(basis.dim)
    for i, (up, dn, fup, fdn, _) in enumerate(basis_rows(basis)):
        out[i] = 0.5 * (up.bit_count() - dn.bit_count()
                        + fup.bit_count() - fdn.bit_count())
    return out


def _raise_lower(x: int, species: int, spc: int):
    k = 2 * spc
    up, dn = k * x + 2 * species, k * x + 2 * species + 1
    return ((True, up), (False, dn)), ((True, dn), (False, up))


def reference_spin_op(basis, x: int, i: int, species: int = 0):
    """Matrix of one site's spin component."""
    if i == 3:
        vals = np.zeros(basis.dim)
        for k, r in enumerate(basis_rows(basis)):
            up, dn = r[2 * species:2 * species + 2]
            vals[k] = 0.5 * (((up >> x) & 1) - ((dn >> x) & 1))
        return sp.diags(vals, format="csr")
    raise_, lower = _raise_lower(x, species, basis.species_count)
    if i == 1:
        return reference_assemble(basis, basis, [(0.5, raise_), (0.5, lower)]).matrix
    return reference_assemble(basis, basis, [(-0.5j, raise_), (0.5j, lower)],
                              dtype=complex).matrix


def reference_hole_particle(basis, part_a, part_b):
    """``operators.hole_particle`` with per-state parity corrections."""
    n = basis.n_sites
    corrected = part_a if n % 2 == 0 else part_b
    rows = basis_rows(basis)
    w = sp.identity(basis.dim, format="csr")
    for x in range(n):
        orb = 2 * x + 1
        w = w @ reference_assemble(basis, basis, [(1.0, ((False, orb),)),
                                                  (1.0, ((True, orb),))]).matrix
    for z in corrected:
        vals = np.array([1.0 - 2.0 * ((r[1] >> z) & 1) for r in rows])
        w = sp.diags(vals, format="csr") @ w
    if n % 2:
        vals = np.array([1.0 - 2.0 * (r[0].bit_count() & 1) for r in rows])
        w = sp.diags(vals, format="csr") @ w
    return w.tocsr()


# distinguished-sign tables ---------------------------------------------------
#
# The package reads every sign table off the packed words in closed form.
# These build each row's signed vector symbolically (``interleaved_cons``,
# ``one_hole_vector``), require it to be the basis state of that row, and
# count the up/down reorder parity pair by pair.

def _sites(mask: int) -> set:
    return {x for x in range(mask.bit_length()) if (mask >> x) & 1}


def _row_coefficient(vector: dict, row, n_sites: int, species_count: int) -> int:
    """The coefficient of a one-term symbolic vector, which must be the basis
    state of ``row``."""
    [(orbitals, coeff)] = vector.items()
    occ = sum(1 << o for o in orbitals)
    assert _state_key(occ, n_sites, species_count, row[4]) == row
    return coeff


def _psd_sign(n_sites: int, part2: set, x_set: set, y_set: set, row,
              species_count: int) -> int:
    """Construction sign of the (X, Y) vector, times (-1)^#{x in X, y in Y:
    x > y} and (-1)^(k(k-1)/2), k = |X|."""
    pairs = sum(1 for a in x_set for b in y_set if a > b)
    k = len(x_set)
    cons = interleaved_cons(n_sites * species_count, part2, x_set, y_set)
    return (_row_coefficient(cons, row, n_sites, species_count)
            * (-1) ** (pairs + k * (k - 1) // 2))


def _part_b(basis) -> set:
    from edspin.lattice import bipartition
    return set(bipartition(basis.graph).part_b)


def reference_mlm_sign_table(basis, part_b_mask: int | None = None) -> list[int]:
    """``fock.mlm_sign_table``: the |X, Xbar> vector of every row, X its up set."""
    n = basis.n_sites
    b_set = _part_b(basis) if part_b_mask is None else _sites(part_b_mask)
    return [_row_coefficient(interleaved_cons(n, b_set, _sites(r[0]), _sites(r[0])),
                             r, n, 1)
            for r in basis_rows(basis)]


def reference_nt_sign_table(basis) -> list[int]:
    """``fock.nt_sign_table``: the one-hole |sigma> vector of every row."""
    n = basis.n_sites
    signs = []
    for r in basis_rows(basis):
        sigma = tuple(1 if (r[0] >> x) & 1 else -1 if (r[1] >> x) & 1 else 0
                      for x in range(n))
        signs.append(_row_coefficient(one_hole_vector(n, sigma), r, n, 1))
    return signs


def reference_hubbard_sign_table(basis) -> list[int]:
    """``fock.hubbard_sign_table``: label (X, Y) = (up set, complement of the
    down set) of every row of a half-filled basis."""
    n = basis.n_sites
    b_set = _part_b(basis)
    return [_psd_sign(n, b_set, _sites(r[0]), set(range(n)) - _sites(r[1]), r, 1)
            for r in basis_rows(basis)]


def reference_kondo_sign_table(basis, coupling_sign: str) -> list[int]:
    """``fock.kondo_sign_table``: the same decoration on the 2n doubled sites
    2x + species, with part 2 = B-conduction plus A-localized (``"af"``) or
    B-localized (``"f"``)."""
    from edspin.lattice import bipartition
    n = basis.n_sites
    bp = bipartition(basis.graph)
    localized = bp.part_a if coupling_sign == "af" else bp.part_b
    part2 = {2 * x for x in bp.part_b} | {2 * x + 1 for x in localized}
    signs = []
    for r in basis_rows(basis):
        up, dn, fup, fdn, _ = r
        u = {2 * x for x in _sites(up)} | {2 * x + 1 for x in _sites(fup)}
        v = ({2 * x for x in range(n) if not (dn >> x) & 1}
             | {2 * x + 1 for x in range(n) if not (fdn >> x) & 1})
        signs.append(_psd_sign(n, part2, u, v, r, 2))
    return signs


# every sector solved ------------------------------------------------------------

def full_schedule_summary(spec, seed: int = 0, rtol: float = 1e-8) -> tuple[float, int, int]:
    """(E0, degeneracy, 2S) from every M sector of ``spec``: E0 is the least
    sector ground energy, the degeneracy sums the ground multiplicities of
    the sectors within ``rtol`` of it, and 2S is that of the ground vector of
    the first of them in ascending M."""
    solved = []
    for tm in spec.sector_values():
        h = build(spec, tm / 2)
        solved.append((h, ground_space(h.matrix, seed=seed)))
    e0 = min(gs.energy for _, gs in solved)
    ground = [(h, gs) for h, gs in solved
              if abs(gs.energy - e0) <= rtol * max(1.0, abs(e0))]
    h, gs = ground[0]
    twice_s = total_spin_of(gs.vectors[:, 0], total_spin_squared(h.domain))[0]
    return e0, sum(g.multiplicity for _, g in ground), twice_s
