"""Independent reference implementations used as test oracles.

Everything here is deliberately written against different machinery than the
package: states are dictionaries keyed by sorted orbital tuples, spin chains
are built from Pauli kron products, and combinatorial counts come straight
from binomials.
"""

import numpy as np
import scipy.sparse as sp

# symbolic second quantization ------------------------------------------------

def sym_create(state: dict, orb: int) -> dict:
    out = {}
    for occ, c in state.items():
        if orb in occ:
            continue
        pos = sum(1 for o in occ if o < orb)
        new = tuple(sorted(occ + (orb,)))
        out[new] = out.get(new, 0) + c * (-1) ** pos
    return out


def sym_annihilate(state: dict, orb: int) -> dict:
    out = {}
    for occ, c in state.items():
        if orb not in occ:
            continue
        pos = sum(1 for o in occ if o < orb)
        new = tuple(o for o in occ if o != orb)
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
# This is the per-state loop it replaced, over the ``BasisState`` view, with
# occupations packed in spin-orbital order and a dictionary index of the
# codomain.

def _orbital_occ(s, n_sites: int, species_count: int) -> int:
    """Occupation integer with bit 2x+s (one species) or 4x+2sp+s (two)."""
    occ = 0
    fields = (s.up, s.dn, s.fup, s.fdn)[:2 * species_count]
    for x in range(n_sites):
        for f, mask in enumerate(fields):
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
    index = {s.sort_key(): i for i, s in enumerate(codomain.states)}
    rows, cols, vals = [], [], []
    for j, s in enumerate(domain.states):
        occ = _orbital_occ(s, n, spc)
        for coeff, ops in terms:
            res = _apply_string(occ, ops)
            if res is None:
                continue
            target, sign = res
            i = index.get(_state_key(target, n, spc, s.ph))
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
    for i, s in enumerate(basis.states):
        up, dn = (s.up, s.dn) if species == 0 else (s.fup, s.fdn)
        for x in range(basis.n_sites):
            out[i, x] = ((up >> x) & 1) + ((dn >> x) & 1)
    return out


def reference_magnetization_values(basis) -> np.ndarray:
    out = np.zeros(basis.dim)
    for i, s in enumerate(basis.states):
        out[i] = 0.5 * (s.up.bit_count() - s.dn.bit_count()
                        + s.fup.bit_count() - s.fdn.bit_count())
    return out


def _raise_lower(x: int, species: int, spc: int):
    k = 2 * spc
    up, dn = k * x + 2 * species, k * x + 2 * species + 1
    return ((True, up), (False, dn)), ((True, dn), (False, up))


def reference_spin_op(basis, x: int, i: int, species: int = 0):
    """Matrix of one site's spin component."""
    if i == 3:
        vals = np.zeros(basis.dim)
        for k, s in enumerate(basis.states):
            up, dn = (s.up, s.dn) if species == 0 else (s.fup, s.fdn)
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
    w = sp.identity(basis.dim, format="csr")
    for x in range(n):
        orb = 2 * x + 1
        w = w @ reference_assemble(basis, basis, [(1.0, ((False, orb),)),
                                                  (1.0, ((True, orb),))]).matrix
    for z in corrected:
        vals = np.array([1.0 - 2.0 * ((s.dn >> z) & 1) for s in basis.states])
        w = sp.diags(vals, format="csr") @ w
    if n % 2:
        vals = np.array([1.0 - 2.0 * (s.up.bit_count() & 1) for s in basis.states])
        w = sp.diags(vals, format="csr") @ w
    return w.tocsr()


# distinguished-sign tables ---------------------------------------------------
#
# The package reads the MLM signs off the up masks in one array expression.
# This is the per-state construction it replaced: each signed |X, Xbar>
# vector built by explicit operator application, which must give back the
# basis state of its row.

def reference_mlm_sign_table(basis, part_b_mask: int | None = None) -> list[int]:
    """``fock.mlm_sign_table`` one state at a time, through ``cons_vector``."""
    from edspin.fock import cons_vector, pack
    from edspin.lattice import bipartition
    n = basis.n_sites
    if part_b_mask is None:
        part_b_mask = bipartition(basis.graph).b_mask()
    signs = []
    for up, dn in zip(*(f.tolist() for f in basis.fields())):
        occ, sign = cons_vector(n, part_b_mask, up, up)
        assert occ == pack((up, dn), n)
        signs.append(sign)
    return signs
