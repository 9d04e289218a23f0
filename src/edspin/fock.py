"""Bit-encoded many-body bases with exact fermionic sign bookkeeping.

Spin-orbital order (fixed globally, all Jordan-Wigner signs refer to it):
site-major, up before down; for two-species (conduction + localized) bases,
conduction before localized at each site.  Orbital index:

    one species : orb(x, s)        = 2*x + s            (s: 0 = up, 1 = down)
    two species : orb(x, sp, s)    = 4*x + 2*sp + s     (sp: 0 = c, 1 = f)

A canonical basis state is the ascending-orbital product of creation
operators on the vacuum; every signed basis vector used by the positivity
cones (the |X, Xbar>-type vectors, the one-hole |sigma> vectors and their
two-species analogues) is realized as +/- one canonical state, with the sign
computed by explicit operator application.

Half-integer quantum numbers are carried as twice-value integers.
"""

from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from .lattice import Bipartition, Graph, bipartition


# ---------------------------------------------------------------------------
# subspace kinds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SubspaceKind:
    """One of full(N) | single_occupancy | one_hole | kondo, optionally with
    a hard phonon cutoff ``n_max`` per site."""

    kind: str
    n_electrons: int | None = None   # full only; other kinds imply it
    n_max: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ("full", "single_occupancy", "one_hole", "kondo"):
            raise ValueError(f"unknown subspace kind {self.kind!r}")
        if self.kind == "full" and self.n_electrons is None:
            raise ValueError("full subspace needs an electron count")
        if self.n_max is not None and self.n_max < 1:
            raise ValueError("phonon cutoff n_max must be >= 1")

    @staticmethod
    def full(n_electrons: int, n_max: int | None = None) -> "SubspaceKind":
        return SubspaceKind("full", n_electrons, n_max)

    @staticmethod
    def single_occupancy(n_max: int | None = None) -> "SubspaceKind":
        return SubspaceKind("single_occupancy", None, n_max)

    @staticmethod
    def one_hole(n_max: int | None = None) -> "SubspaceKind":
        return SubspaceKind("one_hole", None, n_max)

    @staticmethod
    def kondo(n_max: int | None = None) -> "SubspaceKind":
        return SubspaceKind("kondo", None, n_max)

    @property
    def species_count(self) -> int:
        return 2 if self.kind == "kondo" else 1

    def electron_count(self, n_sites: int) -> int:
        if self.kind == "full":
            assert self.n_electrons is not None
            return self.n_electrons
        if self.kind == "single_occupancy":
            return n_sites
        if self.kind == "one_hole":
            return n_sites - 1
        return 2 * n_sites  # kondo


@dataclass(frozen=True)
class BasisState:
    """Occupation bitmasks per species/spin plus phonon occupancies."""

    up: int
    dn: int
    fup: int = 0
    fdn: int = 0
    ph: tuple[int, ...] = ()

    def orbital_occ(self, n_sites: int, species: int) -> int:
        """Packed occupation integer in global spin-orbital order."""
        occ = 0
        if species == 1:
            for x in range(n_sites):
                occ |= ((self.up >> x) & 1) << (2 * x)
                occ |= ((self.dn >> x) & 1) << (2 * x + 1)
        else:
            for x in range(n_sites):
                occ |= ((self.up >> x) & 1) << (4 * x)
                occ |= ((self.dn >> x) & 1) << (4 * x + 1)
                occ |= ((self.fup >> x) & 1) << (4 * x + 2)
                occ |= ((self.fdn >> x) & 1) << (4 * x + 3)
        return occ

    def sort_key(self) -> tuple:
        return (self.up, self.dn, self.fup, self.fdn, self.ph)


def magnetization(s: BasisState):
    """S3 eigenvalue (n_up - n_dn)/2 summed over species, as an exact Fraction."""
    from fractions import Fraction
    t = (s.up.bit_count() - s.dn.bit_count()
         + s.fup.bit_count() - s.fdn.bit_count())
    return Fraction(t, 2)


# ---------------------------------------------------------------------------
# packed-orbital elementary operators
# ---------------------------------------------------------------------------

def orbital_index(x: int, spin: int, species: int = 0, species_count: int = 1) -> int:
    if species_count == 1:
        return 2 * x + spin
    return 4 * x + 2 * species + spin


def occ_annihilate(occ: int, orb: int) -> tuple[int, int] | None:
    """Remove orbital ``orb``; sign is (-1)^(occupied orbitals preceding it)."""
    if not (occ >> orb) & 1:
        return None
    sign = -1 if (occ & ((1 << orb) - 1)).bit_count() & 1 else 1
    return occ & ~(1 << orb), sign


def occ_create(occ: int, orb: int) -> tuple[int, int] | None:
    if (occ >> orb) & 1:
        return None
    sign = -1 if (occ & ((1 << orb) - 1)).bit_count() & 1 else 1
    return occ | (1 << orb), sign


def _unpack(occ: int, n_sites: int, species_count: int, ph: tuple[int, ...]) -> BasisState:
    up = dn = fup = fdn = 0
    if species_count == 1:
        for x in range(n_sites):
            up |= ((occ >> (2 * x)) & 1) << x
            dn |= ((occ >> (2 * x + 1)) & 1) << x
    else:
        for x in range(n_sites):
            up |= ((occ >> (4 * x)) & 1) << x
            dn |= ((occ >> (4 * x + 1)) & 1) << x
            fup |= ((occ >> (4 * x + 2)) & 1) << x
            fdn |= ((occ >> (4 * x + 3)) & 1) << x
    return BasisState(up, dn, fup, fdn, ph)


def apply_annihilation(s: BasisState, x: int, spin: int, n_sites: int,
                       species: int = 0, species_count: int = 1
                       ) -> tuple[BasisState, int] | None:
    """c_{x spin} on ``s``; ``None`` if the orbital is empty."""
    occ = s.orbital_occ(n_sites, species_count)
    res = occ_annihilate(occ, orbital_index(x, spin, species, species_count))
    if res is None:
        return None
    return _unpack(res[0], n_sites, species_count, s.ph), res[1]


def apply_creation(s: BasisState, x: int, spin: int, n_sites: int,
                   species: int = 0, species_count: int = 1
                   ) -> tuple[BasisState, int] | None:
    occ = s.orbital_occ(n_sites, species_count)
    res = occ_create(occ, orbital_index(x, spin, species, species_count))
    if res is None:
        return None
    return _unpack(res[0], n_sites, species_count, s.ph), res[1]


# ---------------------------------------------------------------------------
# sector enumeration
# ---------------------------------------------------------------------------

def _masks_with_popcount(n_sites: int, k: int, allowed: int | None = None):
    sites = range(n_sites) if allowed is None else [x for x in range(n_sites) if (allowed >> x) & 1]
    for combo in combinations(sites, k):
        m = 0
        for x in combo:
            m |= 1 << x
        yield m


def sector_twice_m_values(g: Graph, kind: SubspaceKind) -> list[int]:
    """All S3 eigenvalues (twice-values) with a nonempty sector."""
    n = g.vertex_count
    ne = kind.electron_count(n)
    vals = []
    if kind.kind == "full":
        for n_up in range(max(0, ne - n), min(n, ne) + 1):
            vals.append(2 * n_up - ne)
    elif kind.kind == "single_occupancy":
        vals = [2 * k - n for k in range(n + 1)]
    elif kind.kind == "one_hole":
        vals = [2 * k - (n - 1) for k in range(n)]
    else:  # kondo: 2n spin-1/2 particles, conduction filling n
        for n_up in range(0, 2 * n + 1):
            vals.append(2 * n_up - 2 * n)
        vals = sorted(set(vals))
    return sorted(set(vals))


@dataclass(frozen=True)
class SectorBasis:
    """Ordered, index-mapped basis of a fixed (subspace kind, N, M) sector."""

    graph: Graph
    subspace: SubspaceKind
    n_electrons: int
    twice_m: int | None
    states: tuple[BasisState, ...]

    @property
    def dim(self) -> int:
        return len(self.states)

    @property
    def n_sites(self) -> int:
        return self.graph.vertex_count

    @property
    def species_count(self) -> int:
        return self.subspace.species_count

    @property
    def phonon_dim(self) -> int:
        if self.subspace.n_max is None:
            return 1
        return (self.subspace.n_max + 1) ** self.n_sites

    @property
    def electron_dim(self) -> int:
        return self.dim // self.phonon_dim

    def index_of(self, s: BasisState) -> int | None:
        return self._index.get(s.sort_key())

    @property
    def _index(self) -> dict:
        if "_index_cache" not in self.__dict__:
            cache = {s.sort_key(): i for i, s in enumerate(self.states)}
            self.__dict__["_index_cache"] = cache
        return self.__dict__["_index_cache"]

    def electron_states(self) -> tuple[BasisState, ...]:
        """Electron factor of the basis (phonon occupancies stripped)."""
        if self.subspace.n_max is None:
            return self.states
        step = self.phonon_dim
        return tuple(BasisState(s.up, s.dn, s.fup, s.fdn)
                     for s in self.states[::step])


def _electron_states(g: Graph, kind: SubspaceKind, n_electrons: int,
                     twice_m: int | None) -> list[BasisState]:
    n = g.vertex_count
    out: list[BasisState] = []
    if kind.kind == "single_occupancy":
        for t in (sector_twice_m_values(g, kind) if twice_m is None else [twice_m]):
            n_up = (t + n) // 2
            if (t + n) % 2 or not 0 <= n_up <= n:
                raise ValueError(f"empty sector: M twice-value {t}")
            full = (1 << n) - 1
            for up in _masks_with_popcount(n, n_up):
                out.append(BasisState(up, full & ~up))
    elif kind.kind == "full":
        for t in (sector_twice_m_values(g, kind) if twice_m is None else [twice_m]):
            if (t + n_electrons) % 2:
                raise ValueError(f"empty sector: M twice-value {t}")
            n_up = (t + n_electrons) // 2
            n_dn = n_electrons - n_up
            if not (0 <= n_up <= n and 0 <= n_dn <= n):
                raise ValueError(f"empty sector: M twice-value {t}")
            for up in _masks_with_popcount(n, n_up):
                for dn in _masks_with_popcount(n, n_dn):
                    out.append(BasisState(up, dn))
    elif kind.kind == "one_hole":
        ne = n - 1
        for t in (sector_twice_m_values(g, kind) if twice_m is None else [twice_m]):
            if (t + ne) % 2 or not 0 <= (t + ne) // 2 <= ne:
                raise ValueError(f"empty sector: M twice-value {t}")
            n_up = (t + ne) // 2
            full = (1 << n) - 1
            for hole in range(n):
                rest = full & ~(1 << hole)
                for up in _masks_with_popcount(n, n_up, allowed=rest):
                    out.append(BasisState(up, rest & ~up))
    else:  # kondo: f-sites singly occupied, conduction at half filling
        for t in (sector_twice_m_values(g, kind) if twice_m is None else [twice_m]):
            for fup in range(1 << n):
                fdn = ((1 << n) - 1) & ~fup
                t_c = t - (2 * fup.bit_count() - n)
                if (t_c + n) % 2:
                    continue
                n_cup = (t_c + n) // 2
                n_cdn = n - n_cup
                if not (0 <= n_cup <= n and 0 <= n_cdn <= n):
                    continue
                for up in _masks_with_popcount(n, n_cup):
                    for dn in _masks_with_popcount(n, n_cdn):
                        out.append(BasisState(up, dn, fup, fdn))
        if twice_m is not None and not out:
            raise ValueError(f"empty sector: M twice-value {twice_m}")
    return out


def enumerate_sector(g: Graph, kind: SubspaceKind, n_electrons: int | None = None,
                     m=None) -> SectorBasis:
    """Complete sorted enumeration of a sector; ``m=None`` takes every sector.

    ``n_electrons`` is only consulted for ``full`` kinds and must then match
    the kind's electron count.
    """
    ne = kind.electron_count(g.vertex_count)
    if n_electrons is not None and n_electrons != ne:
        raise ValueError(f"electron count {n_electrons} inconsistent with kind (expects {ne})")
    twice_m = None if m is None else int(round(2 * m))
    if twice_m is not None and twice_m not in sector_twice_m_values(g, kind):
        raise ValueError(f"empty sector: M={m}")
    elec = _electron_states(g, kind, ne, twice_m)
    if kind.n_max is not None:
        levels = range(kind.n_max + 1)
        states = [BasisState(s.up, s.dn, s.fup, s.fdn, ph)
                  for s in elec
                  for ph in product(levels, repeat=g.vertex_count)]
    else:
        states = elec
    states.sort(key=BasisState.sort_key)
    return SectorBasis(g, kind, ne, twice_m, tuple(states))


def sector_dimension(g: Graph, kind: SubspaceKind, m) -> int:
    """Combinatorial dimension of the electron sector (no phonon factor)."""
    n = g.vertex_count
    t = int(round(2 * m))
    if kind.kind == "single_occupancy":
        return comb(n, (t + n) // 2) if (t + n) % 2 == 0 else 0
    if kind.kind == "one_hole":
        ne = n - 1
        return n * comb(ne, (t + ne) // 2) if (t + ne) % 2 == 0 else 0
    if kind.kind == "full":
        ne = kind.electron_count(n)
        if (t + ne) % 2:
            return 0
        n_up = (t + ne) // 2
        n_dn = ne - n_up
        if not (0 <= n_up <= n and 0 <= n_dn <= n):
            return 0
        return comb(n, n_up) * comb(n, n_dn)
    total = 0
    for tf in range(-n, n + 1, 2):
        n_fup = (tf + n) // 2
        t_c = t - tf
        if (t_c + n) % 2:
            continue
        n_cup = (t_c + n) // 2
        if 0 <= n_cup <= n:
            total += comb(n, n_fup) * comb(n, n_cup) * comb(n, n - n_cup)
    return total


# ---------------------------------------------------------------------------
# signed distinguished-basis vectors
# ---------------------------------------------------------------------------

def _apply_product(occ: int, orbs: list[int], create: bool) -> tuple[int, int] | None:
    """Ascending left-to-right operator product: rightmost factor acts first."""
    sign = 1
    for orb in reversed(sorted(orbs)):
        res = occ_create(occ, orb) if create else occ_annihilate(occ, orb)
        if res is None:
            return None
        occ, s = res
        sign *= s
    return occ, sign


def cons_vector(n_sites: int, part_b_mask: int, up_set: int, dn_kill_set: int,
                species_count: int = 1) -> tuple[int, int]:
    """Signed basis vector (-1)^(|B| + |D cap B|) prod'_x [c*_up][c_dn][c*_dn] |empty>.

    ``up_set`` is X (up creations), ``dn_kill_set`` is D (the down region
    annihilated out of the all-down reference).  The operator product is
    swept site by site in the fixed ascending order with each site's factors
    applied together; under this interleaving the construction of a basis
    vector over a disjoint union of site ranges factors exactly, with no
    residual permutation sign, which is what makes the cones of nested
    lattices consistent.  The string sign is computed by explicit operator
    application (it comes out +1: a site's operators only ever cross empty
    lower orbitals).  For two species the "sites" are doubled, 2x + species.
    """
    site_count = n_sites * species_count
    occ = 0
    sign = 1
    for u in reversed(range(site_count)):     # rightmost (largest) site first
        res = occ_create(occ, 2 * u + 1)
        occ, s = res
        sign *= s
        if (dn_kill_set >> u) & 1:
            res = occ_annihilate(occ, 2 * u + 1)
            assert res is not None
            occ, s = res
            sign *= s
        if (up_set >> u) & 1:
            res = occ_create(occ, 2 * u)
            if res is None:
                raise ValueError("up set collides with an occupied orbital")
            occ, s = res
            sign *= s
    pref = part_b_mask.bit_count() + (dn_kill_set & part_b_mask).bit_count()
    if pref & 1:
        sign = -sign
    return occ, sign


def mlm_basis_vector(g: Graph, x_set: int, basis: SectorBasis | None = None
                     ) -> tuple[BasisState, int] | tuple[int, int]:
    """Signed |X, Xbar> vector of the single-occupancy space.

    Returns (state, sign); if ``basis`` is given, returns (row index, sign)
    into it instead.
    """
    bp = bipartition(g)
    if bp is None:
        raise ValueError("graph is not bipartite")
    occ, sign = cons_vector(g.vertex_count, bp.b_mask(), x_set, x_set)
    state = _unpack(occ, g.vertex_count, 1, ())
    if basis is None:
        return state, sign
    idx = basis.index_of(state)
    if idx is None:
        raise ValueError("state not in the supplied basis")
    return idx, sign


def nt_basis_vector(g: Graph, sigma: tuple[int, ...]) -> tuple[BasisState, int]:
    """Signed one-hole vector |sigma>: the hole-annihilated site-ordered product.

    The auxiliary spin placed at the hole site cancels out; the net sign is
    (-1)^(position of the hole in the site order).
    """
    n = g.vertex_count
    if len(sigma) != n or sigma.count(0) != 1:
        raise ValueError("sigma must have exactly one hole")
    hole = sigma.index(0)
    occ = 0
    sign = 1
    orbs = [2 * x + (0 if sigma[x] == 1 else 1) for x in range(n) if x != hole]
    occ, s = _apply_product(occ, orbs, create=True)
    sign *= s
    if hole & 1:
        sign = -sign
    # the site-ordered product above already skips the hole; the parity factor
    # accounts for commuting the annihilator through the preceding creators
    up = dn = 0
    for x in range(n):
        if sigma[x] == 1:
            up |= 1 << x
        elif sigma[x] == -1:
            dn |= 1 << x
    return BasisState(up, dn), sign


# ---------------------------------------------------------------------------
# distinguished-sign tables for whole sector bases
# ---------------------------------------------------------------------------

def mlm_sign_table(basis: SectorBasis, part_b_mask: int | None = None) -> list[int]:
    """Signs s_i with |X_i, Xbar_i> = s_i * canonical_i over a single-occupancy basis."""
    g = basis.graph
    if part_b_mask is None:
        bp = bipartition(g)
        if bp is None:
            raise ValueError("graph is not bipartite")
        part_b_mask = bp.b_mask()
    signs = []
    for s in basis.states:
        occ, sign = cons_vector(g.vertex_count, part_b_mask, s.up, s.up)
        assert occ == s.orbital_occ(g.vertex_count, 1)
        signs.append(sign)
    return signs


def nt_sign_table(basis: SectorBasis) -> list[int]:
    """Signs of the |sigma> vectors over a one-hole basis (phonons untouched)."""
    n = basis.n_sites
    signs = []
    for s in basis.states:
        hole_mask = ((1 << n) - 1) & ~(s.up | s.dn)
        hole = hole_mask.bit_length() - 1
        signs.append(-1 if hole & 1 else 1)
    return signs


def hubbard_labels(basis: SectorBasis) -> list[tuple[int, int]]:
    """(X, Y) labels of a half-filled full basis: up set X, down set = complement of Y."""
    n = basis.n_sites
    full = (1 << n) - 1
    return [(s.up, full & ~s.dn) for s in basis.states]


def updown_reorder_sign(x_set: int, y_set: int) -> int:
    """Parity of moving all down creators behind the up creators:
    (-1)^(number of pairs x in X, y in Y with x > y)."""
    inv = 0
    y = 0
    rest = y_set
    while rest:
        if rest & 1:
            inv += (x_set >> (y + 1)).bit_count()
        rest >>= 1
        y += 1
    return -1 if inv & 1 else 1


def hubbard_sign_table(basis: SectorBasis) -> list[int]:
    """Signs of the PSD-cone vectors over a half-filled full basis.

    The sign at label (X, Y) is the site-interleaved construction sign
    (-1)^(|B| + |Y cap B|) times the up/down reorder parity, normalized per
    particle-count block so that diagonal labels carry exactly the
    single-occupancy signs.  Under this decoration the PSD coefficient cone
    restricts to the diagonal cone, is hermitian-compatible, and factors
    across nested lattices.
    """
    g = basis.graph
    bp = bipartition(g)
    if bp is None:
        raise ValueError("graph is not bipartite")
    bmask = bp.b_mask()
    n = g.vertex_count
    full = (1 << n) - 1
    signs = []
    for s in basis.states:
        y_set = full & ~s.dn
        occ, sign = cons_vector(n, bmask, s.up, y_set)
        assert occ == s.orbital_occ(n, 1)
        k = s.up.bit_count()
        sign *= updown_reorder_sign(s.up, y_set)
        if (k * (k - 1) // 2) & 1:
            sign = -sign
        signs.append(sign)
    return signs


def kondo_doubled_site(x: int, species: int) -> int:
    return 2 * x + species


def kondo_part2_mask(g: Graph, coupling_sign: str) -> int:
    """Doubled-site mask of the second bipartition part for the given coupling.

    Antiferromagnetic (J > 0): part2 = B-conduction + A-localized;
    ferromagnetic (J < 0): part2 = B-conduction + B-localized.
    """
    bp = bipartition(g)
    if bp is None:
        raise ValueError("graph is not bipartite")
    mask = 0
    for x in bp.part_b:
        mask |= 1 << kondo_doubled_site(x, 0)
    src = bp.part_a if coupling_sign == "af" else bp.part_b
    for x in src:
        mask |= 1 << kondo_doubled_site(x, 1)
    return mask


def kondo_doubled_sets(s: BasisState, n_sites: int) -> tuple[int, int]:
    """(U, V) doubled-site sets of a two-species state: up set and complement of down."""
    u = v = 0
    for x in range(n_sites):
        if (s.up >> x) & 1:
            u |= 1 << (2 * x)
        if (s.fup >> x) & 1:
            u |= 1 << (2 * x + 1)
        if not (s.dn >> x) & 1:
            v |= 1 << (2 * x)
        if not (s.fdn >> x) & 1:
            v |= 1 << (2 * x + 1)
    return u, v


def kondo_sign_table(basis: SectorBasis, coupling_sign: str) -> list[int]:
    """Signs of the doubled-lattice PSD-cone vectors over a Kondo basis.

    The same decoration as ``hubbard_sign_table``, on the doubled sites with
    the coupling-dependent bipartition playing the role of the B sublattice.
    """
    g = basis.graph
    n = g.vertex_count
    part2 = kondo_part2_mask(g, coupling_sign)
    signs = []
    for s in basis.states:
        up_doubles, v_set = kondo_doubled_sets(s, n)
        occ, sign = cons_vector(n, part2, up_doubles, v_set, species_count=2)
        assert occ == s.orbital_occ(n, 2)
        k = up_doubles.bit_count()
        sign *= updown_reorder_sign(up_doubles, v_set)
        if (k * (k - 1) // 2) & 1:
            sign = -sign
        signs.append(sign)
    return signs
