"""Packed many-body bases with exact fermionic sign bookkeeping.

Spin-orbital order (fixed globally, all Jordan-Wigner signs refer to it):
site-major, up before down; for two-species (conduction + localized) bases,
conduction before localized at each site.  Orbital index:

    one species : orb(x, s)        = 2*x + s            (s: 0 = up, 1 = down)
    two species : orb(x, sp, s)    = 4*x + 2*sp + s     (sp: 0 = c, 1 = f)

A state is stored as one packed word: its site masks, each ``n`` bits wide
(bit x = site x), concatenated species-major with ``up`` most significant,

    one species : up | dn                two species : up | dn | fup | fdn

so the integer order of the words is the lexicographic order of
(up, dn, fup, fdn).  A sector basis is the sorted ``uint64`` array of its
words; a phonon cutoff ``n_max`` makes it the Kronecker product with the
(n_max + 1)^n phonon occupations, phonons minor, so row
``i * phonon_dim + p`` is electron state ``i`` with phonon occupation ``p``
(site 0 the most significant digit).  A word holds 64 bits: one species
allows n <= 32 sites, two species n <= 16.  ``orbital_masks`` maps each
orbital to its bit in the word and to the bits of the orbitals preceding
it, whose occupied count gives the Jordan-Wigner sign.

A canonical basis state is the ascending-orbital product of creation
operators on the vacuum; every signed basis vector used by the positivity
cones (the |X, Xbar>-type vectors, the one-hole |sigma> vectors and their
two-species analogues) is realized as +/- one canonical state, with the sign
computed by explicit operator application.

Half-integer quantum numbers are carried as twice-value integers.
"""

from dataclasses import dataclass
from functools import cache
from itertools import accumulate, product
from math import comb

import numpy as np

from .lattice import Graph, bipartition

WORD_BITS = 64


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

    def sort_key(self) -> tuple:
        return (self.up, self.dn, self.fup, self.fdn, self.ph)


def magnetization(s: BasisState):
    """S3 eigenvalue (n_up - n_dn)/2 summed over species, as an exact Fraction."""
    from fractions import Fraction
    t = (s.up.bit_count() - s.dn.bit_count()
         + s.fup.bit_count() - s.fdn.bit_count())
    return Fraction(t, 2)


# ---------------------------------------------------------------------------
# packed words and elementary operators
# ---------------------------------------------------------------------------

def pack(fields, n_sites: int):
    """Packed word(s) of the site masks (up, dn[, fup, fdn]); ints or uint64
    arrays, which broadcast."""
    word = 0
    for mask in fields:
        word = (word << n_sites) | mask
    return word


def unpack(words, n_sites: int, species_count: int) -> tuple:
    """Site masks (up, dn) or (up, dn, fup, fdn) of packed word(s)."""
    k = 2 * species_count
    full = (1 << n_sites) - 1
    return tuple((words >> ((k - 1 - f) * n_sites)) & full for f in range(k))


@cache
def orbital_masks(n_sites: int, species_count: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per orbital index: its bit in the packed word, and the bits of every
    orbital preceding it in the spin-orbital order."""
    k = 2 * species_count
    bit = tuple(1 << ((k - 1 - orb % k) * n_sites + orb // k)
                for orb in range(k * n_sites))
    before = tuple(accumulate(bit[:-1], int.__or__, initial=0))
    return bit, before


def orbital_index(x: int, spin: int, species: int = 0, species_count: int = 1) -> int:
    if species_count == 1:
        return 2 * x + spin
    return 4 * x + 2 * species + spin


def _flip(word: int, orb: int, create: bool, masks) -> tuple[int, int] | None:
    """c*_orb (``create``) or c_orb on a packed word: (word, sign), or None
    when it vanishes; the sign is (-1)^(occupied orbitals preceding orb)."""
    bit, before = masks[0][orb], masks[1][orb]
    if bool(word & bit) == create:
        return None
    return word ^ bit, -1 if (word & before).bit_count() & 1 else 1


def _apply_one(s: BasisState, x: int, spin: int, n_sites: int, species: int,
               species_count: int, create: bool) -> tuple[BasisState, int] | None:
    fields = (s.up, s.dn, s.fup, s.fdn)[:2 * species_count]
    res = _flip(pack(fields, n_sites), orbital_index(x, spin, species, species_count),
                create, orbital_masks(n_sites, species_count))
    if res is None:
        return None
    return BasisState(*unpack(res[0], n_sites, species_count), ph=s.ph), res[1]


def apply_annihilation(s: BasisState, x: int, spin: int, n_sites: int,
                       species: int = 0, species_count: int = 1
                       ) -> tuple[BasisState, int] | None:
    """c_{x spin} on ``s``; ``None`` if the orbital is empty."""
    return _apply_one(s, x, spin, n_sites, species, species_count, False)


def apply_creation(s: BasisState, x: int, spin: int, n_sites: int,
                   species: int = 0, species_count: int = 1
                   ) -> tuple[BasisState, int] | None:
    return _apply_one(s, x, spin, n_sites, species, species_count, True)


# ---------------------------------------------------------------------------
# sector enumeration
# ---------------------------------------------------------------------------

def _popcount_masks(n_sites: int, k: int) -> np.ndarray:
    """Ascending array of the ``n_sites``-bit masks with ``k`` bits set."""
    none = np.zeros(0, np.uint64)
    rows = {0: np.zeros(1, np.uint64)}   # j: masks of the bits so far with j set
    for b in range(n_sites):
        # only the j that can still reach k with the bits above b
        rows = {j: np.concatenate((rows.get(j, none), rows.get(j - 1, none) | (1 << b)))
                for j in range(max(0, k - (n_sites - b - 1)), k + 1)}
    return rows.get(k, none)


def sector_twice_m_values(g: Graph, kind: SubspaceKind) -> list[int]:
    """All S3 eigenvalues (twice-values) with a nonempty sector."""
    n = g.vertex_count
    ne = kind.electron_count(n)
    # full: at most n electrons of each spin; the others: any up count
    low, high = (max(0, ne - n), min(n, ne)) if kind.kind == "full" else (0, ne)
    return [2 * n_up - ne for n_up in range(low, high + 1)]


def twice_value(m) -> int:
    """2m as an integer; ``ValueError`` unless m is a multiple of 1/2."""
    twice = 2 * m
    if not float(twice).is_integer():
        raise ValueError(f"M={m} is not a multiple of 1/2")
    return int(twice)


def check_packable(n_sites: int, kind: SubspaceKind) -> None:
    """``ValueError`` when a packed state of ``kind`` on ``n_sites`` sites
    needs more than one 64-bit word."""
    bits = 2 * kind.species_count * n_sites
    if bits > WORD_BITS:
        raise ValueError(f"{kind.kind} states on {n_sites} sites need {bits} bits; "
                         f"a packed state holds {WORD_BITS}")


@dataclass(frozen=True, eq=False)
class SectorBasis:
    """Sorted packed electron states of a fixed (subspace kind, N, M) sector,
    times the phonon factor when the kind has a cutoff."""

    graph: Graph
    subspace: SubspaceKind
    n_electrons: int
    twice_m: int | None
    words: np.ndarray                 # sorted uint64 packed electron states

    @property
    def dim(self) -> int:
        return self.electron_dim * self.phonon_dim

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
        return len(self.words)

    def fields(self) -> tuple[np.ndarray, ...]:
        """Site masks (up, dn[, fup, fdn]) of every basis state, in row order."""
        return unpack(np.repeat(self.words, self.phonon_dim), self.n_sites,
                      self.species_count)

    def lookup(self, words: np.ndarray) -> np.ndarray:
        """Electron-factor row of each packed word, -1 where it is absent."""
        i = np.searchsorted(self.words, words)
        found = self.words[np.minimum(i, len(self.words) - 1)] == words
        return np.where(found, i, -1)

    # BasisState view, for callers outside the array code ---------------------

    @property
    def states(self) -> tuple[BasisState, ...]:
        """Every basis state as a ``BasisState``, in row order."""
        n_max = self.subspace.n_max
        phonons = [()] if n_max is None else list(product(range(n_max + 1),
                                                           repeat=self.n_sites))
        fields = zip(*(f.tolist() for f in unpack(self.words, self.n_sites,
                                                   self.species_count)))
        return tuple(BasisState(*masks, ph=ph) for masks in fields for ph in phonons)

    def index_of(self, s: BasisState) -> int | None:
        """Row of ``s``, or None when it is not a state of this basis."""
        k, n, n_max = 2 * self.species_count, self.n_sites, self.subspace.n_max
        masks = (s.up, s.dn, s.fup, s.fdn)
        if (any(masks[k:]) or max(masks) >> n or len(s.ph) != (0 if n_max is None else n)
                or not all(0 <= p <= n_max for p in s.ph)):
            return None
        i = int(self.lookup(np.uint64(pack(masks[:k], n))))
        if i < 0:
            return None
        for p in s.ph:
            i = i * (n_max + 1) + p
        return i


def _sector_words(n: int, kind: SubspaceKind, n_electrons: int,
                  twice_m: int) -> np.ndarray:
    """Packed states of one nonempty sector, unsorted."""
    full = (1 << n) - 1
    n_up = (twice_m + n_electrons) // 2
    masks = _popcount_masks
    if kind.kind == "full":
        up, dn = masks(n, n_up), masks(n, n_electrons - n_up)
        return pack((up[:, None], dn[None, :]), n).ravel()
    if kind.kind == "single_occupancy":
        up = masks(n, n_up)
        return pack((up, full ^ up), n)
    parts = []
    if kind.kind == "one_hole":
        low = masks(n - 1, n_up)
        for hole in range(n):
            # spread the (n-1)-site masks over the sites other than the hole
            up = ((low >> hole) << (hole + 1)) | (low & ((1 << hole) - 1))
            parts.append(pack((up, full ^ (1 << hole) ^ up), n))
        return np.concatenate(parts)
    # kondo: f-sites singly occupied, conduction at half filling
    for n_fup in range(max(0, n_up - n), min(n, n_up) + 1):
        n_cup = n_up - n_fup
        fup = masks(n, n_fup)
        parts.append(pack((masks(n, n_cup)[:, None, None],
                           masks(n, n - n_cup)[None, :, None],
                           fup, full ^ fup), n).ravel())
    return np.concatenate(parts)


def enumerate_sector(g: Graph, kind: SubspaceKind, n_electrons: int | None = None,
                     m=None) -> SectorBasis:
    """Complete sorted enumeration of a sector; ``m=None`` takes every sector.

    ``n_electrons`` is only consulted for ``full`` kinds and must then match
    the kind's electron count.  Raises ``ValueError`` before allocating when
    a packed state needs more than 64 bits, or when 2m is not an integer.
    """
    n = g.vertex_count
    check_packable(n, kind)
    ne = kind.electron_count(n)
    if n_electrons is not None and n_electrons != ne:
        raise ValueError(f"electron count {n_electrons} inconsistent with kind (expects {ne})")
    values = sector_twice_m_values(g, kind)
    twice_m = None if m is None else twice_value(m)
    if twice_m is not None and twice_m not in values:
        raise ValueError(f"empty sector: M={m}")
    words = np.sort(np.concatenate([_sector_words(n, kind, ne, t)
                                    for t in (values if twice_m is None else [twice_m])]))
    return SectorBasis(g, kind, ne, twice_m, words)


def sector_dimension(g: Graph, kind: SubspaceKind, m) -> int:
    """Combinatorial dimension of the electron sector (no phonon factor)."""
    n = g.vertex_count
    t = twice_value(m)
    if t not in sector_twice_m_values(g, kind):
        return 0
    ne = kind.electron_count(n)
    n_up = (t + ne) // 2
    if kind.kind == "full":
        return comb(n, n_up) * comb(n, ne - n_up)
    if kind.kind == "single_occupancy":
        return comb(n, n_up)
    if kind.kind == "one_hole":
        return n * comb(n - 1, n_up)
    return sum(comb(n, n_fup) * comb(n, n_up - n_fup) ** 2
               for n_fup in range(max(0, n_up - n), min(n, n_up) + 1))


# ---------------------------------------------------------------------------
# signed distinguished-basis vectors
# ---------------------------------------------------------------------------

def _apply_product(occ: int, orbs: list[int], create: bool, masks) -> tuple[int, int] | None:
    """Ascending left-to-right operator product: rightmost factor acts first."""
    sign = 1
    for orb in reversed(sorted(orbs)):
        res = _flip(occ, orb, create, masks)
        if res is None:
            return None
        occ, s = res
        sign *= s
    return occ, sign


def cons_vector(n_sites: int, part_b_mask: int, up_set: int, dn_kill_set: int,
                species_count: int = 1) -> tuple[int, int]:
    """Signed basis vector (-1)^(|B| + |D cap B|) prod'_x [c*_up][c_dn][c*_dn] |empty>,
    as (packed word, sign).

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
    masks = orbital_masks(n_sites, species_count)
    site_count = n_sites * species_count
    occ = 0
    sign = 1
    for u in reversed(range(site_count)):     # rightmost (largest) site first
        occ, s = _flip(occ, 2 * u + 1, True, masks)
        sign *= s
        if (dn_kill_set >> u) & 1:
            res = _flip(occ, 2 * u + 1, False, masks)
            assert res is not None
            occ, s = res
            sign *= s
        if (up_set >> u) & 1:
            res = _flip(occ, 2 * u, True, masks)
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
    state = BasisState(*unpack(occ, g.vertex_count, 1))
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
    occ, s = _apply_product(occ, orbs, True, orbital_masks(n, 1))
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

def mlm_sign_table(basis: SectorBasis, part_b_mask: int | None = None) -> np.ndarray:
    """Signs s_i with |X_i, Xbar_i> = s_i * canonical_i over a single-occupancy basis.

    ``cons_vector(n, B, X, X)`` builds the state with up set X and down set
    the complement of X, with string sign +1, so s = (-1)^(|B| + |X cap B|).
    Raises ``ValueError`` unless every state is that word: singly occupied
    with the down set the complement of the up set.
    """
    if part_b_mask is None:
        bp = bipartition(basis.graph)
        if bp is None:
            raise ValueError("graph is not bipartite")
        part_b_mask = bp.b_mask()
    up, dn = basis.fields()
    if np.any(dn != ((1 << basis.n_sites) - 1) ^ up):
        raise ValueError("basis has states that are not singly occupied")
    parity = part_b_mask.bit_count() + np.bitwise_count(up & np.uint64(part_b_mask))
    return np.where(parity & 1, -1, 1)


def nt_sign_table(basis: SectorBasis) -> np.ndarray:
    """Signs of the |sigma> vectors over a one-hole basis (phonons untouched):
    -1 where the hole sits on an odd site."""
    up, dn = basis.fields()
    hole = ((1 << basis.n_sites) - 1) ^ (up | dn)
    return np.where(np.bitwise_count(hole - 1) & 1, -1, 1)


def hubbard_labels(basis: SectorBasis) -> list[tuple[int, int]]:
    """(X, Y) labels of a half-filled full basis: up set X, down set = complement of Y."""
    up, dn = basis.fields()
    full = (1 << basis.n_sites) - 1
    return list(zip(up.tolist(), (full ^ dn).tolist()))


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


def _decorated_signs(n_sites: int, part2: int, labels, words, species_count: int
                     ) -> list[int]:
    """Construction sign times up/down reorder parity, normalized per
    particle-count block, of each (up set, complement of down) label pair;
    each constructed vector must be the basis state of its row."""
    signs = []
    for (x_set, y_set), word in zip(labels, words):
        occ, sign = cons_vector(n_sites, part2, x_set, y_set, species_count)
        assert occ == word
        k = x_set.bit_count()
        sign *= updown_reorder_sign(x_set, y_set)
        if (k * (k - 1) // 2) & 1:
            sign = -sign
        signs.append(sign)
    return signs


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
    n = g.vertex_count
    words = pack(basis.fields(), n).tolist()
    return _decorated_signs(n, bp.b_mask(), hubbard_labels(basis), words, 1)


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


def _spread(mask, n_sites: int):
    """Bit x of a site mask (int or uint64 array) moved to bit 2x."""
    return sum(((mask >> x) & 1) << (2 * x) for x in range(n_sites))


def _doubled_sets(up, dn, fup, fdn, n_sites: int) -> tuple:
    full = (1 << n_sites) - 1
    return (_spread(up, n_sites) | _spread(fup, n_sites) << 1,
            _spread(full ^ dn, n_sites) | _spread(full ^ fdn, n_sites) << 1)


def kondo_doubled_sets(s: BasisState, n_sites: int) -> tuple[int, int]:
    """(U, V) doubled-site sets of a two-species state: up set and complement of down."""
    return _doubled_sets(s.up, s.dn, s.fup, s.fdn, n_sites)


def kondo_labels(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray]:
    """(U, V) doubled-site sets of every state of a Kondo basis."""
    return _doubled_sets(*basis.fields(), basis.n_sites)


def kondo_sign_table(basis: SectorBasis, coupling_sign: str) -> list[int]:
    """Signs of the doubled-lattice PSD-cone vectors over a Kondo basis.

    The same decoration as ``hubbard_sign_table``, on the doubled sites with
    the coupling-dependent bipartition playing the role of the B sublattice.
    """
    g = basis.graph
    n = g.vertex_count
    labels = zip(*(a.tolist() for a in kondo_labels(basis)))
    words = pack(basis.fields(), n).tolist()
    return _decorated_signs(n, kondo_part2_mask(g, coupling_sign), labels, words, 2)
