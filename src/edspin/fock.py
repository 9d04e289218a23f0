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
operators on the vacuum.  Every signed basis vector used by the positivity
cones (the |X, Xbar>-type vectors, the one-hole |sigma> vectors and their
two-species analogues) is +/- one canonical state, and the sign tables give
that sign for every row of a basis at once, in closed form over the packed
words.  The site-interleaved construction prod'_x [c*_up][c_dn][c*_dn]
|empty> has string sign +1, so a label (X, Y) (up set X, down set the
complement of Y, part mask P, k = |X|) carries

    (-1)^(|P| + |Y & P| + #{x in X, y in Y : x > y} + k(k-1)/2),

the spin-reflection-positivity decoration of Lieb (PRL 62, 1201 (1989)),
with the pair count taken bit plane by bit plane (Sandvik,
arXiv:1101.3281).  The symbolic per-state constructions that these forms
are checked against, sign for sign, are in ``tests/oracles.py``.

Half-integer quantum numbers are carried as twice-value integers.
"""

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
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


# ---------------------------------------------------------------------------
# packed words and orbitals
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
        if not len(self.words):             # an empty sector holds no word
            return np.full(np.shape(words), -1)
        i = np.searchsorted(self.words, words)
        found = self.words[np.minimum(i, len(self.words) - 1)] == words
        return np.where(found, i, -1)


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
# distinguished-sign tables for whole sector bases
# ---------------------------------------------------------------------------

def mlm_sign_table(basis: SectorBasis, part_b_mask: int | None = None) -> np.ndarray:
    """Signs s_i with |X_i, Xbar_i> = s_i * canonical_i over a single-occupancy basis.

    The construction with up set X and down set the complement of X has
    string sign +1, so s = (-1)^(|B| + |X cap B|) (the module's closed form
    at Y = X, where the pair count and k(k-1)/2 cancel).
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


def _psd_signs(x, y, part2: int, n_bits: int) -> np.ndarray:
    """(-1)^(|P| + |Y & P| + #{a in X, b in Y : a > b} + k(k-1)/2), k = |X|,
    for every label (X, Y) of ``n_bits``-bit set arrays; P = ``part2``.

    The first two terms are the site-interleaved construction sign, the pair
    count is the up/down reorder parity, summed over the bit planes b of Y
    as popcount(X >> (b+1)), and the last term normalizes each
    particle-count block so that diagonal labels carry the MLM signs.
    """
    count = part2.bit_count() + np.bitwise_count(y & np.uint64(part2)).astype(np.int64)
    for b in range(n_bits):
        count += ((y >> b) & 1).astype(np.int64) * np.bitwise_count(x >> (b + 1))
    k = np.bitwise_count(x).astype(np.int64)
    count += k * (k - 1) // 2
    return np.where(count & 1, -1, 1)


def hubbard_labels(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) labels of a half-filled full basis: up set X, down set = complement
    of Y.  Raises ``ValueError`` for a basis of any other kind or filling."""
    if basis.subspace.kind != "full" or basis.n_electrons != basis.n_sites:
        raise ValueError("Hubbard labels need a half-filled full basis")
    up, dn = basis.fields()
    return up, ((1 << basis.n_sites) - 1) ^ dn


def hubbard_sign_table(basis: SectorBasis) -> np.ndarray:
    """Signs of the PSD-cone vectors over a half-filled full basis.

    The sign at label (X, Y) is the site-interleaved construction sign
    (-1)^(|B| + |Y cap B|) times the up/down reorder parity, normalized per
    particle-count block so that diagonal labels carry exactly the
    single-occupancy signs.  Under this decoration the PSD coefficient cone
    restricts to the diagonal cone, is hermitian-compatible, and factors
    across nested lattices.
    """
    bp = bipartition(basis.graph)
    if bp is None:
        raise ValueError("graph is not bipartite")
    x, y = hubbard_labels(basis)
    return _psd_signs(x, y, bp.b_mask(), basis.n_sites)


def kondo_doubled_site(x: int, species: int) -> int:
    return 2 * x + species


def kondo_part2_mask(g: Graph, coupling_sign: str) -> int:
    """Doubled-site mask of the second bipartition part for the given coupling.

    Antiferromagnetic (J > 0): part2 = B-conduction + A-localized;
    ferromagnetic (J < 0): part2 = B-conduction + B-localized.  Any sign
    other than "af" or "f" raises ``ValueError``.
    """
    if coupling_sign not in ("af", "f"):
        raise ValueError(f"coupling sign {coupling_sign!r} is neither 'af' nor 'f'")
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


def kondo_labels(basis: SectorBasis) -> tuple[np.ndarray, np.ndarray]:
    """(U, V) doubled-site sets of every state of a Kondo basis: site 2x + species
    of U is occupied up, of V unoccupied down.  Raises ``ValueError`` for a
    basis of any other kind."""
    if basis.subspace.kind != "kondo":
        raise ValueError("Kondo labels need a kondo basis")
    n = basis.n_sites
    full = (1 << n) - 1
    up, dn, fup, fdn = basis.fields()
    return (_spread(up, n) | _spread(fup, n) << 1,
            _spread(full ^ dn, n) | _spread(full ^ fdn, n) << 1)


def kondo_sign_table(basis: SectorBasis, coupling_sign: str) -> np.ndarray:
    """Signs of the doubled-lattice PSD-cone vectors over a Kondo basis.

    The same decoration as ``hubbard_sign_table``, on the 2n doubled sites
    with the coupling-dependent bipartition playing the role of the B
    sublattice.
    """
    u, v = kondo_labels(basis)
    return _psd_signs(u, v, kondo_part2_mask(basis.graph, coupling_sign),
                      2 * basis.n_sites)
