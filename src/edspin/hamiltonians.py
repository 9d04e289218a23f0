"""Model constructors and validators for every condition the theorems impose.

Models (and the sector bases they act on):

    mlm              complete-bipartite spin coupling, single occupancy
    heisenberg       sum J_xy S_x.S_y, single occupancy
    hubbard          hopping + (U_xy/2)(n_x-1)(n_y-1), half filling
    hubbard_nt       Gutzwiller-compressed hopping, one hole
    holstein_hubbard hubbard + phonon coupling, truncated phonons
    holstein_nt      hubbard_nt + phonon coupling, truncated phonons
    kondo            conduction hopping + J sum S^c.S^f + conduction Coulomb
    kondo_holstein   kondo + phonon coupling on the conduction density
"""

from dataclasses import dataclass

import numpy as np
import scipy

from . import operators as ops
from .fock import SectorBasis, SubspaceKind, enumerate_sector, sector_twice_m_values
from .lattice import Graph, bipartition, normal_spanning_tree, nt_config_graph

MODELS = ("mlm", "heisenberg", "hubbard", "hubbard_nt", "holstein_hubbard",
          "holstein_nt", "kondo", "kondo_holstein")

PD_TOL = 1e-10

_PHONON_MODELS = ("holstein_hubbard", "holstein_nt", "kondo_holstein")


def coupling_matrix(g: Graph, value, kind: str = "diagonal") -> np.ndarray:
    """Expand shorthand couplings: scalar -> v * identity, "nn" -> v on edges."""
    n = g.vertex_count
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=float)
    if kind == "diagonal":
        return float(value) * np.eye(n)
    if kind == "nn":
        m = np.zeros((n, n))
        for u, v in g.edges:
            m[u, v] = m[v, u] = float(value)
        return m
    if kind == "complete_bipartite":
        bp = bipartition(g)
        if bp is None:
            raise ValueError("graph is not bipartite")
        m = np.zeros((n, n))
        for a in bp.part_a:
            for b in bp.part_b:
                m[a, b] = m[b, a] = float(value)
        return m
    raise ValueError(f"unknown coupling shorthand {kind!r}")


@dataclass(frozen=True)
class ModelSpec:
    """A model id, its graph, and every coupling it needs."""

    model: str
    graph: Graph
    t: np.ndarray | None = None
    u: np.ndarray | None = None
    j: np.ndarray | None = None        # heisenberg exchange matrix
    j_kondo: float | None = None       # scalar local coupling
    g_ep: np.ndarray | None = None     # electron-phonon matrix
    omega: float | None = None
    n_max: int | None = None

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("t", "u", "j", "g_ep"):
            m = getattr(self, name)
            if m is not None:
                m = np.asarray(m, dtype=float)
                n = self.graph.vertex_count
                if m.shape != (n, n):
                    raise ValueError(f"coupling {name} has wrong shape")
                if not np.allclose(m, m.T, atol=1e-12):
                    raise ValueError(f"coupling {name} must be symmetric")
                object.__setattr__(self, name, m)
        if self.model in _PHONON_MODELS:
            if self.omega is None or self.omega <= 0:
                raise ValueError("phonon models need omega > 0")
            if self.n_max is None:
                object.__setattr__(self, "n_max", 6)
            if self.g_ep is None:
                raise ValueError("phonon models need an electron-phonon matrix")

    @property
    def has_phonons(self) -> bool:
        return self.model in _PHONON_MODELS

    def subspace(self) -> SubspaceKind:
        n_max = self.n_max if self.has_phonons else None
        if self.model in ("mlm", "heisenberg"):
            return SubspaceKind.single_occupancy()
        if self.model in ("hubbard", "holstein_hubbard"):
            return SubspaceKind.full(self.graph.vertex_count, n_max)
        if self.model in ("hubbard_nt", "holstein_nt"):
            return SubspaceKind.one_hole(n_max)
        return SubspaceKind.kondo(n_max)

    def sector_values(self) -> list[int]:
        """Twice-values of S3 over the model's nonempty sectors."""
        kind = SubspaceKind(self.subspace().kind, self.subspace().n_electrons, None)
        return sector_twice_m_values(self.graph, kind)

    def basis(self, m) -> SectorBasis:
        return enumerate_sector(self.graph, self.subspace(), m=m)


def u_effective(spec: ModelSpec) -> tuple[np.ndarray, float]:
    """Phonon-screened interaction U - (2/omega) g g^T and its lowest eigenvalue."""
    if not spec.has_phonons:
        raise ValueError("u_effective applies to phonon models only")
    if spec.omega is None or spec.omega <= 0:
        raise ValueError("omega must be positive")
    n = spec.graph.vertex_count
    u = spec.u if spec.u is not None else np.zeros((n, n))
    g = spec.g_ep
    ueff = u - (2.0 / spec.omega) * (g @ g.T)
    return ueff, float(np.linalg.eigvalsh(ueff).min())


# ---------------------------------------------------------------------------
# building
# ---------------------------------------------------------------------------

def _electron_part(spec: ModelSpec, basis: SectorBasis) -> ops.SparseOperator:
    """The purely electronic operator on an electron sector basis."""
    g = spec.graph
    n = g.vertex_count
    model = spec.model
    if model in ("mlm", "heisenberg"):
        if model == "mlm":
            j = coupling_matrix(g, 1.0, "complete_bipartite")
        elif spec.j is None:
            raise ValueError("heisenberg needs an exchange matrix")
        else:
            j = spec.j
        terms = [(j[x, y] * c, s)
                 for x in range(n) for y in range(x + 1, n) if j[x, y] != 0.0
                 for c, s in ops._spin_dot_terms(basis, (x, 0), (y, 0))]
        return ops.assemble(basis, basis, terms, hermitian=True)
    kondo = model in ("kondo", "kondo_holstein")
    if spec.t is None or (kondo and spec.j_kondo is None):
        raise ValueError(f"{model} needs a hopping matrix"
                         + (" and a scalar coupling" if kondo else ""))
    # on the one-hole basis the compression of the hopping IS P^G . P^G
    h = ops.hopping(basis, spec.t).matrix
    if kondo:
        terms = [(spec.j_kondo * c, s) for x in range(n)
                 for c, s in ops._spin_dot_terms(basis, (x, 0), (x, 1))]
        h = h + ops.assemble(basis, basis, terms, hermitian=True).matrix
    if spec.u is not None:
        h = h + ops.coulomb(basis, spec.u).matrix
    return ops.SparseOperator(h.tocsr(), basis, basis, hermitian=True)


def build(spec: ModelSpec, m) -> ops.SparseOperator:
    """Hermitian sparse Hamiltonian of the model on its M-sector basis.

    With phonons the basis is the electron sector times the phonon factor,
    and the electronic part acts on the electron sector alone.
    """
    basis = enumerate_sector(spec.graph, spec.subspace(), m=m)
    elec = _electron_part(spec, ops.electron_basis(basis))
    if not spec.has_phonons:
        return elec
    n = spec.graph.vertex_count
    n_max = spec.n_max
    ph_dim = basis.phonon_dim
    h = scipy.sparse.kron(elec.matrix, scipy.sparse.identity(ph_dim, format="csr"),
                          format="csr")
    # omega * total phonon number
    h = h + scipy.sparse.kron(scipy.sparse.identity(elec.domain.dim, format="csr"),
                              spec.omega * ops.phonon_number_total(n, n_max),
                              format="csr")
    # sum_xy g_xy (n_x - 1)(b_y* + b_y), with n the conduction density
    occ = ops.number_values(elec.domain, species=0) - 1.0
    b, bdag = ops.phonon_ops(n_max)
    q = b + bdag
    for y in range(n):
        weights = occ @ spec.g_ep[:, y]
        if not np.any(weights):
            continue
        dia = scipy.sparse.diags(weights, format="csr")
        h = h + scipy.sparse.kron(dia, ops.phonon_site_matrix(n, n_max, y, q),
                                  format="csr")
    return ops.SparseOperator(h.tocsr(), basis, basis, hermitian=True)


# ---------------------------------------------------------------------------
# Kondo doubled graphs
# ---------------------------------------------------------------------------

def kondo_graphs(g: Graph) -> tuple[Graph, Graph]:
    """Doubled-vertex graphs for antiferromagnetic and ferromagnetic coupling.

    Doubled site 2x is the conduction copy of x, 2x+1 the localized copy.
    Antiferromagnetic: conduction edges plus on-site rungs; ferromagnetic:
    conduction edges plus cross rungs along lattice edges.
    """
    bp = bipartition(g)
    if bp is None:
        raise ValueError("graph is not bipartite")
    c = lambda x: 2 * x
    f = lambda x: 2 * x + 1
    af_edges = [(c(u), c(v)) for u, v in g.edges]
    af_edges += [(c(x), f(x)) for x in range(g.vertex_count)]
    f_edges = [(c(u), c(v)) for u, v in g.edges]
    for u, v in g.edges:
        f_edges += [(c(u), f(v)), (c(v), f(u))]
    n2 = 2 * g.vertex_count
    return Graph(n2, tuple(af_edges)), Graph(n2, tuple(f_edges))


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConditionCheck:
    name: str
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        d = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ConditionCheck, ...]
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[ConditionCheck]:
        return [c for c in self.checks if not c.passed]

    def to_dict(self) -> dict:
        return {"ok": self.ok,
                "checks": [c.to_dict() for c in self.checks],
                "warnings": list(self.warnings)}


def _graph_of_coupling(m: np.ndarray, n: int) -> Graph:
    edges = tuple((x, y) for x in range(n) for y in range(x + 1, n) if m[x, y] != 0.0)
    return Graph(n, edges)


def _check_bipartite_support(name: str, m: np.ndarray, bp) -> list[ConditionCheck]:
    out = []
    bad = None
    for x in range(m.shape[0]):
        for y in range(x + 1, m.shape[0]):
            if m[x, y] != 0.0 and bp.part_of(x) == bp.part_of(y):
                bad = (x, y)
                break
        if bad:
            break
    out.append(ConditionCheck(
        f"{name}-respects-bipartition", bad is None,
        None if bad is None else f"coupling between same-part vertices {bad}"))
    return out


def _check_tree_containment(name: str, m: np.ndarray, g: Graph) -> ConditionCheck:
    tree = normal_spanning_tree(g, root=0)
    for (u, v) in tree.edges:
        if m[u, v] == 0.0:
            return ConditionCheck(f"{name}-contains-spanning-tree", False,
                                  f"tree edge ({u}, {v}) missing from the coupling")
    return ConditionCheck(f"{name}-contains-spanning-tree", True)


def validate(spec: ModelSpec) -> ValidationReport:
    """Verdict per applicable structural condition, each failure with a witness."""
    g = spec.graph
    n = g.vertex_count
    checks: list[ConditionCheck] = []
    warnings: list[str] = []
    if not g.is_connected:
        return ValidationReport((ConditionCheck("graph-connected", False,
                                                "graph not connected"),))
    checks.append(ConditionCheck("graph-connected", True))
    model = spec.model
    needs_bipartite = model in ("mlm", "heisenberg", "hubbard", "holstein_hubbard",
                                "kondo", "kondo_holstein")
    bp = bipartition(g)
    if needs_bipartite:
        checks.append(ConditionCheck("graph-bipartite", bp is not None,
                                     None if bp else "odd cycle present"))
        if bp is None:
            return ValidationReport(tuple(checks), tuple(warnings))
        if n % 2:
            warnings.append("odd vertex count: half-filling theorems assume an even lattice")

    if model in ("mlm", "heisenberg"):
        j = spec.j if model == "heisenberg" else coupling_matrix(g, 1.0, "complete_bipartite")
        if j is None:
            checks.append(ConditionCheck("exchange-present", False, "no exchange matrix"))
            return ValidationReport(tuple(checks), tuple(warnings))
        neg = [(x, y) for x in range(n) for y in range(x + 1, n) if j[x, y] < 0]
        checks.append(ConditionCheck(
            "exchange-nonnegative", not neg,
            None if not neg else f"negative exchange on edge {neg[0]}"))
        checks += _check_bipartite_support("exchange", j, bp)
        checks.append(_check_tree_containment("exchange", j, g))

    if model in ("hubbard", "holstein_hubbard", "kondo", "kondo_holstein"):
        if spec.t is None:
            checks.append(ConditionCheck("hopping-present", False, "no hopping matrix"))
            return ValidationReport(tuple(checks), tuple(warnings))
        off = spec.t - np.diag(np.diag(spec.t))
        checks += _check_bipartite_support("hopping", off, bp)
        checks.append(_check_tree_containment("hopping", spec.t, g))

    if model == "hubbard":
        u = spec.u if spec.u is not None else np.zeros((n, n))
        lo = float(np.linalg.eigvalsh(u).min())
        checks.append(ConditionCheck(
            "interaction-positive-definite", lo >= PD_TOL,
            None if lo >= PD_TOL else f"lowest eigenvalue {lo:.3e}"))
    if model == "holstein_hubbard":
        _append_phonon_checks(spec, checks, definite=True)
    if model in ("kondo", "kondo_holstein"):
        if spec.j_kondo is None or spec.j_kondo == 0.0:
            checks.append(ConditionCheck("kondo-coupling-nonzero", False,
                                         "scalar coupling missing or zero"))
        else:
            checks.append(ConditionCheck("kondo-coupling-nonzero", True))
        if model == "kondo":
            u = spec.u if spec.u is not None else np.zeros((n, n))
            lo = float(np.linalg.eigvalsh(u).min())
            checks.append(ConditionCheck(
                "interaction-positive-semidefinite", lo >= -PD_TOL,
                None if lo >= -PD_TOL else f"lowest eigenvalue {lo:.3e}"))
        else:
            _append_phonon_checks(spec, checks, definite=False)

    if model in ("hubbard_nt", "holstein_nt"):
        if spec.t is None:
            checks.append(ConditionCheck("hopping-present", False, "no hopping matrix"))
            return ValidationReport(tuple(checks), tuple(warnings))
        bad = [(x, y) for x in range(n) for y in range(x + 1, n) if spec.t[x, y] < 0]
        checks.append(ConditionCheck(
            "hopping-positive-on-edges", not bad,
            None if not bad else f"nonpositive hopping on edge {bad[0]}"))
        checks.append(_check_tree_containment("hopping", spec.t, g))
        g_t = _graph_of_coupling(spec.t, n)
        if not g_t.is_connected:
            checks.append(ConditionCheck("configuration-graph-connected", False,
                                         "hopping graph is disconnected"))
        else:
            witness = None
            kind = SubspaceKind.one_hole()
            for tm in sector_twice_m_values(g, kind):
                cg = nt_config_graph(g_t, tm / 2)
                comps = cg.components()
                if len(comps) > 1:
                    witness = (f"sector M={tm}/2 splits into {len(comps)} components; "
                               f"one component: {[cg.nodes[i] for i in comps[0][:3]]}")
                    break
            checks.append(ConditionCheck("configuration-graph-connected",
                                         witness is None, witness))
        if model == "holstein_nt":
            _append_phonon_checks(spec, checks, definite=None)

    return ValidationReport(tuple(checks), tuple(warnings))


def _append_phonon_checks(spec: ModelSpec, checks: list, definite: bool | None) -> None:
    checks.append(ConditionCheck("phonon-frequency-positive",
                                 spec.omega is not None and spec.omega > 0,
                                 None if spec.omega and spec.omega > 0 else "omega <= 0"))
    g = spec.g_ep
    n = spec.graph.vertex_count
    sums = g.sum(axis=1)
    uniform = bool(np.allclose(sums, sums[0], atol=1e-12))
    checks.append(ConditionCheck(
        "phonon-coupling-row-sums-uniform", uniform,
        None if uniform else f"row sums range over [{sums.min():.3g}, {sums.max():.3g}]"))
    if definite is None:
        return
    ueff, lo = u_effective(spec)
    if definite:
        checks.append(ConditionCheck(
            "effective-interaction-positive-definite", lo >= PD_TOL,
            None if lo >= PD_TOL else f"lowest eigenvalue {lo:.3e}"))
    else:
        checks.append(ConditionCheck(
            "effective-interaction-positive-semidefinite", lo >= -PD_TOL,
            None if lo >= -PD_TOL else f"lowest eigenvalue {lo:.3e}"))
