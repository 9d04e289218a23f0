"""Theorem-level harness: build, validate, diagonalize, cone checks, report.

Each verify entry point asserts the exact finite-volume statement for its
model class: predicted ground-state total spin S, multiplet degeneracy
2S+1, and a unique, strictly cone-positive, ergodic ground vector.
Everything is checked at finite volume with pinned tolerances; nothing is
fitted or extrapolated.

Every model here commutes with total spin, so the SU(2) multiplets fix
which sectors a verdict needs (Lieb & Mattis, J. Math. Phys. 3, 749
(1962)).  Sector M holds one vector of each multiplet with S >= |M|, so its
lowest energy E_min(M) never falls as |M| grows, and spin flip gives sector
-M the spectrum of sector M.  ``verify`` therefore solves at most three
sectors:

- the lowest |M| (0 or 1/2), which holds one vector of every multiplet:
  its lowest energy is E0, and the S^2 eigenvalues on its ground cluster
  give the degeneracy sum(2S_i + 1) exactly.  It gets the uniqueness, S^2,
  ergodicity and strict-positivity checks;
- M = S for the predicted S: its lowest energy must be E0, it gets the same
  cone checks, and its ground vector must be a highest-weight vector,
  |S+ psi| within (N_e/2 + 1)(2 max(residual)/gap + roundoff) of 0, where
  N_e/2 + 1 bounds |S+| and 2 max(residual)/gap bounds the solved vector's
  distance from the true one (Davis & Kahan, SIAM J. Numer. Anal. 7, 1
  (1970));
- M = S + 1, when that sector exists: its lowest energy must lie strictly
  above E0.  Its cone checks are not needed and are not made.

Every other sector is reported as implied, with its dimension and the
reason, and nothing is computed for it.

A sector's strict positivity in a diagonal cone is decided by the certified
Perron-Frobenius margin of ``cones.strict_positivity``, from the sector
operator and its solved ground space, so no fixed tolerance meets the tiny
coefficients of large sectors; each sector report carries the margin, the
refinement steps and the accuracy bound the decision relied on.  PSD cones
and the Kondo projected vectors keep the raw test against
``cones.STRICT_TOL``.
"""

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from . import cones as cn
from . import operators as ops
from .fock import SectorBasis, SubspaceKind, enumerate_sector, sector_dimension
from .hamiltonians import (ModelSpec, ValidationReport, build, kondo_graphs,
                           validate)
from .lattice import Graph, LatticeFamily, relabel, sublattice_imbalance
from .spectra import DEGENERACY_TOL, SolverStats, ground_space, total_spin_of

ENERGY_EQUALITY_RTOL = 1e-8
SCAN_DIM_LIMIT = 100_000

# roles of the solved sectors
LOWEST = "lowest |M|"
AT_S = "M = S"
ABOVE_S = "M = S + 1"
TRUNCATION_NOTE = "cone-not-defined-under-truncation"


class ValidationFailure(RuntimeError):
    """A structural condition failed; carries the validation report."""

    def __init__(self, report: ValidationReport):
        witness = "; ".join(f"{c.name}: {c.witness or 'failed'}" for c in report.failed())
        super().__init__(f"validation failed ({witness})")
        self.report = report


@dataclass(frozen=True)
class SectorReport:
    """A solved sector and the checks its ``roles`` in the schedule ask for."""

    twice_m: int
    dim: int
    roles: tuple[str, ...]
    e0: float
    multiplicity: int
    gap: float
    ergodicity: cn.ErgodicityVerdict | None
    strictness: cn.StrictnessVerdict | None
    twice_s: int | None
    solver: SolverStats
    note: str | None = None
    highest_weight_norm: float | None = None
    highest_weight_bound: float | None = None

    @property
    def strict_margin(self) -> float | None:
        return None if self.strictness is None else self.strictness.margin

    def to_dict(self) -> dict:
        d = {"M": self.twice_m / 2, "dim": self.dim, "role": ", ".join(self.roles),
             "E0": self.e0, "multiplicity": self.multiplicity, "gap": self.gap,
             "solver": dataclasses.asdict(self.solver)}
        if self.ergodicity is not None:
            d["ergodicity"] = self.ergodicity.to_dict()
        if self.strictness is not None:
            d["strict_positivity_margin"] = self.strictness.margin
            d["strict_positivity_steps"] = self.strictness.steps
            d["strict_positivity_bound"] = self.strictness.bound
        if self.highest_weight_norm is not None:
            d["highest_weight_norm"] = self.highest_weight_norm
            d["highest_weight_bound"] = self.highest_weight_bound
        if self.twice_s is not None:
            d["S"] = self.twice_s / 2
        if self.note:
            d["note"] = self.note
        return d


@dataclass(frozen=True)
class ImpliedSector:
    """A sector the SU(2) argument settles without solving it."""

    twice_m: int
    dim: int
    reason: str

    def to_dict(self) -> dict:
        return {"M": self.twice_m / 2, "dim": self.dim, "implied": self.reason}


@dataclass(frozen=True)
class GroundStateReport:
    model: dict
    sectors: tuple[SectorReport | ImpliedSector, ...]   # solved first, then implied
    e0: float
    degeneracy: int
    twice_s_computed: int | None
    twice_s_predicted: int | None
    verdict: str                      # pass | consequence-verified-pass | fail
    failures: tuple[str, ...]
    tolerances: dict
    validation: ValidationReport
    wall_time: float
    warnings: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.verdict in ("pass", "consequence-verified-pass")

    @property
    def solved(self) -> tuple[SectorReport, ...]:
        return tuple(s for s in self.sectors if isinstance(s, SectorReport))

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "sectors": [s.to_dict() for s in self.sectors],
            "global": {
                "E0": self.e0,
                "degeneracy": self.degeneracy,
                "S_computed": None if self.twice_s_computed is None else self.twice_s_computed / 2,
                "S_predicted": None if self.twice_s_predicted is None else self.twice_s_predicted / 2,
            },
            "verdict": self.verdict,
            "failures": list(self.failures),
            "tolerances": self.tolerances,
            "validation": self.validation.to_dict(),
            "timings": {"wall_time_s": self.wall_time},
            "warnings": list(self.warnings),
        }


def _model_echo(spec: ModelSpec) -> dict:
    def enc(m):
        return None if m is None else np.asarray(m).tolist()
    return {"model": spec.model,
            "vertices": spec.graph.vertex_count,
            "edges": [list(e) for e in spec.graph.edges],
            "t": enc(spec.t), "U": enc(spec.u), "J": enc(spec.j),
            "J_kondo": spec.j_kondo, "g": enc(spec.g_ep),
            "omega": spec.omega, "n_max": spec.n_max}


def _sector_cone(spec: ModelSpec, basis: SectorBasis):
    """The cone attached to a sector, or (None, note) when truncation forbids one."""
    if spec.has_phonons:
        return None, TRUNCATION_NOTE
    if spec.model in ("mlm", "heisenberg"):
        return cn.mlm_cone(basis), None
    if spec.model == "hubbard":
        return cn.hubbard_cone(basis), None
    if spec.model == "hubbard_nt":
        return cn.nt_cone(basis), None
    if spec.model == "kondo":
        sign = "af" if (spec.j_kondo or 0) > 0 else "f"
        return cn.kondo_cone(basis, sign), None
    return None, TRUNCATION_NOTE


def predicted_twice_spin(spec: ModelSpec) -> int:
    g = spec.graph
    if spec.model in ("mlm", "heisenberg", "hubbard", "holstein_hubbard"):
        return sublattice_imbalance(g)
    if spec.model in ("hubbard_nt", "holstein_nt"):
        return g.vertex_count - 1
    # kondo classes: doubled-graph imbalance halved
    g_af, g_f = kondo_graphs(g)
    if (spec.j_kondo or 0) > 0:
        return sublattice_imbalance(g_af)
    return sublattice_imbalance(g_f)


def _lowest_twice_m(spec: ModelSpec) -> int:
    """Twice the smallest nonnegative M: 0 or 1."""
    return min(tm for tm in spec.sector_values() if tm >= 0)


def _sector_size(spec: ModelSpec, tm: int) -> int:
    """Dimension of a sector, phonon factor included, without enumerating it."""
    g = spec.graph
    phonon_dim = (spec.n_max + 1) ** g.vertex_count if spec.has_phonons else 1
    return phonon_dim * sector_dimension(g, spec.subspace(), tm / 2)


def _sector_schedule(spec: ModelSpec, twice_s: int):
    """The sectors solved for the prediction 2S = ``twice_s``, each with its
    roles, and every other sector as an ``ImpliedSector``."""
    values = spec.sector_values()
    roles = {_lowest_twice_m(spec): [LOWEST]}
    if twice_s >= 0 and twice_s in values:
        roles.setdefault(twice_s, []).append(AT_S)
        if twice_s + 2 in values:
            roles[twice_s + 2] = [ABOVE_S]
    implied = []
    for tm in values:
        if tm in roles:
            continue
        if -tm in roles:
            reason = f"spin flip of M={-tm / 2}"
        elif abs(tm) <= twice_s:
            reason = "SU(2): |M| <= S, so E_min = E0"
        else:
            reason = "SU(2): |M| > S + 1, so E_min >= E_min(S + 1) > E0"
        implied.append(ImpliedSector(tm, _sector_size(spec, tm), reason))
    return [(tm, tuple(r)) for tm, r in roles.items()], implied


def _solve_sector(spec: ModelSpec, tm: int, seed: int):
    """``(h, ground)`` of one sector; its basis is ``h.domain``."""
    h = build(spec, tm / 2)
    return h, ground_space(h.matrix, seed=seed)


def _at_ground(energy: float, e0: float) -> bool:
    """Whether a sector energy equals the ground energy ``e0``."""
    return abs(energy - e0) <= ENERGY_EQUALITY_RTOL * max(1.0, abs(e0))


def _ground_multiplets(h, gs) -> list[int]:
    """Twice the total spin of each multiplet on a solved sector's ground
    cluster, ascending: the cluster is rotated to diagonalize S^2 on it, and
    each rotated vector must be an S^2 eigenvector (``ValueError``)."""
    s2 = ops.total_spin_squared(h.domain).matrix
    v = gs.vectors
    if gs.multiplicity > 1:
        v = v @ np.linalg.eigh(v.conj().T @ (s2 @ v))[1]
    return [total_spin_of(v[:, i], s2)[0] for i in range(v.shape[1])]


def _ground_summary(spec: ModelSpec, seed: int) -> tuple[float, int, int]:
    """E0, degeneracy and the largest 2S on the ground level, from the
    lowest-|M| sector alone, which holds one vector of each multiplet."""
    h, gs = _solve_sector(spec, _lowest_twice_m(spec), seed)
    spins = _ground_multiplets(h, gs)
    return gs.energy, sum(s + 1 for s in spins), max(spins)


def _highest_weight(h, gs, basis_up) -> tuple[float, float]:
    """|S+ psi| of the sector's ground vector and the bound that certifies
    S+ psi = 0; ``basis_up`` is the sector one unit of M above, or None."""
    psi = gs.vectors[:, 0]
    scale = h.domain.n_electrons / 2 + 1           # bounds |S+| on any sector
    distance = 2 * max(gs.residuals) / gs.gap if np.isfinite(gs.gap) else 0.0
    if basis_up is None:
        return 0.0, scale * distance
    splus = ops.ladder_ops(h.domain, basis_up).matrix
    # each entry of S+ psi sums at most (row length) terms
    roundoff = max(1, int(np.diff(splus.indptr).max())) * np.finfo(float).eps
    return float(np.linalg.norm(splus @ psi)), scale * (distance + roundoff)


def _report(spec: ModelSpec, solved, implied, validation: ValidationReport,
            expected_twice_s: int, start: float) -> GroundStateReport:
    failures: list[str] = []
    tm0, _, h0, gs0 = solved[0]
    e0 = gs0.energy
    twice_s, degeneracy = None, gs0.multiplicity
    try:
        spins = _ground_multiplets(h0, gs0)
        twice_s, degeneracy = max(spins), sum(s + 1 for s in spins)
        if len(set(spins)) > 1:
            failures.append(f"ground multiplets disagree on total spin: {spins}")
    except ValueError as exc:
        failures.append(f"sector M={tm0}/2: {exc}")
    if AT_S not in {r for _, roles, _, _ in solved for r in roles}:
        failures.append(f"predicted S={expected_twice_s / 2} names no sector M=S")
    basis_above = next((h.domain for _, roles, h, _ in solved if ABOVE_S in roles), None)
    sector_reports = []
    consequence_mode = False
    for tm, roles, h, gs in solved:
        basis = h.domain
        checked = ABOVE_S not in roles          # M = S + 1 needs only its energy
        erg = strict = hw_norm = hw_bound = None
        cone, note = (_sector_cone(spec, basis) if checked or spec.has_phonons
                      else (None, None))
        if not checked and (gs.energy < e0 or _at_ground(gs.energy, e0)):
            failures.append(f"sector M={tm}/2 ({ABOVE_S}): E_min {gs.energy:.12g} "
                            f"is not above E0 {e0:.12g}")
        if AT_S in roles:
            if not _at_ground(gs.energy, e0):
                failures.append(f"sector M={tm}/2 ({AT_S}): E_min {gs.energy:.12g} "
                                f"is not E0 {e0:.12g}")
            hw_norm, hw_bound = _highest_weight(h, gs, basis_above)
            if hw_norm > hw_bound:
                failures.append(f"sector M={tm}/2 ({AT_S}): ground vector not highest "
                                f"weight (|S+ psi| {hw_norm:.3e} > bound {hw_bound:.3e})")
        if checked and gs.multiplicity != 1:
            failures.append(f"sector M={tm}/2: ground state degenerate "
                            f"within the sector (multiplicity {gs.multiplicity})")
        if cone is not None:
            erg = cn.ergodicity(h.matrix, cone, ground=gs)
            if isinstance(cone, cn.PSDMatrixCone):
                consequence_mode = True
            if not erg.ok:
                failures.append(f"sector M={tm}/2: ergodicity verdict {erg.verdict}"
                                f" ({erg.witness})")
            psi = cn.gauge_fix(gs.vectors[:, 0], cone)
            strict = cn.strict_positivity(psi, cone, h=h.matrix, ground=gs,
                                          ergodic=erg)
            if not strict.ok:
                failures.append(f"sector M={tm}/2: ground vector not strictly "
                                f"positive (margin {strict.margin:.3e})")
        sector_reports.append(SectorReport(
            tm, basis.dim, roles, gs.energy, gs.multiplicity, gs.gap, erg, strict,
            twice_s if tm == tm0 else None, gs.solver, note, hw_norm, hw_bound))
    if twice_s is not None and twice_s != expected_twice_s:
        failures.append(f"total spin {twice_s / 2} differs from the predicted "
                        f"{expected_twice_s / 2}")
    if twice_s is not None and degeneracy != twice_s + 1:
        failures.append(f"degeneracy {degeneracy} is not 2S+1 = {twice_s + 1}")
    if degeneracy != expected_twice_s + 1:
        failures.append(f"degeneracy {degeneracy} differs from the predicted "
                        f"{expected_twice_s + 1}")
    if failures:
        verdict = "fail"
    else:
        verdict = "consequence-verified-pass" if consequence_mode else "pass"
    tolerances = {"energy_equality_rtol": ENERGY_EQUALITY_RTOL,
                  "sector_schedule": "SU(2): solve the lowest |M|, M=S and M=S+1 "
                                     "for the predicted S; every other sector implied",
                  "highest_weight": "|S+ psi| at M=S within (N_e/2+1)*"
                                    "(2*residual/gap + roundoff)",
                  "diagonal_strictness": "perron-frobenius margin, within "
                                         "2*residual/gap of the solved vector; "
                                         "a margin far below this bound is "
                                         "expected: positivity comes from the "
                                         "nonnegative iteration, the bound only "
                                         "certifies agreement with the solved vector",
                  "gap": "every certified bound divides by the Lanczos gap, a Ritz "
                         "value minus E0; a deflated sweep that missed lambda_2 "
                         "overstates it",
                  "perron_rtol": cn.PERRON_RTOL,
                  "perron_max_steps": cn.PERRON_MAX_STEPS,
                  "strictness_tol": cn.STRICT_TOL,
                  "degeneracy_tol": DEGENERACY_TOL}
    return GroundStateReport(_model_echo(spec), tuple(sector_reports) + tuple(implied),
                             e0, degeneracy, twice_s, expected_twice_s, verdict,
                             tuple(failures), tolerances, validation,
                             time.perf_counter() - start, tuple(validation.warnings))


def _verify(spec: ModelSpec, seed: int) -> tuple[GroundStateReport, list]:
    """The report and the solved sectors ``(twice_m, roles, h, ground)`` it
    was made from."""
    start = time.perf_counter()
    report = validate(spec)
    if not report.ok:
        raise ValidationFailure(report)
    expected = predicted_twice_spin(spec)
    schedule, implied = _sector_schedule(spec, expected)
    solved = [(tm, roles, *_solve_sector(spec, tm, seed)) for tm, roles in schedule]
    return _report(spec, solved, implied, report, expected, start), solved


def verify_mlm_class(spec: ModelSpec, seed: int = 0) -> GroundStateReport:
    """Half-filled exchange/itinerant class: S = sublattice imbalance / 2."""
    if spec.model not in ("mlm", "heisenberg", "hubbard", "holstein_hubbard"):
        raise ValueError(f"{spec.model!r} is not in the half-filled class")
    return _verify(spec, seed)[0]


def verify_nt_class(spec: ModelSpec, seed: int = 0) -> GroundStateReport:
    """One-hole strong-coupling class: S = (|lattice| - 1) / 2."""
    if spec.model not in ("hubbard_nt", "holstein_nt"):
        raise ValueError(f"{spec.model!r} is not in the one-hole class")
    return _verify(spec, seed)[0]


def verify_kondo(spec: ModelSpec, seed: int = 0) -> GroundStateReport:
    """Localized-spin class: S = 0 for J > 0, doubled imbalance for J < 0.

    Besides the sector cone checks, the conduction-singly-occupied restriction
    of the ground vector of each cone-checked sector at E0 is checked
    strictly positive in the doubled-site diagonal cone.
    """
    if spec.model not in ("kondo", "kondo_holstein"):
        raise ValueError(f"{spec.model!r} is not a localized-spin model")
    report, solved = _verify(spec, seed)
    if spec.model != "kondo":
        return report
    sign = "af" if (spec.j_kondo or 0) > 0 else "f"
    failures = []
    for tm, roles, h, gs in solved:
        if ABOVE_S in roles or not _at_ground(gs.energy, report.e0):
            continue
        idx, cone = cn.kondo_diagonal_restriction(h.domain, sign)
        projected = cn.gauge_fix(gs.vectors[:, 0][idx], cone)
        strict = cn.strict_positivity(projected, cone)
        if not strict.ok:
            failures.append(f"sector M={tm}/2: projected vector not "
                            f"strictly positive in the doubled-site cone "
                            f"(margin {strict.margin:.3e})")
    if not failures:
        return report
    return dataclasses.replace(report, verdict="fail",
                               failures=report.failures + tuple(failures))


# ---------------------------------------------------------------------------
# stability pairs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairReport:
    kind: str
    twice_s_a: int
    twice_s_b: int
    overlap: float | None
    nesting: cn.NestingVerdict | None
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "S_a": self.twice_s_a / 2, "S_b": self.twice_s_b / 2,
             "verdict": self.verdict}
        if self.overlap is not None:
            d["overlap"] = self.overlap
        if self.nesting is not None:
            d["nesting"] = self.nesting.to_dict()
        return d


def _restrict_single_occupancy(basis_full: SectorBasis, basis_single: SectorBasis,
                               psi: np.ndarray) -> np.ndarray:
    rows = basis_full.lookup(basis_single.words)
    return np.where(rows >= 0, psi[rows], 0).astype(psi.dtype)


def _restrict_phonon_vacuum(basis_ph: SectorBasis, basis_bare: SectorBasis,
                            psi: np.ndarray) -> np.ndarray:
    return psi[::basis_ph.phonon_dim]


# (model a, model b) -> (twice-M offset of the compared sector above the
# lowest |M|, projection of a's vector onto b's basis, cone on b's basis)
_STABILITY_PAIRS = {
    ("hubbard", "mlm"): (0, _restrict_single_occupancy, cn.mlm_cone),
    ("hubbard", "heisenberg"): (0, _restrict_single_occupancy, cn.mlm_cone),
    ("holstein_hubbard", "hubbard"): (0, _restrict_phonon_vacuum, cn.hubbard_cone),
    ("holstein_nt", "hubbard_nt"): (1, _restrict_phonon_vacuum, cn.nt_cone),
}


def verify_stability_pair(spec_a: ModelSpec, spec_b: ModelSpec,
                          seed: int = 0) -> PairReport:
    """Equal ground-state total spin plus positive projected overlap for the
    supported projection pairs (itinerant -> exchange, phonon -> bare)."""
    ga, gb = spec_a.graph, spec_b.graph
    if (ga.vertex_count, ga.edges) != (gb.vertex_count, gb.edges):
        raise ValueError("stability pairs must share the lattice")
    pair = (spec_a.model, spec_b.model)
    if pair not in _STABILITY_PAIRS:
        raise ValueError(f"unsupported stability pair {pair}")
    offset, project, make_cone = _STABILITY_PAIRS[pair]
    tm = ga.vertex_count % 2 + offset
    h_a, gs_a = _solve_sector(spec_a, tm, seed)
    h_b, gs_b = _solve_sector(spec_b, tm, seed)
    sa, sb = max(_ground_multiplets(h_a, gs_a)), max(_ground_multiplets(h_b, gs_b))
    cone = make_cone(h_b.domain)
    proj = project(h_a.domain, h_b.domain, gs_a.vectors[:, 0])
    overlap = float(np.real(np.vdot(cn.gauge_fix(proj, cone),
                                    cn.gauge_fix(gs_b.vectors[:, 0], cone))))
    ok = (sa == sb) and overlap > 0
    return PairReport("->".join(pair), sa, sb, overlap, None,
                      "pass" if ok else "fail")


def verify_nesting_pair(model: str, g_small: Graph, g_big: Graph,
                        tol: float = cn.STRICT_TOL) -> PairReport:
    """Cone consistency of the whole-space cones of a nested lattice pair."""
    if model not in ("mlm", "heisenberg", "hubbard", "hubbard_nt"):
        raise ValueError(f"no nesting cones for model {model!r}")
    small, big = (_sector_cone(spec, spec.basis(None))[0]
                  for spec in (ModelSpec(model, g_small), ModelSpec(model, g_big)))
    verdict = cn.nesting_consistency(small, big, tol)
    return PairReport(f"nesting-{model}", -1, -1, None, verdict,
                      "pass" if verdict.ok else "fail")


# ---------------------------------------------------------------------------
# scans and invariance
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    n: int
    size: int
    imbalance: int
    twice_s_predicted: int
    twice_s_computed: int | None
    counting_only: bool

    def to_dict(self) -> dict:
        return {"n": self.n, "size": self.size, "imbalance": self.imbalance,
                "S_predicted": self.twice_s_predicted / 2,
                "S_computed": None if self.twice_s_computed is None
                else self.twice_s_computed / 2,
                "counting_only": self.counting_only}


@dataclass(frozen=True)
class ScanReport:
    family: str
    model: str
    rows: tuple[ScanRow, ...]
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {"family": self.family, "model": self.model,
                "rows": [r.to_dict() for r in self.rows], "verdict": self.verdict}


def magnetic_order_scan(family: LatticeFamily, make_spec, n_range,
                        dim_limit: int = SCAN_DIM_LIMIT, seed: int = 0) -> ScanReport:
    """Table of exact finite-volume total spins along a lattice family.

    ``make_spec(graph) -> ModelSpec``; members whose lowest-|M| sector, the
    largest and the only one solved, exceeds ``dim_limit`` are counted but
    not diagonalized (flagged).
    """
    rows = []
    ok = True
    model = None
    for n in n_range:
        g = family.member(n)
        spec = make_spec(g)
        model = spec.model
        report = validate(spec)
        if not report.ok:
            raise ValidationFailure(report)
        predicted = predicted_twice_spin(spec)
        if _sector_size(spec, _lowest_twice_m(spec)) > dim_limit:
            rows.append(ScanRow(n, g.vertex_count, sublattice_imbalance(g),
                                predicted, None, True))
            continue
        twice_s = _ground_summary(spec, seed)[2]
        rows.append(ScanRow(n, g.vertex_count, sublattice_imbalance(g),
                            predicted, twice_s, False))
        if twice_s != predicted:
            ok = False
    return ScanReport(family.generator, model or "?", tuple(rows),
                      "pass" if ok else "fail")


@dataclass(frozen=True)
class InvarianceReport:
    e0_delta: float
    degeneracy_match: bool
    spin_match: bool
    verdict: str

    @property
    def ok(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return {"E0_delta": self.e0_delta, "degeneracy_match": self.degeneracy_match,
                "spin_match": self.spin_match, "verdict": self.verdict}


def permuted_spec(spec: ModelSpec, perm) -> ModelSpec:
    """The same model on the relabeled graph, couplings transported along."""
    perm = tuple(perm)
    g2 = relabel(spec.graph, perm)
    p = np.zeros((len(perm), len(perm)))
    for old, new in enumerate(perm):
        p[new, old] = 1.0

    def move(m):
        return None if m is None else p @ m @ p.T

    return ModelSpec(spec.model, g2, move(spec.t), move(spec.u), move(spec.j),
                     spec.j_kondo, move(spec.g_ep), spec.omega, spec.n_max)


def isomorphism_invariance(spec: ModelSpec, perm, seed: int = 0,
                           tol: float = 1e-9) -> InvarianceReport:
    """Ground energy, degeneracy and total spin agree under relabeling."""
    spec2 = permuted_spec(spec, perm)
    (e0a, dega, sa), (e0b, degb, sb) = (_ground_summary(sp_, seed)
                                        for sp_ in (spec, spec2))
    delta = abs(e0a - e0b)
    verdict = "pass" if (delta <= tol and dega == degb and sa == sb) else "fail"
    return InvarianceReport(delta, dega == degb, sa == sb, verdict)


def constancy_check(specs: list[ModelSpec], seed: int = 0) -> bool:
    """All specs (same lattice, same condition set) share the ground-state spin."""
    spins = {_ground_summary(spec, seed)[2] for spec in specs}
    return len(spins) == 1


def cutoff_convergence(spec: ModelSpec, n_maxes, seed: int = 0):
    """Ground energy and total spin at a sweep of phonon cutoffs."""
    if not spec.has_phonons:
        raise ValueError("cutoff sweep applies to phonon models only")
    out = []
    for n_max in n_maxes:
        e0, _, twice_s = _ground_summary(dataclasses.replace(spec, n_max=n_max), seed)
        out.append((n_max, e0, twice_s))
    return out


def u_limit_comparison(g: Graph, t: np.ndarray, u_value: float) -> float:
    """Largest eigenvalue gap between the finite-U model at one hole and the
    compressed infinite-U model, after removing the constant interaction
    offset carried by the hole."""
    n = g.vertex_count
    u = u_value * np.eye(n)
    worst = 0.0
    spec_nt = ModelSpec("hubbard_nt", g, t=t)
    for tm in spec_nt.sector_values():
        h_nt = build(spec_nt, tm / 2)
        kind = SubspaceKind.full(n - 1)
        basis_u = enumerate_sector(g, kind, m=tm / 2)
        h_u = ops.hopping(basis_u, t).matrix + ops.coulomb(basis_u, u).matrix
        vals_u = np.linalg.eigvalsh(h_u.toarray())
        vals_nt = np.linalg.eigvalsh(h_nt.matrix.toarray())
        # interaction value on the no-double-occupancy states: constant u/2 per hole
        shift = 0.5 * u_value
        low = np.sort(vals_u)[: len(vals_nt)] - shift
        worst = max(worst, float(np.abs(low - np.sort(vals_nt)).max()))
    return worst
