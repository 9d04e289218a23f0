import json

import numpy as np
import pytest

from edspin.fock import enumerate_sector
from edspin.hamiltonians import ModelSpec, build, coupling_matrix
from edspin.lattice import LatticeFamily, grid_graph, path_graph, star_graph
from edspin.verify import (ABOVE_S, AT_S, LOWEST, ValidationFailure,
                           constancy_check, cutoff_convergence,
                           isomorphism_invariance, magnetic_order_scan,
                           predicted_twice_spin, verify_kondo, verify_mlm_class,
                           verify_nesting_pair, verify_nt_class,
                           verify_stability_pair)

from oracles import full_schedule_summary


def nn(g):
    return coupling_matrix(g, 1.0, "nn")


def cone_checked(report):
    """The solved sectors that get cone checks: all but M = S + 1."""
    return [s for s in report.solved if ABOVE_S not in s.roles]


def test_verify_mlm_star():
    report = verify_mlm_class(ModelSpec("mlm", star_graph(3)))
    assert report.verdict == "pass"
    assert abs(report.e0 + 1.25) < 1e-9
    assert report.degeneracy == 3
    assert report.twice_s_computed == 2 and report.twice_s_predicted == 2
    assert [s.roles for s in report.solved] == [(LOWEST,), (AT_S,), (ABOVE_S,)]
    assert len(cone_checked(report)) == 2
    for sector in cone_checked(report):
        assert sector.ergodicity.verdict == "ergodic"
        assert abs(sector.e0 - report.e0) < 1e-8
        assert sector.strict_margin > 0
        assert sector.multiplicity == 1
    [above] = [s for s in report.solved if ABOVE_S in s.roles]
    assert above.e0 > report.e0 + 1e-8 and above.ergodicity is None


def test_verify_heisenberg_chain():
    g = path_graph(4)
    report = verify_mlm_class(ModelSpec("heisenberg", g, j=nn(g)))
    assert report.verdict == "pass"
    assert report.twice_s_computed == 0 and report.degeneracy == 1


def test_verify_hubbard_star():
    g = star_graph(3)
    report = verify_mlm_class(ModelSpec("hubbard", g, t=nn(g), u=4.0 * np.eye(4)))
    assert report.verdict == "consequence-verified-pass"
    assert report.twice_s_computed == 2 and report.degeneracy == 3
    assert len(cone_checked(report)) == 2
    for sector in cone_checked(report):
        assert sector.ergodicity.verdict == "consequence-verified"


def test_verify_holstein_hubbard_notes_skipped_cone():
    g = path_graph(2)
    spec = ModelSpec("holstein_hubbard", g, t=nn(g), u=4.0 * np.eye(2),
                     g_ep=0.5 * np.eye(2), omega=1.0, n_max=4)
    report = verify_mlm_class(spec)
    assert report.ok
    assert report.twice_s_computed == 0
    assert len(report.solved) == 2
    assert all(s.note == "cone-not-defined-under-truncation" for s in report.solved)
    assert all(s.ergodicity is None for s in report.solved)


def test_verify_nt_square_and_path_counterexample():
    gsq = grid_graph(2, 2)
    report = verify_nt_class(ModelSpec("hubbard_nt", gsq, t=nn(gsq)))
    assert report.verdict == "pass"
    assert report.twice_s_computed == 3 and report.degeneracy == 4
    g4 = path_graph(4)
    with pytest.raises(ValidationFailure) as err:
        verify_nt_class(ModelSpec("hubbard_nt", g4, t=nn(g4)))
    assert "configuration-graph-connected" in str(err.value)


def test_verify_nt_square_with_an_asymmetry_within_tolerance():
    """t[0, 3] = 5e-13 with t[3, 0] = 0 is symmetric within the tolerance of
    `ModelSpec`, which stores the average, so `verify` runs to its verdict."""
    gsq = grid_graph(2, 2)
    t = nn(gsq)
    t[0, 3] = 5e-13
    report = verify_nt_class(ModelSpec("hubbard_nt", gsq, t=t))
    assert report.verdict == "pass"
    assert report.twice_s_computed == 3 and report.degeneracy == 4


def test_verify_kondo_signs():
    g2 = path_graph(2)
    report = verify_kondo(ModelSpec("kondo", g2, t=nn(g2), j_kondo=1.0))
    assert report.ok and report.twice_s_computed == 0 and report.degeneracy == 1
    star = star_graph(3)
    report = verify_kondo(ModelSpec("kondo", star, t=nn(star), j_kondo=-1.0))
    assert report.ok and report.twice_s_computed == 4 and report.degeneracy == 5
    report = verify_kondo(ModelSpec("kondo", g2, t=nn(g2), j_kondo=-1.0))
    assert report.ok and report.twice_s_computed == 0


def test_one_solve_per_sector(monkeypatch):
    import edspin.cones
    import edspin.verify
    calls = []

    def counted(solve):
        def wrapper(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)
        return wrapper

    for module in (edspin.verify, edspin.cones):
        monkeypatch.setattr(module, "ground_space", counted(module.ground_space))
    g2, star = path_graph(2), star_graph(3)
    for verify, spec in ((verify_kondo, ModelSpec("kondo", g2, t=nn(g2), j_kondo=1.0)),
                         (verify_mlm_class, ModelSpec("hubbard", star, t=nn(star),
                                                      u=4.0 * np.eye(4)))):
        calls.clear()
        report = verify(spec)
        assert report.ok and len(calls) == len(report.solved)


def test_one_enumeration_per_sector(monkeypatch):
    """With S_pred at most the lowest |M| + 1, `verify` enumerates each solved
    sector once, inside `build`, and nothing else: S+ maps into a solved
    sector.  It assembles S+ once for each of the lowest |M| and M = S, one
    matrix when they coincide.  On phonon models the phonon factor is a
    Kronecker factor, never enumerated."""
    import sys

    import edspin.operators
    calls = {"enumerate": 0, "ladder": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in [m for name, m in sys.modules.items()
                   if name.startswith("edspin") and hasattr(m, "enumerate_sector")]:
        monkeypatch.setattr(module, "enumerate_sector",
                            counted("enumerate", enumerate_sector))
    monkeypatch.setattr(edspin.operators, "ladder_ops",
                        counted("ladder", edspin.operators.ladder_ops))
    g2, g4, s3 = path_graph(2), path_graph(4), star_graph(3)
    for verify, spec in (
            (verify_mlm_class, ModelSpec("heisenberg", g4, j=nn(g4))),
            (verify_mlm_class, ModelSpec("mlm", s3)),
            (verify_kondo, ModelSpec("kondo", g2, t=nn(g2), j_kondo=1.0)),
            (verify_mlm_class, ModelSpec("holstein_hubbard", g2, t=nn(g2),
                                         u=4.0 * np.eye(2), g_ep=0.5 * np.eye(2),
                                         omega=1.0, n_max=4))):
        calls.update(enumerate=0, ladder=0)
        report = verify(spec)
        spin_sectors = [s for s in report.solved
                        if LOWEST in s.roles or AT_S in s.roles]
        assert report.ok
        assert calls == {"enumerate": len(report.solved),
                         "ladder": len(spin_sectors)}, spec.model


def test_verify_kondo_keeps_projected_failures_of_a_failed_report(monkeypatch):
    import edspin.cones
    monkeypatch.setattr(edspin.cones, "strict_positivity",
                        lambda psi, cone, tol=None, **kw:
                        edspin.cones.StrictnessVerdict(False, -1.0, 0, 0.0))
    g2 = path_graph(2)
    report = verify_kondo(ModelSpec("kondo", g2, t=nn(g2), j_kondo=1.0))
    assert report.verdict == "fail"
    assert any("ground vector not strictly positive" in f for f in report.failures)
    assert any("projected vector" in f for f in report.failures)


def _verify_cases():
    """Every `verify` case the tests run, and the 3-site star (S = 1/2), as
    (name, entry, spec)."""
    p2, p4, p14, g22 = path_graph(2), path_graph(4), path_graph(14), grid_graph(2, 2)
    s2, s3 = star_graph(2), star_graph(3)
    yield "mlm 3-site star", verify_mlm_class, ModelSpec("mlm", s2)
    yield "mlm star:3", verify_mlm_class, ModelSpec("mlm", s3)
    yield "mlm path:2", verify_mlm_class, ModelSpec("mlm", p2)
    yield "heisenberg path:4", verify_mlm_class, ModelSpec("heisenberg", p4, j=nn(p4))
    yield "heisenberg path:14", verify_mlm_class, ModelSpec("heisenberg", p14, j=nn(p14))
    yield "hubbard path:2", verify_mlm_class, ModelSpec("hubbard", p2, t=nn(p2),
                                                        u=4.0 * np.eye(2))
    yield "hubbard star:3", verify_mlm_class, ModelSpec("hubbard", s3, t=nn(s3),
                                                        u=4.0 * np.eye(4))
    yield "holstein_hubbard path:2", verify_mlm_class, ModelSpec(
        "holstein_hubbard", p2, t=nn(p2), u=4.0 * np.eye(2), g_ep=0.5 * np.eye(2),
        omega=1.0, n_max=4)
    yield "hubbard_nt grid:2x2", verify_nt_class, ModelSpec("hubbard_nt", g22, t=nn(g22))
    # the lowest |M| is the top sector: S+ is empty there
    yield "hubbard_nt path:2", verify_nt_class, ModelSpec("hubbard_nt", p2, t=nn(p2))
    for g, name, j_kondo in ((p2, "path:2", 1.0), (p2, "path:2", -1.0),
                             (s3, "star:3", -1.0)):
        yield (f"kondo {name} J={j_kondo:+g}", verify_kondo,
               ModelSpec("kondo", g, t=nn(g), j_kondo=j_kondo))


@pytest.mark.parametrize("entry,spec", [(e, s) for _, e, s in _verify_cases()],
                         ids=[name for name, _, _ in _verify_cases()])
def test_scheduled_sectors_agree_with_every_sector(entry, spec):
    """The SU(2) schedule gives the E0, degeneracy and 2S that solving every
    sector gives."""
    e0, degeneracy, twice_s = full_schedule_summary(spec)
    report = entry(spec)
    assert report.ok, report.failures
    assert abs(report.e0 - e0) <= 1e-10 * max(1.0, abs(e0))
    assert report.degeneracy == degeneracy
    assert report.twice_s_computed == twice_s == report.twice_s_predicted


_HEISENBERG_4 = ModelSpec("heisenberg", path_graph(4), j=nn(path_graph(4)))
_NT_2X2 = ModelSpec("hubbard_nt", grid_graph(2, 2), t=nn(grid_graph(2, 2)))


@pytest.mark.parametrize("entry,spec,shift,checks", [
    (verify_mlm_class, _HEISENBERG_4, +2, ["(M = S): E_min"]),
    (verify_mlm_class, _HEISENBERG_4, -2, ["names no sector"]),
    (verify_nt_class, _NT_2X2, +2, ["names no sector"]),
    (verify_nt_class, _NT_2X2, -2, ["(M = S + 1): E_min", "not highest weight"]),
], ids=["heisenberg path:4 S+1", "heisenberg path:4 S-1",
        "hubbard_nt grid:2x2 S+1", "hubbard_nt grid:2x2 S-1"])
def test_wrong_prediction_fails_at_the_named_check(monkeypatch, entry, spec, shift,
                                                   checks):
    """A prediction one unit off fails at the schedule's check for it, and the
    computed E0, degeneracy and S stay the true ones."""
    import edspin.verify
    true_twice_s = predicted_twice_spin(spec)
    monkeypatch.setattr(edspin.verify, "predicted_twice_spin",
                        lambda s: true_twice_s + shift)
    report = entry(spec)
    assert report.verdict == "fail"
    for check in checks + ["differs from the predicted"]:
        assert any(check in f for f in report.failures), (check, report.failures)
    e0, degeneracy, twice_s = full_schedule_summary(spec)
    assert abs(report.e0 - e0) <= 1e-10 * max(1.0, abs(e0))
    assert report.degeneracy == degeneracy
    assert report.twice_s_computed == twice_s == true_twice_s


def test_highest_weight_check_is_recorded():
    """The M = S sector carries |S+ psi| within its bound; M = S + 1 and the
    implied sectors carry neither, and the implied ones no solve."""
    g = star_graph(3)
    doc = verify_mlm_class(ModelSpec("mlm", g)).to_dict()
    [at_s] = [s for s in doc["sectors"] if s.get("role") == AT_S]
    assert at_s["M"] == 1.0
    assert 0 <= at_s["highest_weight_norm"] <= at_s["highest_weight_bound"] < 1e-10
    for s in doc["sectors"]:
        if s is not at_s:
            assert "highest_weight_norm" not in s
    implied = [s for s in doc["sectors"] if "implied" in s]
    assert sorted(s["M"] for s in implied) == [-2.0, -1.0]
    assert all("E0" not in s and s["dim"] > 0 for s in implied)
    assert "sector_schedule" in doc["tolerances"]


def test_verify_certifies_the_14_site_chain():
    """The smallest Marshall-sign coefficient of the 14-site chain's M=0
    ground vector (7.40e-13) lies below any fixed tolerance and below the
    Krylov vector's accuracy; the certified margin reproduces the dense
    ``eigh`` value and the verdict is ``pass``."""
    import scipy.linalg
    from edspin.cones import gauge_fix, mlm_cone
    g = path_graph(14)
    spec = ModelSpec("heisenberg", g, j=nn(g))
    report = verify_mlm_class(spec)
    assert report.verdict == "pass", report.failures
    [m0] = [s for s in report.sectors if s.twice_m == 0]
    assert m0.solver.route == "lanczos" and m0.strictness.steps > 0
    h = build(spec, 0)
    cone = mlm_cone(h.domain)
    dense = scipy.linalg.eigh(h.matrix.toarray(), subset_by_index=[0, 0])[1][:, 0]
    exact = float(cone.to_distinguished(gauge_fix(dense, cone)).min())
    assert 7.3e-13 < exact < 7.5e-13
    assert abs(m0.strict_margin - exact) <= 1e-6 * exact
    d = m0.to_dict()
    assert d["strict_positivity_steps"] == m0.strictness.steps
    assert 0 < d["strict_positivity_bound"] < 1e-6


def test_report_names_each_strictness_rule():
    """Diagonal-cone ground sectors carry the certified rule's steps and
    bound, PSD-cone ground sectors the raw rule's 0 steps and tolerance;
    the M = S + 1 sector and the implied sectors carry neither."""
    from edspin.cones import STRICT_TOL
    g4, g2 = path_graph(4), path_graph(2)
    diag = verify_mlm_class(ModelSpec("heisenberg", g4, j=nn(g4))).to_dict()
    psd = verify_mlm_class(ModelSpec("hubbard", g2, t=nn(g2),
                                     u=4.0 * np.eye(2))).to_dict()

    def ground(doc):
        out = [s for s in doc["sectors"] if "strict_positivity_margin" in s]
        assert out
        assert len(out) == sum("implied" not in s and s["role"] != ABOVE_S
                               for s in doc["sectors"])
        return out

    for s in ground(diag):
        assert s["strict_positivity_steps"] > 0
        assert 0 < s["strict_positivity_bound"] < STRICT_TOL
    for s in ground(psd):
        assert s["strict_positivity_steps"] == 0
        assert s["strict_positivity_bound"] == STRICT_TOL
    for doc in (diag, psd):
        assert all(("strict_positivity_steps" in s) == ("strict_positivity_margin" in s)
                   for s in doc["sectors"])
        assert doc["tolerances"]["strictness_tol"] == STRICT_TOL
        assert "perron-frobenius" in doc["tolerances"]["diagonal_strictness"]


def test_tolerances_name_the_total_spin_rule():
    from edspin.spectra import SPIN_RESIDUAL_TOL
    tolerances = verify_mlm_class(ModelSpec("mlm", path_graph(2))).to_dict()["tolerances"]
    assert "|S+ psi|^2 + M(M+1)" in tolerances["total_spin"]
    assert tolerances["spin_residual_tol"] == SPIN_RESIDUAL_TOL


def test_tolerances_name_the_krylov_orthogonality_rule():
    tolerances = verify_mlm_class(ModelSpec("mlm", path_graph(2))).to_dict()["tolerances"]
    rule = tolerances["krylov_orthogonality"]
    assert "semi-orthogonal" in rule and "sqrt(eps)" in rule and "Simon" in rule
    assert "deflated vectors orthogonal to working precision" in rule


def test_tolerances_say_what_the_certified_bounds_do_not_cover():
    tolerances = verify_mlm_class(ModelSpec("mlm", path_graph(2))).to_dict()["tolerances"]
    text = " ".join(v for v in tolerances.values() if isinstance(v, str))
    assert "divides by the Lanczos gap" in text
    assert "missed lambda_2 overstates it" in text
    assert "margin far below this bound is expected" in text
    assert "certifies agreement with the solved vector" in text


def test_report_serialization_round_trip():
    report = verify_mlm_class(ModelSpec("mlm", path_graph(2)))
    blob = json.dumps(report.to_dict())
    parsed = json.loads(blob)
    assert parsed["verdict"] == "pass"
    assert parsed["global"]["S_computed"] == parsed["global"]["S_predicted"]
    assert len(parsed["sectors"]) == 3


def test_stability_pairs():
    star = star_graph(3)
    pa = ModelSpec("hubbard", star, t=nn(star), u=4.0 * np.eye(4))
    r = verify_stability_pair(pa, ModelSpec("mlm", star))
    assert r.ok and r.twice_s_a == r.twice_s_b == 2 and r.overlap > 0
    g2 = path_graph(2)
    ph = ModelSpec("holstein_hubbard", g2, t=nn(g2), u=4.0 * np.eye(2),
                   g_ep=0.5 * np.eye(2), omega=1.0, n_max=6)
    bare = ModelSpec("hubbard", g2, t=nn(g2), u=4.0 * np.eye(2))
    r = verify_stability_pair(ph, bare)
    assert r.ok and r.overlap > 0
    with pytest.raises(ValueError, match="unsupported"):
        verify_stability_pair(ModelSpec("mlm", star), ModelSpec("mlm", star))


def test_nesting_pairs():
    small, big = path_graph(2), path_graph(4)
    for model in ("mlm", "hubbard", "hubbard_nt"):
        assert verify_nesting_pair(model, small, big).ok


def test_constancy_across_couplings():
    g = path_graph(4)
    j_nn = nn(g)
    j_next = nn(g)
    j_next[0, 3] = j_next[3, 0] = 0.5     # extra opposite-sublattice link
    j_mlm = coupling_matrix(g, 1.0, "complete_bipartite")
    specs = [ModelSpec("heisenberg", g, j=j) for j in (j_nn, j_next, j_mlm)]
    assert constancy_check(specs)


def test_magnetic_order_scan_star():
    fam = LatticeFamily("star")
    report = magnetic_order_scan(
        fam, lambda g: ModelSpec("heisenberg", g, j=nn(g)), range(2, 5))
    assert report.ok
    assert [r.twice_s_computed for r in report.rows] == [2, 4, 6]
    assert all(not r.counting_only for r in report.rows)


def test_magnetic_order_scan_flags_large_members():
    fam = LatticeFamily("star")
    report = magnetic_order_scan(
        fam, lambda g: ModelSpec("heisenberg", g, j=nn(g)), range(2, 5),
        dim_limit=10)
    assert any(r.counting_only for r in report.rows)
    assert all(r.twice_s_computed is None for r in report.rows if r.counting_only)


def test_scan_sizes_members_without_enumerating(monkeypatch):
    import edspin.hamiltonians

    def holstein(g):
        n = g.vertex_count
        return ModelSpec("holstein_hubbard", g, t=nn(g), u=4.0 * np.eye(n),
                         g_ep=0.5 * np.eye(n), omega=1.0, n_max=2)

    def refuse(*args, **kwargs):
        raise AssertionError("a counting-only member was enumerated")

    fam = LatticeFamily("star")
    spec = holstein(fam.member(1))
    largest = max(spec.basis(tm / 2).dim for tm in spec.sector_values())
    with monkeypatch.context() as patch:
        patch.setattr(edspin.hamiltonians, "enumerate_sector", refuse)
        report = magnetic_order_scan(fam, holstein, [1], dim_limit=largest - 1)
    assert report.rows[0].counting_only
    report = magnetic_order_scan(fam, holstein, [1], dim_limit=largest)
    assert report.ok and not report.rows[0].counting_only


def test_isomorphism_invariance():
    star = star_graph(3)
    r = isomorphism_invariance(ModelSpec("mlm", star), (0, 2, 1, 3))
    assert r.ok and r.e0_delta < 1e-9
    g4 = path_graph(4)
    r = isomorphism_invariance(
        ModelSpec("hubbard", g4, t=nn(g4), u=4.0 * np.eye(4)), (1, 2, 3, 0))
    assert r.ok
    gsq = grid_graph(2, 2)
    rng = np.random.default_rng(4)
    perm = tuple(int(x) for x in rng.permutation(4))
    r = isomorphism_invariance(ModelSpec("hubbard_nt", gsq, t=nn(gsq)), perm)
    assert r.ok


def test_cutoff_convergence():
    g = path_graph(2)
    spec = ModelSpec("holstein_hubbard", g, t=nn(g), u=4.0 * np.eye(2),
                     g_ep=0.5 * np.eye(2), omega=1.0)
    sweep = cutoff_convergence(spec, [2, 4, 6])
    spins = {ts for _, _, ts in sweep}
    assert spins == {0}
    e0s = [e for _, e, _ in sweep]
    assert abs(e0s[1] - e0s[2]) < 1e-6


def test_predicted_spins():
    assert predicted_twice_spin(ModelSpec("mlm", star_graph(3))) == 2
    gsq = grid_graph(2, 2)
    assert predicted_twice_spin(ModelSpec("hubbard_nt", gsq, t=nn(gsq))) == 3
    g2 = path_graph(2)
    assert predicted_twice_spin(ModelSpec("kondo", g2, t=nn(g2), j_kondo=1.0)) == 0
    star = star_graph(3)
    assert predicted_twice_spin(ModelSpec("kondo", star, t=nn(star), j_kondo=-1.0)) == 4
