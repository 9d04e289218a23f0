import json

import pytest

from edspin.cli import (EXIT_PARSE, EXIT_PASS, EXIT_THEOREM, EXIT_VALIDATION,
                        build_spec, parse_config_file, parse_lattice, report_emit,
                        run)
from edspin.lattice import read_edge_list


def test_verify_mlm_star_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "--model", "mlm", "--lattice", "star:2",
                "--out", str(out)])
    assert code == EXIT_PASS
    report = json.loads(out.read_text())
    assert report["global"]["S_computed"] == 1.0
    assert report["verdict"] == "pass"
    assert report["sectors"][0]["solver"] == {"route": "dense", "steps": 0,
                                              "restarts": 0}


def test_verify_table_shows_the_strictness_bound(capsys):
    assert run(["verify", "--model", "mlm", "--lattice", "star:2"]) == EXIT_PASS
    header, *rows = capsys.readouterr().out.splitlines()[1:4]
    assert header.split()[-2:] == ["margin", "bound"]
    assert all(len(row.split()) == len(header.split()) for row in rows)


def test_verify_table_prints_implied_sectors(capsys):
    """Sectors the SU(2) schedule does not solve get a row of their own."""
    assert run(["verify", "--model", "mlm", "--lattice", "star:2"]) == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    implied = [line.split() for line in lines if "implied" in line]
    assert sorted(float(row[0]) for row in implied) == [-2.0, -1.0]
    assert all(len(row) == len(lines[1].split()) and row[2] == "implied"
               for row in implied)


def test_verify_nt_path_exits_validation(capsys):
    code = run(["verify", "--model", "hubbard_nt", "--lattice", "path:4"])
    assert code == EXIT_VALIDATION
    assert "configuration-graph-connected" in capsys.readouterr().err


def test_malformed_inputs_exit_parse(tmp_path):
    assert run(["verify", "--model", "nosuch", "--lattice", "star:2"]) == EXIT_PARSE
    assert run(["verify", "--model", "mlm", "--lattice", "blob:2"]) == EXIT_PARSE
    assert run(["verify", "--model", "mlm"]) == EXIT_PARSE
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("unknown_key = 3\n")
    assert run(["verify", "--config", str(cfg)]) == EXIT_PARSE
    cfg.write_text("model mlm\n")
    assert run(["verify", "--config", str(cfg)]) == EXIT_PARSE
    assert run(["bogus-command"]) == EXIT_PARSE


@pytest.mark.parametrize("key", ["k", "dense_threshold", "degeneracy_tol",
                                 "strict_tol"])
def test_unread_config_keys_are_rejected(tmp_path, capsys, key):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = mlm\nlattice = star:2\n{key} = 3\n")
    assert run(["verify", "--config", str(cfg)]) == EXIT_PARSE
    assert f"unknown config key: '{key}'" in capsys.readouterr().err
    assert run(["verify", "--model", "mlm", "--lattice", "star:2",
                "--k", "3"]) == EXIT_PARSE


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = heisenberg\nlattice = chain:2\nj = nn=1\n")
    parsed = parse_config_file(str(cfg))
    assert parsed["model"] == "heisenberg"
    out = tmp_path / "r.json"
    code = run(["verify", "--config", str(cfg), "--model", "mlm",
                "--out", str(out)])
    assert code == EXIT_PASS
    assert json.loads(out.read_text())["model"]["model"] == "mlm"


def test_lattice_command_emits_exchange_format(tmp_path, capsys):
    out = tmp_path / "g.edges"
    assert run(["lattice", "--lattice", "square:1", "--emit", str(out)]) == EXIT_PASS
    g = read_edge_list(out.read_text())
    assert g.vertex_count == 4 and len(g.edges) == 4
    info = json.loads(capsys.readouterr().out)
    assert info["bipartite"] and info["imbalance"] == 0
    assert run(["verify", "--model", "hubbard", "--lattice-file", str(out)]) == EXIT_PASS


def test_grid_lattice(capsys):
    assert run(["lattice", "--lattice", "grid:2x3"]) == EXIT_PASS
    info = json.loads(capsys.readouterr().out)
    assert info["vertices"] == 6 and len(info["edges"]) == 7
    assert run(["verify", "--model", "hubbard_nt", "--lattice", "grid:2x3"]) == EXIT_PASS
    assert "S = 2.5 (predicted 2.5)" in capsys.readouterr().out


@pytest.mark.parametrize("lattice", ["path:abc", "grid:2", "grid:2x", "grid:0x3"])
def test_bad_lattice_parameters_exit_parse(capsys, lattice):
    assert run(["verify", "--model", "heisenberg", "--lattice", lattice]) == EXIT_PARSE
    assert "bad lattice spec" in capsys.readouterr().err


def test_build_and_diagonalize(tmp_path, capsys):
    coo = tmp_path / "h.coo"
    code = run(["build", "--model", "hubbard", "--lattice", "chain:1",
                "--m", "0", "--coo", str(coo)])
    assert code == EXIT_PASS
    lines = coo.read_text().strip().splitlines()
    assert lines[0] == "shape 4 4"
    assert run(["diagonalize", "--model", "mlm", "--lattice", "star:2",
                "--m", "0"]) == EXIT_PASS
    assert "-1.25" in capsys.readouterr().out


def test_diagonalize_resolves_a_70_fold_one_hole_cluster(tmp_path):
    """hubbard_nt on path:9 at M=0 (630 states, above DENSE_PREFERENCE):
    each of the C(8,4) = 70 spin orderings has the same hole-chain ground
    energy, more vectors than the Krylov route resolves, so the sector is
    solved densely."""
    out = tmp_path / "report.json"
    assert run(["diagonalize", "--model", "hubbard_nt", "--lattice", "path:9",
                "--m", "0", "--out", str(out)]) == EXIT_PASS
    [sector] = json.loads(out.read_text())["sectors"]
    assert sector["dim"] == 630 and sector["multiplicity"] == 70
    assert sector["solver"]["route"] == "dense"


def test_scan_pair_invariance_commands(tmp_path):
    assert run(["scan", "--family", "star", "--model", "heisenberg",
                "--n-min", "2", "--n-max-scan", "3"]) == EXIT_PASS
    assert run(["pair", "--pair", "hubbard-mlm", "--lattice", "star:2"]) == EXIT_PASS
    assert run(["pair", "--pair", "nesting-mlm", "--lattice-small", "chain:1",
                "--lattice", "chain:2"]) == EXIT_PASS
    assert run(["invariance", "--model", "mlm", "--lattice", "star:2",
                "--perm", "0,2,1,3"]) == EXIT_PASS


def test_report_emit_rules():
    with pytest.raises(ValueError, match="empty sector"):
        report_emit({"sectors": []})
    text = report_emit({"model": {"model": "mlm"}, "verdict": "pass"})
    assert json.loads(text)["verdict"] == "pass"


def test_reports_reproducible_modulo_timings(tmp_path):
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = run(["verify", "--model", "hubbard", "--lattice", "chain:1",
                    "--seed", "7", "--out", str(out)])
        assert code == EXIT_PASS
        blob = json.loads(out.read_text())
        blob.pop("timings")
        outs.append(json.dumps(blob, sort_keys=True))
    assert outs[0] == outs[1]


def test_parse_lattice_and_couplings():
    g = parse_lattice("bethe_ball:3,1", None)
    assert g.vertex_count == 4
    spec = build_spec({"model": "hubbard", "lattice": "chain:1", "t": "nn=1",
                       "u": "4"})
    assert spec.u[0, 0] == 4.0 and spec.t[0, 1] == 1.0
    spec = build_spec({"model": "heisenberg", "lattice": "star:2", "j": "mlm"})
    assert spec.j.sum() == 6.0


@pytest.mark.parametrize("command", ["build", "diagonalize"])
@pytest.mark.parametrize("m, message", [("0.3", "not a multiple of 1/2"),
                                        ("0", "empty sector"),
                                        ("abc", "could not convert")])
def test_bad_sector_m_exits_parse(capsys, command, m, message):
    code = run([command, "--model", "heisenberg", "--lattice", "path:3", "--m", m])
    assert code == EXIT_PARSE
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--U", "--t", "--J-kondo", "--omega", "--g",
                                  "--n-max"])
def test_unread_coupling_flags_are_rejected(capsys, flag):
    assert run(["verify", "--model", "heisenberg", "--lattice", "path:4",
                flag, "3"]) == EXIT_PARSE
    assert "heisenberg does not read" in capsys.readouterr().err


def test_coupling_keys_read_by_some_model_are_accepted(tmp_path, capsys):
    # --n-max only on phonon models, --U also on the optional-U models
    assert run(["verify", "--model", "hubbard", "--lattice", "chain:1",
                "--n-max", "3"]) == EXIT_PARSE
    assert run(["build", "--model", "holstein_hubbard", "--lattice", "chain:1",
                "--n-max", "2"]) == EXIT_PASS
    assert run(["build", "--model", "kondo", "--lattice", "chain:1",
                "--U", "2"]) == EXIT_PASS
    # a pair reads what either side reads; a nesting pair reads no couplings
    assert run(["pair", "--pair", "hubbard-mlm", "--lattice", "star:2",
                "--U", "3"]) == EXIT_PASS
    assert run(["pair", "--pair", "hubbard-mlm", "--lattice", "star:2",
                "--omega", "3"]) == EXIT_PARSE
    assert run(["pair", "--pair", "nesting-mlm", "--lattice-small", "chain:1",
                "--lattice", "chain:2", "--t", "1"]) == EXIT_PARSE
    assert run(["scan", "--family", "star", "--model", "heisenberg",
                "--n-min", "2", "--n-max-scan", "2", "--U", "4"]) == EXIT_PARSE
    # a config file's keys must be read by the model it names
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = heisenberg\nlattice = chain:2\nu = 4\n")
    assert run(["verify", "--config", str(cfg)]) == EXIT_PARSE
    assert "heisenberg does not read u" in capsys.readouterr().err


def test_oversized_lattice_exits_parse(capsys):
    # 17 sites of two species need 68 bits: refused before any enumeration
    assert run(["build", "--model", "kondo", "--lattice", "path:17"]) == EXIT_PARSE
    assert "68 bits" in capsys.readouterr().err
    assert run(["verify", "--model", "heisenberg", "--lattice", "path:33"]) == EXIT_PARSE
    assert "66 bits" in capsys.readouterr().err


@pytest.mark.parametrize("argv, unread", [
    pytest.param(["verify", "--model", "mlm", "--lattice", "star:2", "--m", "7"],
                 "m", id="verify-m"),
    pytest.param(["lattice", "--lattice", "star:2", "--model", "heisenberg",
                  "--J", "nn=2"], "j, model", id="lattice-model"),
    pytest.param(["build", "--model", "mlm", "--lattice", "star:2", "--seed", "3"],
                 "seed", id="build-seed"),
    pytest.param(["build", "--model", "mlm", "--lattice", "star:2", "--perm", "1,2"],
                 "perm", id="build-perm"),
    pytest.param(["scan", "--family", "star", "--model", "heisenberg",
                  "--lattice", "star:2"], "lattice", id="scan-lattice"),
    pytest.param(["pair", "--pair", "hubbard-mlm", "--lattice", "star:2",
                  "--model", "mlm"], "model", id="pair-model"),
])
def test_keys_a_command_does_not_read_exit_parse(capsys, argv, unread):
    assert run(argv) == EXIT_PARSE
    assert f"{argv[0]} does not read {unread}" in capsys.readouterr().err


def test_config_file_keys_a_command_does_not_read_exit_parse(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = mlm\nlattice = star:2\nm = 0\n")
    assert run(["diagonalize", "--config", str(cfg)]) == EXIT_PASS
    assert run(["verify", "--config", str(cfg)]) == EXIT_PARSE
    assert "verify does not read m" in capsys.readouterr().err
