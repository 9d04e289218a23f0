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
