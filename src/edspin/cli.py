"""Config-driven command-line front end and report emitter.

Exit codes: 0 all checks pass, 1 theorem-check failure, 2 parse error or
unreadable input file, 3 validation failure, 4 solver failure.  Reports are
JSON with a stable key order plus a human summary table on stdout; for a fixed
config and seed the report is reproducible apart from the timing fields.
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import verify as vf
from .fock import check_packable, twice_value
from .hamiltonians import ModelSpec, build, coupling_matrix
from .lattice import (Graph, LatticeFamily, bipartition, path_graph, cycle_graph,
                      grid_graph, read_edge_list, relabel, write_edge_list)
from .spectra import SolverError, ground_space

EXIT_PASS = 0
EXIT_THEOREM = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_SOLVER = 4

class CliError(ValueError):
    """Configuration or argument problem; maps to exit code 2."""


def parse_config_file(path: str) -> dict:
    out: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"malformed config line: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _CONFIG_KEYS:
            raise CliError(f"unknown config key: {key!r}")
        out[key] = value
    return out


def parse_lattice(text: str | None, file: str | None) -> Graph:
    if file:
        try:
            return read_edge_list(Path(file).read_text())
        except ValueError as exc:
            raise CliError(f"bad lattice file {file!r}: {exc}") from exc
    if not text:
        raise CliError("no lattice given (use --lattice or --lattice-file)")
    name, _, args = text.partition(":")
    try:
        if name == "grid":
            rows, cols = (int(a) for a in args.split("x"))
            return grid_graph(rows, cols)
        params = [int(a) for a in args.split(",")] if args else []
        if name == "path":
            return path_graph(*params)
        if name == "cycle":
            return cycle_graph(*params)
        if name == "bethe_ball":
            z, n = params
            return LatticeFamily("bethe_ball", z).member(n)
        if name in ("chain", "decorated_chain", "star", "square", "lieb"):
            (n,) = params
            return LatticeFamily(name).member(n)
    except (TypeError, ValueError) as exc:
        raise CliError(f"bad lattice spec {text!r}: {exc}") from exc
    raise CliError(f"unknown lattice generator {name!r}")


def parse_coupling(g: Graph, text: str | None):
    """Coupling shorthand: scalar, "nn=v", "file=PATH", or "mlm"."""
    if text is None:
        return None
    if text.startswith("nn="):
        return coupling_matrix(g, float(text[3:]), "nn")
    if text.startswith("file="):
        return np.loadtxt(text[5:], ndmin=2)
    if text == "mlm":
        return coupling_matrix(g, 1.0, "complete_bipartite")
    try:
        return coupling_matrix(g, float(text), "diagonal")
    except ValueError as exc:
        raise CliError(f"bad coupling spec {text!r}") from exc


# model: (coupling keys read, with a default when absent; keys read only
# when given).  A key the model does not read is rejected.
_MODEL_NEEDS = {
    "mlm": ((), ()),
    "heisenberg": (("j",), ()),
    "hubbard": (("t", "u"), ()),
    "hubbard_nt": (("t",), ("u",)),
    "holstein_hubbard": (("t", "u", "g", "omega"), ("n_max",)),
    "holstein_nt": (("t", "g", "omega"), ("u", "n_max")),
    "kondo": (("t", "j_kondo"), ("u",)),
    "kondo_holstein": (("t", "j_kondo", "g", "omega"), ("u", "n_max")),
}

_DEFAULTS = {"t": "nn=1", "u": "4", "j": "nn=1", "g": "0.5", "omega": 1.0,
             "j_kondo": 1.0}

_COUPLING_KEYS = ("t", "u", "j", "j_kondo", "g", "omega", "n_max")


def _reads(model: str) -> tuple[str, ...]:
    needs, optional = _MODEL_NEEDS[model]
    return needs + optional


def _only_read(cfg: dict, model: str) -> dict:
    """``cfg`` without the coupling keys ``model`` does not read."""
    return {key: value for key, value in cfg.items()
            if key not in _COUPLING_KEYS or key in _reads(model)}


def _reject_unread(cfg: dict, models) -> None:
    """Exit 2 on a coupling key that none of ``models`` reads."""
    unread = [key for key in _COUPLING_KEYS
              if cfg.get(key) and not any(key in _reads(model) for model in models)]
    if unread:
        raise CliError(f"{' / '.join(models) or 'this command'} does not read "
                       f"{', '.join(unread)}")


def _spec_on_graph(cfg: dict, g: Graph) -> ModelSpec:
    model = cfg.get("model")
    if model not in _MODEL_NEEDS:
        raise CliError(f"unknown or missing model {model!r}")
    _reject_unread(cfg, (model,))
    needs, optional = _MODEL_NEEDS[model]
    raw = {key: cfg.get(key) or _DEFAULTS[key] for key in needs}
    raw.update((key, cfg[key]) for key in optional if cfg.get(key))
    try:
        kw = {name: parse_coupling(g, raw[key])
              for key, name in (("t", "t"), ("u", "u"), ("j", "j"), ("g", "g_ep"))
              if key in raw}
        for key, kind in (("omega", float), ("j_kondo", float), ("n_max", int)):
            if key in raw:
                kw[key] = kind(raw[key])
        return ModelSpec(model, g, **kw)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def build_spec(cfg: dict) -> ModelSpec:
    g = parse_lattice(cfg.get("lattice"), cfg.get("lattice_file"))
    spec = _spec_on_graph(cfg, g)
    try:
        check_packable(g.vertex_count, spec.subspace())
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return spec


def _int_key(cfg: dict, key: str, default: int) -> int:
    """The integer value of ``key``; ``default`` when it is absent or empty."""
    text = cfg.get(key)
    if not text:
        return default
    try:
        return int(text)
    except ValueError as exc:
        raise CliError(f"bad --{key.replace('_', '-')} {text!r}: not an integer") from exc


def _sector_m(cfg: dict, spec: ModelSpec) -> float:
    """The ``--m`` of build and diagonalize (default 0): a number that is a
    multiple of 1/2 and names a nonempty sector."""
    text = cfg.get("m") or "0"
    try:
        m = float(text)
        twice_m = twice_value(m)
    except ValueError as exc:
        raise CliError(f"bad --m {text!r}: {exc}") from exc
    if twice_m not in spec.sector_values():
        raise CliError(f"empty sector: M={text}")
    return m


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def report_emit(report: dict) -> str:
    """Machine-readable JSON with stable key order."""
    if "sectors" in report and not report["sectors"]:
        raise ValueError("report with an empty sector list is forbidden")
    return json.dumps(report, indent=2) + "\n"


def _human_table(report: dict) -> str:
    lines = []
    model = report.get("model", {})
    lines.append(f"model: {model.get('model')}  vertices: {model.get('vertices')}")
    if "sectors" in report:
        lines.append(f"{'M':>6} {'dim':>7} {'E0':>16} {'mult':>5} "
                     f"{'ergodicity':>20} {'margin':>11} {'bound':>9}")
        for s in report["sectors"]:
            if "implied" in s:
                lines.append(f"{s['M']:>6} {s['dim']:>7} {'implied':>16} {'-':>5} "
                             f"{'-':>20} {'-':>11} {'-':>9}")
                continue
            erg = s.get("ergodicity", {}).get("verdict", "-")
            margin = s.get("strict_positivity_margin")
            bound = s.get("strict_positivity_bound")
            lines.append(f"{s['M']:>6} {s['dim']:>7} {s['E0']:>16.10f} "
                         f"{s['multiplicity']:>5} {erg:>20} "
                         f"{'-' if margin is None else format(margin, '.3e'):>11} "
                         f"{'-' if bound is None else format(bound, '.1e'):>9}")
    glb = report.get("global")
    if glb:
        lines.append(f"E0 = {glb['E0']:.12f}  degeneracy = {glb['degeneracy']}  "
                     f"S = {glb['S_computed']} (predicted {glb['S_predicted']})")
    lines.append(f"verdict: {report.get('verdict')}")
    for f in report.get("failures", []):
        lines.append(f"  FAIL: {f}")
    return "\n".join(lines)


def _write_report(report: dict, out: str | None) -> None:
    text = report_emit(report)
    if out:
        Path(out).write_text(text)
    print(_human_table(report))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_lattice(cfg: dict) -> int:
    g = parse_lattice(cfg.get("lattice"), cfg.get("lattice_file"))
    if cfg.get("emit"):
        Path(cfg["emit"]).write_text(write_edge_list(g))
    bp = bipartition(g) if g.is_connected else None
    info = {"vertices": g.vertex_count, "edges": [list(e) for e in g.edges],
            "connected": g.is_connected,
            "bipartite": bp is not None,
            "imbalance": bp.imbalance() if bp else None}
    print(json.dumps(info, indent=2))
    return EXIT_PASS


def _cmd_build(cfg: dict) -> int:
    spec = build_spec(cfg)
    m = _sector_m(cfg, spec)
    h = build(spec, m)
    if cfg.get("coo"):
        Path(cfg["coo"]).write_text(h.to_coo_text())
    print(f"sector M={m}: dimension {h.domain.dim}, nonzeros {h.matrix.nnz}")
    return EXIT_PASS


def _cmd_diagonalize(cfg: dict) -> int:
    spec = build_spec(cfg)
    m = _sector_m(cfg, spec)
    h = build(spec, m)
    gs = ground_space(h.matrix, seed=_int_key(cfg, "seed", 0))
    report = {"model": {"model": spec.model, "vertices": spec.graph.vertex_count},
              "sectors": [{"M": m, "dim": h.domain.dim, "E0": gs.energy,
                           "multiplicity": gs.multiplicity, "gap": gs.gap,
                           "solver": dataclasses.asdict(gs.solver)}],
              "verdict": "pass"}
    _write_report(report, cfg.get("out"))
    return EXIT_PASS


def _cmd_verify(cfg: dict) -> int:
    spec = build_spec(cfg)
    seed = _int_key(cfg, "seed", 0)
    if spec.model in ("mlm", "heisenberg", "hubbard", "holstein_hubbard"):
        report = vf.verify_mlm_class(spec, seed=seed)
    elif spec.model in ("hubbard_nt", "holstein_nt"):
        report = vf.verify_nt_class(spec, seed=seed)
    else:
        report = vf.verify_kondo(spec, seed=seed)
    _write_report(report.to_dict(), cfg.get("out"))
    return EXIT_PASS if report.ok else EXIT_THEOREM


def _cmd_scan(cfg: dict) -> int:
    name = cfg.get("family")
    if not name:
        raise CliError("scan needs --family")
    fam_name, _, zarg = name.partition(":")
    try:
        family = LatticeFamily(fam_name, int(zarg) if zarg else None)
    except ValueError as exc:
        raise CliError(f"bad --family {name!r}: {exc}") from exc
    n_min = _int_key(cfg, "n_min", 1)
    n_max = _int_key(cfg, "n_max_scan", 3)
    if not 1 <= n_min <= n_max:
        raise CliError(f"scan needs 1 <= --n-min <= --n-max-scan, got {n_min} and {n_max}")

    def make_spec(g: Graph) -> ModelSpec:
        sub_cfg = {"model": cfg.get("model", "heisenberg")}
        for key in ("t", "u", "j", "j_kondo", "g", "omega", "n_max"):
            if cfg.get(key):
                sub_cfg[key] = cfg[key]
        return _spec_on_graph(sub_cfg, g)

    report = vf.magnetic_order_scan(family, make_spec, range(n_min, n_max + 1),
                                    seed=_int_key(cfg, "seed", 0))
    d = report.to_dict()
    if cfg.get("out"):
        Path(cfg["out"]).write_text(report_emit(d))
    print(json.dumps(d, indent=2))
    return EXIT_PASS if report.ok else EXIT_THEOREM


_PAIRS = {"hubbard-mlm": ("hubbard", "mlm"),
          "holstein-hubbard": ("holstein_hubbard", "hubbard")}


def _cmd_pair(cfg: dict) -> int:
    kind = cfg.get("pair")
    if not kind:
        raise CliError("pair needs --pair")
    seed = _int_key(cfg, "seed", 0)
    if kind.startswith("nesting-"):
        model = kind[len("nesting-"):]
        g_small = parse_lattice(cfg.get("lattice_small"), None)
        g_big = parse_lattice(cfg.get("lattice"), cfg.get("lattice_file"))
        _reject_unread(cfg, ())
        report = vf.verify_nesting_pair(model, g_small, g_big)
    else:
        g = parse_lattice(cfg.get("lattice"), cfg.get("lattice_file"))
        models = _PAIRS.get(kind)
        if models is None:
            raise CliError(f"unknown pair kind {kind!r}")
        _reject_unread(cfg, models)
        spec_a, spec_b = (_spec_on_graph({**_only_read(cfg, model), "model": model}, g)
                          for model in models)
        report = vf.verify_stability_pair(spec_a, spec_b, seed=seed)
    d = report.to_dict()
    if cfg.get("out"):
        Path(cfg["out"]).write_text(report_emit(d))
    print(json.dumps(d, indent=2))
    return EXIT_PASS if report.ok else EXIT_THEOREM


def _cmd_invariance(cfg: dict) -> int:
    spec = build_spec(cfg)
    seed = _int_key(cfg, "seed", 0)
    if cfg.get("perm"):
        try:
            perm = tuple(int(p) for p in cfg["perm"].split(","))
            relabel(spec.graph, perm)
        except ValueError as exc:
            raise CliError(f"bad --perm {cfg['perm']!r}: {exc}") from exc
    else:
        rng = np.random.default_rng(seed)
        perm = tuple(int(x) for x in rng.permutation(spec.graph.vertex_count))
    report = vf.isomorphism_invariance(spec, perm, seed=seed)
    d = report.to_dict()
    d["perm"] = list(perm)
    if cfg.get("out"):
        Path(cfg["out"]).write_text(report_emit(d))
    print(json.dumps(d, indent=2))
    return EXIT_PASS if report.ok else EXIT_THEOREM


_LATTICE_KEYS = ("lattice", "lattice_file")
_SPEC_KEYS = ("model",) + _LATTICE_KEYS + _COUPLING_KEYS

# command: (handler, the keys it reads).  Any other key exits 2.
_COMMANDS = {
    "lattice": (_cmd_lattice, _LATTICE_KEYS + ("emit",)),
    "build": (_cmd_build, _SPEC_KEYS + ("m", "coo")),
    "diagonalize": (_cmd_diagonalize, _SPEC_KEYS + ("m", "seed", "out")),
    "verify": (_cmd_verify, _SPEC_KEYS + ("seed", "out")),
    "scan": (_cmd_scan, ("model",) + _COUPLING_KEYS
             + ("family", "n_min", "n_max_scan", "seed", "out")),
    "pair": (_cmd_pair, _LATTICE_KEYS + _COUPLING_KEYS
             + ("pair", "lattice_small", "seed", "out")),
    "invariance": (_cmd_invariance, _SPEC_KEYS + ("perm", "seed", "out")),
}

_CONFIG_KEYS = {"command"}.union(*(keys for _, keys in _COMMANDS.values()))


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="edspin")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config")
    parser.add_argument("--model")
    parser.add_argument("--lattice")
    parser.add_argument("--lattice-file", dest="lattice_file")
    parser.add_argument("--lattice-small", dest="lattice_small")
    parser.add_argument("--t")
    parser.add_argument("--U", dest="u")
    parser.add_argument("--J", dest="j")
    parser.add_argument("--J-kondo", dest="j_kondo")
    parser.add_argument("--g")
    parser.add_argument("--omega")
    parser.add_argument("--n-max", dest="n_max")
    parser.add_argument("--m")
    parser.add_argument("--seed")
    parser.add_argument("--out")
    parser.add_argument("--coo")
    parser.add_argument("--perm")
    parser.add_argument("--family")
    parser.add_argument("--n-min", dest="n_min")
    parser.add_argument("--n-max-scan", dest="n_max_scan")
    parser.add_argument("--pair")
    parser.add_argument("--emit")
    return parser


def run(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_PASS
    cfg: dict = {}
    try:
        if args.config:
            cfg.update(parse_config_file(args.config))
        flags = {key: value for key, value in vars(args).items()
                 if key != "config" and value is not None}
        model = flags.get("model")
        if model in _MODEL_NEEDS and cfg.get("model") not in (None, model):
            # the file's couplings served the model it named
            cfg = _only_read(cfg, model)
        cfg.update(flags)
        command = cfg.get("command")
        if command not in _COMMANDS:
            raise CliError(f"unknown command {command!r}")
        handler, reads = _COMMANDS[command]
        unread = sorted(set(cfg) - {"command"} - set(reads))
        if unread:
            raise CliError(f"{command} does not read {', '.join(unread)}")
        return handler(cfg)
    except (CliError, OSError) as exc:     # OSError: an input file unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except vf.ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


def main() -> None:
    sys.exit(run())
