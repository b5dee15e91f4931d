"""Config-driven experiment runner.

Usage: pstruct <command> [--config FILE] [--set section.key=value]... [--strict]

Commands: solve, audit, constants, reconstruct, sweep.  Configuration is an
INI file; every key has a documented default, and --set overrides win over
the file.  Each run writes report.json (deterministic: stable key order, no
timestamps), tables/*.csv, optional fields/*.bin, and manifest.json (config
echo, versions, wall time) under the output directory.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import csv
import functools
import json
import math
import os
import platform
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy

from . import audit as audit_mod
from . import grid as g
from . import reconstruct as reconstruct_mod
from . import solver
from .audit import ESTIMATE_NAMES
from .constitutive import ConstitutiveParams
from .errors import ConfigError, PStructError
from .grid import build_domain, save_field
from .problems import SEEDED_RHS_IDS, ProblemSpec, RhsSpec, rhs_sample

COMMANDS = ("solve", "audit", "constants", "reconstruct", "sweep")

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off")


def _parse_bool(raw: str) -> bool:
    low = raw.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _where(convert, test, expected: str):
    """Parser that converts the raw string and requires test of the value;
    expected describes the values test accepts."""

    def parse(raw: str):
        value = convert(raw)
        if not test(value):
            raise ValueError(f"expected {expected}")
        return value

    return parse


def _int_at_least(low: int):
    return _where(int, lambda x: x >= low, f"an integer >= {low}")


_exponent = _where(_finite_float, lambda x: x > 1.0, "a number > 1")
_offset = _where(_finite_float, lambda x: x >= 0.0, "a number >= 0")


class _ListOf:
    """Parser of a comma-separated list whose entries parse with item and
    which, whole, check accepts; it keeps the raw string in the config."""

    def __init__(self, item, check=lambda values: None):
        self.item, self.check = item, check

    def entries(self, raw: str) -> list:
        values = [self.item(tok) for tok in raw.split(",") if tok.strip() != ""]
        self.check(values)
        return values

    def __call__(self, raw: str) -> str:
        self.entries(raw)
        return raw


# section -> key -> (parser, default); this is the complete documented key set
SCHEMA = {
    "domain": {
        "kind": (str, "cubic_periodic"),
        "n": (_int_at_least(g.MIN_NODES), 16),
    },
    "params": {
        "p": (_exponent, 2.0),
        "mu": (_offset, 0.1),
        "structure": (str, "full"),
    },
    "solver": {
        "eta": (_finite_float, 0.0),
        "outer_tol": (_finite_float, 1e-9),
        "max_outer": (_int_at_least(0), 200),
        "inner_tol": (_where(_finite_float, lambda x: 0.0 <= x < 1.0, "a number in [0, 1)"), 0.0),
        "inner_maxiter": (_int_at_least(1), 20000),
        "continuation": (_parse_bool, False),
        "cont_eta0": (_finite_float, 1e-1),
        "cont_mu0": (_finite_float, 1e-1),
        "cont_ratio": (_finite_float, 0.5),
        "cont_eta_floor": (_finite_float, 1e-8),
        "cont_mu_floor": (_finite_float, 1e-8),
        "cont_max_steps": (int, 60),
    },
    "rhs": {
        "id": (str, "smooth-trig"),
        "amplitude": (_finite_float, 1.0),
        "seed": (_int_at_least(0), 0),
    },
    "output": {
        "directory": (str, "out"),
        "formats": (str, "json,csv"),
    },
    "audit": {
        "n": (_int_at_least(g.MIN_NODES), 16),
        "constants_n": (_int_at_least(g.MIN_NODES), 32),
        "samples": (_int_at_least(0), 12),
        "seed": (_int_at_least(0), 0),
        "checks": (str, ",".join(ESTIMATE_NAMES)),
        "q_list": (_ListOf(_finite_float, audit_mod.check_q_list), "2,4,6,8,10,12,16"),
    },
    "reconstruct": {
        "residual_tol": (_finite_float, 1e-6),
        "delta": (_finite_float, 1e-14),
    },
    "sweep": {
        "p_values": (_ListOf(_exponent), "1.2,1.5,1.8"),
        "mu_values": (_ListOf(_offset), "0,0.1"),
        "amplitudes": (_ListOf(_where(_finite_float, lambda x: x > 0.0, "a number > 0")),
                       "0.25,1,4,16"),
        "seeds": (_ListOf(_int_at_least(0)), "101,102,103"),
        "workers": (_int_at_least(1), 1),
    },
}


def default_config() -> dict:
    return {sec: {k: v for k, (_, v) in keys.items()} for sec, keys in SCHEMA.items()}


def _parsed(section: str, key: str, raw: str, parse):
    try:
        return parse(raw)
    except ValueError as exc:
        raise ConfigError(f"invalid value for [{section}] {key}: {raw!r} ({exc})") from exc


def _set_value(config: dict, section: str, key: str, raw: str) -> None:
    if section not in SCHEMA:
        raise ConfigError(f"unknown config section [{section}]")
    if key not in SCHEMA[section]:
        raise ConfigError(f"unknown config key [{section}] {key}")
    parser, _ = SCHEMA[section][key]
    config[section][key] = _parsed(section, key, raw, parser)


# the cgroup memory limits of a process's group (v2, then v1), where mounted;
# v2 writes "max" and v1 a near-2^63 figure when there is no limit
CGROUP_MEMORY_LIMITS = (Path("/sys/fs/cgroup/memory.max"),
                        Path("/sys/fs/cgroup/memory/memory.limit_in_bytes"))

# the grid-size keys each command reads, with the law its estimate takes:
# None for [params] structure; the audit solves both laws, so the larger
GRID_KEYS = {
    "solve": (("domain", "n", None),),
    "reconstruct": (("domain", "n", None),),
    "sweep": (("domain", "n", None),),
    "constants": (("domain", "n", None),),
    "audit": (("audit", "n", "symmetric"), ("audit", "constants_n", "symmetric")),
}


def _available_memory():
    """Bytes of memory a run may use: the smaller of physical memory and the
    cgroup limit, of those that can be read; None where neither can."""
    limits = []
    try:
        limits.append(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"))
    except (ValueError, OSError, AttributeError):
        pass
    for path in CGROUP_MEMORY_LIMITS:
        try:
            limits.append(int(path.read_text()))
        except (OSError, ValueError):  # not mounted, or no limit ("max")
            pass
    return min(limits, default=None)


def _check_grid_memory(command: str, config: dict) -> None:
    """Reject a grid size the command reads whose estimated peak exceeds the
    memory available."""
    memory = _available_memory()
    if memory is None:
        return
    for section, key, structure in GRID_KEYS[command]:
        n = config[section][key]
        need = solver.peak_memory_estimate(n, structure or config["params"]["structure"])
        if need > memory:
            raise ConfigError(
                f"invalid value for [{section}] {key}: {n} (a run at this size is "
                f"estimated to need {need / 2**30:.1f} GiB, more than the "
                f"{memory / 2**30:.1f} GiB of memory available)")


def load_config(path=None, overrides=()) -> dict:
    """Materialize the full config: defaults, then file, then --set flags."""
    config = default_config()
    if path is not None:
        cp = configparser.ConfigParser()
        read = cp.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in cp.sections():
            for key, raw in cp.items(section):
                _set_value(config, section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        _set_value(config, section, key, raw)
    return config


def _entries(config: dict, section: str, key: str) -> list:
    """The values of a list key, parsed again: a config built in code has not
    been through load_config."""
    parser, _ = SCHEMA[section][key]
    return _parsed(section, key, config[section][key], parser.entries)


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)  # no bare NaN
    path.write_text(text + "\n", encoding="ascii")


def _write_csv(path: Path, header: list, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def _manifest(outdir: Path, command: str, config: dict, wall: float) -> None:
    payload = {
        "command": command,
        "config": config,
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "pstruct": _package_version(),
        },
        "wall_time_s": wall,
    }
    _write_json(outdir / "manifest.json", payload)


def _package_version() -> str:
    from . import __version__

    return __version__


def _build_domain_checked(config: dict):
    try:
        return build_domain(config["domain"]["kind"], config["domain"]["n"])
    except ValueError as exc:
        raise ConfigError(f"invalid value in [domain]: {exc}") from exc


def _build_problem(config: dict):
    domain = _build_domain_checked(config)
    pc = config["params"]
    try:
        params = ConstitutiveParams(p=pc["p"], mu=pc["mu"], structure=pc["structure"])
    except ValueError as exc:
        raise ConfigError(f"invalid value in [params]: {exc}") from exc
    rc = config["rhs"]
    try:
        rhs = RhsSpec(id=rc["id"], amplitude=rc["amplitude"], seed=rc["seed"])
    except ValueError as exc:
        raise ConfigError(f"invalid value in [rhs]: {exc}") from exc
    return ProblemSpec(domain, params, rhs=rhs)


def _build_solve_config(config: dict) -> solver.SolveConfig:
    sc = config["solver"]
    cont = None
    try:
        if sc["continuation"]:
            cont = solver.ContinuationPath.geometric(
                eta0=sc["cont_eta0"],
                mu0=sc["cont_mu0"],
                ratio=sc["cont_ratio"],
                eta_floor=sc["cont_eta_floor"],
                mu_floor=sc["cont_mu_floor"],
                max_steps=sc["cont_max_steps"],
            )
        return solver.SolveConfig(
            eta=sc["eta"],
            outer_tol=sc["outer_tol"],
            max_outer=sc["max_outer"],
            inner_tol=sc["inner_tol"],
            inner_maxiter=sc["inner_maxiter"],
            continuation=cont,
        )
    except ValueError as exc:
        raise ConfigError(f"invalid value in [solver]: {exc}") from exc


def _solve_configured(config: dict):
    """(problem, solve config, field, report) of a direct or continuation solve."""
    problem = _build_problem(config)
    cfg = _build_solve_config(config)
    if cfg.continuation is not None:
        v, rep = solver.continuation_solve(problem, cfg)
    else:
        v, rep = solver.solve(problem, cfg)
    return problem, cfg, v, rep


def _cmd_solve(config: dict, outdir: Path, formats: set) -> dict:
    problem, _, v, rep = _solve_configured(config)
    domain = problem.domain
    report = {
        "command": "solve",
        "config": config,
        "result": rep.to_dict(),
        "norms": {
            "grad_p": g.norm(domain, g.gradient(domain, v, "full"), q=problem.params.p),
            "w22": g.norm(domain, v, q=2.0, sobolev_level=2),
            "max": g.norm(domain, v, q=np.inf),
        },
    }
    if "csv" in formats:
        _write_csv(outdir / "tables" / "solve_history.csv", ["iteration", "residual", "energy"],
                   [[i, *row] for i, row in enumerate(zip(rep.residual_history, rep.energy_history))])
        if rep.continuation_trace:
            _write_csv(
                outdir / "tables" / "continuation_trace.csv",
                ["step", "eta", "mu", "d2_norm", "step_change"],
                [[j, e, m, d, c] for j, (e, m, d, c) in enumerate(rep.continuation_trace)],
            )
    if "fields" in formats:
        (outdir / "fields").mkdir(parents=True, exist_ok=True)
        save_field(outdir / "fields" / "solution.bin", domain, v, fmt="bin")
    return report


def _cmd_constants(config: dict, outdir: Path, formats: set) -> dict:
    domain = _build_domain_checked(config)
    ac = config["audit"]
    q_list = _entries(config, "audit", "q_list")
    table, c4, fit, c6 = audit_mod.estimate_constants(domain, q_list, ac["samples"], ac["seed"])
    adm = audit_mod.admissible_p(q_list, c4, table)
    report = {
        "command": "constants",
        "config": config,
        "c4_hat": c4,
        "c5_hat": {f"{q:g}": v for q, v in sorted(table.items())},
        "c6_hat": c6,
        "growth_fit": fit,
        "admissible_p": adm,
    }
    if "csv" in formats:
        _write_csv(outdir / "tables" / "constants.csv", ["q", "c5_hat"],
                   [[q, v] for q, v in sorted(table.items())])
    return report


def _cmd_audit(config: dict, outdir: Path, formats: set) -> dict:
    ac = config["audit"]
    names = tuple(tok.strip() for tok in ac["checks"].split(",") if tok.strip())
    for name in names:
        if name not in ESTIMATE_NAMES:
            raise ConfigError(f"invalid value for [audit] checks: unknown check {name!r}")
    rep = audit_mod.run_audit(
        n=ac["n"],
        constants_n=ac["constants_n"],
        samples=ac["samples"],
        seed=ac["seed"],
        check_names=names,
        q_list=tuple(_entries(config, "audit", "q_list")),
    )
    report = {"command": "audit", "config": config}
    report.update(rep.to_dict())
    if "csv" in formats:
        rows = []
        for check in rep.estimate_checks:
            for r in check["rows"]:
                rows.append([r["name"], r["kind"], r["n"], r["p"], r["mu"], r["structure"],
                             r["q"], r["rhs_id"], r["seed"], r["amplitude"], r["eta"],
                             r["lhs"], r["rhs"], r["ratio"], r["iterations"], r["residual"]])
        _write_csv(
            outdir / "tables" / "estimates.csv",
            ["name", "kind", "n", "p", "mu", "structure", "q", "rhs_id", "seed",
             "amplitude", "eta", "lhs", "rhs", "ratio", "iterations", "residual"],
            rows,
        )
        _write_csv(outdir / "tables" / "constants.csv", ["q", "c5_hat"],
                   [[q, v] for q, v in sorted(rep.c5_hat.items())])
    return report


def _cmd_reconstruct(config: dict, outdir: Path, formats: set) -> dict:
    problem, cfg, v, rep = _solve_configured(config)
    rc = config["reconstruct"]
    check = reconstruct_mod.pointwise_bound_check(
        problem.domain,
        v,
        problem.forcing(),
        problem.params.p,
        problem.params.mu,
        structure=problem.params.structure,
        eta=cfg.eta,
        residual_tol=rc["residual_tol"],
        delta=rc["delta"],
    )
    report = {
        "command": "reconstruct",
        "config": config,
        "solve": {"iterations": rep.iterations, "final_residual": rep.final_residual},
        "ratio_max": check["ratio_max"],
        "ratio_mean": check["ratio_mean"],
        "residual_rel": check["residual_rel"],
        "reconstruction_rel_l2": check["reconstruction_rel_l2"],
        "reconstruction_rel_median": check["reconstruction_rel_median"],
    }
    if "fields" in formats:
        (outdir / "fields").mkdir(parents=True, exist_ok=True)
        save_field(outdir / "fields" / "ratio.bin", problem.domain, check["ratio"], fmt="bin")
        save_field(outdir / "fields" / "solution.bin", problem.domain, v, fmt="bin")
    return report


def _sweep_point(args, base=None) -> dict:
    """One sweep row; base is the SolveConfig whose settings other than eta
    and outer_tol the point's solve uses (the defaults when None)."""
    (idx, kind, n, structure, p, mu, amplitude, seed, rhs_id, eta, outer_tol) = args
    try:
        return _sweep_point_inner(args, base)
    except PStructError as exc:
        # keep the failing point identifiable when many points run, possibly
        # out of order in a worker pool
        raise PStructError(
            f"sweep point index={idx} p={p:g} mu={mu:g} amplitude={amplitude:g} "
            f"seed={seed}: {exc}"
        ) from exc


def _sweep_point_inner(args, base) -> dict:
    (idx, kind, n, structure, p, mu, amplitude, seed, rhs_id, eta, outer_tol) = args
    domain = build_domain(kind, n)
    params = ConstitutiveParams(p=p, mu=mu, structure=structure)
    f = rhs_sample(domain, rhs_id, amplitude, seed)
    # each point is a direct solve at its own eta
    base = solver.SolveConfig() if base is None else base
    cfg = replace(base, eta=eta, outer_tol=outer_tol, continuation=None)
    u, rep = solver.solve(ProblemSpec(domain, params, f=f), cfg)
    lhs_kind, rhs_kind = ("w2q", "two_term") if p < 2.0 else ("d2", "plain")
    lhs = audit_mod.lhs_value(domain, u, lhs_kind, 2.0)
    rhs_val = audit_mod.rhs_value(domain, f, rhs_kind, 2.0, p)
    return {
        "index": idx, "kind": kind, "n": n, "structure": structure,
        "p": p, "mu": mu, "amplitude": amplitude, "seed": seed,
        "rhs_id": rhs_id, "eta": eta, "outer_tol": outer_tol,
        "lhs": lhs, "rhs": rhs_val, "implied_constant": lhs / rhs_val,
        "iterations": rep.iterations, "residual": rep.final_residual,
    }


SWEEP_COLUMNS = ("index", "kind", "n", "structure", "p", "mu", "amplitude", "seed",
                 "rhs_id", "eta", "outer_tol", "lhs", "rhs", "implied_constant",
                 "iterations", "residual")


def aggregate_sweep(rows: list) -> dict:
    """Per-(p, mu) spread statistics of the implied constant.

    Works identically on freshly computed rows and on rows re-read from the
    CSV (floats are written with full round-trip precision).
    """
    rows = sorted(rows, key=lambda r: r["index"])
    groups = {}
    for r in rows:
        groups.setdefault((r["p"], r["mu"]), []).append(r["implied_constant"])
    summary = {}
    for (p, mu), vals in sorted(groups.items()):
        arr = np.array(vals)
        spread = float(np.max(arr) / np.min(arr))
        summary[f"p={p:g},mu={mu:g}"] = {
            "count": len(vals),
            "min": float(np.min(arr)),
            "max": float(np.max(arr)),
            "mean": float(np.mean(arr)),
            "spread": spread,
            "verdict": "PASS" if spread < 10.0 else "FAIL",
        }
    return summary


def read_sweep_csv(path) -> list:
    rows = []
    with open(path, newline="", encoding="ascii") as fh:
        for rec in csv.DictReader(fh):
            row = {}
            for key, val in rec.items():
                if key in ("index", "n", "seed", "iterations"):
                    row[key] = int(val)
                elif key in ("kind", "structure", "rhs_id"):
                    row[key] = val
                else:
                    row[key] = float(val)
            rows.append(row)
    return rows


def _pool_size(workers: int, points: int) -> int:
    """Worker processes for a sweep: no more than the points or the CPUs."""
    return min(workers, points, os.cpu_count() or 1)


def _cmd_sweep(config: dict, outdir: Path, formats: set) -> dict:
    sc = config["sweep"]
    p_values, mu_values, amplitudes, seeds = (
        _entries(config, "sweep", key) for key in ("p_values", "mu_values", "amplitudes", "seeds"))
    _build_problem(config)  # the [domain], [params] structure and [rhs] checks
    kind = config["domain"]["kind"]
    n = config["domain"]["n"]
    structure = config["params"]["structure"]
    rhs_id = config["rhs"]["id"]
    cfg = _build_solve_config(config)
    points = []
    idx = 0
    for p in p_values:
        for mu in mu_values:
            eta = cfg.eta if mu > 0.0 else max(cfg.eta, 1e-8)
            for amplitude in amplitudes:
                for seed in seeds:
                    points.append((idx, kind, n, structure, p, mu, amplitude, seed,
                                   rhs_id, eta, cfg.outer_tol))
                    idx += 1

    def key(pt):
        # (p, mu, amplitude), and the seed only if the forcing reads it:
        # points equal in these are equal bit for bit and solved once
        return pt[4:7] + ((pt[7],) if rhs_id in SEEDED_RHS_IDS else ())

    distinct = {}
    for pt in points:
        distinct.setdefault(key(pt), pt)
    run_point = functools.partial(_sweep_point, base=cfg)
    workers = _pool_size(sc["workers"], len(distinct))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(run_point, distinct.values()))
    else:
        solved = [run_point(pt) for pt in distinct.values()]
    by_key = dict(zip(distinct, solved))
    rows = [{**by_key[key(pt)], "index": pt[0], "seed": pt[7]} for pt in points]
    summary = aggregate_sweep(rows)
    report = {"command": "sweep", "config": config, "points": len(rows), "summary": summary}
    if "csv" in formats:
        _write_csv(outdir / "tables" / "sweep.csv", list(SWEEP_COLUMNS),
                   [[r[c] for c in SWEEP_COLUMNS] for r in rows])
    return report


def _collect_verdicts(report: dict) -> list:
    out = []
    def walk(node):
        if isinstance(node, dict):
            for key, val in node.items():
                if key == "verdict" and isinstance(val, str):
                    out.append(val)
                else:
                    walk(val)
        elif isinstance(node, list):
            for item in node:
                walk(item)
    walk(report)
    return out


def run(command: str, config: dict, strict: bool = False) -> int:
    """Execute a command; returns the process exit status."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}, expected one of {COMMANDS}")
    _check_grid_memory(command, config)
    outdir = Path(config["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    formats = {tok.strip() for tok in config["output"]["formats"].split(",") if tok.strip()}
    unknown = formats - {"json", "csv", "fields"}
    if unknown:
        raise ConfigError(f"invalid value for [output] formats: {sorted(unknown)}")
    start = time.perf_counter()
    handler = {
        "solve": _cmd_solve,
        "audit": _cmd_audit,
        "constants": _cmd_constants,
        "reconstruct": _cmd_reconstruct,
        "sweep": _cmd_sweep,
    }[command]
    report = handler(config, outdir, formats)
    if "json" in formats:
        _write_json(outdir / "report.json", report)
    _manifest(outdir, command, config, time.perf_counter() - start)
    if strict and any(v == "FAIL" for v in _collect_verdicts(report)):
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pstruct",
        description="structured-grid p-structure solver and regularity auditor",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", default=None, help="INI config file")
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="SECTION.KEY=VALUE", help="override a config key")
    parser.add_argument("--strict", action="store_true",
                        help="exit nonzero when any verdict is FAIL")
    args = parser.parse_args(argv)
    try:
        config = load_config(args.config, args.overrides)
        return run(args.command, config, strict=args.strict)
    except PStructError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
