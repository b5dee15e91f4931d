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
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from . import audit as audit_mod
from . import grid as g
from . import reconstruct as reconstruct_mod
from . import solver
from .audit import ESTIMATE_NAMES
from .constitutive import FULL_GRADIENT, SYMMETRIC_GRADIENT, ConstitutiveParams
from .errors import ConfigError, PStructError
from .grid import build_domain, save_field
from .problems import RHS_IDS, SEEDED_RHS_IDS, ProblemSpec, rhs_sample

OUTPUT_FORMATS = ("json", "csv", "fields")

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


def _one_of(*choices):
    return _where(str, lambda x: x in choices, "one of " + ", ".join(choices))


_exponent = _where(_finite_float, lambda x: x > 1.0, "a number > 1")
_offset = _where(_finite_float, lambda x: x >= 0.0, "a number >= 0")
_positive = _where(_finite_float, lambda x: x > 0.0, "a number > 0")


class _ListOf:
    """Parser of a comma-separated list whose entries parse with item and
    which, whole, check accepts; it keeps the raw string in the config."""

    def __init__(self, item, check=lambda values: None):
        self.item, self.check = item, check

    def entries(self, raw: str) -> list:
        values = [self.item(tok.strip()) for tok in raw.split(",") if tok.strip() != ""]
        self.check(values)
        return values

    def __call__(self, raw: str) -> str:
        self.entries(raw)
        return raw


# section -> key -> (parser, default); this is the complete documented key set
SCHEMA = {
    "domain": {
        "kind": (_one_of(g.CUBIC_PERIODIC, g.DIRICHLET_BOX), g.CUBIC_PERIODIC),
        "n": (_int_at_least(g.MIN_NODES), 16),
    },
    "params": {
        "p": (_exponent, 2.0),
        "mu": (_offset, 0.1),
        "structure": (_one_of(FULL_GRADIENT, SYMMETRIC_GRADIENT), FULL_GRADIENT),
    },
    "solver": {
        "eta": (_offset, 0.0),
        "outer_tol": (_positive, 1e-9),
        "max_outer": (_int_at_least(0), 200),
        "continuation": (_parse_bool, False),
        "cont_eta0": (_offset, 1e-1),
        "cont_mu0": (_offset, 1e-1),
        "cont_ratio": (_where(_finite_float, lambda x: 0.0 < x < 1.0, "a number in (0, 1)"), 0.5),
        "cont_eta_floor": (_offset, 1e-8),
        "cont_mu_floor": (_offset, 1e-8),
        "cont_max_steps": (_where(int, lambda x: 1 <= x <= 1000, "an integer in 1..1000"), 60),
    },
    "rhs": {
        "id": (_one_of(*RHS_IDS), "smooth-trig"),
        "amplitude": (_positive, 1.0),
        "seed": (_int_at_least(0), 0),
    },
    "output": {
        "directory": (str, "out"),
        "formats": (_ListOf(_one_of(*OUTPUT_FORMATS)), "json,csv"),
    },
    "audit": {
        "n": (_int_at_least(g.MIN_NODES), 16),
        "constants_n": (_int_at_least(g.MIN_NODES), 32),
        "samples": (_int_at_least(0), 12),
        "seed": (_int_at_least(0), 0),
        "checks": (_ListOf(_one_of(*ESTIMATE_NAMES)), ",".join(ESTIMATE_NAMES)),
        "q_list": (_ListOf(_finite_float, audit_mod.check_q_list), "2,4,6,8,10,12,16"),
    },
    "reconstruct": {
        "residual_tol": (_positive, 1e-6),
    },
    "sweep": {
        "p_values": (_ListOf(_exponent), "1.2,1.5,1.8"),
        "mu_values": (_ListOf(_offset), "0,0.1"),
        "amplitudes": (_ListOf(_positive), "0.25,1,4,16"),
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has
    one, else the machine's CPU count (1 if that is unknown)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _check_grid_memory(command: str, config: dict) -> None:
    """Reject a grid size the command reads whose estimated peak exceeds the
    memory available; a sweep runs one solve in each process of its pool."""
    memory = _available_memory()
    if memory is None:
        return
    solves = (_pool_size(config["sweep"]["workers"], len(set(_sweep_ladders(config)[1])))
              if command == "sweep" else 1)
    for section, key, structure in GRID_KEYS[command]:
        n = config[section][key]
        need = solves * solver.peak_memory_estimate(n, structure or config["params"]["structure"])
        if need > memory:
            raise ConfigError(
                f"invalid value for [{section}] {key}: {n} (a run at this size is "
                f"estimated to need {need / 2**30:.1f} GiB, more than the "
                f"{memory / 2**30:.1f} GiB of memory available)")


def load_config(path=None, overrides=()) -> dict:
    """Materialize the full config: defaults, then file, then --set flags."""
    config = default_config()
    if path is not None:
        cp = configparser.ConfigParser(interpolation=None)  # values read literally, as with --set
        try:
            read = cp.read(path)
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
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
            "pstruct": __version__,
        },
        "wall_time_s": wall,
    }
    _write_json(outdir / "manifest.json", payload)


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
        f = rhs_sample(domain, rc["id"], rc["amplitude"], rc["seed"])
    except ValueError as exc:
        raise ConfigError(f"invalid value in [rhs]: {exc}") from exc
    return ProblemSpec(domain, params, f)


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
        save_field(outdir / "fields" / "solution.bin", domain, v)
    return {
        "result": rep.to_dict(),
        "norms": {
            "grad_p": g.norm(domain, g.gradient(domain, v, "full"), q=problem.params.p),
            "w22": g.norm(domain, v, q=2.0, sobolev_level=2),
            "max": g.norm(domain, v, q=np.inf),
        },
    }


def _write_constants_csv(outdir: Path, report: dict) -> None:
    _write_csv(outdir / "tables" / "constants.csv", ["q", "c5_hat"],
               [[float(q), v] for q, v in report["c5_hat"].items()])


def _cmd_constants(config: dict, outdir: Path, formats: set) -> dict:
    domain = _build_domain_checked(config)
    ac = config["audit"]
    q_list = _entries(config, "audit", "q_list")
    report = audit_mod.estimate_constants(domain, q_list, ac["samples"], ac["seed"], q_list)
    if "csv" in formats:
        _write_constants_csv(outdir, report)
    return report


ESTIMATE_COLUMNS = ("name", "kind", "n", "p", "mu", "structure", "q", "rhs_id", "seed",
                    "amplitude", "eta", "lhs", "rhs", "ratio", "iterations", "residual")


def _cmd_audit(config: dict, outdir: Path, formats: set) -> dict:
    ac = config["audit"]
    report = audit_mod.run_audit(
        n=ac["n"], constants_n=ac["constants_n"], samples=ac["samples"], seed=ac["seed"],
        check_names=tuple(_entries(config, "audit", "checks")),
        q_list=tuple(_entries(config, "audit", "q_list")))
    if "csv" in formats:
        _write_csv(outdir / "tables" / "estimates.csv", list(ESTIMATE_COLUMNS),
                   [[r[c] for c in ESTIMATE_COLUMNS]
                    for check in report["estimate_checks"] for r in check["rows"]])
        _write_constants_csv(outdir, report)
    return report


def _solved_eta_mu(config: dict, cfg: solver.SolveConfig):
    """(eta, mu) of the problem a configured solve's field solves, the last
    step of its continuation path if it has one, and the key that sets mu."""
    if cfg.continuation is None:
        return cfg.eta, config["params"]["mu"], "[params] mu"
    key = "cont_mu0" if config["solver"]["cont_mu0"] == 0.0 else "cont_mu_floor"
    return cfg.continuation.eta_path[-1], cfg.continuation.mu_path[-1], f"[solver] {key}"


def _check_reconstruct(config: dict) -> None:
    """Reject, before any solve, a reconstruct whose field would solve a
    problem outside the normal system's hypotheses p > 2 and mu > 0."""
    p = config["params"]["p"]
    _, mu, key = _solved_eta_mu(config, _build_solve_config(config))
    if not p > 2.0:
        raise ConfigError(f"invalid value for [params] p: {p!r} (reconstruct needs p > 2)")
    if not mu > 0.0:
        raise ConfigError(f"invalid value for {key}: {mu!r} (reconstruct needs mu > 0)")


def _cmd_reconstruct(config: dict, outdir: Path, formats: set) -> dict:
    problem, cfg, v, rep = _solve_configured(config)
    eta, mu, _ = _solved_eta_mu(config, cfg)
    check = reconstruct_mod.pointwise_bound_check(
        problem.domain, v, problem.forcing(), problem.params.p, mu,
        structure=problem.params.structure, eta=eta,
        residual_tol=config["reconstruct"]["residual_tol"])
    if "fields" in formats:
        (outdir / "fields").mkdir(parents=True, exist_ok=True)
        save_field(outdir / "fields" / "ratio.bin", problem.domain, check["ratio"])
        save_field(outdir / "fields" / "solution.bin", problem.domain, v)
    return {"solve": {"iterations": rep.iterations, "final_residual": rep.final_residual},
            **{k: val for k, val in check.items() if not isinstance(val, np.ndarray)}}


def _sweep_point(task) -> list:
    """The rows of one (p, mu, seed) over its amplitudes, ascending, as one
    audit.solve_family ladder under the SolveConfig base; indices[k] is the
    index of the point at amplitudes[k]."""
    (indices, kind, n, structure, p, mu, amplitudes, seed, rhs_id, base) = task
    # the W^{2,2} estimate of the paper for this p, as the audit checks it
    spec = {**audit_mod.ESTIMATE_SPECS["p_lt_2_W22" if p < 2.0 else "p_gt_2_W22"],
            "p": p, "kind": kind, "structure": structure}
    rows = []
    try:
        for row in audit_mod.estimate_rows(spec, n, audit_mod.solve_family(
                kind, n, p, (mu,), structure, rhs_id, (seed,), amplitudes, base)):
            rows.append({**row, "index": indices[len(rows)], "rhs_id": rhs_id,
                         "outer_tol": base.outer_tol, "implied_constant": row["ratio"]})
    except PStructError as exc:
        # keep the failing point identifiable when many ladders run, possibly
        # out of order in a worker pool
        raise PStructError(
            f"sweep point index={indices[len(rows)]} p={p:g} mu={mu:g} "
            f"amplitude={amplitudes[len(rows)]:g} seed={seed}: {exc}"
        ) from exc
    return rows


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
            "verdict": "PASS" if spread < audit_mod.SPREAD_LIMIT else "FAIL",
        }
    return summary


def _pool_size(workers: int, ladders: int) -> int:
    """Worker processes for a sweep: no more than the ladders or the CPUs."""
    return min(workers, ladders, _usable_cpus())


def _sweep_ladders(config: dict) -> tuple:
    """A sweep's points (p, mu, amplitude, seed) in index order, and the
    ladder key of each: one ladder per (p, mu), and per seed only if the
    forcing reads it; points equal in this key and the amplitude are solved
    once."""
    p_values, mu_values, amplitudes, seeds = (
        _entries(config, "sweep", key) for key in ("p_values", "mu_values", "amplitudes", "seeds"))
    seeded = config["rhs"]["id"] in SEEDED_RHS_IDS
    points = [(p, mu, amplitude, seed) for p in p_values for mu in mu_values
              for amplitude in amplitudes for seed in seeds]
    return points, [(p, mu) + ((seed,) if seeded else ()) for p, mu, _, seed in points]


def _cmd_sweep(config: dict, outdir: Path, formats: set) -> dict:
    points, keys = _sweep_ladders(config)
    _build_problem(config)  # the [domain], [params] structure and [rhs] checks
    kind = config["domain"]["kind"]
    n = config["domain"]["n"]
    structure = config["params"]["structure"]
    rhs_id = config["rhs"]["id"]
    cfg = _build_solve_config(config)
    ladder = tuple(sorted({amplitude for _, _, amplitude, _ in points}))
    ladders = {}  # its p, mu and seed, and the first index of each amplitude
    for idx, ((p, mu, amplitude, seed), key) in enumerate(zip(points, keys)):
        ladders.setdefault(key, (p, mu, seed, {}))[3].setdefault(amplitude, idx)
    tasks = [(tuple(first[a] for a in ladder), kind, n, structure, p, mu, ladder, seed, rhs_id,
              cfg) for p, mu, seed, first in ladders.values()]
    workers = _pool_size(config["sweep"]["workers"], len(tasks))
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            solved = list(pool.map(_sweep_point, tasks))
    else:
        solved = [_sweep_point(task) for task in tasks]
    by_point = {(k, row["amplitude"]): row for k, rows in zip(ladders, solved) for row in rows}
    rows = [{**by_point[key, amplitude], "index": idx, "seed": seed}
            for idx, ((_, _, amplitude, seed), key) in enumerate(zip(points, keys))]
    if "csv" in formats:
        _write_csv(outdir / "tables" / "sweep.csv", list(SWEEP_COLUMNS),
                   [[r[c] for c in SWEEP_COLUMNS] for r in rows])
    return {"points": len(rows), "summary": aggregate_sweep(rows)}


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


COMMANDS = {
    "solve": _cmd_solve,
    "audit": _cmd_audit,
    "constants": _cmd_constants,
    "reconstruct": _cmd_reconstruct,
    "sweep": _cmd_sweep,
}


def run(command: str, config: dict, strict: bool = False) -> int:
    """Execute a command; returns the process exit status."""
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}, expected one of {tuple(COMMANDS)}")
    _check_grid_memory(command, config)
    if command == "reconstruct":
        _check_reconstruct(config)
    formats = set(_entries(config, "output", "formats"))
    outdir = Path(config["output"]["directory"])
    outdir.mkdir(parents=True, exist_ok=True)
    start = time.perf_counter()
    report = {"command": command, "config": config, **COMMANDS[command](config, outdir, formats)}
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
    parser.add_argument("command", choices=tuple(COMMANDS))
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
