"""The three benchmark workloads: set-up, one timed round, output checks.

Each workload drives pstruct only through its public entry points
(``cli.load_config``, ``cli.run``, ``solver.continuation_solve``).  A
workload's ``setup`` builds everything a round needs and warms the
first-call caches by calling public functions once; ``run_round`` is the
timed work; ``check`` tests the round's outputs against properties the
method must have and returns a list of failure messages (empty when the
outputs are correct).  The check functions take plain data so that tests
can feed them deliberately wrong outputs.
"""

from __future__ import annotations

import csv
import json
import math
import os
from pathlib import Path
from types import SimpleNamespace

import numpy as np

# -- degenerate continuation ------------------------------------------------

CONTINUATION_OVERRIDES = (
    "domain.kind=dirichlet_box",
    "domain.n=16",
    "params.p=1.4",
    "params.mu=0",
    "params.structure=full",
    "rhs.id=smooth-trig",
    "rhs.amplitude=1",
    "solver.outer_tol=1e-10",
    "solver.max_outer=300",
    "solver.continuation=true",
    "solver.cont_eta0=1e-2",
    "solver.cont_mu0=0",
    "solver.cont_ratio=0.5",
    "solver.cont_eta_floor=1e-10",
    "solver.cont_mu_floor=0",
)

# ||D^2 v|| must stay within this relative band over the path's tail, the
# steps with eta at or below TAIL_ETA
D2_BAND = 0.02
TAIL_ETA = 1e-6
HOMOGENEITY_FACTOR = 4.0


def seed_signs(seed: int) -> np.ndarray:
    """Per-component signs of the forcing, from the low three bits of the seed.

    Flipping a component of f flips the same component of the solution and
    leaves |Gv| unchanged, so every seed poses an equivalent problem with
    the same amount of work.
    """
    bits = int(seed) % 8
    return np.array([-1.0 if bits >> i & 1 else 1.0 for i in range(3)])


def continuation_setup(pst, seed: int, outdir: Path):
    config = pst.cli.load_config(None, CONTINUATION_OVERRIDES)
    dc, pc, rc, sc = config["domain"], config["params"], config["rhs"], config["solver"]
    domain = pst.grid.build_domain(dc["kind"], dc["n"])
    f = pst.problems.rhs_sample(domain, rc["id"], rc["amplitude"], rc["seed"])
    f = pst.grid.apply_constraints(domain, f * seed_signs(seed)[:, None, None, None])
    params = pst.ConstitutiveParams(p=pc["p"], mu=pc["mu"], structure=pc["structure"])
    path = pst.solver.ContinuationPath.geometric(
        eta0=sc["cont_eta0"], mu0=sc["cont_mu0"], ratio=sc["cont_ratio"],
        eta_floor=sc["cont_eta_floor"], mu_floor=sc["cont_mu_floor"],
        max_steps=sc["cont_max_steps"],
    )
    cfg = pst.solver.SolveConfig(outer_tol=sc["outer_tol"], max_outer=sc["max_outer"],
                                 continuation=path)
    warm_caches(pst, domain, f, params, path.eta_path[0])
    problem = pst.problems.ProblemSpec(domain, params, f=f)
    return SimpleNamespace(pst=pst, problem=problem, cfg=cfg, steps=[])


def continuation_on_solve(state, out, args, kwargs):
    """Keep each continuation step's problem, config and solution."""
    problem = args[0] if args else kwargs["problem"]
    cfg = args[1] if len(args) > 1 else kwargs["config"]
    state.steps.append((problem, cfg, out[0]))


def continuation_round(state, k: int, outdir: Path):
    state.steps = []
    v, report = state.pst.solver.continuation_solve(state.problem, state.cfg)
    return SimpleNamespace(v=v, report=report, steps=list(state.steps))


def continuation_check(state, out) -> list:
    pst, problem, cfg = state.pst, state.problem, state.cfg
    return check_continuation(pst, problem, cfg, out.steps, out.v)


def _relative_residual(pst, domain, params, eta, v, f) -> float:
    r = pst.solver.residual(domain, params, eta, v, f)
    fz = pst.grid.apply_constraints(domain, np.array(f, dtype=float))
    return float(np.linalg.norm(r) / np.linalg.norm(fz))


def check_continuation(pst, problem, cfg, steps, v_final, tail_eta: float = TAIL_ETA) -> list:
    """Residual of every step, uniform ||D^2 v|| on the tail, homogeneity.

    ``steps`` holds (problem_j, config_j, v_j) for every solve of the path;
    the tail is the steps with eta <= ``tail_eta``.
    """
    failures = []
    domain = problem.domain
    path = cfg.continuation
    tol = cfg.outer_tol
    if len(steps) != len(path.eta_path):
        failures.append(f"continuation made {len(steps)} solves for "
                        f"{len(path.eta_path)} path steps")
    for j, (prob_j, cfg_j, v_j) in enumerate(steps):
        rel = _relative_residual(pst, domain, prob_j.params, cfg_j.eta, v_j, prob_j.forcing())
        if not rel <= tol:
            failures.append(f"step {j} (eta={cfg_j.eta:.3g}): recomputed relative "
                            f"residual {rel:.3e} > outer_tol {tol:.1e}")
    tail = [pst.grid.norm(domain, pst.grid.second_derivatives(domain, v_j))
            for _, cfg_j, v_j in steps if cfg_j.eta <= tail_eta]
    if len(tail) < 2:
        failures.append(f"only {len(tail)} continuation steps with eta <= {tail_eta:g}")
    elif not (max(tail) - min(tail)) <= D2_BAND * max(tail):
        failures.append(f"||D2 v|| over the steps with eta <= {tail_eta:g} ranges "
                        f"{min(tail):.6g}..{max(tail):.6g}, beyond {D2_BAND:.0%}")
    if steps:
        prob_n, cfg_n, _ = steps[-1]
        params = prob_n.params
        if params.mu == 0.0:
            lam = HOMOGENEITY_FACTOR
            w = lam ** (1.0 / (params.p - 1.0)) * np.asarray(v_final)
            rel = _relative_residual(pst, domain, params, cfg_n.eta, w, lam * prob_n.forcing())
            if not rel <= tol:
                failures.append(f"{lam:g}^(1/(p-1)) v leaves relative residual {rel:.3e} "
                                f"on the {lam:g} f problem, > outer_tol {tol:.1e}")
    return failures


# -- estimate audit ---------------------------------------------------------

RECONSTRUCT_OVERRIDES = (
    "domain.kind=cubic_periodic",
    "domain.n=16",
    "params.p=2.6",
    "params.structure=symmetric",
    "output.formats=json,csv,fields",
)
C4_MAX = 1.1
# the axis modes give c4 = 1 exactly in exact arithmetic
C4_MIN = 1.0 - 1e-12


def audit_setup(pst, seed: int, outdir: Path):
    audit_seed = int(np.random.default_rng(int(seed) % 2**32).integers(0, 10**6))
    audit_cfg = pst.cli.load_config(None, (f"audit.seed={audit_seed}",))
    rec_cfg = pst.cli.load_config(None, RECONSTRUCT_OVERRIDES)
    ac = audit_cfg["audit"]
    box = pst.grid.build_domain("dirichlet_box", ac["constants_n"])
    warm_caches(pst, box, pst.problems.rhs_sample(box, "smooth-trig"))
    for kind in ("dirichlet_box", "cubic_periodic"):
        domain = pst.grid.build_domain(kind, ac["n"])
        warm_caches(pst, domain, pst.problems.rhs_sample(domain, "smooth-trig"))
    return SimpleNamespace(pst=pst, audit_cfg=audit_cfg, rec_cfg=rec_cfg)


def audit_round(state, k: int, outdir: Path):
    dirs = (outdir / f"round{k}" / "audit", outdir / f"round{k}" / "reconstruct")
    codes = (state.pst.cli.run("audit", with_output(state.audit_cfg, dirs[0])),
             state.pst.cli.run("reconstruct", with_output(state.rec_cfg, dirs[1])))
    return SimpleNamespace(codes=codes, dirs=dirs)


def audit_check(state, out) -> list:
    pst = state.pst
    failures = [f"pstruct {cmd} exited {code}"
                for cmd, code in zip(("audit", "reconstruct"), out.codes) if code != 0]
    audit_dir, rec_dir = out.dirs
    audit_report = json.loads((audit_dir / "report.json").read_text(encoding="ascii"))
    failures += check_audit_report(audit_report, state.audit_cfg["audit"]["checks"].split(","))
    rec_report = json.loads((rec_dir / "report.json").read_text(encoding="ascii"))
    domain, v = pst.grid.load_field(rec_dir / "fields" / "solution.bin")
    rc, pc, fc = state.rec_cfg["rhs"], state.rec_cfg["params"], state.rec_cfg["solver"]
    f = pst.problems.rhs_sample(domain, rc["id"], rc["amplitude"], rc["seed"])
    params = pst.ConstitutiveParams(p=pc["p"], mu=pc["mu"], structure=pc["structure"])
    recomputed = _relative_residual(pst, domain, params, fc["eta"], v, f)
    failures += check_reconstruct_report(
        rec_report, recomputed, state.rec_cfg["reconstruct"]["residual_tol"])
    return failures


def check_audit_report(report: dict, check_names) -> list:
    failures = []
    checks = {c["name"]: c for c in report["estimate_checks"]}
    for name in check_names:
        if name not in checks:
            failures.append(f"estimate check {name} missing from the audit report")
        elif checks[name]["verdict"] != "PASS":
            failures.append(f"estimate check {name}: verdict {checks[name]['verdict']}")
    c4 = report["c4_hat"]
    if not C4_MIN <= c4 <= C4_MAX:
        failures.append(f"c4_hat {c4!r} outside [1, {C4_MAX}]")
    c6 = report["c6_hat"]
    expected = max([c4] + list(report["c5_hat"].values()))
    if c6 != expected:
        failures.append(f"c6_hat {c6!r} is not max(c4, c5) = {expected!r}")
    for name, check in checks.items():
        inputs = check["inputs"]
        want = len(inputs["shape_seeds"]) * len(inputs["mu_values"]) * len(inputs["amplitudes"])
        if len(check["rows"]) != want:
            failures.append(f"estimate check {name}: {len(check['rows'])} rows, expected {want}")
        for row in check["rows"]:
            if not row["residual"] <= inputs["outer_tol"]:
                failures.append(
                    f"estimate check {name} seed={row['seed']} mu={row['mu']:g} "
                    f"amplitude={row['amplitude']:g}: residual {row['residual']:.3e} "
                    f"> outer_tol {inputs['outer_tol']:.1e}")
    return failures


def check_reconstruct_report(report: dict, recomputed: float, residual_tol: float) -> list:
    failures = []
    for label, value in (("reported", report["residual_rel"]), ("recomputed", recomputed)):
        if not value <= residual_tol:
            failures.append(f"reconstruct: {label} relative residual {value:.3e} "
                            f"> residual_tol {residual_tol:.1e}")
    if not math.isfinite(report["ratio_max"]):
        failures.append(f"reconstruct: ratio_max {report['ratio_max']!r}")
    return failures


# -- parallel sweep ---------------------------------------------------------

SWEEP_OVERRIDES = (
    "domain.kind=cubic_periodic",
    "domain.n=16",
    "params.structure=full",
    "rhs.id=band-limited-random",
    "sweep.p_values=1.5,1.8",
    "sweep.mu_values=0,0.1",
    "sweep.amplitudes=0.25,1,4,16",
    "output.formats=json,csv",
)
# the pool size asked for, capped by the CPUs this process may use (read
# at import, before the runner pins the process for set-up)
SWEEP_WORKERS = min(2, len(os.sched_getaffinity(0)))
HOMOGENEITY_TOL = 1e-6


def sweep_seeds(seed: int) -> tuple:
    """Two distinct forcing seeds for band-limited-random, from the run seed."""
    a, b = np.random.default_rng(int(seed) % 2**32).choice(10**6, size=2, replace=False)
    return int(a), int(b)


def sweep_setup(pst, seed: int, outdir: Path):
    seeds = ",".join(str(s) for s in sweep_seeds(seed))
    config = pst.cli.load_config(None, SWEEP_OVERRIDES + (
        f"sweep.seeds={seeds}",
        f"sweep.workers={SWEEP_WORKERS}",
    ))
    dc = config["domain"]
    domain = pst.grid.build_domain(dc["kind"], dc["n"])
    warm_caches(pst, domain, pst.problems.rhs_sample(domain, config["rhs"]["id"], 1.0, 0))
    return SimpleNamespace(pst=pst, config=config)


def sweep_round(state, k: int, outdir: Path):
    out = outdir / f"round{k}" / "sweep"
    return SimpleNamespace(code=state.pst.cli.run("sweep", with_output(state.config, out)),
                           dir=out)


def sweep_check(state, out) -> list:
    failures = [] if out.code == 0 else [f"pstruct sweep exited {out.code}"]
    outdir = out.dir
    report = json.loads((outdir / "report.json").read_text(encoding="ascii"))
    rows = read_csv_rows(outdir / "tables" / "sweep.csv")
    sc = state.config["sweep"]
    points = 1
    for key in ("p_values", "mu_values", "amplitudes", "seeds"):
        points *= len(sc[key].split(","))
    return failures + check_sweep(report, rows, points)


def read_csv_rows(path: Path) -> list:
    """sweep.csv rows with numeric columns as float (ints stay exact)."""
    with open(path, newline="", encoding="ascii") as fh:
        rows = list(csv.DictReader(fh))
    text = ("kind", "structure", "rhs_id")
    return [{k: (v if k in text else float(v)) for k, v in row.items()} for row in rows]


def aggregate(rows: list) -> dict:
    """Implied-constant statistics per (p, mu), independent of pstruct's own."""
    groups = {}
    for r in sorted(rows, key=lambda r: r["index"]):
        groups.setdefault((r["p"], r["mu"]), []).append(r["implied_constant"])
    out = {}
    for (p, mu), vals in sorted(groups.items()):
        spread = max(vals) / min(vals)
        out[f"p={p:g},mu={mu:g}"] = {
            "count": len(vals), "min": min(vals), "max": max(vals),
            "mean": math.fsum(vals) / len(vals), "spread": spread,
            "verdict": "PASS" if spread < 10.0 else "FAIL",
        }
    return out


def check_sweep(report: dict, rows: list, points: int) -> list:
    failures = []
    if report["points"] != points or len(rows) != points:
        failures.append(f"sweep: report has {report['points']} points and the CSV "
                        f"{len(rows)} rows, expected {points}")
    for r in rows:
        if not r["residual"] <= r["outer_tol"]:
            failures.append(f"sweep point {int(r['index'])}: residual {r['residual']:.3e} "
                            f"> outer_tol {r['outer_tol']:.1e}")
    # at mu = 0 the solution map is (p-1)-homogeneous: u(la) = l^(1/(p-1)) u(a)
    series = {}
    for r in rows:
        if r["mu"] == 0.0:
            series.setdefault((r["p"], r["seed"]), []).append((r["amplitude"], r["lhs"]))
    for (p, seed), pts in sorted(series.items()):
        pts.sort()
        a0, l0 = pts[0]
        for a, lhs in pts[1:]:
            want = (a / a0) ** (1.0 / (p - 1.0))
            err = abs(lhs / l0 / want - 1.0)
            if not err <= HOMOGENEITY_TOL:
                failures.append(f"sweep p={p:g} seed={int(seed)}: lhs({a:g})/lhs({a0:g}) is "
                                f"off (a/a0)^(1/(p-1)) by {err:.2e} > {HOMOGENEITY_TOL:g}")
    mine = aggregate(rows)
    theirs = report["summary"]
    if sorted(mine) != sorted(theirs):
        failures.append(f"sweep summary groups {sorted(theirs)} != re-aggregated {sorted(mine)}")
    for key in sorted(set(mine) & set(theirs)):
        for stat, value in mine[key].items():
            got = theirs[key].get(stat)
            if isinstance(value, str) or stat == "count":
                same = got == value
            else:
                same = isinstance(got, (int, float)) and abs(got - value) <= 1e-12 * abs(value)
            if not same:
                failures.append(f"sweep summary {key} {stat}: report {got!r}, "
                                f"re-aggregated from sweep.csv {value!r}")
    return failures


# -- shared -----------------------------------------------------------------


def with_output(config: dict, directory: Path) -> dict:
    """The config with its output directory replaced; the original is kept."""
    return {**config, "output": {**config["output"], "directory": str(directory)}}


def warm_caches(pst, domain, f, params=None, eta: float = 0.0) -> None:
    """Fill the per-domain first-call caches through public calls.

    poisson_solve fills the transform eigenvalues, residual the one-sided
    gradient masks, and the W^{2,2} norm the quadrature weights.
    """
    pst.poisson.poisson_solve(domain, f)
    if params is None:
        params = pst.ConstitutiveParams(p=2.0, mu=0.0)
    pst.solver.residual(domain, params, max(eta, 1e-2), f, f)
    pst.grid.norm(domain, f, q=2.0, sobolev_level=2)


WORKLOADS = {
    "degenerate-continuation": SimpleNamespace(
        setup=continuation_setup, run_round=continuation_round, check=continuation_check,
        on_solve=continuation_on_solve, pinned=True,
        why="full-gradient law, p=1.4, mu=0, eta 1e-2 to 1e-10 by halving on the 16^3 box: "
            "PCG under ~1e2 coefficient contrast dominates",
    ),
    "estimate-audit": SimpleNamespace(
        setup=audit_setup, run_round=audit_round, check=audit_check, on_solve=None,
        pinned=True,
        why="pstruct audit at its defaults then reconstruct (p=2.6, symmetric, slab): "
            "134 warm-started well-conditioned solves, per-outer-step and audit overhead",
    ),
    "parallel-sweep": SimpleNamespace(
        setup=sweep_setup, run_round=sweep_round, check=sweep_check, on_solve=None,
        pinned=False,
        why="pstruct sweep of 32 cold-started slab solves over 2 pool workers: throughput "
            "over independent points, periodic FFT Poisson solves",
    ),
}
