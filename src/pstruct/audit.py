"""Empirical constants and estimate verification against solver output.

Constants for the second-derivative/Laplacian comparison are estimated as
maxima of discrete norm ratios over a sample family, so they are lower bounds
of the true constants.  The family always contains the single-axis modes,
whose ratio is exactly 1 in every L^q norm (only one second derivative is
nonzero); on convex domains these saturate the known constant, which pins the
estimate instead of leaving it to sampling luck.

A priori estimates are checked as boundedness and scaling properties of the
implied constant LHS/RHS over amplitude and mu sweeps; verdicts are PASS,
FAIL, or "informational" when the configuration leaves the hypotheses under
which the estimate is claimed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import grid as g
from . import solver
from .constitutive import ConstitutiveParams
from .errors import BadRange, NonFinite
from .grid import CUBIC_PERIODIC, DIRICHLET_BOX, DomainSpec, build_domain
from .poisson import poisson_solve
from .problems import ProblemSpec, rhs_sample, smooth_test_field

__all__ = [
    "estimate_c4",
    "estimate_c5",
    "c5_table",
    "estimate_constants",
    "growth_fit",
    "r_of_q",
    "admissible_p",
    "lhs_value",
    "rhs_value",
    "solve_family",
    "estimate_rows",
    "verify_estimate",
    "tangential_energy_check",
    "holder_seminorm",
    "run_audit",
    "ESTIMATE_NAMES",
    "check_q_list",
]

Q_WINDOW = (4.0, 16.0)


def _axis_mode(domain: DomainSpec, axis: int) -> np.ndarray:
    t = domain.coords(axis)
    w = 2.0 * np.pi if domain.is_periodic(axis) else np.pi
    prof = np.sin(w * t)
    shape = [1, 1, 1]
    shape[axis] = domain.shape[axis]
    field = np.zeros((1,) + domain.shape)
    field[0] = np.broadcast_to(prof.reshape(shape), domain.shape)
    return field


def _sample_fields(domain: DomainSpec, samples: int, seed: int):
    """Yield the axis-aligned extremal modes, then the inverse-Laplacian
    images of random band-limited forcings, one field at a time."""
    for ax in range(3):
        yield _axis_mode(domain, ax)
    for i in range(samples):
        yield poisson_solve(domain, rhs_sample(domain, "band-limited-random", 1.0, seed + i))


def _check_q_range(q_list) -> None:
    for q in q_list:
        if not 2.0 <= float(q) <= 16.0:
            raise ValueError(f"q must lie in [2, 16], got {q}")


def _q_key(q) -> str:
    """The key of q in a report's c5_hat."""
    return f"{float(q):g}"


def check_q_list(q_list) -> None:
    """Raise ValueError unless estimate_constants can take q_list: every q
    in [2, 16], no two with one c5_hat key, and at least two in Q_WINDOW for
    growth_fit."""
    _check_q_range(q_list)
    seen = {}
    for q in q_list:
        key = _q_key(q)
        if key in seen:
            raise ValueError(f"q values {seen[key]} and {q} share the c5_hat key {key!r}")
        seen[key] = q
    fit = {float(q) for q in q_list if Q_WINDOW[0] <= float(q) <= Q_WINDOW[1]}
    if len(fit) < 2:
        raise ValueError(f"need at least two q values in [4, 16], got {len(fit)}")


def c5_table(domain: DomainSpec, q_list=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0),
             samples: int = 20, seed: int = 0) -> dict:
    """Max of ||D2 v||_q / ||Lap v||_q over the sample family (interior
    sums), for every q of q_list in one pass over the samples."""
    _check_q_range(q_list)
    table = {float(q): 0.0 for q in q_list}
    for v in _sample_fields(domain, samples, seed):
        d2 = g.second_derivatives(domain, v)
        sq = d2.sq_all()
        tr = d2.trace()
        trsq = np.sum(tr * tr, axis=0)
        for q in table:
            num = g.lq_norm_from_squares(domain, sq, q, True)
            den = g.lq_norm_from_squares(domain, trsq, q, True)
            table[q] = max(table[q], num / den)
    return table


def estimate_c4(domain: DomainSpec, samples: int = 20, seed: int = 0) -> float:
    """c5_table's q = 2 entry."""
    return c5_table(domain, (2.0,), samples, seed)[2.0]


def estimate_c5(domain: DomainSpec, q: float, samples: int = 20, seed: int = 0) -> float:
    """c5_table's entry at q; it shares the sample path, so q = 2 reproduces c4."""
    return c5_table(domain, (float(q),), samples, seed)[float(q)]


def estimate_constants(domain: DomainSpec, q_list, samples: int, seed: int,
                       admissible_q) -> dict:
    """The constants block of the constants and audit reports, from one pass
    over the samples: c4_hat is c5_table's q = 2 entry, c5_hat its entries at
    the q of q_list keyed by _q_key in ascending q, c6_hat the max of both,
    growth_fit that of c5_hat, and admissible_p the intervals at the q of
    admissible_q."""
    table = c5_table(domain, q_list=tuple(q_list) + (2.0,), samples=samples, seed=seed)
    c4 = table[2.0]
    table = {q: table[q] for q in sorted(map(float, q_list))}
    return {"c4_hat": c4, "c5_hat": {_q_key(q): v for q, v in table.items()},
            "c6_hat": max([c4] + list(table.values())), "growth_fit": growth_fit(table),
            "admissible_p": admissible_p(admissible_q, c4, table)}


def growth_fit(table: dict) -> dict:
    """Bracket c5(q)/q on Q_WINDOW and fit a linear growth slope.

    k1_hat/k2_hat are the min/max of c5(q)/q; the least-squares slope of
    c5(q) against q (through the origin) is reported alongside.  Whether the
    linear-growth window is visible at desk resolution is an open question,
    so these are reported, never asserted.
    """
    lo, hi = Q_WINDOW
    qs = np.array([q for q in sorted(table) if lo <= q <= hi])
    if qs.size < 2:
        raise ValueError(f"need at least two q values in {Q_WINDOW}, got {qs.size}")
    vals = np.array([table[q] for q in qs])
    per_q = vals / qs
    return {
        "k1_hat": float(np.min(per_q)),
        "k2_hat": float(np.max(per_q)),
        "ls_slope": float(np.sum(qs * vals) / np.sum(qs * qs)),
        "window": [lo, hi],
    }


def r_of_q(q: float, p: float) -> float:
    """Forcing integrability exponent paired with W^{2,q} regularity.

    3q/(3-(3-q)(2-p)) below q = 3, q itself above, and 3 at the junction
    (both one-sided limits agree there).
    """
    if q < 2.0:
        raise BadRange(f"need q >= 2, got q={q}")
    if not 1.0 < p <= 2.0:
        raise ValueError(f"exponent map is for p in (1, 2], got p={p}")
    if q > 3.0:
        return float(q)
    if q == 3.0:
        return 3.0
    return 3.0 * q / (3.0 - (3.0 - q) * (2.0 - p))


def admissible_p(q_list, c4_hat: float, c5_hat: dict) -> list:
    """Exponent intervals on which the smallness condition (2-p)*const < 1
    holds: the q = 2 case uses c4_hat, larger q the combined constant."""
    c6 = max([c4_hat] + [float(v) for v in c5_hat.values()]) if c5_hat else c4_hat
    out = []
    for q in q_list:
        c = c4_hat if float(q) == 2.0 else c6
        p_min = max(1.0, 2.0 - 1.0 / c)
        out.append(
            {
                "q": float(q),
                "p_min": p_min,
                "p_max": 2.0,
                "constant_used": c,
                "empty": p_min >= 2.0,
                "flagged_narrow": (2.0 - p_min) < 1e-3,
            }
        )
    return out


ESTIMATE_NAMES = ("p_gt_2_W22", "p_lt_2_W22", "p_lt_2_W2q", "tangential_fe1")

_MU_SWEEP = (1.0, 0.5, 0.25, 0.125)

# the sweep every estimate check solves: forcing shapes and amplitudes, eta
# at mu = 0 (eta = 0 otherwise), outer tolerance and cap; a check passes only
# while the implied constant's spread over the amplitudes stays below the limit
RHS_ID = "band-limited-random"
SHAPE_SEEDS = (101, 102, 103)
AMPLITUDES = (0.25, 1.0, 4.0, 16.0)
ETA_FLOOR = 1e-8
OUTER_TOL = 1e-8
MAX_OUTER = 300
SPREAD_LIMIT = 10.0

# node pairs the Hölder probe samples
HOLDER_PAIRS = 20000

ESTIMATE_SPECS = {
    # p > 2, symmetric law on the periodic slab: second derivatives against
    # the plain L2 forcing norm, constant degrading like mu^-(p-2)
    "p_gt_2_W22": dict(p=2.5, mu_values=_MU_SWEEP, structure="symmetric",
                       kind=CUBIC_PERIODIC, lhs="d2", rhs="plain", q=2.0, mu_fit=True),
    # p < 2, full law on the box: full W^{2,2} norm against the two-term
    # forcing functional
    "p_lt_2_W22": dict(p=1.5, mu_values=(0.0, 0.1), structure="full",
                       kind=DIRICHLET_BOX, lhs="w2q", rhs="two_term", q=2.0, mu_fit=False),
    # p < 2 in L^q
    "p_lt_2_W2q": dict(p=1.8, mu_values=(0.0,), structure="full",
                       kind=DIRICHLET_BOX, lhs="w2q", rhs="two_term", q=4.0, mu_fit=False),
    # tangential second derivatives only, p > 2 symmetric on the slab
    "tangential_fe1": dict(p=2.5, mu_values=_MU_SWEEP, structure="symmetric",
                           kind=CUBIC_PERIODIC, lhs="d2_star", rhs="plain", q=2.0, mu_fit=True),
}


def _coverage_reasons(name: str, p: float, mu_values, structure: str, kind: str, q: float) -> list:
    reasons = []
    if name in ("p_gt_2_W22", "tangential_fe1"):
        if p <= 2.0:
            reasons.append(f"needs p > 2, got p={p}")
        if structure != "symmetric":
            reasons.append("stated for the symmetric-gradient law")
        if kind != CUBIC_PERIODIC:
            reasons.append("stated on the periodic slab domain")
        if any(m <= 0.0 for m in mu_values):
            reasons.append("needs mu > 0")
    else:
        if not 1.0 < p < 2.0:
            reasons.append(f"needs 1 < p < 2, got p={p}")
        if structure != "full":
            reasons.append("p < 2 results cover the full-gradient law only")
        if q < 2.0:
            reasons.append(f"needs q >= 2, got q={q}")
    return reasons


def lhs_value(domain: DomainSpec, u: np.ndarray, kind: str, q: float) -> float:
    if kind == "d2":
        return g.norm(domain, g.second_derivatives(domain, u), q=q)
    if kind == "d2_star":
        d2 = g.second_derivatives(domain, u)
        return g.lq_norm_from_squares(domain, np.maximum(d2.sq_tangential(), 0.0), q, True)
    if kind == "w2q":
        return g.norm(domain, u, q=q, sobolev_level=2)
    raise ValueError(kind)


def rhs_value(domain: DomainSpec, f: np.ndarray, kind: str, q: float, p: float) -> float:
    if kind == "plain":
        return g.norm(domain, f, q=q)
    if kind == "two_term":
        with np.errstate(over="ignore"):
            term = np.float64(g.norm(domain, f, q=r_of_q(q, p))) ** (1.0 / (p - 1.0))
        if not np.isfinite(term):
            raise NonFinite(f"the two-term RHS is {term} at p = {p:g}")
        return g.norm(domain, f, q=q) + float(term)
    raise ValueError(kind)


def _resolved_spec(name: str, overrides: dict) -> dict:
    """The estimate's ESTIMATE_SPECS entry with overrides applied, its p, q
    and mu values as floats."""
    if name not in ESTIMATE_SPECS:
        raise ValueError(f"unknown estimate {name!r}, expected one of {ESTIMATE_NAMES}")
    spec = dict(ESTIMATE_SPECS[name])
    spec.update(overrides)
    spec["p"], spec["q"] = float(spec["p"]), float(spec["q"])
    spec["mu_values"] = tuple(float(m) for m in spec["mu_values"])
    return spec


def _family_key(spec: dict, n: int) -> tuple:
    """What an estimate check's solves depend on: checks with equal keys
    solve the same problems and differ only in the norms they take."""
    return (spec["kind"], n, spec["p"], spec["mu_values"], spec["structure"])


def solve_family(kind: str, n: int, p: float, mu_values, structure: str, rhs_id: str = RHS_ID,
                 seeds=SHAPE_SEEDS, amplitudes=AMPLITUDES,
                 base=solver.SolveConfig(outer_tol=OUTER_TOL, max_outer=MAX_OUTER)):
    """Solve every problem of one estimate family, in sweep order: per seed
    and mu, the amplitudes ascending, each warm-started from the last
    solution scaled by the amplitude ratio to the power 1/(p-1) (cold where
    that overflows, as it can near p = 1), under base at its eta, raised to
    ETA_FLOOR at mu = 0.  Yields one (seed, mu, eta, amplitude, f, u,
    SolveReport) per problem, each as soon as it is solved."""
    domain = build_domain(kind, n)
    for seed in seeds:
        for mu in mu_values:
            params = ConstitutiveParams(p=p, mu=mu, structure=structure)
            eta = base.eta if mu > 0.0 else max(base.eta, ETA_FLOOR)
            cfg = replace(base, eta=eta, continuation=None)
            prev = None
            for amp in sorted(amplitudes):
                f = rhs_sample(domain, rhs_id, amp, seed)
                with np.errstate(over="ignore"):  # near p = 1 it overflows: start cold
                    scale = np.inf if prev is None else np.float64(amp / prev[1]) ** (1 / (p - 1))
                initial = prev[0] * scale if np.isfinite(scale) else None
                u, rep = solver.solve(ProblemSpec(domain, params, f=f), cfg, initial=initial)
                prev = (u, amp)
                yield int(seed), mu, eta, float(amp), f, u, rep


def estimate_rows(spec: dict, n: int, solved):
    """Yield, per solve_family tuple of solved, the row both the audit's and
    the sweep's tables share: the problem, the estimate's LHS and RHS norms
    as spec names them, their ratio, and the solve's iterations and residual."""
    p, q = spec["p"], spec["q"]
    domain = build_domain(spec["kind"], n)
    for seed, mu, eta, amp, f, u, rep in solved:
        lhs = lhs_value(domain, u, spec["lhs"], q)
        rhs = rhs_value(domain, f, spec["rhs"], q, p)
        yield {"kind": spec["kind"], "n": n, "p": p, "mu": mu, "structure": spec["structure"],
               "q": q, "seed": seed, "amplitude": amp, "eta": eta, "lhs": lhs, "rhs": rhs,
               "ratio": lhs / rhs, "iterations": rep.iterations, "residual": rep.final_residual}


def _judge_estimate(name: str, spec: dict, n: int, solved: list) -> dict:
    """The verify_estimate result of check name on its family's solutions."""
    p, q, mu_values = spec["p"], spec["q"], spec["mu_values"]
    structure, kind = spec["structure"], spec["kind"]
    reasons = _coverage_reasons(name, p, mu_values, structure, kind, q)
    rows = [{"name": name, **row, "rhs_id": RHS_ID} for row in estimate_rows(spec, n, solved)]

    spreads = {}
    for seed in SHAPE_SEEDS:
        for mu in mu_values:
            rs = [r["ratio"] for r in rows if r["seed"] == seed and r["mu"] == mu]
            spreads[f"seed={seed},mu={mu:g}"] = max(rs) / min(rs)
    max_spread = max(spreads.values())
    spread_ok = max_spread < SPREAD_LIMIT

    mu_fit = None
    fit_ok = True
    if spec["mu_fit"] and len(mu_values) >= 2:
        amp0 = min(AMPLITUDES)
        slopes = []
        for seed in SHAPE_SEEDS:
            pts = [(r["mu"], r["ratio"]) for r in rows
                   if r["seed"] == seed and r["amplitude"] == amp0]
            lm = np.log([m for m, _ in pts])
            lr = np.log([v for _, v in pts])
            slopes.append(float(np.polyfit(lm, lr, 1)[0]))
        slope = float(np.mean(slopes))
        target = -(p - 2.0)
        fit_ok = abs(slope - target) <= 0.3
        mu_fit = {"slope": slope, "target": target, "per_seed": slopes,
                  "tolerance": 0.3, "ok": fit_ok}

    if reasons:
        verdict = "informational"
    else:
        verdict = "PASS" if (spread_ok and fit_ok) else "FAIL"
    return {
        "name": name,
        "covered": not reasons,
        "coverage_reasons": reasons,
        "inputs": {
            "n": n, "p": p, "q": q, "mu_values": list(mu_values),
            "structure": structure, "kind": kind, "rhs_id": RHS_ID,
            "amplitudes": [float(a) for a in AMPLITUDES],
            "shape_seeds": [int(s) for s in SHAPE_SEEDS],
            "eta_floor": ETA_FLOOR, "outer_tol": OUTER_TOL,
        },
        "rows": rows,
        "spreads": spreads,
        "max_spread": max_spread,
        "mu_fit": mu_fit,
        "verdict": verdict,
    }


def verify_estimate(name: str, n: int = 16, **overrides) -> dict:
    """Sweep amplitudes (and mu where applicable) and judge the estimate.

    overrides replace entries of the estimate's ESTIMATE_SPECS entry.  PASS
    requires the implied constant's spread over the amplitude sweep to stay
    below SPREAD_LIMIT for every (shape, mu), and, for the p > 2 checks, the
    log-log slope of the constant against mu (taken at the smallest
    amplitude, where the mu-dominated regime is cleanest) to sit within 0.3
    of -(p-2).  Off-hypothesis configurations still run but the verdict is
    "informational".
    """
    spec = _resolved_spec(name, overrides)
    return _judge_estimate(name, spec, n, solve_family(*_family_key(spec, n)))


def tangential_energy_check(domain: DomainSpec, u: np.ndarray, p: float, mu: float) -> dict:
    """Compare the two tangential-derivative energies of the symmetric law.

    J sums the translated-stress pairing d_s[S(Du)] : d_s(grad u), I the
    weighted square (mu+|Du|)^(p-2) |d_s Du|^2, over the two periodic axes.
    Their ratio is an empirical ellipticity constant; it equals 1 exactly at
    p = 2 because the pairing then collapses to |d_s Du|^2 pointwise.
    """
    if domain.kind != CUBIC_PERIODIC:
        raise ValueError("tangential energies need the periodic slab domain")
    full = g.gradient(domain, u, "full")
    du = g.gradient_mode(full, "symmetric")
    mag = np.sqrt(np.sum(du * du, axis=(0, 1)))
    base = mu + mag
    with np.errstate(divide="ignore"):
        wt = np.where(base > 0.0, base ** (p - 2.0), 0.0)
    stress = wt * du
    w = g.quadrature_weights(domain)
    per_axis = {}
    total_i = 0.0
    total_j = 0.0
    for label, s in (("x", 0), ("y", 1)):
        ds_stress = g.centered_difference(domain, stress, s)
        ds_full = g.centered_difference(domain, full, s)
        ds_du = g.centered_difference(domain, du, s)
        j_s = float(np.sum(w * np.einsum("ij...,ij...->...", ds_stress, ds_full)))
        i_s = float(np.sum(w * wt * np.einsum("ij...,ij...->...", ds_du, ds_du)))
        per_axis[label] = {"I_s": i_s, "J_s": j_s}
        total_i += i_s
        total_j += j_s
    ratio = total_j / total_i if total_i > 0.0 else 1.0
    return {"I_s": total_i, "J_s": total_j, "ratio": ratio, "per_axis": per_axis}


def holder_seminorm(domain: DomainSpec, grad_u: np.ndarray, alpha: float, seed: int = 0) -> float:
    """Max of |grad u(x) - grad u(y)| / |x-y|^alpha over HOLDER_PAIRS sampled
    node pairs.

    Pairs closer than 2h are discarded so stencil noise cannot dominate;
    distances on periodic axes use the minimal image.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    rng = np.random.default_rng(seed)
    shape = domain.shape
    ia = [rng.integers(0, s, size=HOLDER_PAIRS) for s in shape]
    ib = [rng.integers(0, s, size=HOLDER_PAIRS) for s in shape]
    dist_sq = np.zeros(HOLDER_PAIRS)
    for ax in range(3):
        d = (ia[ax] - ib[ax]) * domain.h
        if domain.is_periodic(ax):
            d = d - np.round(d)
        dist_sq += d * d
    dist = np.sqrt(dist_sq)
    keep = dist >= 2.0 * domain.h - 1e-12
    if not np.any(keep):
        return 0.0
    ga = grad_u[..., ia[0], ia[1], ia[2]]
    gb = grad_u[..., ib[0], ib[1], ib[2]]
    diff = ga - gb
    mag = np.sqrt(np.sum(diff * diff, axis=tuple(range(diff.ndim - 1))))
    return float(np.max(mag[keep] / dist[keep] ** alpha))


def run_audit(
    n: int = 16,
    constants_n: int = 32,
    samples: int = 12,
    seed: int = 0,
    check_names=ESTIMATE_NAMES,
    q_list=(2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 16.0),
) -> dict:
    """Full audit report: the estimate_constants block on the convex box,
    its growth fit as k1_hat, k2_hat and growth_slope, the named estimate
    checks, the tangential energy ratio, and a Hölder seminorm probe.

    Each check's entry equals verify_estimate(name, n=n), but checks whose
    problems coincide (same p, mu values, law, domain kind and n) share one
    solve of each problem; no solution outlives the call."""
    box = build_domain(DIRICHLET_BOX, constants_n)
    constants = estimate_constants(box, q_list, samples, seed, (2.0, 4.0, 6.0))
    fit = constants.pop("growth_fit")
    families = {}
    checks = []
    for name in check_names:
        spec = _resolved_spec(name, {})
        key = _family_key(spec, n)
        if key not in families:
            families[key] = list(solve_family(*key))
        checks.append(_judge_estimate(name, spec, n, families[key]))

    slab = build_domain(CUBIC_PERIODIC, n)
    u_smooth = smooth_test_field(slab).values()
    tang = tangential_energy_check(slab, u_smooth, p=3.0, mu=1.0)
    tang["inputs"] = {"kind": slab.kind, "n": n, "p": 3.0, "mu": 1.0, "field": "analytic-default"}

    hq = 4.0
    hp = 1.8
    hbox = build_domain(DIRICHLET_BOX, n)
    f = rhs_sample(hbox, "smooth-trig", 1.0, 0)
    params = ConstitutiveParams(p=hp, mu=0.0, structure="full")
    cfg = solver.SolveConfig(eta=ETA_FLOOR, outer_tol=OUTER_TOL, max_outer=MAX_OUTER)
    u_h, _ = solver.solve(ProblemSpec(hbox, params, f=f), cfg)
    alpha = 1.0 - 3.0 / hq
    semi = holder_seminorm(hbox, g.gradient(hbox, u_h, "full"), alpha, seed=seed)
    holder = {"q": hq, "alpha": alpha, "seminorm": semi,
              "inputs": {"kind": hbox.kind, "n": n, "p": hp, "mu": 0.0,
                         "rhs_id": "smooth-trig", "amplitude": 1.0, "seed": 0}}

    return {**constants, "k1_hat": fit["k1_hat"], "k2_hat": fit["k2_hat"],
            "growth_slope": fit["ls_slope"], "estimate_checks": checks, "tangential": tang,
            "holder": holder,
            "inputs": {"n": n, "constants_n": constants_n, "samples": samples, "seed": seed,
                       "q_list": [float(q) for q in q_list], "check_names": list(check_names)}}
