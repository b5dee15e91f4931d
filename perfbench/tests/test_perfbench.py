"""Tests of the benchmark itself: tracer arithmetic, output checks, metric names.

Run from the checkout root with ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import concurrent.futures
import copy
import json
import multiprocessing
import subprocess
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Recorder  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- tracer -----------------------------------------------------------------


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


LEAF_SRC = """
def leaf():
    CLOCK.advance(1.0)
"""

CALLER_SRC = """
from fakepkg.leafmod import leaf

def inner():
    CLOCK.advance(2.0)
    leaf()

def outer():
    CLOCK.advance(3.0)
    inner()
    inner()
    leaf()

def pool_task(x):
    CLOCK.advance(5.0)
    leaf()
    return x * x
"""


@pytest.fixture
def fakepkg():
    """A package 'fakepkg' whose caller module binds leaf by from-import."""
    clock = FakeClock()
    pkg = types.ModuleType("fakepkg")
    pkg.__path__ = []
    mods = {"fakepkg": pkg}
    for name, src in (("leafmod", LEAF_SRC), ("caller", CALLER_SRC)):
        mod = types.ModuleType(f"fakepkg.{name}")
        mod.CLOCK = clock
        mods[mod.__name__] = mod
        sys.modules[mod.__name__] = mod
        sys.modules["fakepkg"] = pkg
        exec(compile(src, mod.__name__, "exec"), vars(mod))
    yield SimpleNamespace(clock=clock, **{k.split(".")[-1]: v for k, v in mods.items()})
    for name in mods:
        sys.modules.pop(name, None)


def test_self_time_is_total_minus_wrapped_children(fakepkg):
    rec = Recorder(package="fakepkg", clock=fakepkg.clock)
    rec.wrap("leaf", "leafmod", "leaf")
    rec.wrap("inner", "caller", "inner")
    rec.wrap("outer", "caller", "outer")
    with rec.span("root"):
        fakepkg.caller.outer()
    rec.uninstall()
    # outer: 3 own + 2 x inner (2 own + leaf 1) + leaf 1 = 10
    assert rec.stats["leaf"] == [3, 3.0, 3.0]
    assert rec.stats["inner"] == [2, 6.0, 4.0]
    assert rec.stats["outer"] == [1, 10.0, 3.0]
    assert rec.stats["root"] == [1, 10.0, 0.0]
    total_self = sum(st[2] for st in rec.stats.values())
    assert total_self == rec.stats["root"][1]
    assert rec.missing == []


def test_uninstall_restores_every_binding(fakepkg):
    original = fakepkg.leafmod.leaf
    assert fakepkg.caller.leaf is original
    rec = Recorder(package="fakepkg", clock=fakepkg.clock)
    rec.wrap("leaf", "leafmod", "leaf")
    assert fakepkg.leafmod.leaf is not original
    assert fakepkg.caller.leaf is fakepkg.leafmod.leaf  # the from-import binding too
    rec.uninstall()
    assert fakepkg.leafmod.leaf is original and fakepkg.caller.leaf is original


def test_missing_target_is_reported_and_the_rest_still_traced(fakepkg):
    rec = Recorder(package="fakepkg", clock=fakepkg.clock)
    rec.wrap("gone", "caller", "no_such_function")
    rec.wrap("gone_module", "no_such_module", "leaf")
    rec.wrap("leaf", "leafmod", "leaf")
    fakepkg.caller.outer()
    rec.uninstall()
    assert rec.missing == ["fakepkg.caller.no_such_function", "fakepkg.no_such_module.leaf"]
    assert rec.stats["leaf"][0] == 3


def test_failed_call_is_counted_and_reraised(fakepkg):
    def boom():
        raise ValueError("no")

    fakepkg.caller.boom = boom
    rec = Recorder(package="fakepkg", clock=fakepkg.clock)
    rec.wrap("boom", "caller", "boom")
    with pytest.raises(ValueError):
        fakepkg.caller.boom()
    rec.uninstall()
    assert rec.counters == {"boom.failed": 1}
    assert rec.stats["boom"][0] == 1


def test_pool_worker_statistics_reach_the_parent(fakepkg, tmp_path):
    rec = Recorder(package="fakepkg", clock=fakepkg.clock, channel=tmp_path)
    rec.wrap("leaf", "leafmod", "leaf")
    rec.pool_entry("task", "caller", "pool_task")
    fakepkg.caller.leaf()  # parent-side work the worker must not re-report
    ctx = multiprocessing.get_context("fork")
    with concurrent.futures.ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        results = list(pool.map(fakepkg.caller.pool_task, [1, 2, 3], timeout=60))
    rec.uninstall()
    assert results == [1, 4, 9]
    pids = rec.collect()
    assert len(pids) == 1
    assert rec.stats["task"] == [3, 18.0, 15.0]
    assert rec.stats["leaf"] == [4, 4.0, 4.0]
    assert list(tmp_path.iterdir()) == []


# -- correctness checks -----------------------------------------------------


@pytest.fixture(scope="module")
def pst():
    return run.import_pstruct()


@pytest.fixture(scope="module")
def short_continuation(pst):
    """A short degenerate path on the 8^3 box, solved with steps recorded."""
    domain = pst.grid.build_domain("dirichlet_box", 8)
    f = pst.grid.apply_constraints(domain, pst.problems.rhs_sample(domain, "smooth-trig"))
    params = pst.ConstitutiveParams(p=1.6, mu=0.0, structure="full")
    path = pst.solver.ContinuationPath.geometric(eta0=1e-2, mu0=0.0, ratio=0.1,
                                                 eta_floor=1e-10, mu_floor=0.0)
    cfg = pst.solver.SolveConfig(outer_tol=1e-10, max_outer=300, continuation=path)
    state = SimpleNamespace(pst=pst, problem=pst.problems.ProblemSpec(domain, params, f=f),
                            cfg=cfg, steps=[])
    rec = Recorder()
    rec.wrap("solve", "solver", "solve",
             after=lambda out, a, k: workloads.continuation_on_solve(state, out, a, k))
    try:
        out = workloads.continuation_round(state, 0, None)
    finally:
        rec.uninstall()
    return state, out


def _check_cont(pst, state, steps, v):
    return workloads.check_continuation(pst, state.problem, state.cfg, steps, v, tail_eta=1e-5)


def test_continuation_check_passes_on_the_solver_output(pst, short_continuation):
    state, out = short_continuation
    assert len(out.steps) == len(state.cfg.continuation.eta_path) >= 5
    assert _check_cont(pst, state, out.steps, out.v) == []


def test_continuation_check_fails_on_a_perturbed_step_field(pst, short_continuation):
    state, out = short_continuation
    steps = list(out.steps)
    prob, cfg, v = steps[2]
    steps[2] = (prob, cfg, v * (1.0 + 1e-6))
    failures = _check_cont(pst, state, steps, out.v)
    assert len(failures) == 1 and failures[0].startswith("step 2 ")


def test_continuation_check_fails_when_d2_jumps_on_the_tail(pst, short_continuation):
    state, out = short_continuation
    steps = list(out.steps)
    prob, cfg, v = steps[-1]
    steps[-1] = (prob, cfg, 1.05 * v)
    failures = _check_cont(pst, state, steps, out.v)
    assert any("||D2 v||" in msg for msg in failures)


def test_continuation_check_fails_when_homogeneity_breaks(pst, short_continuation):
    state, out = short_continuation
    failures = _check_cont(pst, state, out.steps, out.v * (1.0 + 1e-6))
    assert len(failures) == 1 and "4 f problem" in failures[0]


def test_continuation_check_fails_on_a_missing_step(pst, short_continuation):
    state, out = short_continuation
    failures = _check_cont(pst, state, out.steps[:-1], out.v)
    n = len(out.steps)
    assert any(f"{n - 1} solves for {n} path steps" in msg for msg in failures)


ESTIMATES = ("p_gt_2_W22", "p_lt_2_W22", "p_lt_2_W2q", "tangential_fe1")


def _audit_report():
    def check(name, mu_values):
        rows = [{"seed": s, "mu": m, "amplitude": a, "residual": 5e-9}
                for s in (101, 102) for m in mu_values for a in (1.0, 4.0)]
        return {"name": name, "verdict": "PASS", "rows": rows,
                "inputs": {"shape_seeds": [101, 102], "mu_values": list(mu_values),
                           "amplitudes": [1.0, 4.0], "outer_tol": 1e-8}}

    return {
        "c4_hat": 1.0,
        "c5_hat": {"2": 1.0, "4": 1.3, "8": 1.7},
        "c6_hat": 1.7,
        "estimate_checks": [check(n, (0.0, 0.1)) for n in ESTIMATES],
    }


def test_audit_check_passes_on_a_consistent_report():
    assert workloads.check_audit_report(_audit_report(), ESTIMATES) == []


@pytest.mark.parametrize("breakage, expected", [
    (lambda r: r["estimate_checks"][1].update(verdict="FAIL"), "verdict FAIL"),
    (lambda r: r["estimate_checks"].pop(), "missing"),
    (lambda r: r.update(c4_hat=0.98, c6_hat=1.7), "c4_hat"),
    (lambda r: r.update(c4_hat=1.2, c6_hat=1.7), "c4_hat"),
    (lambda r: r.update(c6_hat=1.3), "c6_hat"),
    (lambda r: r["estimate_checks"][0]["rows"][3].update(residual=2e-8), "residual"),
    (lambda r: r["estimate_checks"][2]["rows"].pop(), "rows, expected"),
])
def test_audit_check_fails_on_a_wrong_report(breakage, expected):
    report = _audit_report()
    breakage(report)
    failures = workloads.check_audit_report(report, ESTIMATES)
    assert any(expected in msg for msg in failures), failures


def test_reconstruct_check_gates_the_residual():
    good = {"residual_rel": 1e-9, "ratio_max": 0.4}
    assert workloads.check_reconstruct_report(good, 2e-9, 1e-6) == []
    assert workloads.check_reconstruct_report(good, 2e-6, 1e-6)
    assert workloads.check_reconstruct_report(dict(good, residual_rel=3e-6), 1e-9, 1e-6)
    assert workloads.check_reconstruct_report(dict(good, ratio_max=float("nan")), 1e-9, 1e-6)


@pytest.fixture(scope="module")
def small_sweep(pst, tmp_path_factory):
    """A real 8^3 slab sweep: two p, two mu, three amplitudes, one seed."""
    out = tmp_path_factory.mktemp("sweep")
    config = pst.cli.load_config(None, (
        "domain.kind=cubic_periodic", "domain.n=8", "params.structure=full",
        "rhs.id=band-limited-random", "sweep.p_values=1.5,1.8", "sweep.mu_values=0,0.1",
        "sweep.amplitudes=0.5,1,4", "sweep.seeds=5", f"output.directory={out}",
    ))
    assert pst.cli.run("sweep", config) == 0
    report = json.loads((out / "report.json").read_text(encoding="ascii"))
    return report, workloads.read_csv_rows(out / "tables" / "sweep.csv")


def test_sweep_check_passes_on_the_sweep_output(small_sweep):
    report, rows = small_sweep
    assert workloads.check_sweep(report, rows, 12) == []


def test_sweep_check_fails_when_lhs_breaks_amplitude_scaling(small_sweep):
    report, rows = copy.deepcopy(small_sweep)
    row = next(r for r in rows if r["mu"] == 0.0 and r["amplitude"] == 4.0)
    row["lhs"] *= 1.0 + 1e-5
    failures = workloads.check_sweep(report, rows, 12)
    assert any("(a/a0)^(1/(p-1))" in msg for msg in failures), failures


def test_sweep_check_fails_on_a_residual_above_tolerance(small_sweep):
    report, rows = copy.deepcopy(small_sweep)
    rows[5]["residual"] = 10.0 * rows[5]["outer_tol"]
    failures = workloads.check_sweep(report, rows, 12)
    assert failures == [f"sweep point 5: residual {rows[5]['residual']:.3e} > outer_tol 1.0e-09"]


def test_sweep_check_fails_when_the_summary_disagrees_with_the_csv(small_sweep):
    report, rows = copy.deepcopy(small_sweep)
    key = sorted(report["summary"])[0]
    report["summary"][key]["mean"] *= 1.0 + 1e-9
    failures = workloads.check_sweep(report, rows, 12)
    assert any(f"{key} mean" in msg for msg in failures), failures


def test_sweep_check_fails_on_missing_points(small_sweep):
    report, rows = copy.deepcopy(small_sweep)
    assert workloads.check_sweep(report, rows[:-1], 12)


# -- metric names -----------------------------------------------------------


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def _fake_round(wall, stats=None, counters=None, workers=0):
    rec = Recorder()
    rec.stats = stats or {}
    rec.counters = counters or {}
    return SimpleNamespace(wall=wall, cpu=wall, rec=rec, workers=workers, failures=[])


def test_metric_functions_match_benchmark_json():
    rounds = [_fake_round(2.0), _fake_round(3.0)]
    e2e = run.end_to_end_metrics(rounds, [0.1, 0.2, 0.3])
    assert {k: v["unit"] for k, v in e2e.items()} == _names("end_to_end")
    traced = [_fake_round(2.5, {"round": [1, 2.5, 0.1]}, {"solver.outer_iterations": 4})]
    layers = run.per_layer_metrics(traced, rounds)
    assert {k: v["unit"] for k, v in layers.items()} == _names("per_layer")
    assert set(SPEC["workloads"][i]["name"] for i in range(len(SPEC["workloads"]))) == set(
        run.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    cmd = SPEC["command"] + ["--workload", "parallel-sweep", "--seed", "3",
                             "--seconds", "0", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 32 * (1 + trace)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names(section)
