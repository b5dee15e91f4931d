"""pstruct benchmark: one workload per run, end to end or traced per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pstruct checkout; the package is imported from
``src/`` of that checkout and nowhere else.  The run sets up the workload
several times (each time importing pstruct afresh) and reports the median
set-up time, then repeats whole rounds of the workload until their timed
work adds up to ``--seconds``, checking every round's outputs.  Set-up and
single-process rounds run pinned to the lowest-numbered CPU the process may
use.  An operation is one ``solver.solve`` call, counted in the pool
workers too.

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones (median round wall and CPU time, median
set-up time).  With ``--trace 1`` the same untraced rounds run first, then
traced rounds, and the metrics are the per-layer ones averaged over the
traced rounds, with the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 11
OUT = HERE / "out"

# (metric prefix, module, function): the functions one layer calls in another
TRACED = (
    ("solver.operator", "solver", "_apply_pm"),
    ("solver.pcg", "solver", "_pcg"),
    ("solver.coefficient", "solver", "coefficient_field"),
    ("solver.energy", "solver", "energy"),
    ("solver.continuation", "solver", "continuation_solve"),
    ("poisson", "poisson", "poisson_solve"),
    ("grid.norm", "grid", "norm"),
    ("grid.second_derivatives", "grid", "second_derivatives"),
    ("grid.laplacian", "grid", "laplacian"),
    ("problems.rhs_sample", "problems", "rhs_sample"),
    ("audit.constants", "audit", "estimate_c4"),
    ("audit.constants", "audit", "c5_table"),
    ("audit.verify_estimate", "audit", "verify_estimate"),
    ("audit.run_audit", "audit", "run_audit"),
    ("reconstruct.bound_check", "reconstruct", "pointwise_bound_check"),
    ("cli.run", "cli", "run"),
    ("cli.write", "cli", "_write_json"),
    ("cli.write", "cli", "_write_csv"),
)
SOLVE = ("solver.solve", "solver", "solve")
POOL_ENTRY = ("cli.pool", "cli", "_sweep_point")
ROUND = "round"


class SetupError(RuntimeError):
    pass


def import_pstruct():
    """Import pstruct from this checkout's src/, dropping any loaded copy."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "pstruct" or n.startswith("pstruct.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"pstruct.{name}")
            for name in ("cli", "constitutive", "grid", "poisson", "problems", "solver")}
    where = Path(sys.modules["pstruct"].__file__).resolve()
    if src.resolve() not in where.parents:
        raise SetupError(f"pstruct was imported from {where}, not from {src}")
    return SimpleNamespace(ConstitutiveParams=mods["constitutive"].ConstitutiveParams, **mods)


def set_up(workload, seed: int, outdir: Path):
    """Set up SETUP_REPEATS times; returns (last state, set-up seconds each)."""
    times = []
    state = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = workload.setup(import_pstruct(), seed, outdir)
        times.append(time.perf_counter() - t0)
    return state, times


def _cpu() -> float:
    """User + system seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def run_rounds(workload, state, seconds: float, traced: bool, outdir: Path):
    """Repeat whole rounds until their timed work reaches ``seconds``.

    Every round counts solves; a traced round also wraps the TRACED layer
    boundaries.  Returns one record per round: wall and CPU seconds, the
    recorder (its statistics cover exactly that round, workers included),
    the number of pool workers that reported, and the check failures.
    """
    rounds = []
    timed = 0.0
    while not rounds or timed < seconds:
        rec = Recorder(channel=outdir / "channel")
        if traced:
            for key, module, attr in TRACED:
                rec.wrap(key, module, attr)
        solve_key, solve_mod, solve_attr = SOLVE

        def after(out, args, kwargs, rec=rec):
            report = out[1]
            rec.count("solver.solves")
            rec.count("solver.outer_iterations", report.iterations)
            rec.count("solver.pcg_iterations", report.inner_iterations)
            rec.count("solver.backtracks", report.backtracks)
            if workload.on_solve is not None and os.getpid() == rec.pid:
                workload.on_solve(state, out, args, kwargs)

        rec.wrap(solve_key, solve_mod, solve_attr, after=after)
        rec.pool_entry(*POOL_ENTRY)
        error = None
        c0 = _cpu()
        t0 = time.perf_counter()
        try:
            with rec.span(ROUND):
                out = workload.run_round(state, len(rounds), outdir)
        except Exception as exc:  # a failing round is reported, not fatal
            error = f"round {len(rounds)} raised {type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        cpu = _cpu() - c0
        rec.uninstall()
        workers = rec.collect()
        if error is None:
            try:
                failures = workload.check(state, out)
            except Exception as exc:  # e.g. an output file the round did not write
                failures = [f"round {len(rounds)} check raised {type(exc).__name__}: {exc}"]
        else:
            failures = [error]
        rounds.append(SimpleNamespace(wall=wall, cpu=cpu, rec=rec, workers=len(workers),
                                      failures=failures))
        timed += wall
        if error:
            break
    return rounds


def operations(rounds) -> tuple:
    done = sum(r.rec.counters.get("solver.solves", 0) for r in rounds)
    failed = sum(r.rec.counters.get(SOLVE[0] + ".failed", 0) for r in rounds)
    return done + failed, failed


def end_to_end_metrics(rounds, setup_times) -> dict:
    return {
        "wall_s": {"value": statistics.median(r.wall for r in rounds), "unit": "s"},
        "cpu_s": {"value": statistics.median(r.cpu for r in rounds), "unit": "s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }


def per_layer_metrics(traced, untraced) -> dict:
    """Per-round means over the traced rounds, plus the tracing overhead."""
    n = len(traced)
    stats, counters = {}, {}
    for r in traced:
        for key, (calls, total, self_s) in r.rec.stats.items():
            st = stats.setdefault(key, [0, 0.0, 0.0])
            st[0] += calls
            st[1] += total
            st[2] += self_s
        for name, amount in r.rec.counters.items():
            counters[name] = counters.get(name, 0) + amount

    def calls(key):
        return stats.get(key, [0, 0.0, 0.0])[0] / n

    def total(key):
        return stats.get(key, [0, 0.0, 0.0])[1] / n

    def self_s(key):
        return stats.get(key, [0, 0.0, 0.0])[2] / n

    def count(name):
        return counters.get(name, 0) / n

    wall = sum(r.wall for r in traced) / n
    busy = total(POOL_ENTRY[0]) if any(r.workers for r in traced) else 0.0
    workers = sum(r.workers for r in traced) / n
    outer = count("solver.outer_iterations")
    values = {
        "solver.solves": (count("solver.solves"), "count"),
        "solver.outer_iterations": (outer, "count"),
        "solver.pcg_iterations": (count("solver.pcg_iterations"), "count"),
        "solver.backtracks": (count("solver.backtracks"), "count"),
        "solver.pcg_per_outer": (count("solver.pcg_iterations") / outer if outer else 0.0,
                                 "ratio"),
        "solver.solve.self_s": (self_s("solver.solve"), "s"),
        "solver.operator.calls": (calls("solver.operator"), "count"),
        "solver.operator.self_s": (self_s("solver.operator"), "s"),
        "solver.pcg.self_s": (self_s("solver.pcg"), "s"),
        "solver.coefficient.calls": (calls("solver.coefficient"), "count"),
        "solver.coefficient.self_s": (self_s("solver.coefficient"), "s"),
        "solver.energy.calls": (calls("solver.energy"), "count"),
        "solver.energy.self_s": (self_s("solver.energy"), "s"),
        "solver.continuation.self_s": (self_s("solver.continuation"), "s"),
        "poisson.calls": (calls("poisson"), "count"),
        "poisson.self_s": (self_s("poisson"), "s"),
        "grid.norm.calls": (calls("grid.norm"), "count"),
        "grid.norm.self_s": (self_s("grid.norm"), "s"),
        "grid.second_derivatives.calls": (calls("grid.second_derivatives"), "count"),
        "grid.second_derivatives.self_s": (self_s("grid.second_derivatives"), "s"),
        "grid.laplacian.self_s": (self_s("grid.laplacian"), "s"),
        "problems.rhs_sample.calls": (calls("problems.rhs_sample"), "count"),
        "problems.rhs_sample.self_s": (self_s("problems.rhs_sample"), "s"),
        "audit.constants.calls": (calls("audit.constants"), "count"),
        "audit.constants.self_s": (self_s("audit.constants"), "s"),
        "audit.verify_estimate.self_s": (self_s("audit.verify_estimate"), "s"),
        "audit.run_audit.self_s": (self_s("audit.run_audit"), "s"),
        "reconstruct.bound_check.self_s": (self_s("reconstruct.bound_check"), "s"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "cli.sweep_points": (calls(POOL_ENTRY[0]), "count"),
        "cli.pool.busy_s": (busy, "s"),
        "cli.pool.idle_s": (workers * wall - busy if busy else 0.0, "s"),
        "cli.pool.self_s": (self_s(POOL_ENTRY[0]), "s"),
        "cli.write.self_s": (self_s("cli.write"), "s"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (self_s(ROUND), "s"),
        "trace.overhead_s": (wall - sum(r.wall for r in untraced) / len(untraced), "s"),
        "trace.missing": (len(traced[0].rec.missing), "count"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def accounting_gap(rounds) -> float:
    """Largest |sum of self times - (round wall + worker busy time)|.

    The main process's self times telescope to the round's wall time, and
    each worker's to the time it spent in the pool entry point; zero up to
    clock rounding when every traced interval is attributed exactly once.
    """
    gap = 0.0
    for r in rounds:
        busy = r.rec.stats.get(POOL_ENTRY[0], [0, 0.0, 0.0])[1] if r.workers else 0.0
        attributed = sum(st[2] for st in r.rec.stats.values())
        gap = max(gap, abs(attributed - r.wall - busy))
    return gap


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    outdir = OUT / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    (outdir / "channel").mkdir(parents=True)
    # Set-up and single-process rounds run on one fixed CPU.  On a machine
    # whose CPUs differ in speed (e.g. a virtual CPU whose host core is
    # shared), a process landing on either one at random would add that
    # difference to the run-to-run spread.  The sweep's rounds get every
    # CPU back, since its pool workers inherit the parent's CPU set.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        state, setup_times = set_up(workload, args.seed, outdir)
    except (ImportError, SetupError) as exc:
        print(f"perfbench: cannot set up {args.workload}: {exc}", file=sys.stderr)
        return 2
    if not workload.pinned:
        os.sched_setaffinity(0, cpus)

    rounds = run_rounds(workload, state, args.seconds, False, outdir)
    traced = run_rounds(workload, state, args.seconds, True, outdir) if args.trace else []
    every = rounds + traced
    attempted, failed = operations(every)
    failures = [f for r in every for f in r.failures]
    for msg in failures:
        print(f"perfbench: FAILED CHECK: {msg}", file=sys.stderr)
    for tag, group in (("untraced", rounds), ("traced", traced)):
        for i, r in enumerate(group):
            print(f"{args.workload} {tag} round {i}: wall {r.wall:.4f} s, cpu {r.cpu:.4f} s, "
                  f"solves {r.rec.counters.get('solver.solves', 0)}, workers {r.workers}")
    print(f"{args.workload} set-up: " + ", ".join(f"{t:.4f}" for t in setup_times) + " s")
    if args.trace:
        missing = traced[0].rec.missing
        if missing:
            print("perfbench: not traced (missing): " + ", ".join(missing), file=sys.stderr)
        gap = accounting_gap(traced)
        print(f"{args.workload} traced wall minus self times: {gap:.3e} s")
        metrics = per_layer_metrics(traced, rounds)
    else:
        metrics = end_to_end_metrics(rounds, setup_times)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
