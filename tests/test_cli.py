"""Tests for the config-driven runner: schema handling, output layout,
determinism, sweep aggregation, and exit codes.

Most tests call cli.main() in-process.  Two subprocess tests run the CLI
through the interpreter, so neither needs an install: one calls the console
entry point that pyproject.toml declares under [project.scripts], the other
runs ``python -m pstruct``.
"""

import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pstruct
from pstruct import audit, cli, solver
from pstruct.errors import ConfigError, NoConvergence, PStructError, TooCoarse
from pstruct.grid import load_field


def run_cli(*args):
    return cli.main(list(args))


def base_args(tmp_path, *extra):
    return ["--set", f"output.directory={tmp_path / 'out'}",
            "--set", "domain.n=8", *extra]


def read_sweep_csv(path) -> list:
    """The rows of a sweep.csv, each column as the type the sweep wrote."""
    types = {"index": int, "n": int, "seed": int, "iterations": int,
             "kind": str, "structure": str, "rhs_id": str}
    with open(path, newline="", encoding="ascii") as fh:
        return [{key: types.get(key, float)(val) for key, val in rec.items()}
                for rec in csv.DictReader(fh)]


# ---------------------------------------------------------------- config


def test_default_config_covers_schema():
    config = cli.default_config()
    assert set(config) == set(cli.SCHEMA)
    for section, keys in cli.SCHEMA.items():
        assert set(config[section]) == set(keys)
    assert config["params"]["p"] == 2.0
    assert config["output"]["formats"] == "json,csv"


def test_file_then_overrides_precedence(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[params]\np = 1.5\nmu = 0.3\n[domain]\nn = 12\n")
    config = cli.load_config(ini, ["params.p=1.8"])
    assert config["params"]["p"] == 1.8      # --set wins over the file
    assert config["params"]["mu"] == 0.3     # file wins over the default
    assert config["domain"]["n"] == 12
    assert config["rhs"]["id"] == "smooth-trig"


def test_missing_config_file():
    with pytest.raises(ConfigError, match="not found"):
        cli.load_config("/nonexistent/run.ini")


@pytest.mark.parametrize("text, encoding", [
    ("[output]\ndirectory = {out}\n[params]\np = 1.5\np = 1.8\n", "ascii"),
    ("p = 1.5\n[output]\ndirectory = {out}\n", "ascii"),
    ("[output]\ndirectory = {out}\n[params]\np\n", "ascii"),
    ("[output]\ndirectory = {out}\n", "utf-16"),
    ("[output]\ndirectory = {out}%1\n", "ascii"),
], ids=["duplicate-option", "no-section-header", "no-equals-sign", "utf-16", "percent-sign"])
def test_a_malformed_config_file_is_named(tmp_path, capsys, text, encoding):
    # each used to end in a configparser or decode traceback, exit status 1;
    # a % in a file value reads literally, as it does with --set
    ini, out = tmp_path / "run.ini", tmp_path / "out"
    ini.write_text(text.format(out=out), encoding=encoding)
    code = run_cli("solve", "--config", str(ini), "--set", "domain.n=8")
    if "%" in text:
        assert code == 0
        report = json.loads((tmp_path / "out%1" / "report.json").read_text())
        assert report["config"]["output"]["directory"] == f"{out}%1"
    else:
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(ini) in err
        assert not out.exists()


def test_unknown_section_and_key_are_named():
    config = cli.default_config()
    with pytest.raises(ConfigError, match=r"\[mesh\]"):
        cli._set_value(config, "mesh", "n", "8")
    with pytest.raises(ConfigError, match=r"\[params\] q"):
        cli._set_value(config, "params", "q", "3")
    with pytest.raises(ConfigError, match=r"\[domain\] n"):
        cli._set_value(config, "domain", "n", "twelve")
    with pytest.raises(ConfigError, match="boolean"):
        cli._set_value(config, "solver", "continuation", "maybe")


def test_malformed_set_flag():
    with pytest.raises(ConfigError, match="--set"):
        cli.load_config(None, ["params.p"])
    with pytest.raises(ConfigError, match="--set"):
        cli.load_config(None, ["p=2"])


def test_config_errors_exit_2(tmp_path, capsys):
    cases = [
        ["params.p=0.5"],                  # constitutive validation
        ["params.structure=skew"],
        ["domain.kind=tetrahedral"],
        ["rhs.id=delta-spike"],
        ["output.formats=json,xml"],
        ["audit.checks=w9_bound"],
    ]
    for overrides in cases:
        command = "audit" if overrides[0].startswith("audit") else "solve"
        code = run_cli(command, *base_args(tmp_path, "--set", *overrides))
        assert code == 2, overrides
        err = capsys.readouterr().err
        assert err.startswith("error:"), overrides


@pytest.mark.parametrize("command, item, key", [
    ("audit", "audit.checks=bogus", "[audit] checks"),
    ("audit", "audit.checks=p_lt_2_W2q,bogus", "[audit] checks"),
    ("solve", "output.formats=xml", "[output] formats"),
    ("reconstruct", "reconstruct.residual_tol=-1", "[reconstruct] residual_tol"),
    ("reconstruct", "reconstruct.residual_tol=0", "[reconstruct] residual_tol"),
])
def test_list_entries_and_the_residual_gate_are_checked_at_parse(tmp_path, capsys, command,
                                                                 item, key):
    # an unknown check or format used to be rejected only once the output
    # directory existed, and a residual_tol <= 0 only after the whole solve,
    # with a message that named no key
    assert run_cli(command, *base_args(tmp_path, "--set", item)) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(ConfigError, match=re.escape(key)):
        cli.load_config(None, [item])


def test_list_entries_may_carry_spaces_and_code_built_configs_are_checked(tmp_path):
    config = cli.load_config(None, ["output.formats=json, csv", "audit.checks= p_lt_2_W2q ,",
                                    f"output.directory={tmp_path / 'out'}"])
    assert cli._entries(config, "output", "formats") == ["json", "csv"]
    assert cli._entries(config, "audit", "checks") == ["p_lt_2_W2q"]
    # a config built in code has not been through load_config; run checks
    # its formats before it makes the output directory
    config["output"]["formats"] = "json,xml"
    with pytest.raises(ConfigError, match=r"\[output\] formats"):
        cli.run("solve", config)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, key", [("solve", "domain.n"), ("audit", "audit.n"),
                                          ("audit", "audit.constants_n")])
def test_grid_larger_than_memory_is_rejected_before_any_work(tmp_path, capsys, monkeypatch,
                                                             command, key):
    # 10^5 nodes per axis would need petabytes: the estimate rejects it
    # before any grid or output exists, so the check allocates nothing
    built = []
    monkeypatch.setattr(cli, "build_domain", lambda *a: built.append(a))
    monkeypatch.setattr(cli, "_build_domain_checked", lambda *a: built.append(a))
    monkeypatch.setattr(cli.audit_mod, "run_audit", lambda **kw: built.append(kw))
    assert run_cli(command, *base_args(tmp_path, "--set", f"{key}=100000")) == 2
    section, name = key.split(".")
    err = capsys.readouterr().err
    assert f"[{section}] {name}" in err and "memory available" in err
    assert built == []
    assert not (tmp_path / "out").exists()


def test_grid_check_reads_only_the_command_s_keys(tmp_path, monkeypatch):
    # an oversize audit key, say from a shared config file, does not stop a
    # solve, which never reads it; an oversize domain.n does not stop an audit
    monkeypatch.setattr(cli, "_available_memory", lambda: 2**30)
    config = cli.load_config(None, ["audit.n=100000", "audit.constants_n=100000",
                                    "domain.n=100000"])
    with pytest.raises(ConfigError, match=r"\[domain\] n"):
        cli._check_grid_memory("solve", config)
    with pytest.raises(ConfigError, match=r"\[audit\] n"):
        cli._check_grid_memory("audit", config)
    assert run_cli("solve", *base_args(tmp_path, "--set", "audit.n=100000",
                                       "--set", "audit.constants_n=100000")) == 0
    calls = []
    monkeypatch.setattr(cli.audit_mod, "run_audit", lambda **kw: calls.append(kw) or 1 / 0)
    with pytest.raises(ZeroDivisionError):
        cli.run("audit", cli.load_config(None, [f"output.directory={tmp_path / 'a'}",
                                                "domain.n=100000", "audit.n=8",
                                                "audit.constants_n=8"]))
    assert len(calls) == 1


def test_grid_ceiling_follows_the_law_and_the_memory(monkeypatch):
    from pstruct import solver

    full, symmetric = (solver.peak_memory_estimate(32, law) for law in ("full", "symmetric"))
    assert 0 < full < symmetric
    config = cli.load_config(None, ["domain.n=32", "audit.n=8", "audit.constants_n=8"])
    for command in cli.COMMANDS:
        cli._check_grid_memory(command, config)  # the defaults fit
    # memory for one full-law n = 32 solve takes that solve but not the
    # symmetric one, nor the audit's defaults
    monkeypatch.setattr(cli, "_available_memory", lambda: full)
    cli._check_grid_memory("solve", config)
    config["params"]["structure"] = "symmetric"
    with pytest.raises(ConfigError, match=r"\[domain\] n"):
        cli._check_grid_memory("solve", config)
    with pytest.raises(ConfigError, match=r"\[audit\] constants_n"):
        cli._check_grid_memory("audit", cli.load_config(None, ["audit.n=8"]))


def test_sweep_memory_check_counts_the_pool_s_processes(tmp_path, capsys, monkeypatch):
    # a sweep solves up to min(workers, ladders, CPUs) ladders at once, one per
    # process: memory for one and a half solves takes one worker but not two
    from pstruct import solver

    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    one = solver.peak_memory_estimate(8, "full")
    monkeypatch.setattr(cli, "_available_memory", lambda: 1.5 * one)
    assert run_cli("sweep", *sweep_args(tmp_path, "--set", "sweep.workers=1")) == 0
    out = tmp_path / "two"
    assert run_cli("sweep", *sweep_args(tmp_path, "--set", "sweep.workers=2",
                                        "--set", f"output.directory={out}")) == 2
    err = capsys.readouterr().err
    assert "[domain] n" in err and "memory available" in err
    assert not out.exists()
    # two workers on one ladder start one process: the smooth forcing ignores the seed
    cli._check_grid_memory("sweep", cli.load_config(None, [
        "domain.n=8", "sweep.p_values=1.5", "sweep.mu_values=0", "sweep.workers=2"]))
    # more workers than CPUs start no more processes than the CPUs
    monkeypatch.setattr(cli, "_available_memory", lambda: 2 * one)
    cli._check_grid_memory("sweep", cli.load_config(None, ["domain.n=8", "sweep.workers=64"]))


def test_available_memory_takes_the_cgroup_limit(tmp_path, monkeypatch):
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit, unlimited = tmp_path / "memory.max", tmp_path / "unlimited"
    unlimited.write_text("max\n")
    monkeypatch.setattr(cli, "CGROUP_MEMORY_LIMITS", (unlimited, tmp_path / "absent"))
    assert cli._available_memory() == physical
    limit.write_text(f"{2**30}\n")
    monkeypatch.setattr(cli, "CGROUP_MEMORY_LIMITS", (limit, unlimited))
    assert cli._available_memory() == 2**30
    # a 1 GiB limit stops a symmetric n = 64 solve that physical memory takes
    config = cli.load_config(None, ["domain.n=64", "params.structure=symmetric"])
    with pytest.raises(ConfigError, match="1.0 GiB of memory available"):
        cli._check_grid_memory("solve", config)


def test_section_is_named_in_value_errors(tmp_path, capsys):
    run_cli("solve", *base_args(tmp_path, "--set", "params.p=0.5"))
    assert "[params]" in capsys.readouterr().err
    run_cli("sweep", *base_args(tmp_path, "--set", "sweep.p_values=0.5"))
    assert "[sweep]" in capsys.readouterr().err


@pytest.mark.parametrize("override, key", [
    ("params.mu=nan", r"\[params\] mu"),
    ("solver.eta=nan", r"\[solver\] eta"),
    ("rhs.amplitude=inf", r"\[rhs\] amplitude"),
    ("solver.max_outer=-1", r"\[solver\] max_outer"),
    ("sweep.workers=0", r"\[sweep\] workers"),
    ("domain.n=4", r"\[domain\] n"),
    ("audit.n=4", r"\[audit\] n"),
    ("audit.constants_n=7", r"\[audit\] constants_n"),
    ("audit.samples=-2", r"\[audit\] samples"),
    ("sweep.amplitudes=-1", r"\[sweep\] amplitudes"),
    ("sweep.amplitudes=1,0", r"\[sweep\] amplitudes"),
    ("rhs.seed=-1", r"\[rhs\] seed"),
    ("audit.seed=-1", r"\[audit\] seed"),
    ("sweep.seeds=-5", r"\[sweep\] seeds"),
    ("sweep.seeds=101,1.5", r"\[sweep\] seeds"),
    ("sweep.p_values=1.5,1", r"\[sweep\] p_values"),
    ("sweep.p_values=nan", r"\[sweep\] p_values"),
    ("sweep.mu_values=-1", r"\[sweep\] mu_values"),
    ("sweep.mu_values=0,inf", r"\[sweep\] mu_values"),
    ("params.mu=-0.5", r"\[params\] mu"),
    ("solver.eta=-1", r"\[solver\] eta"),
    ("solver.outer_tol=0", r"\[solver\] outer_tol"),
    ("solver.cont_eta0=-1", r"\[solver\] cont_eta0"),
    ("solver.cont_mu0=-1", r"\[solver\] cont_mu0"),
    ("solver.cont_eta_floor=-1", r"\[solver\] cont_eta_floor"),
    ("solver.cont_mu_floor=-1", r"\[solver\] cont_mu_floor"),
    ("solver.cont_ratio=1.5", r"\[solver\] cont_ratio"),
    ("solver.cont_ratio=0", r"\[solver\] cont_ratio"),
    ("solver.cont_max_steps=0", r"\[solver\] cont_max_steps"),
    ("solver.cont_max_steps=1001", r"\[solver\] cont_max_steps"),
    ("params.structure=skew", r"\[params\] structure"),
    ("domain.kind=torus", r"\[domain\] kind"),
    ("rhs.amplitude=0", r"\[rhs\] amplitude"),
    ("rhs.id=bogus", r"\[rhs\] id"),
])
def test_non_finite_and_negative_values_rejected_at_parse(tmp_path, capsys, override, key):
    # mu = nan used to run at the default p = 2 (nan**0 == 1) and report a
    # converged solve; eta = nan and amplitude = inf spun in the inner solve.
    # amplitudes = -1 ended in a traceback, and audit.n = 4 failed without
    # the key only after the constants pass; a negative seed ended in numpy's
    # traceback, and a bad sweep p or mu was found only after the output
    # directory was made.  cont_eta0 = -1 ran the whole path at eta = 0; a
    # bad eta, outer_tol, cont_ratio, cont_max_steps, structure, kind or
    # amplitude named only its section, after the output directory was made,
    # and a bad rhs.id named no key.  cont_max_steps had no upper bound: at
    # cont_ratio just below 1, 10^12 steps never finished building the path
    with pytest.raises(ConfigError, match=key):
        cli.load_config(None, [override])
    assert run_cli("solve", *base_args(tmp_path, "--set", override)) == 2
    assert re.search(key, capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


def test_range_limits_are_accepted():
    config = cli.load_config(None, ["domain.n=8", "audit.n=8", "audit.constants_n=8",
                                    "audit.samples=0", "sweep.amplitudes=1e-3,,2",
                                    "solver.eta=0", "solver.cont_eta0=0", "solver.cont_mu0=0",
                                    "solver.cont_eta_floor=0", "solver.cont_mu_floor=0",
                                    "solver.cont_max_steps=1", "domain.kind=dirichlet_box",
                                    "params.structure=symmetric", "rhs.id=constant"])
    assert (config["domain"]["n"], config["audit"]["samples"]) == (8, 0)
    assert config["sweep"]["amplitudes"] == "1e-3,,2"
    assert (config["solver"]["cont_max_steps"], config["domain"]["kind"]) == (1, "dirichlet_box")
    assert cli.load_config(None, ["solver.cont_max_steps=1000"])["solver"]["cont_max_steps"] == 1000


@pytest.mark.parametrize("key", ["solver.inner_tol", "solver.inner_maxiter",
                                 "reconstruct.delta"])
def test_removed_keys_are_unknown(tmp_path, capsys, key):
    section, name = key.split(".")
    with pytest.raises(ConfigError, match=rf"unknown config key \[{section}\] {name}"):
        cli.load_config(None, [f"{key}=0.1"])
    assert run_cli("solve", *base_args(tmp_path, "--set", f"{key}=0.1")) == 2
    assert f"unknown config key [{section}] {name}" in capsys.readouterr().err


def test_readme_config_reference_matches_schema():
    # every `| section | key | `default` |` row of the README's config
    # reference, against SCHEMA: the same keys, and each default, parsed
    # with the key's own parser, equal to SCHEMA's
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| (\w+) \| (\w+) \| `([^`]*)` \|", readme.read_text(), re.M)
    documented = {(section, key): raw for section, key, raw in rows}
    assert len(documented) == len(rows)
    assert set(documented) == {(sec, key) for sec, keys in cli.SCHEMA.items() for key in keys}
    for (section, key), raw in documented.items():
        parser, default = cli.SCHEMA[section][key]
        assert parser(raw) == default, (section, key)


SOLVER_VALUE_ERRORS = [
    ["solver.eta=-1"],
    ["solver.outer_tol=0"],
    ["solver.continuation=true", "solver.cont_ratio=1.5"],
    ["solver.continuation=true", "solver.cont_max_steps=0"],
    ["solver.continuation=true", "solver.cont_eta0=0", "solver.cont_mu0=0"],
]


@pytest.mark.parametrize("overrides", SOLVER_VALUE_ERRORS)
def test_solver_value_errors_exit_2(tmp_path, capsys, overrides):
    # these used to escape main() as a ValueError traceback; all but the last
    # are now rejected at parse, and the last, which spans two keys, when
    # ContinuationPath is built
    args = base_args(tmp_path)
    for item in overrides:
        args += ["--set", item]
    assert run_cli("solve", *args) == 2
    assert "[solver]" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", SOLVER_VALUE_ERRORS)
def test_sweep_validates_solver_settings_up_front(tmp_path, capsys, overrides):
    # solver.eta=-1 used to end in a ValueError traceback from the first point
    args = sweep_args(tmp_path)
    for item in overrides:
        args += ["--set", item]
    assert run_cli("sweep", *args) == 2
    assert "[solver]" in capsys.readouterr().err
    assert not (tmp_path / "out" / "report.json").exists()


def test_unknown_command_rejected():
    with pytest.raises(ConfigError, match="unknown command"):
        cli.run("teach", cli.default_config())


# ---------------------------------------------------------------- solve outputs


def test_solve_writes_report_tables_manifest(tmp_path):
    out = tmp_path / "out"
    code = run_cli("solve", *base_args(tmp_path, "--set", "params.p=1.5"))
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "solve"
    assert report["config"]["params"]["p"] == 1.5
    assert report["result"]["converged"] is True
    assert set(report["norms"]) == {"grad_p", "w22", "max"}

    lines = (out / "tables" / "solve_history.csv").read_text().splitlines()
    assert lines[0] == "iteration,residual,energy"
    assert len(lines) == report["result"]["iterations"] + 2

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "solve"
    assert manifest["config"] == report["config"]
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "pstruct"}
    assert manifest["wall_time_s"] > 0.0

    # run writes the command and the config into every command's report
    small = ("params.p=2.5", "params.structure=symmetric", "audit.n=8", "audit.constants_n=8",
             "audit.samples=2", "audit.q_list=2,4,8", "audit.checks=p_lt_2_W2q",
             "sweep.p_values=1.5", "sweep.mu_values=0.1", "sweep.amplitudes=1", "sweep.seeds=0")
    args = [arg for item in small for arg in ("--set", item)]
    for command in cli.COMMANDS:
        assert run_cli(command, *base_args(tmp_path, *args)) == 0
        report = json.loads((out / "report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        assert (report["command"], report["config"]) == (command, manifest["config"])


def test_report_json_is_byte_identical_across_runs(tmp_path):
    args = base_args(tmp_path, "--set", "params.p=1.5", "--set", "rhs.seed=3")
    assert run_cli("solve", *args) == 0
    first = (tmp_path / "out" / "report.json").read_bytes()
    assert run_cli("solve", *args) == 0
    second = (tmp_path / "out" / "report.json").read_bytes()
    assert first == second


def test_fields_format_round_trips(tmp_path):
    out = tmp_path / "out"
    code = run_cli("solve", *base_args(tmp_path, "--set", "output.formats=json,fields"))
    assert code == 0
    domain, v = load_field(out / "fields" / "solution.bin")
    assert domain.n == 8
    assert v.shape == (3,) + domain.shape
    assert np.all(np.isfinite(v))
    assert not (out / "tables").exists()


def test_continuation_solve_writes_trace(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "solve",
        *base_args(
            tmp_path,
            "--set", "params.p=1.5",
            "--set", "params.mu=0",
            "--set", "solver.continuation=true",
            "--set", "solver.cont_eta0=1e-2",
            "--set", "solver.cont_eta_floor=1e-4",
            "--set", "solver.cont_mu0=0",
            "--set", "solver.cont_mu_floor=0",
        ),
    )
    assert code == 0
    lines = (out / "tables" / "continuation_trace.csv").read_text().splitlines()
    assert lines[0] == "step,eta,mu,d2_norm,step_change"
    assert len(lines) >= 5

    def reject(token):
        raise ValueError(f"report.json is not strict JSON: {token}")

    # the first step has no step change: null, where a bare NaN used to be
    report = json.loads((out / "report.json").read_text(), parse_constant=reject)
    trace = report["result"]["continuation_trace"]
    assert trace[0]["step_change"] is None
    assert all(row["step_change"] > 0.0 for row in trace[1:])


def test_continuation_report_sums_the_path(tmp_path, monkeypatch):
    # result.iterations and inner_iterations are the last step's; path_totals
    # sums every step's solve, which a direct solve's report does not carry
    steps = []
    solve = cli.solver.solve

    def recording_solve(problem, config, initial=None, **kwargs):
        v, rep = solve(problem, config, initial, **kwargs)
        steps.append(rep)
        return v, rep

    monkeypatch.setattr(cli.solver, "solve", recording_solve)
    args = base_args(tmp_path, "--set", "params.p=1.5", "--set", "solver.continuation=true",
                     "--set", "solver.cont_eta_floor=1e-3", "--set", "solver.cont_mu_floor=1e-3")
    assert run_cli("solve", *args) == 0
    result = json.loads((tmp_path / "out" / "report.json").read_text())["result"]
    assert result["path_totals"] == {
        "solves": len(steps),
        "outer": sum(rep.iterations for rep in steps),
        "inner": sum(rep.inner_iterations for rep in steps),
        "backtracks": sum(rep.backtracks for rep in steps),
        "accelerated": sum(rep.accelerated for rep in steps),
        "restarts": sum(rep.restarts for rep in steps),
    }
    assert result["path_totals"]["accelerated"] > 0
    assert len(steps) == len(result["continuation_trace"]) > 1
    assert result["path_totals"]["outer"] > result["iterations"]
    monkeypatch.setattr(cli.solver, "solve", solve)
    assert run_cli("solve", *base_args(tmp_path, "--set", "params.p=1.5")) == 0
    assert "path_totals" not in json.loads((tmp_path / "out" / "report.json").read_text())["result"]


# ---------------------------------------------------------------- constants and audit


def test_constants_command(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "constants",
        *base_args(tmp_path, "--set", "audit.samples=2", "--set", "audit.q_list=2,4,8"),
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["c4_hat"] == 1.0
    assert set(report["c5_hat"]) == {"2", "4", "8"}
    assert report["c6_hat"] >= report["c4_hat"]
    assert len(report["admissible_p"]) == 3
    lines = (out / "tables" / "constants.csv").read_text().splitlines()
    assert lines[0] == "q,c5_hat"
    assert len(lines) == 4


def test_audit_command_subset(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "audit",
        *base_args(
            tmp_path,
            "--set", "audit.n=8",
            "--set", "audit.constants_n=8",
            "--set", "audit.samples=2",
            "--set", "audit.q_list=2,4,8",
            "--set", "audit.checks=p_lt_2_W2q",
        ),
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["command"] == "audit"
    assert len(report["estimate_checks"]) == 1
    assert report["estimate_checks"][0]["name"] == "p_lt_2_W2q"
    assert (out / "tables" / "estimates.csv").exists()
    assert (out / "tables" / "constants.csv").exists()


@pytest.mark.parametrize("command", ["constants", "audit"])
@pytest.mark.parametrize("q_list, why", [
    ("2,4", "need at least two q values in [4, 16], got 1"),
    ("1,4,8", "q must lie in [2, 16], got 1.0"),
    ("4,4.0000001,8", "q values 4.0 and 4.0000001 share the c5_hat key '4'"),
], ids=["one-in-window", "below-range", "shared-key"])
def test_q_list_is_validated_at_parse(tmp_path, capsys, command, q_list, why):
    # the first two used to end in a ValueError traceback from audit, exit
    # status 1; the third was merged into one c5_hat key without a word
    with pytest.raises(ConfigError, match=r"\[audit\] q_list"):
        cli.load_config(None, [f"audit.q_list={q_list}"])
    assert run_cli(command, *base_args(tmp_path, "--set", f"audit.q_list={q_list}")) == 2
    err = capsys.readouterr().err
    assert "[audit] q_list" in err
    assert why in err
    assert not (tmp_path / "out" / "report.json").exists()


# ---------------------------------------------------------------- reconstruct


def test_reconstruct_command(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        "reconstruct",
        *base_args(
            tmp_path,
            "--set", "params.p=2.5",
            "--set", "params.mu=1.0",
            "--set", "params.structure=symmetric",
            "--set", "solver.outer_tol=1e-10",
            "--set", "output.formats=json,csv,fields",
        ),
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert 0.0 < report["ratio_max"] < 1.0
    assert report["residual_rel"] < 1e-6
    assert report["reconstruction_rel_l2"] < 1.0
    dom, ratio = load_field(out / "fields" / "ratio.bin")
    assert ratio.shape == dom.shape
    assert ratio.max() == report["ratio_max"]  # the ratio field is 0 off the interior
    _, solution = load_field(out / "fields" / "solution.bin")
    assert solution.shape == (3,) + dom.shape


NAMED_FAILURES = [
    ("solve", "params.p=40", "the law overflowed at outer step"),
    ("solve", "params.p=30", "the law overflowed at outer step"),
    ("solve", "rhs.amplitude=1e200", "forcing norm is inf: its sum of squares overflowed"),
    # mu**p on a Python float used to raise OverflowError: a traceback, exit 1
    ("solve", "params.p=1.5 params.mu=1e300", "energy is nan: the law overflowed at outer step 0"),
    # used to blame the law, whose coefficients were all 1
    ("solve", "solver.eta=1e300",
     "relative residual is inf: the eta term overflowed at outer step 0"),
    # used to say only "PCG r.z is inf"
    ("solve", "params.p=1.5 params.mu=0 solver.eta=1e-8 rhs.amplitude=1e150",
     "PCG r.z is inf in the inner solve of outer step 0"),
    # used to write converged: true with v = 0
    ("solve", "params.p=1.5 rhs.amplitude=1e-300",
     "forcing norm is 0.0: its sum of squares underflowed"),
    # used to end in ZeroDivisionError at the estimate's ratio: exit 1
    ("sweep", "sweep.amplitudes=1e-300 sweep.seeds=1",
     "sweep point index=0 p=1.2 mu=0 amplitude=1e-300 seed=1: forcing norm is 0.0: its sum of "
     "squares underflowed"),
    # used to write residual 0.0 after one outer step, then end in a JSON
    # error on the cell's 0/0 spread: exit 1
    ("sweep", "sweep.amplitudes=1e-160 sweep.seeds=1",
     "but its sum of squares underflowed at outer step 1"),
    # the next two used to blame the preconditioner: "preconditioner lost
    # definiteness at PCG iteration 1: r.z = 0.000e+00"
    ("sweep", "sweep.amplitudes=1e-155 sweep.seeds=1",
     "sweep point index=0 p=1.2 mu=0 amplitude=1e-155 seed=1: PCG r.z is 0.0 at iteration 1: its "
     "sum of products underflowed in the inner solve of outer step 1"),
    ("solve", "params.p=3 rhs.amplitude=1e-160",
     "PCG r.z is 0.0 at iteration 1: its sum of products underflowed in the inner solve of outer "
     "step 1"),
    # used to blame the operator: "loss of definiteness at PCG iteration 1:
    # p.Ap = 0.000e+00", although Ap is nonzero
    ("solve", "params.p=3 rhs.amplitude=1e-161",
     "PCG p.Ap is 0.0 at iteration 1: its sum of products underflowed in the inner solve of "
     "outer step 0"),
    # ||f||_r ** (1/(p-1)) on a Python float used to raise OverflowError: exit 1
    ("sweep", "sweep.p_values=1.0001 sweep.mu_values=10 sweep.amplitudes=4 sweep.seeds=1",
     "sweep point index=0 p=1.0001 mu=10 amplitude=4 seed=1: the two-term RHS is inf at "
     "p = 1.0001"),
]


# the ids leave the command out: the override keys name it
@pytest.mark.parametrize("command, overrides, cause", NAMED_FAILURES,
                         ids=[f"{overrides}-{cause}" for _, overrides, cause in NAMED_FAILURES])
def test_an_overflow_is_named_and_warns_nothing(tmp_path, capsys, recwarn, command, overrides,
                                                cause):
    # the first three used to exit with only "relative residual is nan",
    # after numpy's overflow warnings reached stderr; overrides are
    # space-separated.  An underflow is named the same way
    args = [arg for item in overrides.split() for arg in ("--set", item)]
    assert run_cli(command, *base_args(tmp_path, *args)) == 2
    assert cause in capsys.readouterr().err
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_a_failed_line_search_stops_after_one_inner_solve(tmp_path, capsys, monkeypatch):
    # at p = 25 the start's coefficients are about 1e-23, so the first
    # Kacanov step is far too long: the law overflows on its longest trials
    # and all 40 halvings raise the energy.  Taking the last of them anyway
    # would run the next inner solve to INNER_MAXITER at a coefficient
    # contrast of about 1e83
    energies, inner = [], []
    energy, pcg = solver.energy, solver._pcg

    def counting_energy(*args):
        energies.append(None)
        return energy(*args)

    def counting_pcg(*args):
        inner.append(None)
        x, k = pcg(*args)
        inner[-1] = k
        return x, k

    monkeypatch.setattr(solver, "energy", counting_energy)
    monkeypatch.setattr(solver, "_pcg", counting_pcg)
    assert run_cli("solve", *base_args(tmp_path, "--set", "params.p=25")) == 2
    assert "error: the law overflowed at outer step 0: 40 halvings" in capsys.readouterr().err
    assert len(energies) <= 42
    assert len(inner) == 1 and inner[0] < solver.INNER_MAXITER // 100


def test_reconstruct_gate_failure_exits_2(tmp_path, capsys):
    code = run_cli(
        "reconstruct",
        *base_args(
            tmp_path,
            "--set", "params.p=2.5",
            "--set", "params.mu=1.0",
            "--set", "params.structure=symmetric",
            "--set", "solver.outer_tol=1e-6",
            "--set", "reconstruct.residual_tol=1e-16",
        ),
    )
    assert code == 2
    assert "residual" in capsys.readouterr().err


def test_reconstruct_gates_a_continuation_on_its_last_path_step(tmp_path):
    # the gate used to check the field against [params] mu and [solver] eta,
    # not the path's last (eta, mu) that it solves, and exited 2 with
    # "relative residual 1.822e-01 exceeds 1.0e-06"
    code = run_cli("reconstruct", *base_args(tmp_path, "--set", "params.p=2.6",
                                             "--set", "params.structure=symmetric",
                                             "--set", "solver.continuation=true"))
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["residual_rel"] < 1e-6
    assert report["residual_rel"] == pytest.approx(report["solve"]["final_residual"], rel=1e-5)


@pytest.mark.parametrize("overrides, key", [
    ((), "[params] p: 2.0"),
    (("params.p=2.6", "params.mu=0", "solver.eta=0.1"), "[params] mu: 0.0"),
    (("params.p=2.6", "solver.continuation=true", "solver.cont_mu0=0"), "[solver] cont_mu0: 0.0"),
    # mu0 * ratio^j underflows to 0 on the way to a zero floor
    (("params.p=2.6", "solver.continuation=true", "solver.cont_mu_floor=0",
      "solver.cont_ratio=0.01", "solver.cont_max_steps=1000"), "[solver] cont_mu_floor: 0.0"),
], ids=["p", "mu", "cont_mu0", "cont_mu_floor"])
def test_reconstruct_hypotheses_are_checked_before_the_solve(tmp_path, capsys, monkeypatch,
                                                              overrides, key):
    # p <= 2 used to be rejected only after the whole solve, once the output
    # directory existed, with a message that named no key
    solves = []
    monkeypatch.setattr(cli.solver, "solve", lambda *a, **kw: solves.append(a))
    monkeypatch.setattr(cli.solver, "continuation_solve", lambda *a, **kw: solves.append(a))
    args = [arg for item in overrides for arg in ("--set", item)]
    assert run_cli("reconstruct", *base_args(tmp_path, *args)) == 2
    assert f"invalid value for {key}" in capsys.readouterr().err
    assert solves == []
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------- sweep


def sweep_args(tmp_path, *extra):
    return base_args(
        tmp_path,
        "--set", "sweep.p_values=1.5,2.5",
        "--set", "sweep.mu_values=0.1",
        "--set", "sweep.amplitudes=1,4",
        "--set", "sweep.seeds=0",
        *extra,
    )


def test_sweep_report_and_csv_reingestion(tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", *sweep_args(tmp_path)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["points"] == 4
    assert set(report["summary"]) == {"p=1.5,mu=0.1", "p=2.5,mu=0.1"}
    for group in report["summary"].values():
        assert group["count"] == 2
        assert group["verdict"] == "PASS"

    rows = read_sweep_csv(out / "tables" / "sweep.csv")
    assert [r["index"] for r in rows] == [0, 1, 2, 3]
    assert set(rows[0]) == set(cli.SWEEP_COLUMNS)
    # full-precision floats: re-aggregating the CSV reproduces the report
    # summary exactly, not approximately
    assert cli.aggregate_sweep(rows) == report["summary"]


def test_residuals_measured_scaled_are_written_as_plain_numbers(tmp_path):
    # at amplitude 1e-150 the residual's squares underflow and the solver
    # measures it scaled; its cells used to read np.float64(...)
    out = tmp_path / "out"
    assert run_cli("solve", *base_args(tmp_path, "--set", "params.p=3",
                                       "--set", "rhs.amplitude=1e-150")) == 0
    report = json.loads((out / "report.json").read_text())
    with open(out / "tables" / "solve_history.csv", newline="", encoding="ascii") as fh:
        residuals = [float(rec["residual"]) for rec in csv.DictReader(fh)]
    assert residuals == report["result"]["residual_history"]
    assert run_cli("sweep", *base_args(tmp_path, "--set", "sweep.p_values=2,3",
                                       "--set", "sweep.mu_values=0.1",
                                       "--set", "sweep.amplitudes=1e-150",
                                       "--set", "sweep.seeds=1")) == 0
    report = json.loads((out / "report.json").read_text())
    rows = read_sweep_csv(out / "tables" / "sweep.csv")
    assert all(0.0 < r["residual"] <= 1e-9 for r in rows)
    assert cli.aggregate_sweep(rows) == report["summary"]


def test_sweep_parallel_matches_serial(tmp_path):
    assert run_cli("sweep", *sweep_args(tmp_path)) == 0
    serial = json.loads((tmp_path / "out" / "report.json").read_text())["summary"]
    out2 = tmp_path / "par"
    assert run_cli(
        "sweep",
        "--set", f"output.directory={out2}",
        "--set", "domain.n=8",
        "--set", "sweep.p_values=1.5,2.5",
        "--set", "sweep.mu_values=0.1",
        "--set", "sweep.amplitudes=1,4",
        "--set", "sweep.seeds=0",
        "--set", "sweep.workers=2",
    ) == 0
    parallel = json.loads((out2 / "report.json").read_text())["summary"]
    assert parallel == serial


def test_sweep_honours_solver_settings(tmp_path, capsys):
    # max_outer used to be ignored: the point ran to its own cap of 300
    args = base_args(tmp_path, "--set", "solver.max_outer=1", "--set", "sweep.p_values=1.5",
                     "--set", "sweep.mu_values=0.1", "--set", "sweep.amplitudes=1",
                     "--set", "sweep.seeds=1")
    assert run_cli("sweep", *args) == 2
    err = capsys.readouterr().err
    assert "sweep point index=0 p=1.5 mu=0.1 amplitude=1 seed=1" in err
    assert "no convergence in 1 outer iterations" in err
    assert not (tmp_path / "out" / "report.json").exists()


def _counted_sweep(monkeypatch, args):
    solve, calls = cli.solver.solve, []

    def counting_solve(*a, **k):
        calls.append(1)
        return solve(*a, **k)

    monkeypatch.setattr(cli.solver, "solve", counting_solve)
    assert run_cli("sweep", *args) == 0
    monkeypatch.setattr(cli.solver, "solve", solve)
    return len(calls)


def test_sweep_solves_each_distinct_point_once(tmp_path, monkeypatch):
    # smooth-trig ignores the seed: 2 mu x 2 amplitudes x 3 seeds are 4
    # distinct solves, and the rows are byte for byte those of 12 solves
    out = tmp_path / "out"
    args = base_args(tmp_path, "--set", "sweep.p_values=1.5", "--set", "sweep.amplitudes=1,4")
    assert _counted_sweep(monkeypatch, args) == 4
    deduplicated = [(out / name).read_bytes() for name in ("report.json", "tables/sweep.csv")]
    monkeypatch.setattr(cli, "SEEDED_RHS_IDS", cli.SEEDED_RHS_IDS + ("smooth-trig",))
    assert _counted_sweep(monkeypatch, args) == 12
    assert [(out / name).read_bytes() for name in ("report.json", "tables/sweep.csv")] \
        == deduplicated
    rows = read_sweep_csv(out / "tables" / "sweep.csv")
    assert [r["index"] for r in rows] == list(range(12))
    assert [r["seed"] for r in rows] == [101, 102, 103] * 4


def test_sweep_keeps_seeded_forcings_apart(tmp_path, monkeypatch):
    args = base_args(tmp_path, "--set", "rhs.id=band-limited-random",
                     "--set", "sweep.p_values=1.5", "--set", "sweep.mu_values=0.1",
                     "--set", "sweep.amplitudes=1", "--set", "sweep.seeds=101,102")
    assert _counted_sweep(monkeypatch, args) == 2
    rows = read_sweep_csv(tmp_path / "out" / "tables" / "sweep.csv")
    assert rows[0]["lhs"] != rows[1]["lhs"]


def test_pool_size_is_bounded_by_points_and_cpus(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
    assert cli._pool_size(10_000, 32) == 2
    assert cli._pool_size(1, 32) == 1
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 64)
    assert cli._pool_size(10_000, 3) == 3
    assert cli._pool_size(4, 32) == 4


def test_usable_cpus_are_the_affinity_set_else_the_cpu_count(monkeypatch):
    # under taskset or a cpuset the affinity set is smaller than the machine
    monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: {3}, raising=False)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
    assert cli._usable_cpus() == 1
    assert cli._pool_size(4, 32) == 1
    monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
    assert cli._usable_cpus() == 64
    monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1
    assert cli._pool_size(4, 32) == 1


def test_empty_sweep(tmp_path):
    out = tmp_path / "out"
    assert run_cli("sweep", *base_args(tmp_path, "--set", "sweep.p_values=")) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["points"] == 0
    assert report["summary"] == {}
    assert (out / "tables" / "sweep.csv").read_text().splitlines() == [
        ",".join(cli.SWEEP_COLUMNS)
    ]


def test_sweep_point_failure_names_the_point():
    # n below the coarseness floor: the wrapped error must carry the point
    ladder = ((7,), "cubic_periodic", 4, "full", 1.5, 0.1, (2.0,), 101,
              "smooth-trig", cli.solver.SolveConfig())
    with pytest.raises(PStructError) as exc:
        cli._sweep_point(ladder)
    msg = str(exc.value)
    for token in ("index=7", "p=1.5", "mu=0.1", "amplitude=2", "seed=101"):
        assert token in msg
    assert isinstance(exc.value.__cause__, TooCoarse)


def test_sweep_ladder_failure_names_the_failing_rung(monkeypatch):
    solve = cli.solver.solve

    def second_fails(problem, config, initial=None):
        if initial is not None:
            raise NoConvergence("no convergence in 0 outer iterations")
        return solve(problem, config, initial=initial)

    monkeypatch.setattr(cli.solver, "solve", second_fails)
    ladder = ((3, 11, 19), "cubic_periodic", 8, "full", 1.5, 0.1, (1.0, 4.0, 16.0), 102,
              "smooth-trig", cli.solver.SolveConfig())
    with pytest.raises(PStructError, match="sweep point index=11 p=1.5 mu=0.1 amplitude=4 "
                                           "seed=102: no convergence") as exc:
        cli._sweep_point(ladder)
    assert isinstance(exc.value.__cause__, NoConvergence)


def _config_args(tmp_path, config):
    return [arg for section, keys in config.items() for key, value in keys.items()
            for arg in ("--set", f"{section}.{key}={value}")] + \
        ["--set", f"output.directory={tmp_path / 'out'}"]


def test_sweep_rows_are_the_audit_rows_bit_for_bit(tmp_path):
    # the sweep solves each (p, mu, seed) as the audit's amplitude ladder, so
    # on the audit's own family its rows are the audit's
    name = "p_lt_2_W22"
    spec = audit.ESTIMATE_SPECS[name]
    config = {
        "domain": {"kind": spec["kind"], "n": 8},
        "params": {"structure": spec["structure"]},
        "rhs": {"id": audit.RHS_ID},
        "solver": {"outer_tol": audit.OUTER_TOL, "max_outer": audit.MAX_OUTER},
        "sweep": {"p_values": spec["p"],
                  "mu_values": ",".join(map(str, spec["mu_values"])),
                  "amplitudes": ",".join(map(str, audit.AMPLITUDES)),
                  "seeds": ",".join(map(str, audit.SHAPE_SEEDS))},
    }
    assert run_cli("sweep", *_config_args(tmp_path, config)) == 0
    rows = read_sweep_csv(tmp_path / "out" / "tables" / "sweep.csv")
    checked = audit.verify_estimate(name, n=8)["rows"]
    assert len(rows) == len(checked) == 24
    want = {(r["seed"], r["mu"], r["amplitude"]): r for r in checked}
    for row in rows:
        them = want[row["seed"], row["mu"], row["amplitude"]]
        assert (row["lhs"], row["rhs"], row["implied_constant"], row["eta"]) \
            == (them["lhs"], them["rhs"], them["ratio"], them["eta"])
        assert (row["iterations"], row["residual"]) == (them["iterations"], them["residual"])


def test_sweep_runs_one_pool_task_per_ladder(tmp_path, monkeypatch):
    # the benchmark's shape: 2 p x 2 mu x 2 seeds of a seeded forcing are 8
    # ladders, each over the 4 amplitudes, listed out of order here
    tasks, sweep_point = [], cli._sweep_point

    def counted(task):
        tasks.append(task)
        return sweep_point(task)

    monkeypatch.setattr(cli, "_sweep_point", counted)
    args = base_args(tmp_path, "--set", "rhs.id=band-limited-random",
                     "--set", "sweep.p_values=1.5,1.8", "--set", "sweep.mu_values=0,0.1",
                     "--set", "sweep.amplitudes=4,0.25,16,1", "--set", "sweep.seeds=7,8")
    assert run_cli("sweep", *args) == 0
    assert len(tasks) == 8
    assert all(task[6] == (0.25, 1.0, 4.0, 16.0) for task in tasks)
    rows = read_sweep_csv(tmp_path / "out" / "tables" / "sweep.csv")
    assert [r["index"] for r in rows] == list(range(32))
    assert [r["amplitude"] for r in rows[:8]] == [4.0, 4.0, 0.25, 0.25, 16.0, 16.0, 1.0, 1.0]
    assert [r["seed"] for r in rows[:2]] == [7, 8]


def test_aggregate_sweep_flags_large_spread():
    def row(i, c):
        return {"index": i, "p": 1.2, "mu": 0.0, "implied_constant": c}

    summary = cli.aggregate_sweep([row(0, 1.0), row(1, 20.0)])
    group = summary["p=1.2,mu=0"]
    assert group["spread"] == 20.0
    assert group["verdict"] == "FAIL"


def test_strict_exit_codes(tmp_path):
    # p = 1.2 over a wide amplitude span crosses the two-term crossover, so
    # the implied constant is not amplitude-stable and the group FAILs;
    # without --strict that is still a successful run
    args = base_args(
        tmp_path,
        "--set", "sweep.p_values=1.2",
        "--set", "sweep.mu_values=0.1",
        "--set", "sweep.amplitudes=0.25,16",
        "--set", "sweep.seeds=101",
    )
    assert run_cli("sweep", *args) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["p=1.2,mu=0.1"]["verdict"] == "FAIL"
    assert run_cli("sweep", "--strict", *args) == 1

    ok = sweep_args(tmp_path)
    assert run_cli("sweep", "--strict", *ok) == 0


def test_collect_verdicts_walks_nested_structures():
    report = {
        "a": {"verdict": "PASS", "rows": [{"verdict": "FAIL"}]},
        "b": [{"nested": {"verdict": "PASS"}}],
        "verdict": 3,
    }
    assert sorted(cli._collect_verdicts(report)) == ["FAIL", "PASS", "PASS"]


# ---------------------------------------------------------------- entry point


PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def run_child(*args):
    """Run a fresh interpreter that imports the pstruct the tests import."""
    env = dict(os.environ)
    package_root = str(Path(pstruct.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [package_root, env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env
    )


def constants_args(tmp_path):
    return [
        "constants",
        "--set", f"output.directory={tmp_path / 'out'}",
        "--set", "domain.n=8",
        "--set", "audit.samples=1",
        "--set", "audit.q_list=2,4,8",
    ]


def test_console_entry_point(tmp_path):
    # Call the declared [project.scripts] target in a child process the way
    # the wrapper generated by an install does: import the module, call the
    # function, exit with its return value.
    tomllib = pytest.importorskip("tomllib")
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    module, _, function = scripts["pstruct"].partition(":")
    launcher = (
        "import importlib, sys; "
        f"sys.exit(getattr(importlib.import_module({module!r}), {function!r})())"
    )
    proc = run_child("-c", launcher, *constants_args(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").exists()


def test_python_m_pstruct(tmp_path):
    proc = run_child("-m", "pstruct", *constants_args(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "report.json").exists()

    # a PStructError is reported by cli.main and becomes the exit status
    proc = run_child(
        "-m", "pstruct", "constants",
        "--set", f"output.directory={tmp_path / 'bad'}",
        "--set", "params.q=3",
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "[params] q" in proc.stderr
