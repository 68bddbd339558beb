import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import prodest
from prodest.cli import (
    _ALLOWED_KEYS,
    ConfigError,
    Settings,
    Workspace,
    load_observations,
    main,
    parse_config_text,
)
from prodest.mcmc import ess_batch_means


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def run(args):
    return main([str(a) for a in args])


# ----------------------------------------------------------- config parsing


def test_parse_config_basics():
    values = parse_config_text(
        "# a comment\n\nseed = 5\nn-particles = 12  \nestimator=recycle\n"
    )
    assert values == {"seed": "5", "n_particles": "12", "estimator": "recycle"}


def test_parse_config_duplicate_key():
    with pytest.raises(ConfigError, match=":2: duplicate"):
        parse_config_text("seed = 1\nseed = 2\n")


def test_parse_config_malformed_line():
    with pytest.raises(ConfigError, match=":1: expected"):
        parse_config_text("just some words\n")


def test_settings_typed_getters(tmp_path):
    settings = Settings(
        {"n_particles": "8", "target": "1.5", "unit_noise": "true",
         "theta": "1.0, 2.0"},
        command="mcmc", base_dir=tmp_path,
    )
    assert settings.get_int("n_particles") == 8
    assert settings.get_float("target") == 1.5
    assert settings.get_bool("unit_noise") is True
    assert settings.get_floats("theta") == (1.0, 2.0)
    bad = Settings({"n_particles": "two"}, command="estimate", base_dir=tmp_path)
    with pytest.raises(ConfigError, match="n_particles"):
        bad.get_int("n_particles")


def test_settings_unknown_key(tmp_path):
    with pytest.raises(ConfigError, match="unknown config keys"):
        Settings({"mystery": "1"}, command="oracle", base_dir=tmp_path)


def test_load_observations(tmp_path):
    path = tmp_path / "obs.dat"
    path.write_text("# counts\n1.5\n\n2.5\n-3\n")
    assert load_observations(path) == pytest.approx([1.5, 2.5, -3.0])
    bad = tmp_path / "bad.dat"
    bad.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ConfigError, match=":2: not a number"):
        load_observations(bad)


def test_workspace_discard(tmp_path):
    workspace = Workspace(tmp_path / "out", 1)
    written = workspace.write_csv("a.csv", ("x",), [(1,)])
    assert written.exists()
    workspace.discard()
    assert not written.exists()


def test_workspace_failed_write_leaves_nothing(tmp_path):
    out = tmp_path / "out"
    workspace = Workspace(out, 1)
    workspace.write_csv("done.csv", ("x",), [(1,)])

    def rows():
        yield (1.5,)
        raise RuntimeError("mid-write")

    with pytest.raises(RuntimeError, match="mid-write"):
        workspace.write_csv("a.csv", ("x",), rows())
    # The failed write left its temporary file, not a partial a.csv.
    leftover = [path.name for path in out.iterdir() if path.name != "done.csv"]
    assert len(leftover) == 1 and leftover[0].endswith(".tmp")
    workspace.discard()
    assert not list(out.iterdir())


def test_failed_write_during_run_leaves_no_outputs(tmp_path, monkeypatch):
    import prodest.cli as cli

    format_cell = cli._format_cell
    calls = []

    def fail_on_fifth_cell(cell):
        calls.append(cell)
        if len(calls) == 5:
            raise ZeroDivisionError("mid-write")
        return format_cell(cell)

    monkeypatch.setattr(cli, "_format_cell", fail_on_fifth_cell)
    config = write_config(tmp_path, "fixture = d1\nestimator = recycle\nn_particles = 2\n")
    out = tmp_path / "results"
    with pytest.raises(ZeroDivisionError, match="mid-write"):
        run(["estimate", "--config", config, "--out", out, "--replicates", 8])
    assert out.is_dir() and not list(out.iterdir())


_RERUN_CONFIGS = {
    "estimate": "fixture = d1\nestimator = recycle\nn_particles = 2\nreplicates = 16\n",
    "mcmc": "model = two-state\nn_obs = 4\nestimator = recycle\nn_particles = 8\n"
            "chain_length = 40\npilot_length = 10\n",
}


@pytest.mark.parametrize("command", sorted(_RERUN_CONFIGS))
def test_rerun_into_existing_outputs_matches_fresh_run(tmp_path, command):
    # A rerun removes each old file and renames the new one onto its name;
    # the result must be what a fresh directory gets.
    config = write_config(tmp_path, _RERUN_CONFIGS[command])
    rerun, fresh = tmp_path / "rerun", tmp_path / "fresh"
    assert run([command, "--config", config, "--seed", 2, "--out", rerun]) == 0
    before = _outputs(rerun)
    for out in (rerun, fresh):
        assert run([command, "--config", config, "--seed", 1, "--out", out]) == 0
    assert _outputs(rerun) == _outputs(fresh)
    assert _outputs(rerun) != before
    assert not list(rerun.glob(".*.tmp"))


def test_failed_rerun_leaves_the_old_outputs_and_no_temporary_file(tmp_path, monkeypatch):
    import prodest.cli as cli

    config = write_config(tmp_path, _RERUN_CONFIGS["estimate"])
    out = tmp_path / "results"
    assert run(["estimate", "--config", config, "--seed", 2, "--out", out]) == 0
    before = _outputs(out)
    format_cell = cli._format_cell
    calls = []

    def fail_on_fifth_cell(cell):
        calls.append(cell)
        if len(calls) == 5:
            raise ZeroDivisionError("mid-write")
        return format_cell(cell)

    monkeypatch.setattr(cli, "_format_cell", fail_on_fifth_cell)
    with pytest.raises(ZeroDivisionError, match="mid-write"):
        run(["estimate", "--config", config, "--seed", 1, "--out", out])
    assert _outputs(out) == before


def _unwritable_out_under_a_file(tmp_path):
    # Like --out /dev/null/x: mkdir meets a file where a directory must be.
    (tmp_path / "plain").write_text("")
    return tmp_path / "plain" / "x"


def _unwritable_out_with_a_directory_named_like_an_output(tmp_path):
    out = tmp_path / "results"
    (out / "estimates.csv").mkdir(parents=True)
    return out


@pytest.mark.parametrize("make_out", [
    _unwritable_out_under_a_file, _unwritable_out_with_a_directory_named_like_an_output,
])
def test_unwritable_output_exits_1_without_traceback(tmp_path, capsys, make_out):
    out = make_out(tmp_path)
    before = sorted(tmp_path.rglob("*"))
    config = write_config(tmp_path, _RERUN_CONFIGS["estimate"])
    assert run(["estimate", "--config", config, "--out", out]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith(f"error: cannot write {out / 'estimates.csv'}: ")
    assert sorted(tmp_path.rglob("*")) == before + [Path(config)]


def _outputs(out):
    """Each file's bytes, hidden files included."""
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


# One small run of each command, with every stream it draws from in use:
# simulated data, tuning, pilot and main chains.
_SAME_SEED_CONFIGS = {
    "estimate": "model = gandk\nn_obs = 5\nestimator = recycle\nn_particles = 40\n"
                "replicates = 16\n",
    "tune": "model = two-state\ntheta = 0.6\nn_obs = 4\ntarget = 0.5\nreplicates = 20\n"
            "max_particles = 64\n",
    "mcmc": "model = two-state\nn_obs = 4\nestimator = recycle\ntarget = 0.5\n"
            "tune_replicates = 20\nmax_particles = 64\nchain_length = 40\n"
            "pilot_length = 10\npilot_stages = 2\n",
    "mcmc-exact": "model = two-state\ntheta = 0.6\nn_obs = 8\nestimator = exact\n"
                  "chain_length = 200\npilot_length = 0\n",
    "oracle": "fixture = d1\nn_particles = 4\n",
}


@pytest.mark.parametrize("case", sorted(_SAME_SEED_CONFIGS))
def test_same_seed_writes_identical_files(tmp_path, case):
    # Every result file, JSON summaries included, is a function of the
    # inputs and the seed alone.
    command = case.split("-")[0]
    config = write_config(tmp_path, _SAME_SEED_CONFIGS[case])
    for label in ("a", "b"):
        assert run([command, "--config", config, "--seed", 33, "--out", tmp_path / label]) == 0
    assert _outputs(tmp_path / "a") == _outputs(tmp_path / "b")


# -------------------------------------------------------------- estimate run


def test_estimate_on_fixture(tmp_path):
    config = write_config(
        tmp_path,
        "fixture = d1\nestimator = recycle\nn_particles = 2\nreplicates = 64\n",
    )
    out = tmp_path / "results"
    assert run(["estimate", "--config", config, "--seed", 9, "--out", out]) == 0
    lines = (out / "estimates.csv").read_text().splitlines()
    assert lines[0] == "# prodest 0.1.0 seed=9"
    assert lines[1] == "replicate,log_estimate,estimate"
    assert len(lines) == 2 + 64
    summary = json.loads((out / "estimate_summary.json").read_text())
    assert summary["estimator"] == "recycle"
    assert summary["replicates"] == 64
    assert 0.0 < summary["mean_estimate"] < 1.0
    assert summary["master_seed"] == 9


def test_estimate_seed_changes_output(tmp_path):
    config = write_config(
        tmp_path, "fixture = d1\nestimator = recycle\nn_particles = 2\n"
    )
    for label, seed in (("a", 1), ("b", 2)):
        run(["estimate", "--config", config, "--seed", seed, "--out",
             tmp_path / label, "--replicates", 32])
    assert (tmp_path / "a" / "estimates.csv").read_text() != (
        tmp_path / "b" / "estimates.csv"
    ).read_text()


def test_estimate_flag_overrides_config(tmp_path):
    config = write_config(
        tmp_path,
        "fixture = d1\nestimator = simple\nn_particles = 2\nreplicates = 5\n",
    )
    out = tmp_path / "results"
    run(["estimate", "--config", config, "--seed", 4, "--out", out,
         "--estimator", "biased", "--replicates", 7])
    summary = json.loads((out / "estimate_summary.json").read_text())
    assert summary["estimator"] == "biased"
    assert summary["replicates"] == 7


def test_estimate_model_with_data_file(tmp_path):
    data = tmp_path / "obs.dat"
    data.write_text("0\n1\n0\n1\n")
    config = write_config(
        tmp_path,
        "model = two-state\ntheta = 0.5\ndata = obs.dat\n"
        "estimator = recycle\nn_particles = 8\n",
    )
    out = tmp_path / "results"
    assert run(["estimate", "--config", config, "--seed", 2, "--out", out,
                "--replicates", 16]) == 0
    summary = json.loads((out / "estimate_summary.json").read_text())
    assert summary["n_observations"] == 4


@pytest.mark.parametrize("bad", ["0.5", "-1", "2"])
def test_estimate_two_state_bad_symbol_exits_2(tmp_path, capsys, bad):
    (tmp_path / "obs.dat").write_text(f"0\n{bad}\n1\n")
    config = write_config(
        tmp_path, "model = two-state\ntheta = 0.5\ndata = obs.dat\nn_particles = 6\n"
    )
    out = tmp_path / "results"
    assert run(["estimate", "--config", config, "--out", out,
                "--replicates", 4]) == 2
    assert "integer symbols in [0, 2)" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_estimate_overflowing_likelihood_writes_inf(tmp_path):
    # Near-zero latent counts and sigma = 0.001 put every log estimate
    # near 200 * 5.99 > 709, past the largest finite exp.
    (tmp_path / "zeros.dat").write_text("0\n" * 200)
    config = write_config(
        tmp_path,
        "model = poisson-beta\ntheta = 0.01, 2, 8\nsigma = 0.001\n"
        "data = zeros.dat\nestimator = recycle\nn_particles = 400\n",
    )
    out = tmp_path / "results"
    assert run(["estimate", "--config", config, "--out", out,
                "--replicates", 5]) == 0
    lines = (out / "estimates.csv").read_text().splitlines()
    assert lines[1] == "replicate,log_estimate,estimate"
    rows = [line.split(",") for line in lines[2:]]
    assert [row[0] for row in rows] == ["0", "1", "2", "3", "4"]
    assert all(float(row[1]) > 709.8 and row[2] == "inf" for row in rows)
    summary = json.loads((out / "estimate_summary.json").read_text())
    assert summary["log_mean_estimate"] > 709.8
    assert summary["mean_estimate"] == "inf"


# ----------------------------------------------------------------- oracle run


def test_oracle_disjoint_fixture_values(tmp_path):
    config = write_config(tmp_path, "fixture = d1\n")
    out = tmp_path / "results"
    assert run(["oracle", "--config", config, "--out", out]) == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    header = lines[1].split(",")
    row = dict(zip(header, lines[2].split(",")))
    assert float(row["mean_product"]) == pytest.approx(0.25)
    assert float(row["second_moment_simple"]) == pytest.approx(4.0)
    assert float(row["second_moment_perm"]) == pytest.approx(2.0)
    assert float(row["second_moment_recycle"]) == pytest.approx(2.0)
    assert [float(c) for c in row["factor_relvars"].split(";")] == [1.0, 1.0]


def test_oracle_latent_fixture_values(tmp_path):
    config = write_config(tmp_path, "fixture = d4\nn_obs = 1\nn_particles = 2\n")
    out = tmp_path / "results"
    assert run(["oracle", "--config", config, "--out", out]) == 0
    lines = (out / "oracle.csv").read_text().splitlines()
    row = dict(zip(lines[1].split(","), lines[2].split(",")))
    assert float(row["expected_factor_relvar"]) == pytest.approx(0.25)
    assert float(row["recycle_enumerated"]) == pytest.approx(1.125)
    assert float(row["recycle_closed_form"]) == pytest.approx(1.125)


def test_oracle_unknown_fixture_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, "fixture = d9\n")
    assert run(["oracle", "--config", config, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err == "error: unknown fixture 'd9'; known fixtures: d1, d3, d4\n"


def test_oracle_block_size_key_exits_2(tmp_path, capsys):
    # The block size is derived from n_particles, never given.
    config = write_config(tmp_path, "fixture = d1\nn_particles = 4\nblock_size = 2\n")
    out = tmp_path / "results"
    assert run(["oracle", "--config", config, "--out", out]) == 2
    assert "unknown config keys for 'oracle': block_size" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_latent_fixture_without_observations_exits_2(tmp_path, capsys):
    config = write_config(tmp_path, "fixture = d4\nn_obs = 0\n")
    out = tmp_path / "results"
    assert run(["oracle", "--config", config, "--out", out]) == 2
    assert "n_obs must be >= 1" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ tune run


def test_tune_on_fixture(tmp_path):
    config = write_config(
        tmp_path,
        "fixture = d1\nestimator = recycle\ntarget = 1.2\nreplicates = 400\n",
    )
    out = tmp_path / "results"
    assert run(["tune", "--config", config, "--seed", 3, "--out", out]) == 0
    payload = json.loads((out / "tune.json").read_text())
    assert payload["n_particles"] == 2
    assert payload["probes"][0]["n_particles"] == 2
    assert payload["probes"][-1]["relative_variance"] <= 1.2


def test_tune_failure_leaves_no_outputs(tmp_path):
    config = write_config(
        tmp_path,
        "fixture = d1\nestimator = recycle\ntarget = 1e-9\n"
        "replicates = 50\nmax_particles = 8\n",
    )
    out = tmp_path / "results"
    assert run(["tune", "--config", config, "--seed", 3, "--out", out]) == 1
    assert not list(out.glob("*.json")) and not list(out.glob("*.csv"))


def test_tune_ceiling_below_start_exits_2(tmp_path, capsys):
    # Five observations start the count at 5, already above the ceiling.
    config = write_config(
        tmp_path,
        "model = two-state\nn_obs = 5\nestimator = recycle\n"
        "target = 1000\nmax_particles = 2\n",
    )
    out = tmp_path / "results"
    assert run(["tune", "--config", config, "--seed", 3, "--out", out]) == 2
    assert "max_particles 2 is below the starting count of 5" in capsys.readouterr().err
    assert not (out / "tune.json").exists()
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("tune", "replicates", "-3"),
        ("tune", "replicates", "1"),
        ("mcmc", "tune_replicates", "-3"),
        ("mcmc", "tune_replicates", "1"),
    ],
)
def test_tuning_with_fewer_than_two_replicates_exits_2(tmp_path, capsys, command, key, value):
    # A relative variance needs two replicates; the key is checked as it is read.
    base = "model = two-state\nn_obs = 4\nmax_particles = 64\n"
    if command == "mcmc":
        base += "chain_length = 5\npilot_length = 0\n"
    config = write_config(tmp_path, f"{base}{key} = {value}\n")
    out = tmp_path / "results"
    assert run([command, "--config", config, "--seed", 3, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {key} must be >= 2, got {value}\n"
    assert not out.exists()


def test_unexpected_error_leaves_no_outputs(tmp_path, monkeypatch):
    # A failure after the results are written, of a kind main does not map
    # to an exit code, must still remove them, then propagate.
    write_json = Workspace.write_json

    def write_then_fail(self, name, payload):
        write_json(self, name, payload)
        raise ZeroDivisionError("after writing")

    monkeypatch.setattr(Workspace, "write_json", write_then_fail)
    config = write_config(tmp_path, "fixture = d1\nestimator = recycle\nn_particles = 2\n")
    out = tmp_path / "results"
    with pytest.raises(ZeroDivisionError, match="after writing"):
        run(["estimate", "--config", config, "--out", out, "--replicates", 8])
    assert out.is_dir() and not list(out.iterdir())


# ------------------------------------------------------------------ mcmc run


def test_mcmc_two_state(tmp_path):
    config = write_config(
        tmp_path,
        "model = two-state\ntheta = 0.7\nn_obs = 10\n"
        "estimator = recycle\nn_particles = 20\n"
        "chain_length = 300\npilot_length = 100\n",
    )
    out = tmp_path / "results"
    assert run(["mcmc", "--config", config, "--seed", 5, "--out", out]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert lines[1] == "step,weight,log_like,accepted"
    assert len(lines) == 2 + 300
    first = lines[2].split(",")
    assert first[0] == "0" and first[3] in ("0", "1")
    summary = json.loads((out / "mcmc_summary.json").read_text())
    assert summary["estimator"] == "recycle"
    assert [stage["length"] for stage in summary["pilot"]] == [100]
    assert 0.0 <= summary["acceptance_rate"] <= 1.0
    assert 0.0 < summary["posterior_mean"]["weight"] < 1.0
    low, high = summary["central95"]["weight"]
    assert 0.0 <= low <= high <= 1.0


def test_mcmc_staged_pilots(tmp_path):
    base = (
        "model = two-state\ntheta = 0.7\nn_obs = 10\n"
        "estimator = recycle\nn_particles = 20\n"
        "chain_length = 200\npilot_length = 80\n"
    )
    config = write_config(tmp_path, base + "pilot_stages = 3\n")
    out = tmp_path / "staged"
    assert run(["mcmc", "--config", config, "--seed", 5, "--out", out]) == 0
    summary = json.loads((out / "mcmc_summary.json").read_text())
    assert [stage["stage"] for stage in summary["pilot"]] == [0, 1, 2]
    assert all(stage["length"] == 80 for stage in summary["pilot"])
    # later stages consume distinct randomness, so the chain must differ
    # from the single-stage run with the same seed
    single = write_config(tmp_path, base, name="single.cfg")
    out_single = tmp_path / "single"
    assert run(["mcmc", "--config", single, "--seed", 5, "--out", out_single]) == 0
    assert (out / "trace.csv").read_bytes() != (out_single / "trace.csv").read_bytes()

    bad = write_config(tmp_path, base + "pilot_stages = 0\n", name="bad.cfg")
    assert run(["mcmc", "--config", bad, "--seed", 5, "--out", tmp_path / "x"]) == 2


@pytest.mark.parametrize(
    "key, message",
    [
        ("pilot_length = -1", "pilot_length must be >= 0"),
        ("chain_length = 0", "chain_length must be >= 1"),
        # The pilot step's variance, (0.05 * (1 + 1e200))**2, overflows.
        ("model = poisson-beta\ntheta = 1e200, 2, 8\ndata = obs.dat", "covariance must be finite"),
        # The chain's start, pilot step, tuned scaling and burn-in are
        # fixed; their old keys are refused even at the values they had.
        ("proposal_scale = literal", "unknown config keys for 'mcmc': proposal_scale"),
        ("rel_step = 0.05", "unknown config keys for 'mcmc': rel_step"),
        ("init = theta", "unknown config keys for 'mcmc': init"),
        ("burn_in = 0.5", "unknown config keys for 'mcmc': burn_in"),
    ],
)
def test_mcmc_config_errors_exit_2(tmp_path, capsys, key, message):
    (tmp_path / "obs.dat").write_text("3\n12\n")
    lines = {"model": "two-state", "theta": "0.7", "estimator": "recycle",
             "n_particles": "20", "chain_length": "100"}
    lines.update(line.split(" = ") for line in key.split("\n"))
    config = write_config(
        tmp_path, "".join(f"{name} = {value}\n" for name, value in lines.items())
    )
    out = tmp_path / "results"
    assert run(["mcmc", "--config", config, "--seed", 5, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize(
    "key, message",
    [
        ("chain_length = 0", "chain_length must be >= 1"),
        # A g-and-k pilot of 8 steps keeps 4 after the burn-in; its 4 x 4
        # covariance needs 5.
        ("model = gandk\ntheta = 3, 1, 2, 0.5\nn_obs = 5\npilot_length = 8", "keeps 4 after the burn-in"),
        ("model = gandk\ntheta = 3, 1, 2, 11\nn_obs = 5", "outside the prior's support"),
        ("model = poisson-beta\ntheta = 500, 2, 8\nsigma = 1e200", "sigma must be finite"),
        ("model = poisson-beta\ntheta = 1e300, 2, 8", "rate must be at most"),
    ],
)
def test_mcmc_config_errors_exit_before_tuning(tmp_path, capsys, monkeypatch, key, message):
    def fail(*args, **kwargs):
        pytest.fail("particle tuning ran before the configuration was checked")

    monkeypatch.setattr("prodest.cli.tune_particle_count", fail)
    lines = {"model": "two-state", "theta": "0.7", "n_obs": "10", "estimator": "recycle"}
    lines.update(line.split(" = ") for line in key.split("\n"))
    config = write_config(
        tmp_path, "".join(f"{name} = {value}\n" for name, value in lines.items())
    )
    out = tmp_path / "results"
    assert run(["mcmc", "--config", config, "--seed", 5, "--out", out]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_mcmc_exact_estimator_without_pilot(tmp_path):
    config = write_config(tmp_path, _SAME_SEED_CONFIGS["mcmc-exact"])
    out = tmp_path / "chain"
    assert run(["mcmc", "--config", config, "--seed", 11, "--out", out]) == 0
    summary = json.loads((out / "mcmc_summary.json").read_text())
    assert summary["n_particles"] is None
    assert summary["pilot"] is None


@pytest.mark.parametrize(
    "key, value", [("n_particles", "7"), ("target", "5"), ("tune_replicates", "5"),
                   ("max_particles", "64")],
)
@pytest.mark.parametrize("by_flag", [False, True])
def test_mcmc_exact_chain_takes_no_particle_keys(tmp_path, capsys, key, value, by_flag):
    # The exact chain draws no particles, so a particle key would be ignored.
    text = "model = two-state\nn_obs = 4\nchain_length = 5\npilot_length = 0\n"
    text += f"{key} = {value}\n" + ("" if by_flag else "estimator = exact\n")
    flags = ["--estimator", "exact"] if by_flag else []
    config = write_config(tmp_path, text)
    out = tmp_path / "results"
    assert run(["mcmc", "--config", config, "--out", out, *flags]) == 2
    assert capsys.readouterr().err == f"error: estimator 'exact' takes no {key}\n"
    assert not out.exists()


def test_mcmc_fixture_exits_2(tmp_path, capsys, monkeypatch):
    # A fixture has no parameter to sample.
    def fail(*args, **kwargs):
        pytest.fail("particle tuning ran before the configuration was checked")

    monkeypatch.setattr("prodest.cli.tune_particle_count", fail)
    config = write_config(tmp_path, "fixture = d1\n")
    out = tmp_path / "results"
    assert run(["mcmc", "--config", config, "--out", out]) == 2
    assert "unknown config keys for 'mcmc': fixture" in capsys.readouterr().err
    assert not out.exists()


# -------------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "text",
    [
        "fixture = d1\nmodel = gandk\n",                     # both sources
        "fixture = d1\ntheta = 0.5\n",                       # fixture with theta
        "fixture = d4\n",                                    # latent fixture
        "fixture = d1\nestimator = warp\n",                  # unknown estimator
        "fixture = d1\nchain_length = 100\n",                # key from another command
        # simulated observations past the double range
        "model = gandk\ntheta = 8e307, 1, 2, 0.5\nepsilon = 1.3e154\nn_obs = 60\n",
    ],
)
def test_estimate_config_errors_exit_2(tmp_path, capsys, text):
    config = write_config(tmp_path, text)
    out = tmp_path / "results"
    assert run(["estimate", "--config", config, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


# Problem keys that the chosen problem does not take, each with its
# error message.
_UNTAKEN_KEYS = [
    ("model = poisson-beta\ndata = obs.dat\nn_obs = 50\n",
     "give either 'data' or 'n_obs', not both"),
    ("model = gandk\nn_obs = 4\nsigma = 5\n", "model 'gandk' takes no sigma"),
    ("n_obs = 4\nsigma = 5\n", "model 'gandk' takes no sigma"),
    ("model = two-state\nn_obs = 4\nsigma = 5\n", "model 'two-state' takes no sigma"),
    ("model = poisson-beta\nn_obs = 4\nepsilon = 0.2\n",
     "model 'poisson-beta' takes no epsilon"),
    ("model = poisson-beta\nn_obs = 4\nunit_noise = true\n",
     "model 'poisson-beta' takes no unit_noise"),
    ("model = two-state\nn_obs = 4\nepsilon = 0.2\nunit_noise = false\n",
     "model 'two-state' takes no epsilon, unit_noise"),
]
# mcmc takes no fixture key at all.
_UNTAKEN_FIXTURE_KEYS = [
    ("fixture = d1\nsigma = 5\n", "fixture 'd1' takes no sigma"),
    ("fixture = d1\nepsilon = 0.2\n", "fixture 'd1' takes no epsilon"),
    ("fixture = d3\nunit_noise = true\n", "fixture 'd3' takes no unit_noise"),
]
# Settings that keep a run small where a key is wrongly dropped.
_SMALL_RUN = {
    "estimate": "replicates = 5\n",
    "tune": "replicates = 5\nmax_particles = 64\n",
    "mcmc": "n_particles = 8\nchain_length = 5\npilot_length = 0\n",
}


@pytest.mark.parametrize(
    "command, text, message",
    [
        (command, text, message)
        for command in ("estimate", "tune", "mcmc")
        for text, message in _UNTAKEN_KEYS
        + (_UNTAKEN_FIXTURE_KEYS if command != "mcmc" else [])
    ],
)
def test_problem_keys_the_problem_does_not_take_exit_2(
    tmp_path, capsys, command, text, message
):
    (tmp_path / "obs.dat").write_text("3\n12\n")
    config = write_config(tmp_path, text + _SMALL_RUN[command])
    out = tmp_path / "results"
    assert run([command, "--config", config, "--out", out]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_estimate_indivisible_simple_blocks_exit_2(tmp_path, capsys):
    config = write_config(
        tmp_path, "fixture = d1\nestimator = simple\nn_particles = 3\n"
    )
    out = tmp_path / "results"
    assert run(["estimate", "--config", config, "--out", out,
                "--replicates", 4]) == 2
    capsys.readouterr()
    assert not out.exists() or not list(out.iterdir())


# A scale whose square overflows or leaves the normal doubles is rejected
# as well: the models square it.
@pytest.mark.parametrize(
    "model, where, bad",
    [
        (model, where, bad)
        for model in ("gandk", "poisson-beta")
        for where in ("data", "theta", "scale")
        for bad in ("nan", "inf")
    ]
    + [(model, "scale", bad) for model in ("gandk", "poisson-beta") for bad in ("1e200", "1e-200")]
    + [("poisson-beta", "data", "1e300")],
)
def test_estimate_non_finite_input_exits_2(tmp_path, capsys, model, where, bad):
    observations = ["1.5", "2.5", "3.5"]
    theta = {"gandk": ["3", "1", "2", "0.5"], "poisson-beta": ["500", "2", "8"]}[model]
    scale = ""
    if where == "data":
        observations[1] = bad
    elif where == "theta":
        theta[0] = bad
    else:
        scale = f"{'epsilon' if model == 'gandk' else 'sigma'} = {bad}\n"
    (tmp_path / "obs.dat").write_text("\n".join(observations) + "\n")
    config = write_config(
        tmp_path,
        f"model = {model}\ntheta = {', '.join(theta)}\ndata = obs.dat\nn_particles = 6\n"
        + scale,
    )
    out = tmp_path / "results"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["estimate", "--config", config, "--out", out,
                    "--replicates", 4]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    # A count observation must also keep its squared distance to any
    # latent count finite.
    message = "must lie within" if bad == "1e300" else "must be finite"
    assert message in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


# One finite g-and-k parameter that would take the quantile transform past
# the double range; the data are simulated or read from a file.
@pytest.mark.parametrize("entry, bad", [(3, "1e300"), (1, "1e306"), (2, "1e308"), (0, "1.7e308")])
@pytest.mark.parametrize("source", ["n_obs = 3", "data = obs.dat"])
def test_estimate_gandk_theta_past_the_double_range_exits_2(
    tmp_path, capsys, entry, bad, source
):
    theta = ["3", "1", "2", "0.5"]
    theta[entry] = bad
    (tmp_path / "obs.dat").write_text("1.5\n2.5\n3.5\n")
    config = write_config(
        tmp_path, f"model = gandk\ntheta = {', '.join(theta)}\n{source}\nn_particles = 6\n"
    )
    out = tmp_path / "results"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["estimate", "--config", config, "--out", out, "--replicates", 4]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "g-and-k parameters" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_successive_calls_write_what_each_writes_alone(tmp_path):
    # One process builds one parser.  Each call must write what the same
    # call writes in a fresh interpreter, whatever flags the calls before
    # it gave.
    problem = write_config(
        tmp_path,
        "model = two-state\ntheta = 0.6\nn_obs = 4\nestimator = recycle\n"
        "n_particles = 8\nreplicates = 4\n",
        "problem.cfg",
    )
    tune = write_config(
        tmp_path,
        "model = two-state\ntheta = 0.6\nn_obs = 4\ntarget = 0.5\nmax_particles = 64\n",
        "tune.cfg",
    )
    oracle = write_config(tmp_path, "fixture = d1\nn_particles = 2\n", "oracle.cfg")
    calls = [
        ["estimate", "--config", problem, "--seed", "5", "--estimator", "simple",
         "--replicates", "3"],
        ["oracle", "--config", oracle],
        ["estimate", "--config", problem, "--seed", "5"],
        ["tune", "--config", tune, "--estimator", "biased", "--replicates", "6"],
        ["estimate", "--config", problem, "--replicates", "6"],
        ["tune", "--config", tune, "--seed", "9"],
    ]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(prodest.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    )}
    for i, argv in enumerate(calls):
        together, alone = tmp_path / f"together-{i}", tmp_path / f"alone-{i}"
        assert run(argv + ["--out", together]) == 0
        subprocess.run(
            [sys.executable, "-c", "import sys; from prodest.cli import main; "
             "sys.exit(main(sys.argv[1:]))", *argv, "--out", str(alone)],
            env=env, check=True, capture_output=True,
        )
        assert _outputs(together) == _outputs(alone), argv
    # A bad command line after good ones still exits 2, and a good one
    # after it still runs.  A bad flag value is a config error, checked
    # where its key's value is; a missing value or an unknown command is
    # argparse's to reject.
    for bad in (["estimate", "--estimator", "warp"], ["tune", "--replicates", "many"]):
        assert run(bad + ["--out", tmp_path / "bad"]) == 2
    for bad in (["estimate", "--seed"], ["sample"]):
        with pytest.raises(SystemExit) as exit_info:
            run(bad)
        assert exit_info.value.code == 2
    assert run(calls[2] + ["--out", tmp_path / "again"]) == 0
    assert _outputs(tmp_path / "again") == _outputs(tmp_path / "together-2")


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run(["estimate", "--config", tmp_path / "nope.cfg",
                "--out", tmp_path / "x"]) == 2
    assert "error:" in capsys.readouterr().err


def test_mcmc_exact_flag_runs_the_exact_chain(tmp_path):
    config = write_config(
        tmp_path, "model = two-state\nn_obs = 4\nchain_length = 50\npilot_length = 0\n"
    )
    out = tmp_path / "x"
    assert run(["mcmc", "--config", config, "--estimator", "exact", "--out", out]) == 0
    summary = json.loads((out / "mcmc_summary.json").read_text())
    assert summary["estimator"] == "exact" and summary["n_particles"] is None


# Base configs for the flag and key parity cases: small, valid runs.
_PARITY_BASES = {
    "estimate": {"fixture": "d1", "n_particles": "2", "replicates": "3"},
    "tune": {"fixture": "d1", "target": "1.2", "replicates": "50"},
    "mcmc": {"model": "two-state", "n_obs": "4", "chain_length": "20", "pilot_length": "0"},
}
_PARITY_RESULTS = {"estimate": "estimates.csv", "tune": "tune.json", "mcmc": "trace.csv"}


@pytest.mark.parametrize(
    "command, key, value, code",
    [
        ("estimate", "seed", "0x10", 0),
        ("estimate", "seed", "010", 2),
        ("estimate", "replicates", "0x4", 0),
        ("estimate", "replicates", "many", 2),
        ("estimate", "estimator", "RECYCLE", 0),
        ("mcmc", "estimator", "exact", 0),
        ("tune", "estimator", "exact", 2),
    ],
)
def test_flag_and_config_key_accept_the_same_values(tmp_path, capsys, command, key, value, code):
    # The same value, once as a flag and once as a config key: the same
    # exit code and error line, or the same result bytes.
    base = _PARITY_BASES[command]
    flag_config = write_config(
        tmp_path, "".join(f"{k} = {v}\n" for k, v in base.items()), "flag.cfg"
    )
    key_config = write_config(
        tmp_path, "".join(f"{k} = {v}\n" for k, v in {**base, key: value}.items()), "key.cfg"
    )
    outcomes = []
    for config, extra, label in ((flag_config, [f"--{key}", value], "flag"),
                                 (key_config, [], "key")):
        out = tmp_path / label
        exit_code = run([command, "--config", config, "--out", out, *extra])
        err = capsys.readouterr().err
        result = (out / _PARITY_RESULTS[command]).read_bytes() if exit_code == 0 else None
        outcomes.append((exit_code, err, result))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == code
    if code:
        assert outcomes[0][1].startswith("error: ") and outcomes[0][1].count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [["oracle", "--replicates", "5"], ["oracle", "--estimator", "recycle"],
     ["mcmc", "--replicates", "5"]],
    ids=["oracle-replicates", "oracle-estimator", "mcmc-replicates"],
)
def test_flags_of_keys_a_command_rejects_are_not_offered(argv, tmp_path, capsys):
    # The command's config would reject the key, so argparse has no flag for it.
    with pytest.raises(SystemExit) as exit_info:
        run(argv + ["--out", tmp_path / "x"])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
@pytest.mark.parametrize("command", sorted(_ALLOWED_KEYS))
def test_seed_outside_uint64_exits_2_for_every_command(tmp_path, capsys, command, seed):
    # Checked before the command runs: oracle makes no stream that would check it.
    out = tmp_path / "x"
    assert run([command, f"--seed={seed}", "--out", out]) == 2
    assert capsys.readouterr().err == f"error: seed must fit in a uint64, got {seed}\n"
    assert not out.exists()


def test_run_without_config_uses_defaults(tmp_path, monkeypatch):
    # No --config: every key takes its default, and the output directory
    # is ``results`` in the working directory.
    monkeypatch.chdir(tmp_path)
    assert run(["estimate", "--replicates", 3]) == 0
    lines = (tmp_path / "results" / "estimates.csv").read_text().splitlines()
    assert len(lines) == 2 + 3
    summary = json.loads((tmp_path / "results" / "estimate_summary.json").read_text())
    assert summary["problem"] == "gandk" and summary["n_observations"] == 20


@pytest.mark.parametrize("chain_length", [200, 301, 5])
def test_mcmc_ess_after_burn_in_covers_the_kept_rows(tmp_path, chain_length):
    # ``ess`` covers the whole main chain; ``ess_after_burn_in`` covers the
    # rows after the first floor(chain_length / 2), which the posterior
    # means and intervals use, and is their count when there are fewer
    # than 4 of them.
    config = write_config(
        tmp_path,
        f"model = two-state\nn_obs = 6\nestimator = exact\nchain_length = {chain_length}\n"
        "pilot_length = 0\n",
    )
    out = tmp_path / "chain"
    assert run(["mcmc", "--config", config, "--seed", 4, "--out", out]) == 0
    summary = json.loads((out / "mcmc_summary.json").read_text())
    assert summary["burn_in"] == 0.5
    weights = np.loadtxt(out / "trace.csv", delimiter=",", skiprows=2)[:, 1]
    kept = weights[chain_length // 2:]
    if len(kept) >= 4:
        expected = [ess_batch_means(kept)]
        assert summary["ess"] == [ess_batch_means(weights)]
    else:
        expected = [float(len(kept))]
    assert summary["ess_after_burn_in"] == expected
    assert summary["posterior_mean"]["weight"] == pytest.approx(kept.mean(), rel=1e-12)


# ---------------------------------------------------------------------- fuzz

# Odd value texts: zero, negative, non-finite, huge and tiny numbers, and
# text that is no number at all.
_ODD = ["0", "-1", "-2.5", "nan", "inf", "-inf", "1e300", "-1e300", "1e-300", "many"]


def _floats(low, high):
    return st.floats(low, high).map(repr)


def _counts(high):
    """A valid count key; ``high`` keeps every run small."""
    return st.integers(1, high).map(str)


# A valid value per key; theta depends on the model and is drawn apart.
_VALID = {
    "seed": st.integers(0, 2**64 - 1).map(str),
    "model": st.sampled_from(["gandk", "poisson-beta", "two-state"]),
    "fixture": st.sampled_from(["d1", "d3"]),
    "n_obs": _counts(3),
    "data": st.just("obs.dat"),
    "epsilon": _floats(0.05, 3.0),
    "sigma": _floats(0.5, 50.0),
    "unit_noise": st.sampled_from(["true", "false"]),
    "estimator": st.sampled_from(["recycle", "simple", "perm", "biased", "exact"]),
    "n_particles": _counts(8),
    "replicates": st.integers(2, 5).map(str),
    "target": _floats(0.05, 10.0),
    "max_particles": st.integers(4, 64).map(str),
    "chain_length": _counts(5),
    # Long enough for a g-and-k pilot covariance after the burn-in.
    "pilot_length": st.sampled_from(["0", "10", "12"]),
    "pilot_stages": _counts(3),
    "tune_replicates": st.integers(2, 5).map(str),
}

_THETA = {
    "gandk": st.tuples(*[_floats(0.1, 9.9)] * 4),
    "poisson-beta": st.tuples(_floats(1.0, 1000.0), _floats(0.5, 10.0), _floats(0.5, 10.0)),
    "two-state": st.tuples(_floats(0.05, 0.95)),
}

# Odd values beyond _ODD for keys that take words or lists.
_ODD_WORDS = {
    "model": ["ising"],
    "fixture": ["d9"],
    "data": ["missing.dat", "odd.dat"],
    "estimator": ["warp"],
    "unit_noise": ["maybe"],
    "seed": [str(2**64), "0x10"],
    "theta": ["1, 2", "3, 1, 2, 0.5, 9", "1e300, 1, 1, 1"],
}

# Keys whose defaults make a run large; a generated config always sets
# them, to a valid small count or to an odd value that is never huge.
_SIZE_KEYS = {"replicates", "max_particles", "chain_length", "pilot_length", "tune_replicates"}
_SIZE_ODD = ["0", "-3", "2.5", "nan", "inf", "many"]
_PROBLEM = {"model", "theta", "n_obs", "data", "epsilon", "sigma", "unit_noise"}
# The keys of each model's observation law; a model takes no other's.
_LAW_KEYS = {"gandk": {"epsilon", "unit_noise"}, "poisson-beta": {"sigma"}, "two-state": set()}

_OUTPUTS = {
    "estimate": {"estimates.csv", "estimate_summary.json"},
    "oracle": {"oracle.csv"},
    "tune": {"tune.json"},
    "mcmc": {"trace.csv", "mcmc_summary.json"},
}


@st.composite
def _cli_runs(draw):
    """(command, config values, observation files) for one small run.

    Each allowed key is set to a valid value or left out; then up to two
    keys, or an unknown one, get an odd value, so about a third of the
    runs are valid ones.
    """
    command = draw(st.sampled_from(sorted(_OUTPUTS)))
    allowed = sorted(_ALLOWED_KEYS[command] - {"out"})
    values = {
        key: draw(_VALID[key])
        for key in allowed
        if key not in ("fixture", "theta", "n_obs")
        and (key in _SIZE_KEYS or draw(st.booleans()))
    }
    if command == "oracle":
        values["fixture"] = draw(st.sampled_from(["d1", "d3", "d4"]))
        if values["fixture"] == "d4" and draw(st.booleans()):
            values["n_obs"] = draw(_VALID["n_obs"])
    elif draw(st.booleans()):
        values["fixture"] = draw(_VALID["fixture"])
        for key in _PROBLEM:
            values.pop(key, None)
    else:
        model = values.get("model", "gandk")
        for key in set().union(*_LAW_KEYS.values()) - _LAW_KEYS[model]:
            values.pop(key, None)
        if "data" not in values:
            values["n_obs"] = draw(_VALID["n_obs"])
        if draw(st.booleans()):
            theta = list(draw(_THETA[model]))
            if model in ("gandk", "poisson-beta"):
                # Each entry may be odd on its own, beyond the odd tuples.
                for j in range(len(theta)):
                    if draw(st.integers(0, 3)) == 0:
                        theta[j] = draw(st.sampled_from(_ODD))
            values["theta"] = ", ".join(theta)
    if values.get("estimator") == "exact" and values.get("model") != "two-state":
        del values["estimator"]
    if command == "mcmc" and values.get("estimator") == "exact":
        # The exact chain takes no particle key.
        for key in ("n_particles", "target", "tune_replicates", "max_particles"):
            values.pop(key, None)
    for key in draw(st.lists(st.sampled_from(allowed + ["mystery"]), max_size=2, unique=True)):
        odd = _SIZE_ODD if key in _SIZE_KEYS else _ODD + _ODD_WORDS.get(key, [])
        values[key] = draw(st.sampled_from(odd))
    observations = st.lists(
        st.sampled_from(["1.5", "2", "0", "-3", "4.25"]), min_size=1, max_size=3
    )
    files = {"obs.dat": draw(observations), "odd.dat": [draw(st.sampled_from(_ODD + [""]))]}
    return command, values, files


def _csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# prodest ")
    width = len(lines[1].split(","))
    assert all(len(line.split(",")) == width for line in lines[2:])
    return len(lines) - 2


def _run_config(command, values, files=None):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        for name, lines in (files or {}).items():
            (scratch / name).write_text("".join(f"{line}\n" for line in lines))
        text = "".join(f"{key} = {value}\n" for key, value in values.items())
        config = write_config(scratch, text)
        out = scratch / "results"
        code = run([command, "--config", config, "--out", out])
        written = {path.name for path in out.iterdir()} if out.exists() else set()
        if code:
            assert code in (1, 2)
            assert not written
            return code
        assert written == _OUTPUTS[command]
        summaries = {
            name: json.loads((out / name).read_text()) for name in written if name.endswith(".json")
        }
        if command == "estimate":
            rows = summaries["estimate_summary.json"]["replicates"]
            assert _csv_rows(out / "estimates.csv") == rows
        elif command == "mcmc":
            assert _csv_rows(out / "trace.csv") == summaries["mcmc_summary.json"]["chain_length"]
        elif command == "oracle":
            assert _csv_rows(out / "oracle.csv") == 1
        return code


# Configs that once crashed, warned or ran on, with their observation
# files; the tests above check that each exits 2.
_CONFIG_ERRORS = [
    ("oracle", {"fixture": "d4", "n_obs": "0"}, None),
    ("mcmc", {"fixture": "d1"}, None),
    (
        "mcmc",
        {"model": "gandk", "theta": "3, 1, 2, 11", "n_obs": "3", "chain_length": "5",
         "pilot_length": "5", "tune_replicates": "5", "max_particles": "64"},
        None,
    ),
    ("estimate", {"model": "poisson-beta", "sigma": "1e200", "n_obs": "3", "replicates": "5"}, None),
    (
        "mcmc",
        {"model": "poisson-beta", "sigma": "1e200", "n_obs": "3", "n_particles": "8",
         "chain_length": "5", "pilot_length": "5"},
        None,
    ),
    ("estimate", {"model": "poisson-beta", "sigma": "1e-200", "n_obs": "3", "replicates": "5"}, None),
    ("estimate", {"model": "gandk", "epsilon": "1e200", "n_obs": "3", "replicates": "5"}, None),
    ("estimate", {"model": "gandk", "theta": "3, 1, 2, 1e300", "n_obs": "3", "replicates": "5"}, None),
    (
        "mcmc",
        {"model": "poisson-beta", "theta": "1e200, 2, 8", "data": "obs.dat", "n_particles": "8",
         "chain_length": "5", "pilot_length": "0"},
        {"obs.dat": ["3", "12"]},
    ),
    (
        "estimate",
        {"model": "poisson-beta", "data": "obs.dat", "n_particles": "4", "replicates": "5"},
        {"obs.dat": ["2", "1e300"]},
    ),
]


def _with_config_error_examples(test):
    for case in _CONFIG_ERRORS:
        test = example(case)(test)
    return test


@_with_config_error_examples
@given(_cli_runs())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_fuzz_exits_cleanly(case):
    # Any config either completes with every output in place or exits 1
    # or 2 with nothing left behind, temporary files included.  A numpy
    # RuntimeWarning raised inside the package is an error under the test
    # settings, so it fails here too.
    _run_config(*case)

