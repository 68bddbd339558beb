import json
import math

import numpy as np
import pytest

from prodest.cli import (
    ConfigError,
    Settings,
    Workspace,
    load_observations,
    main,
    parse_config_text,
)


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


def test_estimate_reproducible_bytes(tmp_path):
    config = write_config(
        tmp_path, "fixture = d1\nestimator = recycle\nn_particles = 2\n"
    )
    for label in ("a", "b"):
        assert run(
            ["estimate", "--config", config, "--seed", 33, "--out",
             tmp_path / label, "--replicates", 32]
        ) == 0
    assert (tmp_path / "a" / "estimates.csv").read_bytes() == (
        tmp_path / "b" / "estimates.csv"
    ).read_bytes()


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
    assert "error:" in capsys.readouterr().err


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


def test_mcmc_exact_estimator_and_determinism(tmp_path):
    config = write_config(
        tmp_path,
        "model = two-state\ntheta = 0.6\nn_obs = 8\nestimator = exact\n"
        "chain_length = 200\npilot_length = 0\n",
    )
    traces = []
    for label in ("a", "b"):
        out = tmp_path / label
        assert run(["mcmc", "--config", config, "--seed", 11, "--out", out]) == 0
        traces.append((out / "trace.csv").read_bytes())
    assert traces[0] == traces[1]
    summary = json.loads((tmp_path / "a" / "mcmc_summary.json").read_text())
    assert summary["n_particles"] is None
    assert summary["pilot"] is None


# -------------------------------------------------------------------- errors


@pytest.mark.parametrize(
    "text",
    [
        "fixture = d1\nmodel = gandk\n",                     # both sources
        "fixture = d1\ntheta = 0.5\n",                       # fixture with theta
        "fixture = d4\n",                                    # latent fixture
        "fixture = d1\nestimator = warp\n",                  # unknown estimator
        "fixture = d1\nchain_length = 100\n",                # key from another command
    ],
)
def test_estimate_config_errors_exit_2(tmp_path, capsys, text):
    config = write_config(tmp_path, text)
    out = tmp_path / "results"
    assert run(["estimate", "--config", config, "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_estimate_indivisible_simple_blocks_exit_2(tmp_path, capsys):
    config = write_config(
        tmp_path, "fixture = d1\nestimator = simple\nn_particles = 3\n"
    )
    out = tmp_path / "results"
    assert run(["estimate", "--config", config, "--out", out,
                "--replicates", 4]) == 2
    capsys.readouterr()
    assert not out.exists() or not list(out.iterdir())


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("where", ["data", "theta"])
@pytest.mark.parametrize("model", ["gandk", "poisson-beta"])
def test_estimate_non_finite_input_exits_2(tmp_path, capsys, model, where, bad):
    observations = ["1.5", "2.5", "3.5"]
    theta = {"gandk": ["3", "1", "2", "0.5"], "poisson-beta": ["500", "2", "8"]}[model]
    if where == "data":
        observations[1] = bad
    else:
        theta[0] = bad
    (tmp_path / "obs.dat").write_text("\n".join(observations) + "\n")
    config = write_config(
        tmp_path,
        f"model = {model}\ntheta = {', '.join(theta)}\ndata = obs.dat\nn_particles = 6\n",
    )
    out = tmp_path / "results"
    assert run(["estimate", "--config", config, "--out", out,
                "--replicates", 4]) == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists() or not list(out.iterdir())


def test_missing_config_file_exits_2(tmp_path, capsys):
    assert run(["estimate", "--config", tmp_path / "nope.cfg",
                "--out", tmp_path / "x"]) == 2
    assert "error:" in capsys.readouterr().err


def test_mcmc_exact_flag_is_config_only(tmp_path, capsys):
    config = write_config(
        tmp_path, "model = two-state\nn_obs = 4\nchain_length = 50\n"
    )
    with pytest.raises(SystemExit):
        run(["mcmc", "--config", config, "--estimator", "exact",
             "--out", tmp_path / "x"])
    assert "invalid choice" in capsys.readouterr().err
