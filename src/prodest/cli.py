"""Command-line front end.

Four subcommands share one plumbing layer:

* ``estimate``: replicate a product-of-expectations estimator and report
  per-replicate log estimates plus a mean / relative-variance summary.
* ``oracle``: exact targets and relative second moments for the named
  finite fixtures.
* ``tune``: double the particle count until the estimator's relative
  variance at a reference parameter reaches a target.
* ``mcmc``: pseudo-marginal random-walk Metropolis with pilot-based
  proposal tuning, writing the trace and a posterior summary.

Configuration comes from a ``key = value`` file (``#`` starts a comment);
the ``--seed``, ``--out``, ``--replicates`` and ``--estimator`` flags
override the corresponding keys.  Observation files hold one finite value
per line.  Every output file starts with a header line naming the tool
version and master seed, floats are written with 17 significant digits,
and a failed run removes whatever partial outputs it created.  Exit code
2 flags configuration or validation problems.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import DimensionError, EnumerationLimitError, PotentialValueError
from .fixtures import FIXTURES, DiscreteFixtureModel, get_fixture
from .logspace import exp_or_inf, log_mean_exp
from .mcmc import (
    ChainConfig,
    ParticleCountError,
    initial_proposal,
    relative_variance_of_logs,
    replicate_log_estimates,
    run_chain,
    tune_particle_count,
    tune_proposal,
)
from .models import (
    ESTIMATOR_KINDS,
    GandKModel,
    PoissonBetaModel,
    TwoStateLatentModel,
    log_likelihood_estimator,
)
from .oracle import (
    latent_expected_second_moment,
    latent_expected_second_moment_simple,
    moment_report,
)
from .rng import make_stream

__all__ = ["main", "ConfigError"]

# Fixed stream ids carved out of the master seed, one per role.
STREAM_ESTIMATE = 1
STREAM_TUNE = 2
STREAM_PILOT = 3
STREAM_MAIN = 4
STREAM_DATA = 11

_MODEL_DEFAULTS = {
    "gandk": ((3.0, 1.0, 2.0, 0.5), 20),
    "poisson-beta": ((500.0, 2.0, 8.0), 50),
    "two-state": ((0.5,), 10),
}

_BASE_KEYS = {"seed", "out"}
_PROBLEM_KEYS = {"model", "fixture", "theta", "n_obs", "data", "epsilon", "sigma", "unit_noise"}
_ALLOWED_KEYS = {
    "estimate": _BASE_KEYS | _PROBLEM_KEYS | {"estimator", "n_particles", "replicates"},
    "oracle": _BASE_KEYS | {"fixture", "n_particles", "block_size", "n_obs"},
    "tune": _BASE_KEYS | _PROBLEM_KEYS | {"estimator", "target", "replicates", "max_particles"},
    "mcmc": (_BASE_KEYS | _PROBLEM_KEYS | {
        "estimator", "n_particles", "chain_length", "pilot_length",
        "pilot_stages", "burn_in", "target", "tune_replicates",
        "max_particles", "proposal_scale", "rel_step", "init",
    }) - {"fixture"},
}


class ConfigError(Exception):
    """A configuration file or value could not be used."""


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` comments and blank lines are skipped."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value in {raw.strip()!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


class Settings:
    """Typed access to config values with per-command key validation."""

    def __init__(self, values: dict[str, str], command: str, base_dir: Path):
        unknown = set(values) - _ALLOWED_KEYS[command]
        if unknown:
            raise ConfigError(
                f"unknown config keys for {command!r}: {', '.join(sorted(unknown))}"
            )
        self._values = values
        self.base_dir = base_dir

    def has(self, key: str) -> bool:
        return key in self._values

    def get_str(self, key: str, default: str | None = None) -> str | None:
        return self._values.get(key, default)

    def _converted(self, key, default, convert, kind):
        raw = self._values.get(key)
        if raw is None:
            return default
        try:
            return convert(raw)
        except (TypeError, ValueError):
            raise ConfigError(f"config key {key!r} must be {kind}, got {raw!r}") from None

    def get_int(self, key: str, default=None):
        return self._converted(key, default, lambda s: int(s, 0), "an integer")

    def get_float(self, key: str, default=None):
        return self._converted(key, default, float, "a number")

    def get_bool(self, key: str, default=None):
        def convert(raw: str) -> bool:
            lowered = raw.lower()
            if lowered in ("true", "yes", "on", "1"):
                return True
            if lowered in ("false", "no", "off", "0"):
                return False
            raise ValueError(raw)

        return self._converted(key, default, convert, "a boolean")

    def get_floats(self, key: str, default=None):
        return self._converted(
            key,
            default,
            lambda s: tuple(float(part) for part in s.split(",")),
            "a comma-separated list of numbers",
        )

    def resolve_path(self, value: str) -> Path:
        path = Path(value)
        return path if path.is_absolute() else self.base_dir / path


def load_observations(path: Path) -> np.ndarray:
    """Read one observation per line; blank lines and # comments are skipped."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read observations from {path}: {exc}") from None
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            value = float(line)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: not a number: {line!r}") from None
        values.append(value)
    if not values:
        raise ConfigError(f"{path}: no observations found")
    return np.array(values)


class Workspace:
    """Output directory with tracked files so failures can clean up."""

    def __init__(self, out_dir: Path, seed: int):
        self.out_dir = Path(out_dir)
        self.seed = seed
        self.written: list[Path] = []

    def _open(self, name: str):
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        self.written.append(path)
        return path

    def write_csv(self, name: str, columns, rows) -> Path:
        path = self._open(name)
        with path.open("w") as handle:
            handle.write(f"# prodest {__version__} seed={self.seed}\n")
            handle.write(",".join(columns) + "\n")
            for row in rows:
                handle.write(",".join(_format_cell(cell) for cell in row) + "\n")
        return path

    def write_json(self, name: str, payload: dict) -> Path:
        path = self._open(name)
        body = {"tool": f"prodest {__version__}", "master_seed": self.seed}
        body.update(payload)
        with path.open("w") as handle:
            json.dump(_jsonable(body), handle, indent=2)
            handle.write("\n")
        return path

    def discard(self) -> None:
        for path in self.written:
            path.unlink(missing_ok=True)
        self.written.clear()


def _format_cell(cell) -> str:
    if isinstance(cell, (bool, np.bool_)):
        return "1" if cell else "0"
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    if isinstance(cell, (float, np.floating)):
        return format(float(cell), ".17g")
    return str(cell)


def _jsonable(value):
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(item) for item in value.tolist()]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        value = float(value)
        return value if math.isfinite(value) else format(value, "g")
    return value


def _build_problem(settings: Settings, seed: int):
    """Resolve (model, theta, data, label) from the model/fixture keys."""
    model_name = settings.get_str("model")
    fixture_name = settings.get_str("fixture")
    if model_name and fixture_name:
        raise ConfigError("give either 'model' or 'fixture', not both")
    if fixture_name:
        fixture = _get_fixture_checked(fixture_name)
        if fixture.kind != "moments":
            raise ConfigError(
                f"fixture {fixture.name!r} is a latent model; use the oracle command"
            )
        model = DiscreteFixtureModel(*fixture.build())
        if settings.has("theta") or settings.has("n_obs") or settings.has("data"):
            raise ConfigError("fixtures have no theta, n_obs or data keys")
        return model, np.zeros(0), model.factor_indices, f"fixture:{fixture.name}"
    model_name = (model_name or "gandk").lower()
    if model_name not in _MODEL_DEFAULTS:
        raise ConfigError(
            f"unknown model {model_name!r}; known models: {', '.join(sorted(_MODEL_DEFAULTS))}"
        )
    theta_default, n_obs_default = _MODEL_DEFAULTS[model_name]
    if model_name == "gandk":
        model = GandKModel(
            half_width=settings.get_float("epsilon", 0.2),
            unit_noise=settings.get_bool("unit_noise", False),
        )
    elif model_name == "poisson-beta":
        model = PoissonBetaModel(sigma=settings.get_float("sigma", 5.0))
    else:
        model = TwoStateLatentModel()
    theta = np.asarray(settings.get_floats("theta", theta_default), dtype=float)
    if theta.shape != (model.theta_dim,):
        raise ConfigError(
            f"model {model_name!r} needs {model.theta_dim} theta components, got {theta.size}"
        )
    if not np.isfinite(theta).all():
        raise ConfigError(f"theta must be finite, got {settings.get_str('theta')!r}")
    data_path = settings.get_str("data")
    if data_path is not None:
        data = load_observations(settings.resolve_path(data_path))
    else:
        n_obs = settings.get_int("n_obs", n_obs_default)
        if n_obs < 1:
            raise ConfigError(f"n_obs must be >= 1, got {n_obs}")
        data = model.simulate(theta, n_obs, make_stream(seed, STREAM_DATA))
    return model, theta, data, model_name


def _get_fixture_checked(name: str):
    try:
        return get_fixture(name)
    except KeyError as exc:
        raise ConfigError(exc.args[0]) from None


def _estimator_kind(settings: Settings, extra=()) -> str:
    kind = (settings.get_str("estimator", "recycle")).lower()
    allowed = tuple(ESTIMATOR_KINDS) + tuple(extra)
    if kind not in allowed:
        raise ConfigError(f"unknown estimator {kind!r}; expected one of {allowed}")
    return kind


def cmd_estimate(settings: Settings, workspace: Workspace, seed: int) -> None:
    model, theta, data, label = _build_problem(settings, seed)
    kind = _estimator_kind(settings)
    n_particles = settings.get_int("n_particles", int(np.asarray(data).size))
    n_replicates = settings.get_int("replicates", 1000)
    if n_replicates < 1:
        raise ConfigError(f"replicates must be >= 1, got {n_replicates}")
    estimate_fn = log_likelihood_estimator(model, data, kind, n_particles)
    rng = make_stream(seed, STREAM_ESTIMATE)
    started = time.perf_counter()
    logs = replicate_log_estimates(lambda r: estimate_fn(theta, r), n_replicates, rng)
    elapsed = time.perf_counter() - started
    workspace.write_csv(
        "estimates.csv",
        ("replicate", "log_estimate", "estimate"),
        ((i, logs[i], exp_or_inf(logs[i])) for i in range(n_replicates)),
    )
    workspace.write_json(
        "estimate_summary.json",
        {
            "command": "estimate",
            "problem": label,
            "estimator": kind,
            "n_particles": n_particles,
            "n_observations": int(np.asarray(data).size),
            "replicates": n_replicates,
            "log_mean_estimate": log_mean_exp(logs),
            "mean_estimate": exp_or_inf(log_mean_exp(logs)),
            "relative_variance": (
                relative_variance_of_logs(logs) if n_replicates >= 2 else None
            ),
            "wall_time_s": elapsed,
        },
    )


def cmd_oracle(settings: Settings, workspace: Workspace, seed: int) -> None:
    fixture = _get_fixture_checked(settings.get_str("fixture", "d1"))
    built = fixture.build()
    if fixture.kind == "moments":
        measure, potentials = built
        n_factors = potentials.n_factors
        n_particles = settings.get_int("n_particles", n_factors)
        if settings.has("block_size"):
            block_size = settings.get_int("block_size")
        else:
            block_size = n_particles // n_factors if n_particles % n_factors == 0 else None
        if settings.has("n_obs"):
            raise ConfigError(f"fixture {fixture.name!r} takes no n_obs")
        report = moment_report(measure, potentials, n_particles, block_size)
        workspace.write_csv(
            "oracle.csv",
            (
                "fixture", "n_factors", "n_particles", "block_size", "mean_product",
                "second_moment_simple", "second_moment_perm", "second_moment_recycle",
                "factor_relvars",
            ),
            [(
                fixture.name,
                report.n_factors,
                report.n_particles,
                "" if report.block_size is None else report.block_size,
                report.mean_product,
                "" if report.second_moment_simple is None else report.second_moment_simple,
                report.second_moment_perm,
                report.second_moment_recycle,
                ";".join(format(c, ".17g") for c in report.factor_relvars),
            )],
        )
        return
    lvm = built
    n_obs = settings.get_int("n_obs", 1)
    n_particles = settings.get_int("n_particles", n_obs + 1)
    if settings.has("block_size"):
        block_size = settings.get_int("block_size")
    else:
        block_size = n_particles // n_obs if n_particles % n_obs == 0 else None
    enumerated, closed_form, constant = latent_expected_second_moment(lvm, n_obs, n_particles)
    simple_closed = (
        latent_expected_second_moment_simple(lvm, n_obs, block_size)
        if block_size is not None
        else None
    )
    workspace.write_csv(
        "oracle.csv",
        (
            "fixture", "n_obs", "n_particles", "block_size", "expected_factor_relvar",
            "recycle_enumerated", "recycle_closed_form", "simple_closed_form",
        ),
        [(
            fixture.name,
            n_obs,
            n_particles,
            "" if block_size is None else block_size,
            constant,
            enumerated,
            closed_form,
            "" if simple_closed is None else simple_closed,
        )],
    )


def cmd_tune(settings: Settings, workspace: Workspace, seed: int) -> None:
    model, theta, data, label = _build_problem(settings, seed)
    kind = _estimator_kind(settings)
    target = settings.get_float("target", 2.0)
    n_replicates = settings.get_int("replicates", 200)
    max_particles = settings.get_int("max_particles", 10_000_000)
    probes: list = []
    started = time.perf_counter()
    tuned = tune_particle_count(
        model, data, theta, kind, target, n_replicates,
        make_stream(seed, STREAM_TUNE), max_particles, probes,
    )
    workspace.write_json(
        "tune.json",
        {
            "command": "tune",
            "problem": label,
            "estimator": kind,
            "target": target,
            "replicates": n_replicates,
            "n_particles": tuned,
            "probes": [
                {"n_particles": count, "relative_variance": measured}
                for count, measured in probes
            ],
            "wall_time_s": time.perf_counter() - started,
        },
    )


def cmd_mcmc(settings: Settings, workspace: Workspace, seed: int) -> None:
    model, theta, data, label = _build_problem(settings, seed)
    kind = _estimator_kind(settings, extra=("exact",))
    chain_length = settings.get_int("chain_length", 2000)
    pilot_length = settings.get_int("pilot_length", max(chain_length // 10, 200))
    pilot_stages = settings.get_int("pilot_stages", 1)
    if pilot_stages < 1:
        raise ConfigError(f"pilot_stages must be >= 1, got {pilot_stages}")
    burn_in = settings.get_float("burn_in", 0.5)
    proposal_scale = settings.get_str("proposal_scale", "literal")
    if proposal_scale not in ("literal", "squared"):
        raise ConfigError(
            f"proposal_scale must be 'literal' or 'squared', got {proposal_scale!r}"
        )
    init = settings.get_str("init", "theta")
    if init not in ("theta", "prior"):
        raise ConfigError(f"init must be 'theta' or 'prior', got {init!r}")
    prior = model.default_prior()
    started = time.perf_counter()

    if kind == "exact":
        if not hasattr(model, "exact_log_likelihood"):
            raise ConfigError(f"model {label!r} has no exact likelihood")
        estimator = lambda th, rng: model.exact_log_likelihood(th, data)
        n_particles, probes = None, []
    else:
        estimator = kind
        probes = []
        if settings.has("n_particles"):
            n_particles = settings.get_int("n_particles")
        else:
            n_particles = tune_particle_count(
                model, data, theta, kind,
                settings.get_float("target", 2.0),
                settings.get_int("tune_replicates", 200),
                make_stream(seed, STREAM_TUNE),
                settings.get_int("max_particles", 10_000_000),
                probes,
            )

    theta_init = theta if init == "theta" else None
    proposal = initial_proposal(theta, settings.get_float("rel_step", 0.05))
    pilot_summary = None
    if pilot_length > 0:
        # Each stage refines the empirical covariance of the previous one;
        # one stage started from a tight initial proposal can badly
        # underestimate the posterior spread when mixing is slow.
        pilot_summary = []
        for stage in range(pilot_stages):
            pilot = run_chain(ChainConfig(
                model=model, data=data, prior=prior, proposal=proposal,
                length=pilot_length, seed=seed, estimator=estimator,
                n_particles=n_particles, burn_in=burn_in,
                theta_init=theta_init, stream_id=STREAM_PILOT + 100 * stage,
            ))
            proposal = tune_proposal(
                pilot, burn_in, literal_scaling=(proposal_scale == "literal")
            )
            theta_init = pilot.final_state.theta
            pilot_summary.append({
                "stage": stage,
                "length": pilot_length,
                "acceptance_rate": pilot.acceptance_rate,
                "proposal_jitter": proposal.jitter,
            })
    output = run_chain(ChainConfig(
        model=model, data=data, prior=prior, proposal=proposal,
        length=chain_length, seed=seed, estimator=estimator,
        n_particles=n_particles, burn_in=burn_in,
        theta_init=theta_init, stream_id=STREAM_MAIN,
    ))
    elapsed = time.perf_counter() - started

    names = list(model.param_names)
    workspace.write_csv(
        "trace.csv",
        ["step"] + names + ["log_like", "accepted"],
        (
            (t, *output.samples[t], output.log_like_trace[t], output.accepted[t])
            for t in range(chain_length)
        ),
    )
    kept = output.samples[int(chain_length * burn_in):]
    quantiles = np.percentile(kept, [2.5, 97.5], axis=0)
    workspace.write_json(
        "mcmc_summary.json",
        {
            "command": "mcmc",
            "problem": label,
            "estimator": kind,
            "n_particles": n_particles,
            "tuning_probes": [
                {"n_particles": count, "relative_variance": measured}
                for count, measured in probes
            ],
            "chain_length": chain_length,
            "burn_in": burn_in,
            "pilot": pilot_summary,
            "acceptance_rate": output.acceptance_rate,
            "ess": output.ess,
            "posterior_mean": {
                name: float(kept[:, j].mean()) for j, name in enumerate(names)
            },
            "central95": {
                name: [float(quantiles[0, j]), float(quantiles[1, j])]
                for j, name in enumerate(names)
            },
            "wall_time_s": elapsed,
        },
    )


_COMMANDS = {
    "estimate": cmd_estimate,
    "oracle": cmd_oracle,
    "tune": cmd_tune,
    "mcmc": cmd_mcmc,
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="prodest",
        description="Estimators and MCMC for products of expectations.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "estimate": "replicate an estimator and summarize its accuracy",
        "oracle": "exact moments for the named finite fixtures",
        "tune": "find the particle count reaching a relative-variance target",
        "mcmc": "pseudo-marginal random-walk Metropolis",
    }
    for name, help_text in descriptions.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", type=Path, help="key = value configuration file")
        sub.add_argument("--seed", type=int, help="master seed (uint64)")
        sub.add_argument("--out", type=Path, help="output directory")
        sub.add_argument("--replicates", type=int, help="replicate count override")
        sub.add_argument(
            "--estimator", choices=ESTIMATOR_KINDS, help="estimator kind override"
        )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    workspace = None
    try:
        if args.config is not None:
            try:
                text = args.config.read_text()
            except OSError as exc:
                raise ConfigError(f"cannot read config {args.config}: {exc}") from None
            values = parse_config_text(text, str(args.config))
            base_dir = args.config.resolve().parent
        else:
            values, base_dir = {}, Path.cwd()
        for key in ("seed", "out", "replicates", "estimator"):
            override = getattr(args, key)
            if override is not None:
                values[key] = str(override)
        settings = Settings(values, args.command, base_dir)
        seed = settings.get_int("seed", 1)
        workspace = Workspace(Path(settings.get_str("out", "results")), seed)
        _COMMANDS[args.command](settings, workspace, seed)
        return 0
    except (ConfigError, ValueError, KeyError, DimensionError) as exc:
        if workspace is not None:
            workspace.discard()
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (EnumerationLimitError, ParticleCountError, PotentialValueError, RuntimeError) as exc:
        if workspace is not None:
            workspace.discard()
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
