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
override the corresponding keys, and a command offers only the flags of
keys it accepts.  A flag hands its text to ``Settings`` as its key would,
so both accept exactly the same values with the same errors.
Observation files hold one finite value per line.  Every output file
starts with a header line naming the tool version and master seed,
floats are written with 17 significant digits, and a failed run removes
whatever outputs it created.  Each file is written to a temporary name;
once it is complete, the old file of the final name is removed just
before the new one is renamed in, because a rename over an existing file
makes ext4 (``auto_da_alloc``) write the new data back first.  A
concurrent reader can so briefly find no file, but never a partial one;
nothing is fsynced, so crash durability is not promised.  Exit code 2
flags configuration or validation problems, and exit code 1 runtime
limits and outputs that cannot be written.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .estimators import DimensionError, simple_block_size
from .fixtures import DiscreteFixtureModel, get_fixture
from .logspace import exp_or_inf, log_mean_exp
from .mcmc import (
    BURN_IN,
    ChainConfig,
    _ess_by_coordinate,
    check_pilot_length,
    initial_proposal,
    relative_variance_of_logs,
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
from .rng import _check_u64, make_stream

__all__ = ["main", "ConfigError"]

# Fixed stream ids carved out of the master seed, one per role.
STREAM_ESTIMATE = 1
STREAM_TUNE = 2
STREAM_PILOT = 3
STREAM_MAIN = 4
STREAM_DATA = 11

# Per model: the default theta and n_obs, and the keys of its observation law.
_MODELS = {
    "gandk": ((3.0, 1.0, 2.0, 0.5), 20, {"epsilon", "unit_noise"}),
    "poisson-beta": ((500.0, 2.0, 8.0), 50, {"sigma"}),
    "two-state": ((0.5,), 10, set()),
}
_LAW_KEYS = set().union(*(law_keys for _, _, law_keys in _MODELS.values()))

_BASE_KEYS = {"seed", "out"}
_PROBLEM_KEYS = {"model", "fixture", "theta", "n_obs", "data"} | _LAW_KEYS
# The keys of particle tuning that mcmc takes beside n_particles.
_TUNING_KEYS = {"target", "tune_replicates", "max_particles"}
_ALLOWED_KEYS = {
    "estimate": _BASE_KEYS | _PROBLEM_KEYS | {"estimator", "n_particles", "replicates"},
    "oracle": _BASE_KEYS | {"fixture", "n_particles", "n_obs"},
    "tune": _BASE_KEYS | _PROBLEM_KEYS | {"estimator", "target", "replicates", "max_particles"},
    "mcmc": (_BASE_KEYS | _PROBLEM_KEYS | _TUNING_KEYS | {
        "estimator", "n_particles", "chain_length", "pilot_length", "pilot_stages",
    }) - {"fixture"},
}

# The estimator kinds of each command that takes one; an mcmc chain can
# also run on the exact likelihood.
_ESTIMATORS = {
    "estimate": ESTIMATOR_KINDS,
    "tune": ESTIMATOR_KINDS,
    "mcmc": ESTIMATOR_KINDS + ("exact",),
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
    """The one place a config value, from the file or a flag, is parsed and checked."""

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

    def get_int(self, key: str, default=None, *, low=None):
        """An integer as ``int(value, 0)`` reads it, at least ``low`` if given."""
        value = self._converted(key, default, lambda s: int(s, 0), "an integer")
        if low is not None and value < low:
            raise ConfigError(f"{key} must be >= {low}, got {value}")
        return value

    def get_float(self, key: str, default=None):
        return self._converted(key, default, float, "a number")

    def get_choice(self, key: str, default: str, choices) -> str:
        """One of ``choices``, given in any case."""
        def convert(raw: str) -> str:
            if raw.lower() not in choices:
                raise ValueError(raw)
            return raw.lower()

        return self._converted(key, default, convert, f"one of {', '.join(choices)}")

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
    """Output directory with tracked files so failures can clean up.

    Each file is written under a temporary name in the output directory.
    Once it is complete, any old file of the final name is removed and
    the temporary file renamed onto the free name, so no file under its
    final name is ever partial.  The rename never replaces a file:
    renaming over one makes ext4 (``auto_da_alloc``) write the new file's
    data back first, which costs more than the write itself on a rerun
    into the same directory.  What this gives up is that a concurrent
    reader can briefly find no file, though never a partial one.  Nothing
    is fsynced, so a crash may lose a file either way.  ``discard``
    removes the finished files and any temporary file a failed write left
    behind.  An ``OSError`` from the output path becomes a
    ``RuntimeError`` naming the file, so the run exits 1.
    """

    def __init__(self, out_dir: Path, seed: int):
        self.out_dir = Path(out_dir)
        self.seed = seed
        self.written: list[Path] = []

    def _write(self, name: str, fill) -> Path:
        """Write ``name`` by calling ``fill(handle)`` on a temporary file, then rename it."""
        path = self.out_dir / name
        partial = self.out_dir / f".{name}.{os.getpid()}.tmp"
        try:
            # The first write makes the directory, once: a run that fails
            # before it writes anything leaves no directory behind.
            if not self.written:
                self.out_dir.mkdir(parents=True, exist_ok=True)
            self.written.append(partial)
            with partial.open("w") as handle:
                fill(handle)
            path.unlink(missing_ok=True)
            os.replace(partial, path)
        except OSError as exc:
            raise RuntimeError(f"cannot write {path}: {exc.strerror or exc}") from None
        self.written.append(path)
        return path

    def write_csv(self, name: str, columns, rows) -> Path:
        def fill(handle):
            handle.write(f"# prodest {__version__} seed={self.seed}\n")
            handle.write(",".join(columns) + "\n")
            # Rows stream: an mcmc trace can have a million of them.
            handle.writelines(",".join(map(_format_cell, row)) + "\n" for row in rows)

        return self._write(name, fill)

    def write_json(self, name: str, payload: dict) -> Path:
        body = {"tool": f"prodest {__version__}", "master_seed": self.seed}
        body.update(payload)
        text = json.dumps(_jsonable(body), indent=2) + "\n"
        return self._write(name, lambda handle: handle.write(text))

    def discard(self) -> None:
        # A renamed temporary file is already gone; missing_ok covers it.
        for path in self.written:
            path.unlink(missing_ok=True)
        self.written.clear()


def _format_cell(cell) -> str:
    if cell is None:
        return ""
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


def _reject_keys(settings: Settings, keys, problem: str) -> None:
    """Exit 2 if any of ``keys``, which ``problem`` does not take, is set."""
    given = sorted(key for key in keys if settings.has(key))
    if given:
        raise ConfigError(f"{problem} takes no {', '.join(given)}")


def _build_problem(settings: Settings, seed: int):
    """Resolve (model, theta, data, label) from the model/fixture keys.

    A problem key that the chosen problem does not take is a
    ``ConfigError``: a fixture takes none, a model only the keys of its
    own observation law, and ``data`` and ``n_obs`` exclude each other.
    """
    fixture_name = settings.get_str("fixture")
    if fixture_name:
        if settings.has("model"):
            raise ConfigError("give either 'model' or 'fixture', not both")
        fixture = get_fixture(fixture_name)
        if fixture.kind != "moments":
            raise ConfigError(
                f"fixture {fixture.name!r} is a latent model; use the oracle command"
            )
        _reject_keys(settings, _PROBLEM_KEYS - {"fixture"}, f"fixture {fixture.name!r}")
        model = DiscreteFixtureModel(*fixture.build())
        return model, np.zeros(0), model.factor_indices, f"fixture:{fixture.name}"
    model_name = settings.get_choice("model", "gandk", _MODELS)
    theta_default, n_obs_default, law_keys = _MODELS[model_name]
    _reject_keys(settings, _LAW_KEYS - law_keys, f"model {model_name!r}")
    if settings.has("data") and settings.has("n_obs"):
        raise ConfigError("give either 'data' or 'n_obs', not both")
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
        n_obs = settings.get_int("n_obs", n_obs_default, low=1)
        data = model.simulate(theta, n_obs, make_stream(seed, STREAM_DATA))
    return model, theta, data, model_name


def _tune_particles(settings: Settings, model, data, theta, kind: str, seed: int,
                    replicates_key: str):
    """Tune the particle count; returns (count, probe records, target, replicates)."""
    target = settings.get_float("target", 2.0)
    n_replicates = settings.get_int(replicates_key, 200, low=2)
    max_particles = settings.get_int("max_particles", 10_000_000)
    tuned, probes = tune_particle_count(
        model, data, theta, kind, target, n_replicates,
        make_stream(seed, STREAM_TUNE), max_particles,
    )
    records = [{"n_particles": count, "relative_variance": rv} for count, rv in probes]
    return tuned, records, target, n_replicates


def cmd_estimate(settings: Settings, workspace: Workspace, seed: int) -> None:
    model, theta, data, label = _build_problem(settings, seed)
    kind = settings.get_choice("estimator", "recycle", _ESTIMATORS["estimate"])
    n_particles = settings.get_int("n_particles", int(np.asarray(data).size))
    n_replicates = settings.get_int("replicates", 1000, low=1)
    estimate_fn = log_likelihood_estimator(model, data, kind, n_particles)
    logs = estimate_fn(theta, make_stream(seed, STREAM_ESTIMATE), n_replicates)
    log_mean = log_mean_exp(logs)
    workspace.write_csv(
        "estimates.csv",
        ("replicate", "log_estimate", "estimate"),
        ((i, log, exp_or_inf(log)) for i, log in enumerate(logs.tolist())),
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
            "log_mean_estimate": log_mean,
            "mean_estimate": exp_or_inf(log_mean),
            "relative_variance": (
                relative_variance_of_logs(logs) if n_replicates >= 2 else None
            ),
        },
    )


def cmd_oracle(settings: Settings, workspace: Workspace, seed: int) -> None:
    fixture = get_fixture(settings.get_str("fixture", "d1"))
    built = fixture.build()
    if fixture.kind == "moments":
        if settings.has("n_obs"):
            raise ConfigError(f"fixture {fixture.name!r} takes no n_obs")
        measure, potentials = built
        n_particles = settings.get_int("n_particles", potentials.n_factors)
        report = moment_report(measure, potentials, n_particles)
        workspace.write_csv(
            "oracle.csv",
            (
                "fixture", "n_factors", "n_particles", "block_size", "mean_product",
                "second_moment_simple", "second_moment_perm", "second_moment_recycle",
                "factor_relvars",
            ),
            [(
                fixture.name, report.n_factors, report.n_particles, report.block_size,
                report.mean_product, report.second_moment_simple, report.second_moment_perm,
                report.second_moment_recycle,
                ";".join(format(c, ".17g") for c in report.factor_relvars),
            )],
        )
        return
    lvm, n_obs = built, settings.get_int("n_obs", 1, low=1)
    n_particles = settings.get_int("n_particles", n_obs + 1)
    enumerated, closed_form, constant = latent_expected_second_moment(lvm, n_obs, n_particles)
    try:
        block_size = simple_block_size(n_particles, n_obs)
    except DimensionError:
        block_size = simple_closed = None
    else:
        simple_closed = latent_expected_second_moment_simple(lvm, n_obs, block_size)
    workspace.write_csv(
        "oracle.csv",
        (
            "fixture", "n_obs", "n_particles", "block_size", "expected_factor_relvar",
            "recycle_enumerated", "recycle_closed_form", "simple_closed_form",
        ),
        [(
            fixture.name, n_obs, n_particles, block_size, constant,
            enumerated, closed_form, simple_closed,
        )],
    )


def cmd_tune(settings: Settings, workspace: Workspace, seed: int) -> None:
    model, theta, data, label = _build_problem(settings, seed)
    kind = settings.get_choice("estimator", "recycle", _ESTIMATORS["tune"])
    tuned, probes, target, n_replicates = _tune_particles(
        settings, model, data, theta, kind, seed, "replicates"
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
            "probes": probes,
        },
    )


def cmd_mcmc(settings: Settings, workspace: Workspace, seed: int) -> None:
    model, theta, data, label = _build_problem(settings, seed)
    kind = settings.get_choice("estimator", "recycle", _ESTIMATORS["mcmc"])
    chain_length = settings.get_int("chain_length", 2000, low=1)
    pilot_length = settings.get_int("pilot_length", max(chain_length // 10, 200), low=0)
    pilot_stages = settings.get_int("pilot_stages", 1, low=1)
    prior = model.default_prior()
    if pilot_length > 0:
        check_pilot_length(pilot_length, prior.dim)
    if prior.log_density(theta) == -math.inf:
        raise ConfigError(
            f"theta {settings.get_str('theta')!r} lies outside the prior's support, "
            "where the chain cannot start"
        )
    proposal = initial_proposal(theta)

    if kind == "exact":
        if not hasattr(model, "exact_log_likelihood"):
            raise ConfigError(f"model {label!r} has no exact likelihood")
        _reject_keys(settings, _TUNING_KEYS | {"n_particles"}, "estimator 'exact'")
        estimator = lambda th, rng: model.exact_log_likelihood(th, data)
        n_particles, probes = None, []
    else:
        estimator = kind
        if settings.has("n_particles"):
            n_particles, probes = settings.get_int("n_particles"), []
        else:
            n_particles, probes, _, _ = _tune_particles(
                settings, model, data, theta, kind, seed, "tune_replicates"
            )

    start = theta
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
                n_particles=n_particles,
                theta_init=start, stream_id=STREAM_PILOT + 100 * stage,
            ))
            proposal = tune_proposal(pilot.samples)
            start = pilot.final_state.theta
            pilot_summary.append({
                "stage": stage,
                "length": pilot_length,
                "acceptance_rate": pilot.acceptance_rate,
                "proposal_jitter": proposal.jitter,
            })
    output = run_chain(ChainConfig(
        model=model, data=data, prior=prior, proposal=proposal,
        length=chain_length, seed=seed, estimator=estimator,
        n_particles=n_particles,
        theta_init=start, stream_id=STREAM_MAIN,
    ))

    names = list(model.param_names)
    workspace.write_csv(
        "trace.csv",
        ["step"] + names + ["log_like", "accepted"],
        (
            (t, *output.samples[t], output.log_like_trace[t], output.accepted[t])
            for t in range(chain_length)
        ),
    )
    kept = output.samples[int(chain_length * BURN_IN):]
    quantiles = np.percentile(kept, [2.5, 97.5], axis=0)
    workspace.write_json(
        "mcmc_summary.json",
        {
            "command": "mcmc",
            "problem": label,
            "estimator": kind,
            "n_particles": n_particles,
            "tuning_probes": probes,
            "chain_length": chain_length,
            "burn_in": BURN_IN,
            "pilot": pilot_summary,
            "acceptance_rate": output.acceptance_rate,
            "ess": output.ess,
            "ess_after_burn_in": _ess_by_coordinate(kept),
            "posterior_mean": {
                name: float(kept[:, j].mean()) for j, name in enumerate(names)
            },
            "central95": {
                name: [float(quantiles[0, j]), float(quantiles[1, j])]
                for j, name in enumerate(names)
            },
        },
    )


_COMMANDS = {
    "estimate": cmd_estimate,
    "oracle": cmd_oracle,
    "tune": cmd_tune,
    "mcmc": cmd_mcmc,
}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and kept for the process."""
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
        sub.add_argument(
            "--config", type=Path, metavar="FILE", help="key = value configuration file"
        )
        # Overrides stay text: Settings parses them as it parses keys.
        sub.add_argument("--seed", metavar="U64", help="master seed (uint64)")
        sub.add_argument("--out", metavar="DIR", help="output directory")
        # A command offers only the overrides of keys it accepts.
        if "replicates" in _ALLOWED_KEYS[name]:
            sub.add_argument("--replicates", metavar="R", help="replicate count override")
        if "estimator" in _ALLOWED_KEYS[name]:
            sub.add_argument(
                "--estimator", metavar="KIND",
                help=f"estimator kind override: {', '.join(_ESTIMATORS[name])}",
            )
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _run(args)
        return 0
    # DimensionError and PotentialValueError subclass ValueError, so bad
    # shapes and potentials exit 2.
    except (ConfigError, ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    # Work caps, a failed estimate and an unwritable output raise a
    # RuntimeError, so they exit 1.
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args) -> None:
    """Run one command; whatever it raises, the files it wrote are removed."""
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
        override = getattr(args, key, None)
        if override is not None:
            values[key] = override
    settings = Settings(values, args.command, base_dir)
    # Checked here, not where the first stream is made: oracle makes none.
    seed = _check_u64("seed", settings.get_int("seed", 1))
    workspace = Workspace(Path(settings.get_str("out", "results")), seed)
    try:
        _COMMANDS[args.command](settings, workspace, seed)
    except BaseException:
        workspace.discard()
        raise


if __name__ == "__main__":
    sys.exit(main())
