"""The three benchmark workloads.

Each workload builds its inputs from the workload seed through the
package's public API and then runs numbered *units* of work.  Unit ``i``
depends only on the seed and ``i``, so any unit can be run again to check
that the program reproduces its own output.  Every workload calls the
package through module attributes (``self.mcmc.run_chain``) so that the
tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path

import numpy as np

from harness import ESTIMATE_SPAN, Unit

# Stream ids carved out of the workload seed: data simulation uses the
# same id as the command line's data stream; unit i of a workload that
# draws its own data uses UNIT_STREAM + 2i for its work and
# UNIT_STREAM + 2i + 1 for its data.
DATA_STREAM = 11
UNIT_STREAM = 1000
FLOAT_BYTES = 8


def _sha256(*arrays) -> str:
    digest = hashlib.sha256()
    for array in arrays:
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def relvar_and_se(log_estimates) -> tuple[float, float]:
    """Empirical relative variance and its delta-method standard error.

    All-zero replicates give an infinite relative variance, as in
    ``prodest.mcmc.relative_variance_of_logs``.
    """
    logs = np.asarray(log_estimates, dtype=float)
    if logs.size < 2:
        return math.nan, math.nan
    shift = logs.max()
    if shift == -math.inf:
        return math.inf, 0.0
    scaled = np.exp(logs - shift)
    first, second = scaled.mean(), (scaled**2).mean()
    gradient = np.array([-2.0 * second / first**3, 1.0 / first**2])
    covariance = np.cov(np.stack([scaled, scaled**2])) / logs.size
    return float(second / first**2 - 1.0), float(math.sqrt(gradient @ covariance @ gradient))


class Workload:
    """Shared plumbing: the estimator timing wrapper and provenance."""

    name = ""
    estimator = ""
    reference = "call"  # the harness.Reference kernel that resembles the work

    def __init__(self, prodest, seed: int, tiny: bool, work_dir: Path):
        self.models = prodest.models
        self.rng = prodest.rng
        self.seed = int(seed)

    def timed_estimate(self, attr: str, unit: Unit, record_latency: bool = True):
        """Call the estimator stored at ``self.<attr>`` and time each call."""

        def estimate(theta, rng):
            start = time.perf_counter()
            value = float(getattr(self, attr)(theta, rng))
            elapsed_ms = (time.perf_counter() - start) * 1e3
            if record_latency:
                unit.latencies_ms.append(elapsed_ms)
            unit.count_estimate(value, self.n_obs, self.n_particles)
            return value

        return estimate

    def traced_closures(self) -> list:
        """``(span, owner, attr)`` for closures the workload calls itself."""
        return []

    def provenance(self) -> dict:
        matrix_bytes = self.n_obs * self.n_particles * FLOAT_BYTES
        return {
            "n_obs": self.n_obs,
            "n_particles": self.n_particles,
            "estimator": self.estimator,
            "working_set_bytes_computed": {
                "potential_matrix": matrix_bytes,
                "latents": self.n_particles * FLOAT_BYTES,
            },
        }

    def final_checks(self, tally) -> list:
        return []


class PbChain(Workload):
    """Poisson-Beta pseudo-marginal chain at the acceptance-test operating point."""

    name = "pb-chain"
    estimator = "recycle"
    reference = "array"
    theta0 = (500.0, 2.0, 8.0)
    # Fixed Gaussian random-walk steps; no pilot or tuning, so the work
    # per unit does not depend on how earlier units went.
    step_sd = (40.0, 0.4, 1.6)

    def __init__(self, prodest, seed, tiny, work_dir):
        super().__init__(prodest, seed, tiny, work_dir)
        self.mcmc = prodest.mcmc
        self.n_obs, self.n_particles, self.steps = (10, 64, 10) if tiny else (50, 6400, 25)
        self.model = self.models.PoissonBetaModel(sigma=5.0)
        self.prior = self.model.default_prior()
        self.theta = np.array(self.theta0)
        self.proposal = self.mcmc.ProposalSpec.from_covariance(np.diag(np.square(self.step_sd)))
        self.load_data(0)  # set-up ends where the first unit's estimates begin

    def load_data(self, index: int) -> None:
        """Simulate unit ``index``'s data set and bind its estimator.

        Each unit has its own data set: the cost of an estimate depends on
        the data (through the spread of the log potentials), and a run
        that spans many data sets measures the same work on every seed.
        """
        stream = self.rng.make_stream(self.seed, UNIT_STREAM + 2 * index + 1)
        self.data = self.model.simulate(self.theta, self.n_obs, stream)
        self.closure = self.models.log_likelihood_estimator(
            self.model, self.data, "recycle", self.n_particles
        )

    def estimate_fn(self, theta, rng):
        """The current unit's estimator, at a name the tracer can wrap once."""
        return self.closure(theta, rng)

    def traced_closures(self):
        return [(ESTIMATE_SPAN, self, "estimate_fn")]

    def run_unit(self, index: int) -> Unit:
        unit = Unit()
        start = time.perf_counter()
        self.load_data(index)
        config = self.mcmc.ChainConfig(
            model=self.model, data=self.data, prior=self.prior, proposal=self.proposal,
            length=self.steps, seed=self.seed, estimator=self.timed_estimate("estimate_fn", unit),
            theta_init=self.theta, stream_id=UNIT_STREAM + 2 * index,
        )
        output = self.mcmc.run_chain(config)
        unit.timed_s = time.perf_counter() - start
        unit.steps = self.steps
        unit.accepted = int(output.accepted.sum())
        # One initial estimate per unit: Gaussian potentials never give a
        # zero estimate, so the start is accepted on the first try.
        unit.prior_rejections = self.steps - (unit.estimates - 1)
        unit.digest = _sha256(output.samples, output.log_like_trace, output.accepted)
        finite = bool(np.isfinite(output.log_like_trace).all())
        unit.check("log_like_finite", finite, f"unit {index}")
        return unit

    def final_checks(self, tally):
        steps = tally.total("steps")
        rate = tally.total("accepted") / steps if steps else 0.0
        return [("acceptance_in_open_unit_interval", 0.0 < rate < 1.0, f"rate {rate:.4f}")]


class GandkCli(Workload):
    """``prodest estimate`` for recycle then simple on g-and-k data."""

    name = "gandk-cli"
    estimator = "recycle+simple"
    theta0 = (3.0, 1.0, 2.0, 0.5)
    kinds = ("recycle", "simple")

    def __init__(self, prodest, seed, tiny, work_dir):
        super().__init__(prodest, seed, tiny, work_dir)
        self.cli = prodest.cli
        self.n_obs, self.n_particles, self.replicates = (20, 40, 4) if tiny else (20, 640, 10)
        self.check_replicates = 40 if tiny else 1000
        self.model = self.models.GandKModel(half_width=0.2)
        self.dir = work_dir / self.name
        self.dir.mkdir(parents=True, exist_ok=True)
        self.configs = {}
        for kind in self.kinds:
            config = self.dir / f"{kind}.cfg"
            config.write_text(
                "model = gandk\n"
                f"theta = {', '.join(map(str, self.theta0))}\n"
                "data = data.txt\n"
                "epsilon = 0.2\n"
                f"estimator = {kind}\n"
                f"n_particles = {self.n_particles}\n"
                f"replicates = {self.replicates}\n"
            )
            self.configs[kind] = config
        self.write_data(0)

    def write_data(self, index: int) -> None:
        """Simulate unit ``index``'s observations into the configs' data file.

        As in ``pb-chain``, each unit has its own data set: how often the
        indicator potentials vanish, and so the cost, depends on the data.
        """
        stream = self.rng.make_stream(self.seed, UNIT_STREAM + 2 * index + 1)
        data = self.model.simulate(np.array(self.theta0), self.n_obs, stream)
        (self.dir / "data.txt").write_text("".join(f"{value:.17g}\n" for value in data))

    def estimate(self, kind: str, seed: int, out: Path, replicates: int | None = None) -> int:
        argv = ["estimate", "--config", str(self.configs[kind]), "--seed", str(seed),
                "--out", str(out)]
        if replicates is not None:
            argv += ["--replicates", str(replicates)]
        return self.cli.main(argv)

    def read_logs(self, unit: Unit, kind: str, code: int, out: Path, rows: int):
        """Check one CLI call's exit code and CSV; return its log estimates."""
        unit.check(f"{kind}_exit_0", code == 0, f"{out.name} exit {code}")
        if code != 0:
            return np.zeros(0)
        table = np.loadtxt(out / "estimates.csv", delimiter=",", skiprows=2, ndmin=2)
        complete = table.shape == (rows, 3) and not np.isnan(table).any()
        unit.check(f"{kind}_csv_complete_no_nan", complete, out.name)
        return table[:, 1]

    def run_unit(self, index: int) -> Unit:
        unit = Unit()
        seed = int(np.random.SeedSequence([self.seed, index]).generate_state(1, np.uint64)[0])
        outs = {kind: self.dir / f"out-{kind}" for kind in self.kinds}
        start = time.perf_counter()
        self.write_data(index)
        codes = {kind: self.estimate(kind, seed, outs[kind]) for kind in self.kinds}
        unit.timed_s = time.perf_counter() - start
        streams = []
        for kind in self.kinds:
            logs = self.read_logs(unit, kind, codes[kind], outs[kind], self.replicates)
            for value in logs:
                unit.count_estimate(float(value), self.n_obs, self.n_particles)
            streams.append(logs)
        # The CLI runs its replicates in a batch, so one latency sample is
        # the unit's wall time spread over the estimates it made.
        if unit.estimates:
            unit.latencies_ms.append(unit.timed_s * 1e3 / unit.estimates)
        unit.digest = _sha256(*streams)
        return unit

    def final_checks(self, tally):
        """The ``test_08`` criterion, on unit 0's data with many replicates."""
        self.write_data(0)
        unit = Unit()
        stats = {}
        for kind in self.kinds:
            out = self.dir / f"check-{kind}"
            code = self.estimate(kind, self.seed, out, self.check_replicates)
            stats[kind] = relvar_and_se(
                self.read_logs(unit, kind, code, out, self.check_replicates)
            )
        (recycle, recycle_se), (simple, simple_se) = stats["recycle"], stats["simple"]
        ok = recycle <= simple + 3 * math.hypot(recycle_se, simple_se)
        return unit.checks + [(
            "recycle_relvar_within_3se_of_simple", ok,
            f"recycle {recycle:.4g} +- {recycle_se:.2g}, simple {simple:.4g} +- {simple_se:.2g}"
            f" over {self.check_replicates} replicates",
        )]


def _random_fixture(rng, oracle):
    """A small finite problem with zeros but positive factor means."""
    n_points = int(rng.integers(2, 4))
    n_factors = int(rng.integers(1, 4))
    n_particles = int(rng.integers(n_factors, 5))
    probs = rng.random(n_points) + 0.05
    probs /= probs.sum()
    values = rng.random((n_factors, n_points)) * 2.0
    values[rng.random((n_factors, n_points)) < 0.3] = 0.0
    for p in range(n_factors):
        if values[p] @ probs <= 0:
            values[p, int(np.argmax(probs))] = rng.random() + 0.1
    measure = oracle.DiscreteMeasure(tuple(range(n_points)), probs)
    return measure, oracle.DiscretePotentialSet(values), n_particles


class PermExact(Workload):
    """Enumerated ``perm`` estimates plus the exact oracle on finite fixtures."""

    name = "perm-exact"
    estimator = "perm+recycle"
    theta0 = (0.3,)
    # Per unit: perm estimates, recycle estimates, then one oracle fixture.
    perm_per_unit = 4
    recycle_per_unit = 4
    n_random_fixtures = 3
    # Two-sided z-gate on the estimator means.  At 3 SE a correct program
    # fails one check in 370; over the 40-odd seeded runs of an
    # acceptance check that is a ~10% chance of a spurious failure, so
    # the gate sits at 4 SE (one in 16,000).
    mean_gate_se = 4.0

    def __init__(self, prodest, seed, tiny, work_dir):
        super().__init__(prodest, seed, tiny, work_dir)
        self.oracle = prodest.oracle
        self.n_obs, self.n_particles = (3, 5) if tiny else (5, 10)
        # Units whose estimates feed the mean check.  A fixed window keeps
        # the check's outcome a function of the seed alone.
        self.check_units = 3 if tiny else 100
        model = self.models.TwoStateLatentModel()
        self.theta = np.array(self.theta0)
        data = model.simulate(self.theta, self.n_obs, self.rng.make_stream(self.seed, DATA_STREAM))
        self.exact = model.exact_log_likelihood(self.theta, data)
        self.perm_fn = self.models.log_likelihood_estimator(model, data, "perm", self.n_particles)
        self.recycle_fn = self.models.log_likelihood_estimator(
            model, data, "recycle", self.n_particles
        )
        self.perm_terms = math.perm(self.n_particles, self.n_obs)
        get_fixture = prodest.fixtures.get_fixture
        lvm = get_fixture("d4").build()
        self.fixtures = [
            ("d1", *get_fixture("d1").build(), 4),
            ("d3", *get_fixture("d3").build(), 4),
            ("d4", lvm.measure, self.oracle.induced_potentials(lvm, (0, 1, 1)), 5),
        ]
        fixture_rng = np.random.default_rng([self.seed, 7])
        for k in range(self.n_random_fixtures):
            self.fixtures.append((f"random{k}", *_random_fixture(fixture_rng, self.oracle)))

    def traced_closures(self):
        return [(ESTIMATE_SPAN, self, "perm_fn"), (ESTIMATE_SPAN, self, "recycle_fn")]

    def provenance(self):
        record = super().provenance()
        record["perm_terms_per_estimate"] = self.perm_terms
        record["oracle_fixtures"] = [
            {"name": name, "n_points": measure.n_points,
             "n_factors": potentials.n_factors, "n_particles": n}
            for name, measure, potentials, n in self.fixtures
        ]
        return record

    def run_unit(self, index: int) -> Unit:
        unit = Unit()
        perm = self.timed_estimate("perm_fn", unit)
        recycle = self.timed_estimate("recycle_fn", unit, record_latency=False)
        name, measure, potentials, n_particles = self.fixtures[index % len(self.fixtures)]
        start = time.perf_counter()
        rng = self.rng.make_stream(self.seed, UNIT_STREAM + index)
        perm_logs = [perm(self.theta, rng) for _ in range(self.perm_per_unit)]
        recycle_logs = [recycle(self.theta, rng) for _ in range(self.recycle_per_unit)]
        report = self.oracle.moment_report(measure, potentials, n_particles)
        exact = {
            kind: self.oracle.estimator_distribution_exact(measure, potentials, n_particles, kind)
            for kind in ("perm", "recycle")
        }
        unit.timed_s = time.perf_counter() - start
        unit.perm_terms = self.perm_per_unit * self.perm_terms
        unit.logs = {"perm": perm_logs, "recycle": recycle_logs}
        target = report.mean_product
        lattice = {"perm": report.second_moment_perm, "recycle": report.second_moment_recycle}
        for kind, (mean, raw_second) in exact.items():
            unit.check(
                f"{kind}_exact_mean_matches_target",
                abs(mean - target) <= 1e-10 * target, f"{name}: {mean!r} vs {target!r}",
            )
            second = raw_second / target**2
            unit.check(
                f"{kind}_second_moment_dual_routes_1e-10",
                abs(second - lattice[kind]) <= 1e-10 * lattice[kind],
                f"{name}: {second!r} vs {lattice[kind]!r}",
            )
        unit.digest = _sha256(
            perm_logs, recycle_logs, [target, *lattice.values()], [v for pair in exact.values() for v in pair]
        )
        return unit

    def final_checks(self, tally):
        checks = []
        for kind in ("perm", "recycle"):
            ratios = np.exp(np.asarray(tally.logs(kind, self.check_units)) - self.exact)
            mean = float(ratios.mean())
            se = float(ratios.std(ddof=1) / math.sqrt(ratios.size)) if ratios.size > 1 else math.inf
            checks.append((
                f"{kind}_mean_within_{self.mean_gate_se:g}se_of_exact",
                abs(mean - 1.0) <= self.mean_gate_se * se,
                f"mean ratio {mean:.5f} +- {se:.2g} over {ratios.size} estimates",
            ))
        return checks


WORKLOADS = {cls.name: cls for cls in (PbChain, GandkCli, PermExact)}
