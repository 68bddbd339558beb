#!/usr/bin/env python3
"""Reproduce the paper's two examples through the command-line front end.

For each part, ``prodest mcmc`` tunes the recycled estimator's particle
count N at theta 0 to the part's relative-variance target, refines the
proposal over pilot chains and runs the chain at N; ``prodest estimate``
then measures ``recycle`` and ``simple`` at that N.  The g-and-k part is
ABC within a +-0.2 window; the Poisson-Beta part has noisy counts whose
rate posterior has a long right tail, so its proposal is refined over
three pilot stages.  Results go to ``OUT/<part>/{chain,recycle,simple}``.
"""

import argparse
import json
import sys
from pathlib import Path

from prodest.cli import main as prodest_main

# Each part: its problem keys, and a (full, quick) pair for every setting.
PARTS = {
    "gandk": (
        {"model": "gandk", "theta": "3, 1, 2, 0.5", "epsilon": 0.2, "seed": 20260814},
        {"n_obs": (20, 5), "chain_length": (4000, 300), "pilot_length": (800, 100),
         "pilot_stages": (1, 1), "target": (2.0, 2.0), "tune_replicates": (400, 200),
         "replicates": (2000, 200)},
    ),
    "poisson_beta": (
        {"model": "poisson-beta", "theta": "500, 2, 8", "sigma": 5, "seed": 6},
        {"n_obs": (50, 10), "chain_length": (20000, 400), "pilot_length": (6000, 120),
         "pilot_stages": (3, 1), "target": (0.2, 2.0), "tune_replicates": (300, 100),
         "replicates": (2000, 200)},
    ),
}


def write_config(path: Path, keys: dict) -> str:
    path.write_text("".join(f"{key} = {value}\n" for key, value in keys.items()))
    return str(path)


def run_part(out: Path, problem: dict, settings: dict, quick: bool) -> int:
    chosen = {key: pair[quick] for key, pair in settings.items()}
    replicates = chosen.pop("replicates")
    problem = {**problem, "n_obs": chosen.pop("n_obs")}
    out.mkdir(parents=True, exist_ok=True)

    mcmc_conf = write_config(out / "mcmc.conf", {**problem, "estimator": "recycle", **chosen})
    code = prodest_main(["mcmc", "--config", mcmc_conf, "--out", str(out / "chain")])
    if code:
        return code
    chain = json.loads((out / "chain" / "mcmc_summary.json").read_text())
    n_particles = chain["n_particles"]
    # JSON summaries write a non-finite number as "inf", "-inf" or "nan".
    probes = ", ".join(f"{p['n_particles']}: {float(p['relative_variance']):.3g}"
                       for p in chain["tuning_probes"])
    print(f"{out.name}: N = {n_particles} ({n_particles // problem['n_obs']} per observation); "
          f"relative variance at each probe {probes}")
    print(f"  chain of length {chain['chain_length']}: "
          f"acceptance {chain['acceptance_rate']:.3f}")
    for name, ess in zip(chain["posterior_mean"], chain["ess"]):
        low, high = chain["central95"][name]
        print(f"  {name}: posterior mean {chain['posterior_mean'][name]:.4g}, "
              f"central 95% ({low:.4g}, {high:.4g}), ess {float(ess):.0f}")

    estimate_conf = write_config(out / "estimate.conf",
                                 {**problem, "n_particles": n_particles, "replicates": replicates})
    for kind in ("recycle", "simple"):
        code = prodest_main(["estimate", "--config", estimate_conf, "--estimator", kind,
                             "--out", str(out / kind)])
        if code:
            return code
        summary = json.loads((out / kind / "estimate_summary.json").read_text())
        print(f"  {kind:>7}: relative variance {float(summary['relative_variance']):.4g} "
              f"at N = {n_particles} ({replicates} replicates)")
    return 0


def run(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("results/reproduce"))
    parser.add_argument("--quick", action="store_true",
                        help="shrink every part for a smoke run of about a second")
    args = parser.parse_args(argv)
    for name, (problem, settings) in PARTS.items():
        code = run_part(args.out / name, problem, settings, args.quick)
        if code:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(run(sys.argv[1:]))
