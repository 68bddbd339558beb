"""Unbiased estimation of products of expectations from one shared particle set.

The package has three layers: log-space Monte Carlo estimators
(``estimators``), exact finite-support oracles that verify their moment
identities (``oracle``, ``fixtures``), and applications, namely
latent-variable likelihoods and pseudo-marginal MCMC (``models``,
``mcmc``) with a command-line front end (``cli``).
"""

from .estimators import (
    DimensionError,
    EnumerationLimitError,
    PotentialMatrix,
    PotentialValueError,
    estimate_biased,
    estimate_perm_exact,
    estimate_recycle,
    estimate_simple,
)
from .fixtures import FIXTURES, get_fixture
from .mcmc import (
    ChainConfig,
    ChainOutput,
    ChainState,
    ProposalSpec,
    ess_batch_means,
    pseudo_marginal_step,
    run_chain,
    tune_particle_count,
    tune_proposal,
)
from .models import (
    GandKModel,
    GandKParams,
    PoissonBetaModel,
    PoissonBetaParams,
    PriorSpec,
    TwoStateLatentModel,
    log_likelihood_estimator,
)
from .oracle import (
    DiscreteLVM,
    DiscreteMeasure,
    DiscretePotentialSet,
    MomentReport,
    estimator_distribution_exact,
    factor_relative_variances,
    latent_expected_second_moment,
    mean_product,
    moment_report,
    second_moment_perm_exact,
    second_moment_recycle_exact,
    second_moment_simple_exact,
)
from .rng import make_stream

__version__ = "0.1.0"
