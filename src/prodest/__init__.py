"""Unbiased estimation of products of expectations from one shared particle set.

The package has three layers: log-space Monte Carlo estimators
(``estimators``), exact finite-support oracles that verify their moment
identities (``oracle``, ``fixtures``), and applications, namely
latent-variable likelihoods and pseudo-marginal MCMC (``models``,
``mcmc``) with a command-line front end (``cli``).  Import names from
their submodule: the package itself holds only the submodules and
``__version__``.
"""

__version__ = "0.1.0"
