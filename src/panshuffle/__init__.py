"""Tools for studying what privacy architectures can distinguish.

The package builds parity-tilted distribution families over the sign
hypercube, measures how far any bounded test function can separate a family
from its mixture, runs mechanisms in the local, shuffle, and online
(state-observed) trust models with exact distribution propagation and privacy
audits, and wires the reductions that transfer hardness between those models.
A deterministic experiment harness and a CLI sit on top.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .errors import GuardError
from .rng import as_generator, derive_seed, gaussian, laplace, make_generator
from .distributions import (
    FiniteDistribution,
    ParametricHardDistribution,
    ParityIndex,
    binom_sum,
    densify,
    family_enumerate,
    family_size,
    fourier_spectrum,
    from_descriptor,
    member_descriptor,
    pmf_eval,
    sample,
    uniform_hypercube,
)
from .metrics import (
    NormReport,
    hockey_stick,
    infty_to_2_norm_bruteforce,
    kl_divergence,
    mutual_information,
    parity_family_norm_bound_sq,
    tv_distance,
)
from .mechanisms import (
    Analyzer,
    PanPrivateAlgorithm,
    PrivacyBudget,
    Randomizer,
    ShuffleProtocol,
    binary_randomized_response,
    quantization_slack,
    quantized_laplace_counter,
    run_pan,
    run_shuffle,
)
from .exact import (
    AuditCurve,
    HybridReport,
    audit_privacy,
    exact_output_distribution,
    hybrid_tv_certificate,
)
from .reductions import (
    LearnerDistinguisher,
    PlantedLearner,
    PlugInParityLearner,
    ShuffleToPanWrapper,
    ThresholdReport,
    threshold_distinguisher,
    wrapper_escape_mass,
)
from .baselines import (
    CalibratedRR,
    ProblemInstance,
    calibrate_rr,
    empirical_means,
    find_selection_threshold,
    plug_in_solve,
    private_means,
    selection_success_fast,
)
from .harness import ExperimentSpec, RunResult, fit_scaling, run_spec

__all__ = [
    "__version__",
    "GuardError",
    "as_generator",
    "derive_seed",
    "gaussian",
    "laplace",
    "make_generator",
    "FiniteDistribution",
    "ParametricHardDistribution",
    "ParityIndex",
    "binom_sum",
    "densify",
    "family_enumerate",
    "family_size",
    "fourier_spectrum",
    "from_descriptor",
    "member_descriptor",
    "pmf_eval",
    "sample",
    "uniform_hypercube",
    "NormReport",
    "hockey_stick",
    "infty_to_2_norm_bruteforce",
    "kl_divergence",
    "mutual_information",
    "parity_family_norm_bound_sq",
    "tv_distance",
    "Analyzer",
    "PanPrivateAlgorithm",
    "PrivacyBudget",
    "Randomizer",
    "ShuffleProtocol",
    "binary_randomized_response",
    "quantization_slack",
    "quantized_laplace_counter",
    "run_pan",
    "run_shuffle",
    "AuditCurve",
    "HybridReport",
    "audit_privacy",
    "exact_output_distribution",
    "hybrid_tv_certificate",
    "LearnerDistinguisher",
    "PlantedLearner",
    "PlugInParityLearner",
    "ShuffleToPanWrapper",
    "ThresholdReport",
    "threshold_distinguisher",
    "wrapper_escape_mass",
    "CalibratedRR",
    "ProblemInstance",
    "calibrate_rr",
    "empirical_means",
    "find_selection_threshold",
    "plug_in_solve",
    "private_means",
    "selection_success_fast",
    "ExperimentSpec",
    "RunResult",
    "fit_scaling",
    "run_spec",
]
