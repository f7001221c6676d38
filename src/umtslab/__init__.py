"""Laboratory for unfair metrical task systems.

Implements atomic online algorithms on uniform and two-point spaces, a
combining construction for partitioned metrics, engineered compositions,
tree-metric applications (weighted caching, line), and a harness that
audits competitive guarantees against exact offline optima.
"""

from umtslab.metricspace import (
    FiniteMetric,
    Partition,
    make_line,
    make_star,
    make_uniform,
    quotient_metric,
    validate,
)
from umtslab.core import (
    ElementaryTask,
    GeneralTask,
    Umts,
    apply_task,
    flat_work_function,
    initial_work_function,
    moving_cost,
    online_step_cost,
    opt_cost,
)
from umtslab.transport import mcost_metric
from umtslab.potential import BandPotential, PotentialEstimate, estimate_potential
from umtslab.algorithms import (
    OnlineAlgorithm,
    odd_exponent,
    rho_variant,
    trivial_algorithm,
    two_stable,
    two_stable_ratio,
)
from umtslab.combiner import CombinedRun, combine, nice_beta_eta
from umtslab.portfolio import combined_algorithm, w_combined_algorithm
from umtslab.hst import (
    HstNode,
    hst_metric,
    line_algorithm,
    rhst,
    weighted_caching_algorithm,
)
from umtslab.harness import (
    AdversaryConfig,
    Run,
    audit,
    offline_opt,
    play,
    ratio_report,
)

__all__ = [
    "FiniteMetric",
    "Partition",
    "make_line",
    "make_star",
    "make_uniform",
    "quotient_metric",
    "validate",
    "ElementaryTask",
    "GeneralTask",
    "Umts",
    "apply_task",
    "flat_work_function",
    "initial_work_function",
    "moving_cost",
    "online_step_cost",
    "opt_cost",
    "mcost_metric",
    "BandPotential",
    "PotentialEstimate",
    "estimate_potential",
    "OnlineAlgorithm",
    "odd_exponent",
    "rho_variant",
    "trivial_algorithm",
    "two_stable",
    "two_stable_ratio",
    "CombinedRun",
    "combine",
    "nice_beta_eta",
    "combined_algorithm",
    "w_combined_algorithm",
    "HstNode",
    "hst_metric",
    "line_algorithm",
    "rhst",
    "weighted_caching_algorithm",
    "AdversaryConfig",
    "Run",
    "audit",
    "offline_opt",
    "play",
    "ratio_report",
]

__version__ = "0.1.0"
