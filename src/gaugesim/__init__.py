"""Classical contextual probability systems with gauge-distribution collapse.

Build n-region, K-setting conditional probability tables, synthesize gauge
distributions over ignition states, run seedable collapse simulations, and
compute entanglement entropies and inequality tests.
"""

from .catalog import (
    build,
    epr_b,
    epr_b_continuous,
    epr_b_regular,
    general_bell2,
    general_bipartite2,
    ghz_xy,
    ghz_zzz,
    one_region,
    pr_box,
    quasi_super_ghz,
    singlet,
    super_ghz,
    w_xy,
    w_zzz,
)
from .collapse import (
    CollapsePlan,
    EmpiricalTable,
    find_min_steps,
    multi_step_run,
    one_step_run,
    simulate,
    simulate_continuous,
)
from .errors import (
    GaugeSimError,
    Infeasible,
    InconsistentMarginal,
    SupportTooSmall,
    ValidationError,
    WrongArity,
    ZeroProbabilityBranch,
)
from .ignition import bell_support, config_index, double_plateau
from .metrics import (
    atom_measures,
    bell_triangle_slack,
    bloch_compatibility,
    chsh,
    chsh_max,
    classify,
    entanglement_scheme,
    hamming_divergence,
    measurement_entropy,
    s2,
    s2_matrix,
    s_n,
    total_entanglement,
)
from .model import (
    Configuration,
    ProbabilitySystem,
    condition,
    is_locally_consistent,
    is_separable,
    is_totally_correlated,
    load_system,
    marginal,
    new_system,
    save_system,
)
from .solver import (
    GaugeDistribution,
    GaugeSet,
    continuous_gauge,
    epr_b_working_gauge,
    epr_regular_gauge,
    solve_all_gauges,
    solve_gauge,
    verify_consistency,
)

__version__ = "0.1.0"
