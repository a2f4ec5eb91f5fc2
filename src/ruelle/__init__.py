"""Transfer operators, pressures, escape rates and dimensions for topological
Markov shifts with holes."""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    ConvergenceError,
    EnumerationCapExceeded,
    NonUniqueDominantError,
    PreconditionError,
    RuelleError,
)
from .shifts import (
    Alphabet,
    Classification,
    PeriodClasses,
    QuotientDag,
    TransitionStructure,
    admissible_words,
    banded_structure,
    classify,
    from_entries,
    full_shift,
    full_truncated,
    nonempty_cylinder_words,
    period_classes,
    renewal_structure,
    scc_quotient,
)
from .potentials import (
    Potential,
    SummabilityCertificate,
    TailModel,
    constant_potential,
    cylinder_sup,
    extend_potential,
    perturbed_potential,
    potential_from_weights,
    seminorm_bracket,
    summability_certificate,
    variation,
    zero_potential,
)
from .transfer import (
    PressureReport,
    RpfTriplet,
    TransferMatrix,
    build_transfer_matrix,
    rpf_triplet,
    topological_pressure,
)
from .spectral import (
    EventuallyPeriodicPoint,
    GibbsReport,
    SpectralDecomposition,
    component_decomposition,
    gibbs_check,
    lasota_yorke_check,
    small_eigenfunction,
    spectral_decomposition,
)
from .opensystem import (
    EscapeReport,
    HoleSpec,
    MonteCarloEstimate,
    escape_rate,
    log_survivor_masses,
    monte_carlo_survival,
    open_operator,
    survivor_mass,
)
from .perturbation import (
    PerturbationConditionsReport,
    PerturbationTrace,
    eigenvector_identity_check,
    gibbs_convergence_trace,
    verify_perturbation_conditions,
)
from .applications import (
    DimensionReport,
    GifsEdge,
    GifsSpec,
    RenewalReport,
    RenewalSpec,
    bowen_dimension,
    gifs_build,
    renewal_analysis,
    renewal_potential,
)


def __getattr__(name):
    # The config layer, and jsonschema with it, loads on first use, so that
    # ``python -m ruelle.config`` executes that module once, as __main__.
    if name in ("SystemConfig", "CONFIG_SCHEMA"):
        from . import config

        return getattr(config, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
