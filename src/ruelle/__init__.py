"""Transfer operators, pressures, escape rates and dimensions for topological
Markov shifts with holes."""

__version__ = "0.1.0"

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

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
    HoleSpec,
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

# The three layers above need only numpy.  Every other name is read from its
# module on each access, and the first access loads the module, with scipy or
# jsonschema: a command loads only the layers it runs, and
# ``python -m ruelle.config`` executes that module once, as __main__.  Nothing
# is copied into this namespace, so ``ruelle.<name>`` is always the module's
# current attribute.
_LAZY = {
    name: module
    for module, names in {
        "transfer": (
            "PressureReport", "RpfTriplet", "TransferMatrix", "build_transfer_matrix",
            "rpf_triplet", "topological_pressure",
        ),
        "spectral": (
            "EventuallyPeriodicPoint", "GibbsReport", "SpectralDecomposition",
            "component_decomposition", "gibbs_check", "lasota_yorke_check",
            "small_eigenfunction", "spectral_decomposition",
        ),
        "opensystem": (
            "EscapeReport", "MonteCarloEstimate", "escape_rate", "log_survivor_masses",
            "monte_carlo_survival", "open_operator", "survivor_mass",
        ),
        "perturbation": (
            "PerturbationConditionsReport", "PerturbationTrace", "eigenvector_identity_check",
            "gibbs_convergence_trace", "verify_perturbation_conditions",
        ),
        "applications": (
            "DimensionReport", "GifsEdge", "GifsSpec", "RenewalReport", "RenewalSpec",
            "bowen_dimension", "gifs_build", "renewal_analysis", "renewal_potential",
        ),
        "config": ("CONFIG_SCHEMA", "SystemConfig"),
    }.items()
    for name in names
}

__all__ = sorted(
    [name for name, value in globals().items()
     if not name.startswith("_") and not isinstance(value, _ModuleType)]
    + list(_LAZY)
)


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
