"""Exact workbench for symmetry-breaking monotones on qubit lattices.

Every public name below, and every submodule (``asymlab.su2`` and so on),
loads its module on first use: ``import asymlab`` imports nothing else, so a
CLI subcommand pays only for the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    "errors": (
        "AsymlabError",
        "ConfigError",
        "ResourceError",
        "ValidationError",
    ),
    "lattice": ("LatticeGeometry", "distance", "lightcone_range", "neighborhood_cardinality"),
    "states": (
        "DensityMatrix",
        "StateVector",
        "ghz_state",
        "plus_state",
        "product_state",
        "random_state",
        "von_neumann_entropy",
        "zero_state",
    ),
    "circuits": (
        "BrickworkCircuit",
        "Gate",
        "KrausChannel",
        "apply_channel",
        "apply_circuit",
        "load_circuit",
        "random_brickwork",
        "save_circuit",
    ),
    "u1": (
        "AsymmetryReport",
        "ChargeDistribution",
        "charge_distribution",
        "clustering_variance_bound",
        "flat_distribution",
        "generating_function",
        "massey_bound",
        "shannon_entropy",
        "u1_asymmetry",
        "u1_twirl",
    ),
    "su2": (
        "SchurBasis",
        "SectorTable",
        "Su2AsymmetryReport",
        "build_schur_basis",
        "casimir_constraint_check",
        "sector_distribution",
        "su2_asymmetry",
        "su2_shannon_rhs",
        "su2_support_bound",
        "su2_twirl",
        "zero_transverse_rotation",
    ),
    "closedforms": (
        "ContinuousChargeDensity",
        "arcsine_density",
        "asymptotic_fit",
        "continuous_asymmetry_estimate",
        "dicke_half_charge_prob",
        "dicke_half_distribution",
        "dicke_state",
        "kink_distribution",
        "kink_state",
        "krawtchouk",
        "poisson_binomial",
    ),
    "clustering": (
        "ClusterReport",
        "connected_correlator",
        "operator_spreading_range",
        "variance_bound_check",
        "verify_cluster_property",
    ),
    "suite": ("CheckResult", "all_passed", "bound_suite", "oracle_suite"),
    "config": ("ExperimentConfig", "build_state", "config_hash", "load_config", "validate_config"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "tolerances"}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
