"""Exact diagonal-similarity analysis of matrices and matrix semigroups.

The package decides, in exact Gaussian-rational arithmetic and with
explicit witnesses, whether matrices and finitely generated matrix
semigroups are diagonally similar to nonnegative matrices, and checks
the structural facts that make such similarities possible: pattern
decomposability, invariant polyhedral cones, projective semigroup
closures, and algebra irreducibility.
"""

import importlib
import sys

# The public names of each submodule.  Submodules load on first use, so
# a command imports only what it runs.
_EXPORTS = {
    "cones": ("Cone", "PropernessReport", "Ray", "canonical_ray", "contains",
              "dual", "extreme_rays", "is_invariant", "properness"),
    "diagsim": ("DiagonalWitness", "SignDiagonal", "conjugate",
                "diag_sim_nonneg", "simultaneous_diag_sim"),
    "exact": ("EntryClassification", "Matrix", "Scalar", "classify_entries",
              "inverse", "matrix_product", "rank", "rank_one_factor"),
    "harness": ("FixtureSummary", "SubsetReport", "TheoremReport",
                "plant_group_instance", "plant_semigroup_instance",
                "run_fixtures", "sign_search_oracle",
                "subset_invariance_oracle", "verify_group_theorem",
                "verify_semigroup_theorem"),
    "semigroup": ("Caps", "ProjectiveElement", "SemigroupClosure",
                  "XYFactorization", "algebra_dimension", "generate_closure",
                  "is_irreducible", "projective_canonical", "rank_one_ideal",
                  "xy_decomposition"),
    "spectral": ("NonConvergenceError", "SpectralResult", "is_primitive",
                 "perron"),
    "structure": ("DecompositionKind", "DecompositionReport", "PatternDigraph",
                  "classify_decomposability", "pattern_digraph",
                  "scc_condensation", "union_pattern"),
}
_SOURCES = {name: module for module, names in _EXPORTS.items()
            for name in names}
# Submodules reachable as attributes after a bare ``import matsemi``.
_SUBMODULES = frozenset(_EXPORTS) | {"io"}

__version__ = "0.1.0"

__all__ = sorted(_SOURCES)


def _submodule(name: str):
    # a loaded submodule is read from sys.modules, without the import lock
    full = f"{__name__}.{name}"
    module = sys.modules.get(full)
    return importlib.import_module(full) if module is None else module


def __getattr__(name: str):
    # Resolved on every access, never cached here: whatever the submodule
    # binds now (a test may have replaced the function) is what callers get.
    source = _SOURCES.get(name)
    if source is None:
        if name in _SUBMODULES:
            return _submodule(name)
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_submodule(source), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SOURCES))
