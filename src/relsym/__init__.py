"""Exact counting of coin-change solutions and its realization as symmetric
group character theory, with relative symmetric polynomials as the
ground-truth construction.

Everything is computed in exact integer or rational arithmetic.  The main
entry points are re-exported here; the ``relsym`` console script exposes the
same computations on the command line.

Layers run on first use.  ``import relsym`` registers every library module
in ``sys.modules`` without running it; the first read of one of its
attributes runs it, once, under that module's lock, so threads that first
touch layers at the same time are safe.  A re-exported name is looked up in
its layer on its first read here and then bound in this package.
"""

import sys
from _thread import RLock
from importlib.util import find_spec, module_from_spec
from types import ModuleType

__version__ = "0.1.0"

# (public name, defining layer)
_EXPORTS = tuple(
    (name, layer)
    for layer, names in (
        ("characters", "ClassFunction character_table induced_trivial_character inner_product"
         " irreducible_character_value restricted_trivial_inner_product"),
        ("config", "limits use_limits"),
        ("denumerant", "denumerant denumerant_class_function denumerant_decomposition"
         " hook_decomposition"),
        ("dimensions", "DimensionReport dim_via_decomposition dim_via_hook_denumerant"
         " dim_via_inner_product dim_via_orbit_sum dimension_report is_nonvanishing"),
        ("errors", "ConsistencyError ResourceLimitError"),
        ("groups", "PermutationGroup"),
        ("irreducibles", "integer_irreducible_characters"),
        ("partitions", "dominates enumerate_gamma enumerate_partitions multiplicity_factorial"
         " multiplicity_partition orbit_representatives orbit_type_counts"),
        ("symmetrizer", "CharacterSpec SymmetrizedPolynomial dimension_by_character_sum"
         " dimension_by_rank norm_squared sn_character_spec symmetrize_monomial"),
        ("tableaux", "hook_lengths kostka"),
    )
    for name in names.split()
)
__all__ = tuple(name for name, _ in _EXPORTS)

# every module but cli, which imports the usual way, so that
# ``python -m relsym.cli`` does not find itself already in sys.modules
_LAYERS = ("errors", "config", "partitions", "tableaux", "characters", "denumerant",
           "linalg", "groups", "irreducibles", "symmetrizer", "dimensions")


class _Layer(ModuleType):
    """A registered layer that has not run.  The first attribute read runs
    it, under the layer's lock, and then makes it a plain module; a read
    from within that run sees the module as it stands."""

    def __getattribute__(self, attr):
        spec = object.__getattribute__(self, "__spec__")
        state = spec.loader_state
        with state["lock"]:
            if type(self) is _Layer and not state["loading"]:
                state["loading"] = True
                try:
                    spec.loader.exec_module(self)
                    self.__class__ = ModuleType
                finally:
                    state["loading"] = False
        return object.__getattribute__(self, attr)


for _name in _LAYERS:
    _spec = find_spec(f"{__name__}.{_name}")
    _spec.loader_state = {"lock": RLock(), "loading": False}
    sys.modules[_spec.name] = _module = module_from_spec(_spec)
    _module.__class__ = _Layer
    # bound as an import binds a submodule, so ``from . import config`` runs
    # nothing; but relsym.denumerant is the function, not the layer
    if _name != "denumerant":
        globals()[_name] = _module
del _name, _spec, _module


def __getattr__(name):
    for export, layer in _EXPORTS:
        if export == name:
            value = globals()[name] = getattr(sys.modules[f"{__name__}.{layer}"], name)
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
