"""The public API: each module's ``__all__`` lists exactly its public
functions and classes, the package re-exports exactly those names, and the
values a caller can leave at a default are a pinned list."""

import dataclasses
import inspect

import pytest

import hardylab
from hardylab import carleson, grid, operators, outer, symbols, weights

MODULES = (grid, outer, symbols, weights, carleson, operators)

# Every defaulted parameter of a public function or method and every
# defaulted dataclass or NamedTuple field of a public class.  A new setting
# is a deliberate edit here.
SETTINGS = [
    "symbols.Symbol.analytic",
    "symbols.Symbol.log_modulus",
    "weights.parse_weight(strict)",
    "carleson.graded_boundary(octaves)",
    "carleson.graded_boundary(per_octave)",
    "carleson.pullback_graded(density_fn)",
    "carleson.pullback_graded(octaves)",
    "carleson.pullback_graded(per_octave)",
    "operators.SingularSpectrum.source",
    "operators.SingularSpectrum.floor",
    "operators.hs_norm_boundary(phi_co)",
    "operators.moment_integral(phi_co)",
]


def _short(module):
    return module.__name__.rpartition(".")[2]


def _public(module):
    return {name for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__}


def _defaulted(fn, prefix):
    return [f"{prefix}({p.name})" for p in inspect.signature(fn).parameters.values()
            if p.default is not p.empty]


def _settings(module):
    found = []
    for name in module.__all__:
        obj = getattr(module, name)
        prefix = f"{_short(module)}.{name}"
        if inspect.isfunction(obj):
            found += _defaulted(obj, prefix)
            continue
        if dataclasses.is_dataclass(obj):
            found += [f"{prefix}.{f.name}" for f in dataclasses.fields(obj)
                      if f.default is not dataclasses.MISSING
                      or f.default_factory is not dataclasses.MISSING]
        found += [f"{prefix}.{field}" for field in getattr(obj, "_field_defaults", {})]
        for attr, member in vars(obj).items():
            if not attr.startswith("_") and inspect.isfunction(member):
                found += _defaulted(member, f"{prefix}.{attr}")
    return found


@pytest.mark.parametrize("module", MODULES, ids=_short)
def test_all_lists_exactly_the_public_names(module):
    assert len(module.__all__) == len(set(module.__all__))
    assert set(module.__all__) == _public(module)


def test_package_reexports_exactly_the_module_names():
    expected = {name for module in MODULES for name in module.__all__}
    exported = {name for name, obj in vars(hardylab).items()
                if not name.startswith("_") and not inspect.ismodule(obj)}
    assert exported == expected
    assert sorted(hardylab.__all__) == sorted(expected)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(hardylab, name) is getattr(module, name)


def test_settings_census_is_pinned():
    found = [s for module in MODULES for s in _settings(module)]
    assert sorted(found) == sorted(SETTINGS)
