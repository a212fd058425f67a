"""Public-API surface tests: everything __all__ promises must import.

Every package exports its names lazily (PEP 562): the contract below is
that the lazy surface behaves exactly like the eager one did.
"""

import importlib
import re

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.noc",
    "repro.topology",
    "repro.traffic",
    "repro.power",
    "repro.thermal",
    "repro.timing",
    "repro.cache",
    "repro.experiments",
    "repro.telemetry",
    "repro.resilience",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_exports_resolve(package):
    module = importlib.import_module(package)
    assert hasattr(module, "__all__"), f"{package} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{package}.{name} missing"


@pytest.mark.parametrize("package", PACKAGES)
def test_exports_are_the_defining_modules_objects(package):
    module = importlib.import_module(package)
    for name in module.__all__:
        if name not in module._EXPORTS:  # defined in the package itself
            assert name in vars(module), f"{package}.{name}"
            continue
        defining = importlib.import_module(module._EXPORTS[name], package)
        value = getattr(module, name)
        assert vars(defining)[name] is value, f"{package}.{name}"
        if callable(value):
            assert value.__module__ == defining.__name__, f"{package}.{name}"


@pytest.mark.parametrize("package", PACKAGES)
def test_dir_lists_every_export(package):
    module = importlib.import_module(package)
    assert set(module.__all__) <= set(dir(module))


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error_naming_the_package(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        getattr(module, "no_such_export")


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), f"{package}.{name}"


def test_from_package_import_submodule():
    from repro.power import technology

    assert technology is importlib.import_module("repro.power.technology")


def test_top_level_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_convenience_simulate_smoke():
    import repro

    config = repro.make_architecture(repro.Architecture.MIRA_3DM)
    settings = repro.ExperimentSettings(
        warmup_cycles=50, measure_cycles=300, drain_cycles=2000,
        uniform_rates=(0.05,), nuca_rates=(0.05,), trace_cycles=1000,
        workloads=("tpcw",), seed=1,
    )
    result = repro.simulate(config, flit_rate=0.05, settings=settings)
    assert result.avg_latency > 0


def test_no_all_entry_is_private():
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            if name == "__version__":
                continue  # conventional dunder export
            assert not name.startswith("_"), f"{package}.{name}"


def test_docstrings_on_public_modules():
    for package in PACKAGES:
        module = importlib.import_module(package)
        assert module.__doc__ and len(module.__doc__) > 40, package
