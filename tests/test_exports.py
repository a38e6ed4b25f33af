"""The package namespace re-exports exactly the public names of its modules."""

import importlib
import pkgutil

import newtonzeta


def test_package_all_is_union_of_module_alls():
    exported: dict[str, object] = {}
    for info in pkgutil.iter_modules(newtonzeta.__path__):
        module = importlib.import_module(f"newtonzeta.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert name not in exported, f"{name} exported by two modules"
            exported[name] = getattr(module, name)
    assert len(newtonzeta.__all__) == len(set(newtonzeta.__all__))
    assert set(newtonzeta.__all__) == set(exported)
    for name, value in exported.items():
        assert getattr(newtonzeta, name) is value
