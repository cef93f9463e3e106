"""The public names: every name in a module's ``__all__`` exists, and every
public name of the ``spinchain`` package is in some module's ``__all__``, so a
deletion leaves neither a dangling export nor a stray re-export."""

import importlib
import pkgutil
import types

import spinchain

MODULES = [importlib.import_module(f"spinchain.{info.name}")
           for info in pkgutil.iter_modules(spinchain.__path__)]


def test_every_all_entry_resolves():
    for mod in MODULES:
        names = getattr(mod, "__all__", [])
        assert len(names) == len(set(names)), mod.__name__
        for name in names:
            assert hasattr(mod, name), (mod.__name__, name)


def test_package_names_come_from_some_all():
    owners = {name: mod for mod in MODULES for name in getattr(mod, "__all__", [])}
    public = [name for name, obj in vars(spinchain).items()
              if not name.startswith("_") and not isinstance(obj, types.ModuleType)]
    assert public
    assert [name for name in public if name not in owners] == []
    for name in public:
        assert getattr(spinchain, name) is getattr(owners[name], name), name
