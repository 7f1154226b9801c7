"""Package surfaces as tables, resolved on first access (PEP 562)."""

import sys
from importlib import import_module


def surface(package, exports, modules=()):
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``.

    ``exports`` maps each submodule to the public names it defines;
    ``modules`` lists submodules that are public names themselves.  The
    first read of a name imports its submodule and caches the value in the
    package's globals, so no later read comes back here.  Submodules named
    either way resolve too, as when ``from .x import y`` bound ``x``.
    """
    home = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])
    public = sorted([*home, *modules])

    def __getattr__(name):
        if name in home:
            value = getattr(import_module(f"{package}.{home[name]}"), name)
        elif name in exports or name in modules:
            value = import_module(f"{package}.{name}")
        else:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = value
        return value

    return __getattr__, lambda: sorted({*namespace, *public}), public
