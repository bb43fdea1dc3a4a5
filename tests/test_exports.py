import importlib
import pkgutil

import hyperx


def test_every_export_resolves():
    """Each name in a hyperx module's ``__all__`` exists, so deleting a name
    cannot leave a stale export behind."""
    modules = [hyperx] + [importlib.import_module(f"hyperx.{m.name}") for m in pkgutil.iter_modules(hyperx.__path__)]
    missing = [f"{m.__name__}.{name}" for m in modules for name in getattr(m, "__all__", ()) if not hasattr(m, name)]
    assert len(modules) > 2 and not missing, missing
