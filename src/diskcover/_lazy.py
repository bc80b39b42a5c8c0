"""numpy, imported on first use.

`pattern`, `bounds`, `density`, `voronoi` and `render` never compute with
an array, so a process that runs only them should not pay for importing
numpy.  Every
module that needs numpy binds `np = lazy_numpy()` instead of importing
it, and the first attribute read on that module runs numpy's import.
"""

from __future__ import annotations

import importlib.util
import sys


def lazy_numpy():
    """numpy itself if it is imported, else a module that imports it on first use.

    The lazy module is entered in `sys.modules`, so a later `import numpy`
    anywhere returns the same object, loaded or not.
    """
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        import numpy  # noqa: F401 (raises the usual ModuleNotFoundError)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module
