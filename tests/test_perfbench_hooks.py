"""The names perfbench's tracer rebinds, checked against the package.

`HOOKS` in perfbench/pbench/trace.py lists each (module, name) that a
traced benchmark run rebinds to a timing wrapper.  A module that calls
such a name only through another module still imports it, marked with
the comment below, so that the tracer finds it there.  When a hook is
dropped from HOOKS, the second test names the import that goes with it.
"""

import importlib
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "diskcover"
HOOK_IMPORT = re.compile(
    r"^from \.(\w+) import (\w+)  # noqa: F401 \(unused here; perfbench hooks this name\)$"
)


def _hooks() -> set[tuple[str, str]]:
    # trace.py imports the standard library alone, so it loads by path
    spec = importlib.util.spec_from_file_location(
        "_perfbench_trace", ROOT / "perfbench" / "pbench" / "trace.py"
    )
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    return {(module, name) for module, name, _ in trace.HOOKS}


def test_every_hook_resolves():
    for module, name in sorted(_hooks()):
        assert hasattr(importlib.import_module(module), name), (module, name)


def test_every_hook_only_import_names_a_hook():
    hooks = _hooks()
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            match = HOOK_IMPORT.match(line)
            if match:
                found.append((f"diskcover.{path.stem}", match.group(2), number))
            else:
                assert "perfbench hooks this name" not in line, f"{path.name}:{number}"
    assert found
    for module, name, number in found:
        assert (module, name) in hooks, f"{module}:{number} imports {name} for no hook"
