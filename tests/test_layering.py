"""The package's layering, read from its imports."""

import ast
from pathlib import Path

import cavitree

CORE_STEPS = {"cavity_step_general", "decision_step_general",
              "posterior_general", "round0_table"}


def _imported(tree):
    """Every name an import statement binds or reads, modules included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            yield from (alias.name.rsplit(".", 1)[-1] for alias in node.names)


def test_only_the_engine_imports_the_core_steps():
    """The core steps run only through ``CavityEngine``: no other module
    imports them, or the core module whole.  Other names of the core, such
    as ``verify``'s ``error_from_sums``, stay importable."""
    root = Path(cavitree.__file__).parent
    importers = {path.relative_to(root).as_posix()
                 for path in root.rglob("*.py")
                 if set(_imported(ast.parse(path.read_text())))
                 & (CORE_STEPS | {"core"})}
    assert importers == {"cavity/engine.py"}
