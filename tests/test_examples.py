"""Every example imports.

Most of ``examples/`` runs in no test or CI job, and the public-name guard
(``tests/test_public_names_used.py``) counts the examples' words as uses,
so an example that imports a deleted or renamed name must fail here rather
than when someone next runs it.  Each example guards its ``main()``, so
importing it runs nothing.
"""

import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parents[1] / "examples")
                  .glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports(path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
