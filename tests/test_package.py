import ast
import importlib
from pathlib import Path

import waverates

MODULES = sorted(p.stem for p in Path(waverates.__file__).parent.glob("*.py")
                 if not p.stem.startswith("_"))


def test_package_imports_only_listed_names():
    tree = ast.parse(Path(waverates.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        assert name in importlib.import_module(f"waverates.{module}").__all__, (module, name)


def test_every_listed_name_exists():
    for stem in MODULES:
        module = importlib.import_module(f"waverates.{stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (stem, name)
