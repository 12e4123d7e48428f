import ast
import importlib
import tokenize
from pathlib import Path

import waverates

MODULES = sorted(p.stem for p in Path(waverates.__file__).parent.glob("*.py")
                 if not p.stem.startswith("_"))
ROOT = Path(__file__).resolve().parent.parent


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


def _definition_lines(path):
    """Line of each module-level def and class of a module, by name."""
    return {node.name: node.lineno for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_every_listed_name_has_a_reader_outside_tests():
    # a public name earns its place by a reader in the package, a demo or the
    # benchmark; its own def/class line, its __all__ entry (a string) and the
    # package re-export do not count
    package = ROOT / "src" / "waverates"
    readers = [p for p in sorted((ROOT / "src").rglob("*.py")) if p != package / "__init__.py"]
    readers += sorted((ROOT / "demos").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    read = set()
    for path in readers:
        own = _definition_lines(path) if path.parent == package else {}
        with path.open("rb") as f:
            for tok in tokenize.tokenize(f.readline):
                if tok.type == tokenize.NAME and own.get(tok.string) != tok.start[0]:
                    read.add(tok.string)
    unread = [(stem, name) for stem in MODULES
              for name in getattr(importlib.import_module(f"waverates.{stem}"), "__all__", ())
              if name not in read]
    assert not unread
