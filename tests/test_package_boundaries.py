"""The dependency direction between the sort pipeline and the paper face.

``repro.sort`` is the production pipeline: it may import the layers under
it (``keys``, ``table``, ``types``) and nothing the paper face is built
from; ``keys`` imports ``table``, never the reverse.  ``repro.scalar`` (the
scalar algorithm family, the reference sort and the one-value-at-a-time
key codec) sits beside it and reads the key encoding: ``sort``, ``keys``,
``engine`` and ``service`` never import it, and it never imports
``sort``.  ``repro.rows``, the paper's NSM codec, is imported by no
other module: a sort keeps its payload in columns, spilled or not.
Lazy imports inside functions count too.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import repro

PACKAGE_ROOT = Path(repro.__file__).parent

SORT_MUST_NOT_IMPORT = (
    "repro.scalar",
    "repro.simsort",
    "repro.sim",
    "repro.systems",
    "repro.bench",
    "repro.analysis",
)


def imported_modules(path: Path, root: Path = PACKAGE_ROOT) -> set[str]:
    """Every absolute module name a file under ``root`` (the ``repro``
    directory) imports, at any nesting depth."""
    package = ".".join(path.relative_to(root.parent).parent.parts)
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}" if base else parent
            # ``from repro import scalar`` imports ``repro.scalar``.
            modules.update(f"{base}.{alias.name}" for alias in node.names)
            modules.add(base)
    return modules


def within(module: str, package: str) -> bool:
    return module == package or module.startswith(package + ".")


def violations(directory: str, forbidden: tuple[str, ...]) -> list[str]:
    found = []
    for path in sorted((PACKAGE_ROOT / directory).glob("*.py")):
        for module in sorted(imported_modules(path)):
            if any(within(module, package) for package in forbidden):
                found.append(f"{path.name} imports {module}")
    return found


def test_sort_imports_nothing_from_the_paper_face():
    assert violations("sort", SORT_MUST_NOT_IMPORT) == []


def test_scalar_does_not_import_the_pipeline():
    assert violations("scalar", ("repro.sort",)) == []


@pytest.mark.parametrize("directory", ["keys", "engine", "service"])
def test_the_engine_imports_nothing_from_scalar(directory):
    assert violations(directory, ("repro.scalar",)) == []


# The one-value-at-a-time key codec and the memcmp reference live in
# ``repro.scalar``; the two wrappers only tests called are gone.  No
# engine module defines or re-exports any of them.
SCALAR_ONLY_NAMES = (
    "encode_unsigned",
    "encode_signed",
    "encode_float",
    "encode_string",
    "encode_scalar",
    "invert_bytes",
    "normalized_key_for_row",
    "_compressed_scalar_bytes",
    "void_view",
    "_row_dtype",
    "encode_fixed_column",
    "build_compressed_layout",
)


@pytest.mark.parametrize(
    "module",
    [
        "repro.keys",
        "repro.keys.compression",
        "repro.keys.encoding",
        "repro.keys.normalizer",
        "repro.sort.kernels",
    ],
)
def test_no_engine_module_carries_a_scalar_name(module):
    namespace = vars(importlib.import_module(module))
    exported = namespace.get("__all__", ())
    found = [
        name
        for name in SCALAR_ONLY_NAMES
        if name in namespace or name in exported
    ]
    assert found == []


def test_table_does_not_import_the_layers_above_it():
    # A column owns its UTF-8 form; the key encoding reads it from there.
    assert violations("table", ("repro.keys", "repro.sort", "repro.rows")) == []


def test_no_module_imports_the_nsm_codec():
    found = [
        f"{path.relative_to(PACKAGE_ROOT)} imports {module}"
        for path in sorted(PACKAGE_ROOT.rglob("*.py"))
        if path.relative_to(PACKAGE_ROOT).parts[0] != "rows"
        for module in sorted(imported_modules(path))
        if within(module, "repro.rows")
    ]
    assert found == []


@pytest.mark.parametrize(
    "source, expected",
    [
        ("import repro.scalar.radix", "repro.scalar.radix"),
        ("from repro.scalar import radix", "repro.scalar.radix"),
        ("def f():\n    from repro.sim.machine import Machine\n", "repro.sim.machine"),
        ("from ..scalar import reference", "repro.scalar.reference"),
    ],
)
def test_import_scan_sees_every_form(tmp_path, source, expected):
    # A file placed as repro/sort/probe.py: relative imports resolve
    # against repro.sort, and nested (lazy) imports are found.
    root = tmp_path / "repro"
    (root / "sort").mkdir(parents=True)
    probe = root / "sort" / "probe.py"
    probe.write_text(source)
    assert expected in imported_modules(probe, root)


# Key bytes: the engine's keys are uint64 words, packed, sorted, merged,
# rebased and decoded as words; no engine file makes key bytes anywhere.
BYTE_KEY_FUNCTIONS = {"words_to_bytes", "rebase_matrix", "normalize_keys"}
BYTE_KEY_ALLOWED: set[str] = set()


def byte_key_uses(path: Path) -> set[str]:
    """The byte-key functions a file imports or reaches as attributes."""
    names = {module.rsplit(".", 1)[-1] for module in imported_modules(path)}
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names & BYTE_KEY_FUNCTIONS


@pytest.mark.parametrize(
    "directory", ["sort", "aggregate", "window", "join", "engine"]
)
def test_the_engine_makes_no_key_bytes(directory):
    found = [
        f"{directory}/{path.name} uses {sorted(used)}"
        for path in sorted((PACKAGE_ROOT / directory).glob("*.py"))
        if (used := byte_key_uses(path))
        and f"{directory}/{path.name}" not in BYTE_KEY_ALLOWED
    ]
    assert found == []
