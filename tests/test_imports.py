"""pfkit runs on the Python standard library alone, and its report renders
the census from the integer label engine: neither `report` nor `census`
names a public census record."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pfkit"


def absolute_imports(path):
    """The top-level module of every absolute import in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module.partition(".")[0]


def test_every_absolute_import_names_a_standard_library_module():
    sources = sorted(PACKAGE.rglob("*.py"))
    assert sources
    outside = {
        (path.name, name)
        for path in sources
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    }
    assert not outside


# The public census records, which the report's census does not build.
PUBLIC_RECORDS = {"caseB_modules", "induced_decomposition", "IrrLabel", "CaseBRecord", "InducedReport"}


def named(path):
    """Every name, attribute, imported name and string constant in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


@pytest.mark.parametrize("name", ["report.py", "census.py"])
def test_the_report_names_no_public_census_record(name):
    assert not PUBLIC_RECORDS & set(named(PACKAGE / name))
