"""The library's source: properties no single module's tests can see."""

import ast
from pathlib import Path

import btlab

SOURCES = sorted(Path(btlab.__file__).resolve().parent.glob("*.py"))


def test_the_library_holds_no_assert_statement():
    # `python -O` strips assert statements, so a check written as one would
    # change what the library does under -O
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found


def test_the_library_reads_no_environment_variable():
    # a run's output is fixed by its scenario and flags; a variable read from
    # the shell would make one command print different bytes in two shells
    reads = {"environ", "getenv"}
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr in reads
             or isinstance(node, ast.Name) and node.id in reads
             or isinstance(node, ast.alias) and node.name in reads]
    assert SOURCES and not found, found
