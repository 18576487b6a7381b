"""The library's source: properties no single module's tests can see."""

import ast
from pathlib import Path

import btlab
from btlab import history

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


def _history_news(tree):
    """The calls in `tree` that allocate a History without `History.__init__`."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and node.func.attr == "__new__"
            and any(isinstance(n, ast.Name) and n.id == "History"
                    for n in (node.func.value, *node.args[:1]))]


def test_one_function_of_the_library_builds_a_history_unchecked():
    # `History.__init__` sorts, checks and matches what it is given; the one
    # function that skips it states why its callers need none of that, and a
    # second such path would skip it unexamined
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    builders = [f"{name}:{node.name}" for name, tree in trees.items()
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and _history_news(node)]
    calls = sum(len(_history_news(tree)) for tree in trees.values())
    assert builders == ["history.py:_trusted"] and calls == 1, (builders, calls)


def _genesis_reads(tree):
    return sum(isinstance(node, ast.Name) and node.id == "GENESIS_ID"
               or isinstance(node, ast.Attribute) and node.attr == "GENESIS_ID"
               for node in ast.walk(tree))


def test_one_function_of_history_judges_what_a_read_returns():
    # a History judges each read's chain when it matches operations; a decoder
    # that checked it again could word or order the same error apart
    tree = ast.parse(Path(history.__file__).read_text())
    readers = {node.name: _genesis_reads(node) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and _genesis_reads(node)}
    assert readers == {"_match_operations": _genesis_reads(tree)}, readers


def _encoder_reads(tree):
    return sum(isinstance(node, ast.Name) and node.id == "_ENCODER"
               and isinstance(node.ctx, ast.Load) for node in ast.walk(tree))


def _called_names(tree):
    """The name of every function `tree` calls, `json.dumps` as `dumps`."""
    return [getattr(node.func, "attr", getattr(node.func, "id", None))
            for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_the_encode_functions_of_history_alone_write_trace_lines():
    # every trace line comes from one encoder, in the functions that write
    # lines; a second encoder or a second reader of this one would be a
    # second encode path whose bytes no test compares with the first
    tree = ast.parse(Path(history.__file__).read_text())
    readers = {node.name: _encoder_reads(node) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and _encoder_reads(node)}
    assert set(readers) == {"_encode_lines", "_encode_columns", "_encode_lists"}, readers
    assert sum(readers.values()) == _encoder_reads(tree)
    # the library builds one encoder by hand; json.dumps builds one of its own
    # on each call, which history.py leaves to the rest of the library
    built = [f"{path.name}:{name}" for path in SOURCES
             for name in _called_names(ast.parse(path.read_text(), str(path)))
             if name == "JSONEncoder" or path.name == "history.py" and name == "dumps"]
    assert built == ["history.py:JSONEncoder"], built


def _order_index_reads(tree):
    return sum(isinstance(node, ast.Attribute) and node.attr in ("_out", "_in")
               and isinstance(node.ctx, ast.Load) for node in ast.walk(tree))


def test_program_order_alone_reads_its_indexes():
    # program order is judged in one place: a checker that read an index
    # itself could judge it apart, and the benchmark's tracing, which counts
    # `History.po` calls, would not see it
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    readers = {f"{name}:{cls.name}.{node.name}": _order_index_reads(node)
               for name, tree in trees.items() for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for node in cls.body
               if isinstance(node, ast.FunctionDef) and _order_index_reads(node)}
    assert list(readers) == ["history.py:History.po"], readers
    assert sum(readers.values()) == sum(map(_order_index_reads, trees.values()))
