"""The library's source: properties no single module's tests can see."""

import ast
import random
import re
from pathlib import Path

import btlab
from btlab import checkers, history, netsim

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


def _count_calls(tree):
    return sum(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "count"
               for node in ast.walk(tree))


def test_each_direction_of_the_trace_codec_has_two_paths():
    # the writer cuts its one encoder call by `_encode_lists`' `[` count alone,
    # and the reader's fallback is `json.loads` per line: a second split rule
    # or a raw-decode fast path would be a third path no trace btlab writes takes
    tree = ast.parse(Path(history.__file__).read_text())
    raw = [node.lineno for node in ast.walk(tree)
           if "raw_decode" in (getattr(node, "id", None) or getattr(node, "attr", None)
                               or getattr(node, "name", None) or "")]
    assert not raw, raw
    counters = {node.name: _count_calls(node) for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and _count_calls(node)}
    assert counters == {"_encode_lists": _count_calls(tree)}, counters


def _percent_formats(tree):
    return sum(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mod)
               or isinstance(node, ast.Attribute) and node.attr == "__mod__"
               for node in ast.walk(tree))


def test_no_percent_template_writes_a_trace_line():
    # a line is one f-string over its encoded fields; a `%` template beside it
    # would be a second spelling of the line's keys
    tree = ast.parse(Path(history.__file__).read_text())
    writers = [node for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and _encoder_reads(node)]
    assert writers and [n.name for n in writers if _percent_formats(n)] == []
    assert not hasattr(history, "_LINE")


_SHA256_MODULES = {"_sha2", "_sha256"}


def _sha256_names(tree):
    """The nodes of `tree` naming a SHA-256 constructor or its module."""
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "sha256"
            or isinstance(node, ast.Name) and node.id == "sha256"
            or isinstance(node, ast.alias) and (node.name == "sha256"
                                                or node.name in _SHA256_MODULES)
            or isinstance(node, ast.Constant) and node.value in ({"sha256"} | _SHA256_MODULES)]


def test_one_function_of_the_oracle_names_a_sha256_constructor():
    # a tape cell is hashed with the constructor chosen once at import; a
    # second module naming one could hash cells apart from the tapes
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    namers = {f"{name}:{node.name}": len(_sha256_names(node))
              for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and _sha256_names(node)}
    assert list(namers) == ["oracle.py:_builtin_sha256"], namers
    assert sum(namers.values()) == sum(len(_sha256_names(t)) for t in trees.values())


# every method that draws from a `random.Random`; a scenario's `seed` is no draw
_RNG_METHODS = {name for name in dir(random.Random) if not name.startswith("_")} - {
    "seed", "getstate", "setstate", "VERSION"}


def _rng_draws(tree):
    return sum(isinstance(node, ast.Attribute) and node.attr in _RNG_METHODS
               for node in ast.walk(tree))


def test_the_simulator_draws_delays_in_one_place():
    # `send` draws through `_delay_drawer`, which draws what `randint` would;
    # a second draw from the run's rng would shift every later delay
    tree = ast.parse(Path(netsim.__file__).read_text())
    drawers = {node.name: _rng_draws(node) for node in tree.body
               if isinstance(node, ast.FunctionDef) and _rng_draws(node)}
    assert list(drawers) == ["_delay_drawer"] and sum(drawers.values()) == _rng_draws(tree)
    # the run's rng, the one `Random` the simulator builds, goes straight to it
    rngs = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "Random"]
    given = [node.args[0] for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_delay_drawer"]
    assert len(rngs) == 1 and given == rngs, (len(rngs), len(given))


def _own_nodes(function):
    """The nodes of `function`'s body, less those of the functions it defines."""
    todo = list(function.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _event_numberings(nodes):
    """The calls among `nodes` that build an event or count a run's events."""
    return sum(isinstance(node, ast.Call) and (
        getattr(node.func, "id", None) == "_new_event"
        or ast.unparse(node) == "len(events)") for node in nodes)


def test_the_simulator_numbers_its_events_in_one_place():
    # `History._trusted` takes a run's events unchecked, each id being its
    # position in the run; `_record` alone builds an event and reads how many
    # came before it, so a second numbering cannot give two events one id
    tree = ast.parse(Path(netsim.__file__).read_text())
    numberers = {node.name: _event_numberings(_own_nodes(node)) for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and _event_numberings(_own_nodes(node))}
    assert numberers == {"_record": 2}, numberers
    assert _event_numberings(ast.walk(tree)) == 2
    # the heap's tie order comes from one counter that no function steps itself
    nonlocals = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Nonlocal) and "counter" in node.names]
    assert not nonlocals, nonlocals
    # a run asks once who is correct, and every rule reads that one set
    run = _function(tree, "run_scenario")
    reads = [node.lineno for node in ast.walk(run)
             if isinstance(node, ast.Attribute) and node.attr == "correct"]
    asks = [node.lineno for node in ast.walk(run)
            if isinstance(node, ast.Attribute) and node.attr == "correct_set"]
    assert not reads and len(asks) == 1, (reads, asks)


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


def _function(tree, name, cls=None):
    """The function `name` defined at the top of `tree`, or in its class `cls`."""
    body = tree.body if cls is None else next(
        node.body for node in tree.body if isinstance(node, ast.ClassDef) and node.name == cls)
    return next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)


def test_restrict_alone_states_which_events_a_checker_sees():
    # a restriction keeps the operations whose invocation `restrict` kept, and
    # block validity reads its appends from the operations: a second statement
    # of the read/append rule, or a second pass over the events, could drift
    tree = ast.parse(Path(history.__file__).read_text())
    restricted = _function(tree, "restricted", cls="History")
    strings = [node.value for statement in restricted.body for node in ast.walk(statement)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert strings == [ast.get_docstring(restricted, clean=False)], strings
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_append_is_valid" not in defined
    validity = _function(ast.parse(Path(checkers.__file__).read_text()),
                         "check_block_validity")
    loops = [ast.unparse(node.iter) for node in ast.walk(validity)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert loops and not [it for it in loops if "events" in it], loops


def _message_key_parts(tree):
    """The parts of a message key built in `tree`: each `str(...args[1])`,
    the block a message names, and each tuple holding a `str(...args[0])`."""
    def is_str_of_arg(node, i):
        return re.fullmatch(rf"str\((\w+\.)?args\[{i}\]\)", ast.unparse(node)) is not None
    return sum(isinstance(node, ast.Call) and is_str_of_arg(node, 1)
               or isinstance(node, ast.Tuple) and any(is_str_of_arg(e, 0) for e in node.elts)
               for node in ast.walk(tree))


def test_one_index_states_what_a_message_is():
    # update agreement and LRC read the history's one communication index: a
    # checker that walked the events, named an event kind or built a message
    # key would state again which events are messages and what they name
    tree = ast.parse(Path(checkers.__file__).read_text())
    loops = [ast.unparse(node.iter) for node in ast.walk(tree)
             if isinstance(node, (ast.For, ast.comprehension))]
    assert loops and not [it for it in loops if re.search(r"\bevents\b", it)], loops
    kinds = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Name) and node.id == "EventKind"
             or isinstance(node, ast.Attribute) and node.attr == "EventKind"
             or isinstance(node, ast.alias) and node.name == "EventKind"]
    assert not kinds, kinds
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    defs = [(f"{name}:{node.name}", node) for name, tree in trees.items()
            for node in tree.body if isinstance(node, ast.FunctionDef)]
    defs += [(f"{name}:{cls.name}.{node.name}", node) for name, tree in trees.items()
             for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for node in cls.body if isinstance(node, ast.FunctionDef)]
    builders = {name: _message_key_parts(node) for name, node in defs
                if _message_key_parts(node)}
    assert list(builders) == ["history.py:History.messages"], builders
    assert sum(builders.values()) == sum(map(_message_key_parts, trees.values()))


def _integrate_calls(tree):
    return sum(isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "integrate"
               for node in ast.walk(tree))


def test_the_run_loop_alone_applies_a_received_block():
    # a block waits for its parent in the run's one buffer, and `run_scenario`
    # states that rule once: a replica class, or a second caller of a ledger's
    # `integrate`, would state again when a received block is applied
    assert not hasattr(netsim, "_Replica")
    tree = ast.parse(Path(netsim.__file__).read_text())
    calls = _integrate_calls(_function(tree, "run_scenario")), _integrate_calls(tree)
    assert calls == (1, 1), calls


def _window_slices(tree):
    return sum(isinstance(node, ast.Subscript) and any(
        isinstance(n, ast.Name) and n.id == "window" for n in ast.walk(node.slice))
        for node in ast.walk(tree))


def test_one_function_of_the_checkers_cuts_the_window():
    # `_split_window` alone cuts a process's reads into references and window
    # reads; a checker that sliced them again could cut the window apart, and
    # eventual prefix asks program order directly instead of cutting
    tree = ast.parse(Path(checkers.__file__).read_text())
    slicers = {node.name: _window_slices(node) for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and _window_slices(node)}
    assert list(slicers) == ["_split_window"], slicers
    assert sum(slicers.values()) == _window_slices(tree)
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "_cut" not in defined
