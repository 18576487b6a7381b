"""History.to_jsonl and History.from_jsonl agree with the reference codec.

The reference encodes one event per json.dumps call and decodes one line per
json.loads call. Encoding must give the same bytes on any history, including
strings that hold quotes, braces, brackets, newlines, non-ASCII text or the
literal boundaries `},{"args":` and `],[`, and nested values in `args` or
`returned`: nested objects take to_jsonl's column-by-column path, and a
nested list or a `[` inside a string sends it down its event-by-event path.
Every trace btlab writes takes the column path. A history and its
restriction share a line memo (a run's two traces do too): both traces must
give the same bytes whichever is written first, or alone, and each event
must reach the encoder at most once. Decoding must give the same events, or
fail with the same error message, on valid and mutated traces, and every
trace btlab writes must decode in one decoder call.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import reference_checkers as reference  # noqa: E402
from btlab import history as history_module  # noqa: E402
from btlab.cli import main  # noqa: E402
from btlab.history import TRACE_FIELDS, Event, EventKind, History, make_event  # noqa: E402
from btlab.netsim import preset, preset_names, run_scenario, scenario_from_dict  # noqa: E402
from test_golden import GENERATED  # noqa: E402

INV, RSP, SEND = EventKind.INVOCATION, EventKind.RESPONSE, EventKind.SEND

TRICKY = ['},{"args":', '}\n{"args":', '"', "\\", "{", "}", "\n", "\r\n", "é", "✓",
          " ", "args", ""]
texts = st.one_of(st.text(max_size=8), st.sampled_from(TRICKY),
                  st.lists(st.sampled_from(TRICKY) | st.text(max_size=2),
                           max_size=4).map("".join))
scalars = st.none() | st.booleans() | st.integers() | st.floats() | texts
values = st.recursive(
    scalars,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.sampled_from(["args", "event_id"]) | texts,
                                     inner, max_size=3)),
    max_leaves=6)
flat = st.lists(st.sampled_from(["b0", "a", "x0"]) | texts, max_size=4)
# a History refuses a read whose chain starts anywhere but at genesis b0
chains = st.just([]) | flat.map(lambda blocks: ["b0", *blocks])


@st.composite
def histories(draw, nested=True):
    """Random events; every response follows an invocation of its own."""
    value = values if nested else (st.none() | flat | scalars)
    events = []
    for i in range(draw(st.integers(0, 6))):
        process = draw(st.sampled_from(["p", "q"]) | texts)
        op = draw(st.sampled_from(["read", "append", "send"]) | texts)
        t = draw(st.integers(0, 6))
        kind = draw(st.sampled_from([INV, EventKind.SEND, EventKind.RECEIVE,
                                     EventKind.UPDATE]))
        args = draw(st.lists(value, max_size=3))
        events.append(make_event(2 * i, kind, op, args, process, t, draw(value)))
        if kind is INV and draw(st.booleans()):
            returned = draw(chains) if op == "read" else draw(value)
            events.append(make_event(2 * i + 1, RSP, op, draw(st.lists(value, max_size=2)),
                                     process, t + draw(st.integers(0, 2)), returned))
    return History(events)


# -- encoding ---------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(h=histories())
def test_to_jsonl_matches_per_event_encoding(h):
    assert h.to_jsonl() == reference.to_jsonl(h)


@pytest.mark.parametrize("args, returned", [
    ([{"x": 1}, {"args": 2}], None),                 # nested boundary text in args
    ([], [{"b": 1}, {"args": [], "z": 0}]),          # ... and in returned
    (['},{"args":', '"}\n{"args":'], '},{"args":'),  # the same text inside strings
])
def test_to_jsonl_matches_on_boundary_look_alikes(args, returned):
    h = History([make_event(0, INV, "append", args, "p", 0, returned),
                 make_event(1, EventKind.SEND, "send", args, "p", 1, returned),
                 make_event(2, INV, "read", (), "q", 1)])
    text = h.to_jsonl()
    assert text == reference.to_jsonl(h)
    assert len(text.splitlines()) == 3


CONSUME = [make_event(0, INV, "consume_token", ["x"], "p", 0)]
COLUMN_CASES = {               # name -> (events, encoded column by column)
    "bracket-in-args": ([make_event(0, INV, "append", ["x[", "b0", True], "p", 0)], False),
    "bracket-in-chain": ([make_event(0, INV, "read", (), "p", 0),
                          make_event(1, RSP, "read", (), "p", 0, ["b0", "x["])], False),
    "list-in-args": ([make_event(0, SEND, "send", ["b0", ["x"]], "p", 0)], False),
    "tuple-in-returned": (CONSUME + [make_event(1, RSP, "consume_token", ["x"], "p", 0,
                                                ("b0", ("x",)))], False),
    "dicts": ([make_event(0, SEND, "send", [{"b": 1, "a": "}{"}, "]"], "p", 0,
                          {"z": None, "a": {"y": "],"}})], True),
    "bool-event-id": ([make_event(True, INV, "read", (), "p", 0)], False),
    "bool-event-id-among-ints": ([make_event(False, INV, "read", (), "p", 0),
                                  make_event(1, RSP, "read", (), "p", 0, ())], False),
    # the integers an f-string writes on the column path
    "event-id-0": ([make_event(0, INV, "read", (), "p", 3)], True),
    "event-id-2**70": ([make_event(2**70, INV, "read", (), "p", 0)], True),
    "negative-logical-time": ([make_event(0, INV, "read", (), "p", -5),
                               make_event(1, INV, "read", (), "q", -1)], True),
    "bool-logical-time": ([make_event(0, INV, "read", (), "p", False)], False),
    "int-op": ([make_event(0, INV, 5, (), "p", 0)], False),
    "int-process": ([make_event(0, INV, "read", (), 5, 0)], False),
    "string-args": ([Event(0, INV, "read", "[x", "p", 0)], False),   # written as a list
    "empty-args-first": ([make_event(0, INV, "read", (), "p", 0),
                          make_event(1, SEND, "send", ["b0", "x"], "p", 1)], True),
    "empty-args-last": ([make_event(0, SEND, "send", ["b0", "x"], "p", 0),
                         make_event(1, INV, "read", (), "p", 1)], True),
    "empty-args-alone": ([make_event(0, INV, "read", (), "p", 0)], True),
    "empty-returned": (CONSUME + [make_event(1, RSP, "consume_token", ["x"], "p", 0, ())],
                       True),
    "comma-in-returned": (CONSUME + [make_event(1, RSP, "consume_token", ["x"], "p", 0,
                                                "a,b")], True),
    "bracket-in-returned": (CONSUME + [make_event(1, RSP, "consume_token", ["x"], "p", 0,
                                                  "x[")], False),
}


@pytest.mark.parametrize("name", COLUMN_CASES)
def test_to_jsonl_matches_whichever_path_encodes_it(name):
    events, by_columns = COLUMN_CASES[name]
    h = History(events)
    assert h.to_jsonl() == reference.to_jsonl(h)
    assert (history_module._encode_columns(h.events) is not None) is by_columns


@pytest.mark.parametrize("returned, one_call", [
    ([3, True, False, 2.5, "x", {"k": 1}, -1], True),
    ([3, "a,b", 4], True),              # a `,` inside a value
    ([{"a": 1, "b": 2}], True),         # ... and inside a dict
    ([{"k": {"j": "],"}}], True),       # a dict inside a dict
    (["", 0], True),
    ([3, "x[", 4], False),              # a `[` inside a string
    ([{"k": [1]}], False),              # a list inside a dict
    ([("b0", ("x",))], False),          # ... and inside a tuple
])
def test_every_args_and_returned_is_encoded_in_one_call(monkeypatch, returned, one_call):
    events = [make_event(i, SEND, "send", ["b0", f"x{i}"], "p", i, r)
              for i, r in enumerate(returned)]
    events += [make_event(len(events), INV, "read", (), "q", 0),
               make_event(len(events) + 1, RSP, "read", (), "q", 0, ["b0", "x0"])]
    h = History(events)
    encoded = []

    class Recording(json.JSONEncoder):
        def encode(self, o):
            encoded.append(o)
            return super().encode(o)
    monkeypatch.setattr(history_module, "_ENCODER",
                        Recording(sort_keys=True, separators=(",", ":")))
    assert h.to_jsonl() == reference.to_jsonl(h)
    # one call over every args, then every non-null returned, a chain as it
    # is and any other value in a 1-tuple; refused, each event on its own
    values = [e.returned for e in h.events if e.returned is not None]
    assert [o for o in encoded if type(o) is list] == [
        [e.args for e in h.events] + [r if type(r) is tuple else (r,) for r in values]]
    assert len([o for o in encoded if type(o) is dict]) == (0 if one_call else len(h.events))


FORKED = {                       # 4 prodigal processes at merit 0.02: forks
    "version": 1, "name": "forked", "duration": 150, "seed": 5,
    "processes": [{"id": f"p{i}", "merit": 0.02, "block_interval": 10,
                   "read_interval": 7} for i in range(4)],
    "oracle": {"capacity": None, "seed": 5},
}


@pytest.mark.parametrize("doc", [preset(name).to_dict() for name in preset_names()]
                         + list(GENERATED.values()) + [FORKED], ids=lambda doc: doc["name"])
def test_every_trace_btlab_writes_encodes_column_by_column(doc):
    run = run_scenario(scenario_from_dict(doc))
    for h in (run.history, run.full_history):
        lines = history_module._encode_columns(h.events)
        assert lines is not None
        assert "".join(line + "\n" for line in lines) == reference.to_jsonl(h)


def test_to_jsonl_of_the_empty_history_is_empty():
    assert History([]).to_jsonl() == reference.to_jsonl(History([])) == ""


# -- decoding ---------------------------------------------------------------------


def outcome(parse, text):
    try:
        return ("ok", repr(parse(text).events))
    except Exception as exc:         # both sides must fail the same way, too
        return ("raises", type(exc), str(exc))


EXTRA = [" x", "}", "\t1", "{}", ",", " ]", "  "]
FIELD_VALUES = (st.sampled_from(["invocation", "response", "read", "banana", "b0",
                                 ["b0", "a"], ["b0", 1], True, 1.5, -3])
                | values)


@st.composite
def mutated_traces(draw):
    lines = reference.to_jsonl(draw(histories(nested=False))).splitlines()
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            lines.append(draw(texts))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["field", "drop", "add", "extra", "prefix",
                                    "truncate", "replace", "spaces", "blank"]))
        if how in ("field", "drop", "add", "spaces"):
            try:
                doc = json.loads(lines[i])
            except ValueError:           # an earlier mutation broke this line
                continue
            if not isinstance(doc, dict) or not set(TRACE_FIELDS) <= set(doc):
                continue
            if how == "field":
                doc[draw(st.sampled_from(TRACE_FIELDS))] = draw(FIELD_VALUES)
            elif how == "drop":
                del doc[draw(st.sampled_from(TRACE_FIELDS))]
            elif how == "add":
                doc[draw(texts)] = draw(FIELD_VALUES)
            lines[i] = json.dumps(doc, sort_keys=draw(st.booleans()))
        elif how == "extra":
            lines[i] += draw(st.sampled_from(EXTRA))
        elif how == "prefix":
            lines[i] = draw(st.sampled_from(["\ufeff", " ", "\t", "[", "x"])) + lines[i]
        elif how == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        elif how == "replace":
            lines[i] = draw(texts)
        else:
            lines.insert(i, draw(st.sampled_from(["", "   ", "\t"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(
        st.sampled_from(["", "\n"]))


def line(event_id, **fields):
    """A read invocation at p as one trace line, with `fields` replaced; any
    non-ASCII text is written raw."""
    doc = {"args": [], "event_id": event_id, "kind": "invocation", "logical_time": 0,
           "op": "read", "process": "p", "returned": None, **fields}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# one object over two lines, the second opening an object inside `args` or
# going on with a key: joined into one array, the two lines decode to one value
SPLIT = '{"args":[1\n{"x":1}]' + line(2)[len('{"args":[]'):]
KEY_SPLIT = line(2).replace(',"kind"', '\n"kind"')
RETURNED_SPLIT = line(2, returned=[1]).replace("[1]", '[1\n{"x":1}]')
NESTED_SPLIT = line(2, returned={"a": [1]}).replace("[1]", '[1\n{"x":1}]')


@settings(max_examples=150, deadline=None)
@given(text=mutated_traces())
@example(text="\n".join([line(0), SPLIT]))
@example(text="\n".join([line(0, process=",\n"), line(1, op="},\n{"), ""]))   # the joiner
@example(text="\n".join([line(0) + "," + line(1), SPLIT]))   # as many values as lines
@example(text="\n".join([line(0) + "," + line(1), KEY_SPLIT]))
@example(text="\n".join([line(0) + "," + line(1), RETURNED_SPLIT]))
@example(text="\n".join([line(0) + "," + line(1), NESTED_SPLIT]))
@example(text=line(0) + "," + line(1))                        # more values than lines
@example(text="\n".join([line(0, process="a\u2028b"), line(1, op="read\x85")]))
@example(text="\n".join([line(0), "\ufeff" + line(1)]))
@example(text="\n".join([line(0, args=[{"a": [1]}, [2]], returned={"b": {"c": None}}),
                         line(1, returned=[{"d": 1}])]))
@example(text="\n".join(["", line(0), "   ", "\t", line(1), " \t ", ""]))
@example(text="\n".join([line(0), line(1, kind="response", returned=["b0", 1])]))
@example(text="\n".join([line(0), line(1, kind="response", returned=["x0"])]))
@example(text="\n".join([line(0), line(1, kind="response", returned="")]))
@example(text="\n".join([line(0), line(1, op=1)]))
@example(text="\n".join([line(0), line(1, process=None)]))
@example(text='{"args":[],"event_id":0,"kind":[],"logical_time":0,'
              '"op":"read","process":"p","returned":null}')
@example(text="\ufeff{}")
@example(text="[" * 200_000)          # past the recursion limit
@example(text="1" * 5_000)            # past int's digit limit
@example(text='{"args":[],"event_id":true,"kind":"invocation","logical_time":0,'
              '"op":"read","process":"p","returned":null}')
def test_from_jsonl_matches_per_line_decoding(text):
    assert outcome(History.from_jsonl, text) == outcome(reference.from_jsonl, text)


@pytest.fixture
def decoder_calls(monkeypatch):
    """How often the whole-trace decoder and the per-line path were called."""
    calls = {"trace": 0, "line": 0}

    def counting(name, decode):
        def call(*args):
            calls[name] += 1
            return decode(*args)
        return call
    monkeypatch.setattr(history_module, "_decode",
                        counting("trace", history_module._decode))
    monkeypatch.setattr(history_module, "_json_lines",
                        counting("line", history_module._json_lines))
    return calls


@pytest.mark.parametrize("doc", [preset(name).to_dict() for name in preset_names()]
                         + list(GENERATED.values()), ids=lambda doc: doc["name"])
def test_every_trace_btlab_writes_decodes_in_one_call(decoder_calls, doc):
    run = run_scenario(scenario_from_dict(doc))
    for h in (run.history, run.full_history):
        decoder_calls.update(trace=0, line=0)
        assert History.from_jsonl(h.to_jsonl()).events == h.events
        assert decoder_calls == {"trace": 1, "line": 0}


@settings(max_examples=100, deadline=None)
@given(text=st.text(alphabet='{}[]":, \n\tabdeglnorstu0123456789-.', max_size=60))
def test_from_jsonl_matches_on_random_text(text):
    assert outcome(History.from_jsonl, text) == outcome(reference.from_jsonl, text)


# -- the line memo a run's histories share --------------------------------------------

ORDERS = [("trace", "raw"), ("raw", "trace"), ("trace",), ("raw",)]


def write(histories, order):
    """The traces of `histories` (name -> History), written in `order`."""
    return {name: histories[name].to_jsonl() for name in order}


def expected(histories, order):
    return {name: reference.to_jsonl(histories[name]) for name in order}


@pytest.fixture
def encoded(monkeypatch):
    """The event ids of every call that reaches the encoder, call by call."""
    calls = []

    def counting(events, encode=history_module._encode_lines):
        calls.append([e.event_id for e in events])
        return encode(events)
    monkeypatch.setattr(history_module, "_encode_lines", counting)
    return calls


SIMULATED = [preset("bitcoin-like").to_dict(), preset("figure-4").to_dict(),
             preset("fork-strong-violation").to_dict(), FORKED]


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
@pytest.mark.parametrize("doc", SIMULATED, ids=lambda doc: doc["name"])
def test_a_run_writes_reference_bytes_encoding_each_event_once(encoded, doc, order):
    run = run_scenario(scenario_from_dict(doc))
    traces = {"trace": run.history, "raw": run.full_history}
    assert write(traces, order) == expected(traces, order)
    assert len(encoded) <= len(order)                    # one encoder call a trace
    written = {e.event_id for name in order for e in traces[name].events}
    assert sorted(sum(encoded, [])) == sorted(written)   # each event once
    assert write(traces, ORDERS[0]) == expected(traces, ORDERS[0])   # then both again
    assert sorted(sum(encoded, [])) == sorted(e.event_id for e in run.full_history.events)


def test_replay_encodes_the_restricted_events_only(encoded, tmp_path, capsys):
    assert main(["run", "bitcoin-like", "--out", str(tmp_path)]) == 0
    encoded.clear()
    trace = tmp_path / "bitcoin-like.trace.jsonl"
    assert main(["replay", "bitcoin-like", str(trace)]) == 0
    assert sum(map(len, encoded)) == len(trace.read_text().splitlines())
    encoded.clear()
    assert main(["replay", "bitcoin-like", str(tmp_path / "bitcoin-like.raw.jsonl"),
                 "--raw"]) == 0
    assert sum(map(len, encoded)) == len(run_scenario(preset("bitcoin-like")).full_history.events)


@settings(max_examples=100, deadline=None)
@given(h=histories(), data=st.data())
def test_a_history_and_its_restriction_share_reference_bytes(h, data):
    correct = data.draw(st.sets(st.sampled_from(h.processes)) if h.processes
                        else st.just(set()))
    for order in ORDERS:
        full = History(h.events, correct=correct)
        traces = {"raw": full, "trace": full.restricted()}
        assert traces["trace"].line_memo is full.line_memo
        assert write(traces, order) == expected(traces, order)


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
@pytest.mark.parametrize("args, returned", [
    ([{"z": 1, "a": {"y": [], "b": None}}, "x"], {"b": 0, "a": 1}),   # nested objects
    (["x},{y", "{"], "}{"),                                           # `{` in strings
], ids=["nested", "brace-strings"])
def test_a_restriction_with_nested_values_writes_reference_bytes(order, args, returned):
    # the nested list sends the first down the event-by-event path; braces
    # in strings and a nested object take the column path
    h = History([make_event(0, INV, "append", ["x", "b0", True], "p", 0),
                 make_event(1, EventKind.SEND, "send", ["b0", "x", {"k": "}{"}], "p", 0),
                 make_event(2, INV, "read", (), "q", 1),
                 make_event(3, RSP, "read", (), "q", 1, ["b0", "x"]),
                 make_event(4, EventKind.RECEIVE, "receive", args, "q", 2, returned),
                 make_event(5, INV, "append", ["y", "x", False], "q", 3, "{")],
                correct={"q"})
    traces = {"raw": h, "trace": h.restricted()}
    assert [e.event_id for e in traces["trace"].events] == [0, 2, 3, 4]
    assert write(traces, order) == expected(traces, order)
