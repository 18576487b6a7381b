"""`btlab check` on mutated traces: every outcome is an exit code.

Valid traces are mutated field by field (a value replaced by the same
field's value on another line or by any JSON value, a field dropped or added) and line by line (dropped, duplicated,
moved, cut short, replaced by text). Whatever the mutation, `cli.main`
returns 0, 1 or 2 and raises nothing.

`btlab run` on mutated scenarios is the same: preset scenarios are mutated
field by field at any depth (a value replaced, a field or list entry dropped
or added), and `cli.main` returns 0, 1 or 2, raises nothing, and writes one
stderr line exactly when it returns 2.
"""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from btlab import cli  # noqa: E402
from btlab.checkers import CHECKERS  # noqa: E402
from btlab.history import TRACE_FIELDS  # noqa: E402
from btlab.netsim import preset, run_scenario  # noqa: E402
from btlab.netsim import preset_names  # noqa: E402

# a fork that heals (figure-4) and one that never does (figure-5), both traces
BASES = [text for name in ("figure-4", "figure-5")
         for run in [run_scenario(preset(name))]
         for text in (run.history.to_jsonl(), run.full_history.to_jsonl())]

FLAGS = ([[]] + [["--criterion", name] for name in CHECKERS] + [["--window", "1"]])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False)
    | st.sampled_from(["", "b0", "a1", "p0", "read", "append", "response", "x0"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=5)

# Scenario values stay small, so that no mutated run takes long: a duration,
# interval or attempt cap is at most 60, and a merit is never tiny.
scenario_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 60)
    | st.sampled_from([0.0, 0.5, 1.0, 1.5, -1.0, 60.0, float("inf")])
    | st.sampled_from(["", "p0", "p1", "i", "b0", "read", "response", "invocation",
                       "synchronous", "asynchronous", "sc", "PASS", "FAIL", "x"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(["delay", "from", "to", "block", "kind", "x"]), inner, max_size=2),
    max_leaves=5)

SCENARIOS = {name: preset(name).to_dict() for name in preset_names()}


def _object(line):
    """The JSON object on `line`, or None when an earlier mutation broke it."""
    try:
        doc = json.loads(line)
    except ValueError:
        return None
    return doc if type(doc) is dict else None


@st.composite
def mutated_traces(draw):
    lines = draw(st.sampled_from(BASES)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            lines.append(draw(st.text(max_size=20)))
            continue
        n = draw(st.integers(0, len(lines) - 1))
        how = draw(st.sampled_from(["borrow-field", "borrow-field", "borrow-field", "field",
                                    "drop-field", "add-field", "drop", "duplicate", "move",
                                    "cut", "text"]))
        doc = _object(lines[n])
        if how.endswith("field") and doc is not None:
            if how == "drop-field":
                doc.pop(draw(st.sampled_from(TRACE_FIELDS)), None)
            elif how == "add-field":
                doc[draw(st.text(max_size=3))] = draw(json_values)
            elif how == "borrow-field":          # a value that fits, from another line
                other = _object(draw(st.sampled_from(lines))) or {}
                key = draw(st.sampled_from(TRACE_FIELDS))
                doc[key] = other.get(key)
            else:
                doc[draw(st.sampled_from(TRACE_FIELDS))] = draw(json_values)
            lines[n] = json.dumps(doc)
        elif how == "drop":
            del lines[n]
        elif how == "duplicate":
            lines.insert(n, lines[n])
        elif how == "move":
            lines.insert(draw(st.integers(0, len(lines) - 1)), lines.pop(n))
        elif how == "cut":
            lines[n] = lines[n][:draw(st.integers(0, len(lines[n])))]
        else:
            lines[n] = draw(st.text(max_size=20))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(text=mutated_traces(), flags=st.sampled_from(FLAGS), complete=st.booleans())
def test_check_on_a_mutated_trace_exits_with_a_code(tmp_path, capsys, text, flags, complete):
    path = tmp_path / "mutated.jsonl"
    path.write_text(text)
    argv = ["check", str(path)] + flags + (["--complete"] if complete else [])
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert err.count("\n") == (code == 2), err


def _slots(doc):
    """(container, key) of every field and list entry in a scenario document."""
    items = doc.items() if type(doc) is dict else enumerate(doc) if type(doc) is list else ()
    for key, value in items:
        yield doc, key
        yield from _slots(value)


@st.composite
def mutated_scenarios(draw):
    doc = json.loads(json.dumps(SCENARIOS[draw(st.sampled_from(sorted(SCENARIOS)))]))
    for _ in range(draw(st.integers(1, 3))):
        container, key = draw(st.sampled_from(list(_slots(doc))))
        how = draw(st.sampled_from(["replace", "replace", "replace", "drop", "add"]))
        if how == "replace":
            container[key] = draw(scenario_values)
        elif how == "drop":
            del container[key]
        elif type(container) is dict:
            container[draw(st.sampled_from(["x", "script", "delays", "returned"]))] = \
                draw(scenario_values)
        else:
            container.insert(key, draw(scenario_values))
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated_scenarios())
def test_run_on_a_mutated_scenario_exits_with_a_code(tmp_path, capsys, doc):
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["run", str(path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    assert err.count("\n") == (code == 2), err
