"""The report writer gives the bytes of ``json.dumps(sort_keys=True, indent=2)``."""

import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from convexkit import harness
from convexkit.harness import RunConfig, run_suite
from convexkit.report import json_text, report_to_dict, report_to_json

# characters that could confuse a split: brackets, separators, quotes,
# escapes, raw newlines and tabs, non-ASCII, astral and line-separator ones
TRICKY = st.sampled_from(list('[]{},:" \\\n\t\r\x00\x7f\xe9\u20ac\u2028\U0001f600') + ["],\n  [", "\n  "])
TEXT = st.lists(st.one_of(TRICKY, st.characters()), max_size=6).map("".join)
NUMBERS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 1e308, 5e-324]),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
)
SCALARS = st.one_of(NUMBERS, st.booleans(), st.none(), TEXT)
# lists of numbers with bools and None mixed in, the writer's batched leaves
NUMERIC_LISTS = st.lists(st.one_of(NUMBERS, st.booleans(), st.none()), max_size=6)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    )


DOCS = st.recursive(st.one_of(SCALARS, NUMERIC_LISTS), _containers, max_leaves=30)


def _dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


@settings(max_examples=300, deadline=None)
@given(DOCS)
@example({})
@example([[], {}, [[]], [{}], {"a": {"b": {"c": []}}}, ((),)])
@example({"x": [1.0, True, None, False, -0.0, float("nan"), float("inf"), -float("inf"), 10**30]})
@example([[1, 2], [], [3], "],\n    [", [[4.5], ["]"]], {"k]": ["[", "}"]}])
@example({" ": "😀\n\t", "": [""], "é": [[-(2**70)]]})
def test_json_text_matches_json_dumps(doc):
    assert json_text(doc) == _dumps(doc)


def test_reports_match_json_dumps():
    reports = [
        run_suite("all", RunConfig(trials=6, seed=7)),
        run_suite("all", RunConfig(trials=2, dim=2, seed=3)),
        run_suite("lemma2", RunConfig(trials=3, seed=42, oracle_pitch=1e-2)),
        run_suite("lemma1", RunConfig(trials=0)),
    ]
    for report in reports:
        assert report_to_json(report) == _dumps(report_to_dict(report)) + "\n"


def test_errored_trial_report_matches_json_dumps(monkeypatch):
    """A trial's ``no_error`` witness keeps the brackets of its message."""
    runner = harness._TRIAL_RUNNERS["lemma3"]

    def raising(index, config):
        if index == 1:
            raise ValueError('row [1.0, {"b": 2}],\n  [3] is not a vector')
        return runner(index, config)

    monkeypatch.setitem(harness._TRIAL_RUNNERS, "lemma3", raising)
    report = run_suite("lemma3", RunConfig(trials=3, seed=42))
    witness = report.trials[1].checks[0].witness
    assert witness == {"error": 'ValueError: row [1.0, {"b": 2}],\n  [3] is not a vector'}
    assert report_to_json(report) == _dumps(report_to_dict(report)) + "\n"


@pytest.mark.parametrize("key", [1, 2.5, True, None, (1,)])
def test_non_str_keys_raise_type_error(key):
    for doc in ({key: 1}, {"a": [{key: [1.0]}]}, {"a": 1, key: 2}):
        with pytest.raises(TypeError):
            json_text(doc)


def test_unserializable_leaves_raise_like_json_dumps():
    for doc in ([object()], {"a": [1, {2, 3}]}, {"a": b"x"}):
        with pytest.raises(TypeError) as got:
            json_text(doc)
        with pytest.raises(TypeError) as want:
            _dumps(doc)
        assert str(got.value) == str(want.value)
