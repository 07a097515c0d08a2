"""report.dumps against the list writer it replaced, on random documents.

The documents mix every kind of value the writer takes, so that two of them
often share a shape but differ in one slot's kind (True, 1 and 1.0 above
all).  All examples run in one process, so an array template cached for
one document and reused for another array would show as a mismatch
with the reference.
"""

import numpy as np
import pytest
import report_reference

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from hypothesis.extra import numpy as hnp  # noqa: E402

from chernkit import report  # noqa: E402

DETERMINISTIC = settings(
    derandomize=True, database=None, deadline=None, max_examples=400, phases=[Phase.explicit, Phase.generate]
)

_TEXT = st.one_of(
    st.sampled_from(["", "%", "%s", "%d", "%%", "%.17g", '"', '\\"', "é", "λ→μ", "a\nb", "records", "1"]),
    st.text(max_size=6),
)
_FLOATS = st.floats(allow_nan=True, allow_infinity=True)
_ALIKE = st.sampled_from([True, False, 1, 0, 1.0, 0.0, -0.0, np.float64(1.0), np.int64(1), np.float32(1.0)])
_NUMBERS = st.one_of(
    _ALIKE,
    st.integers(),
    _FLOATS,
    _FLOATS.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
)
_SHAPES = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3)
_ARRAYS = st.one_of(
    hnp.arrays(np.float64, _SHAPES, elements=_FLOATS),
    hnp.arrays(np.float32, _SHAPES, elements=st.floats(width=32)),
    # the reference writer turns complex arrays of up to two axes into lists of [re, im] pairs
    hnp.arrays(np.complex128, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=3),
               elements=st.complex_numbers(allow_nan=True, allow_infinity=True)),
)
_LEAVES = st.one_of(st.none(), _NUMBERS, _TEXT, _ARRAYS)


_DOCUMENTS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(_NUMBERS, max_size=4).map(tuple),  # a plain list of numbers, written inline
        st.dictionaries(st.one_of(_TEXT, st.integers(-3, 3)), inner, max_size=4),
    ),
    max_leaves=12,
)


@DETERMINISTIC
@given(_DOCUMENTS, st.lists(_ALIKE, min_size=1, max_size=3))
def test_report_dumps_matches_the_list_writer_on_random_documents(doc, alike):
    for obj in (doc, {"slot": alike[0], "rest": doc}, [alike, doc], {"%": alike, '"': doc}):
        assert report.dumps(obj) == report_reference.dumps(report_reference.list_form(obj))


def test_report_dumps_keeps_the_kind_of_each_slot():
    # each kind is written as itself in the same slot, and a % in a key or a string is not a placeholder
    for _ in range(2):
        for value, text in [(True, "true"), (1, "1"), (1.0, "1"), (np.float64(1.5), "1.5"), (None, "null"),
                            ("%s", '"%s"'), (np.array(2.5), "2.5"), ([True, 1.5], "[1, 1.5]"), ({}, "{}"), ([], "[]"),
                            ([np.array(0.1, dtype=np.float32), 2.5, np.array(-0.0)], "[0.10000000149011612, 2.5, -0]")]:
            assert report.dumps({"k%": value}) == f'{{\n  "k%": {text}\n}}\n'


def test_report_dumps_rejects_what_it_cannot_write():
    for obj in (np.array([1, 2]), np.bool_(True), 1j, {"x": object()}):
        with pytest.raises(TypeError, match="cannot serialize"):
            report.dumps(obj)
