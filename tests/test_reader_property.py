"""The one-pass CSV reader against the former read-everything reader.

helpers.load_csv_reference and helpers.read_feature_rows_reference keep the
former _read_rows, _resolve_label_column and _parse_features verbatim.  On
fuzzed files (blank lines, quoting, whitespace, header or none, ragged rows,
non-numeric and non-finite cells, one-column files) and every kind of label
column (named, positional, "last", none), load_csv and read_feature_rows
must give the same features bitwise and the same labels, or raise
ValueError with the same message.
"""

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import helpers
from probitgp import encode_labels, load_csv, read_feature_rows
from probitgp.data import _read_table

NUMBERS = ("0", "1", "-1", "2.5", " 3 ", "-0.0", "1e-3", "4E2", "1_0", "+7", ".5")
NON_FINITE = ("nan", "inf", "-inf", "NaN", "1e999")
WORDS = ("", " ", "a", "x1", "R", "M", "label", "cls", "1,5", "no pe", 'say "hi"', "1\n2")
NAMES = ("x1", "x2", "label", "cls", " label ", "y")

cells = st.one_of(
    st.sampled_from(NUMBERS),
    st.sampled_from(NON_FINITE),
    st.sampled_from(WORDS),
)
label_columns = st.one_of(
    st.just("last"),
    st.just(" last "),
    st.integers(-6, 6),
    st.integers(-6, 6).map(lambda i: f" {i}"),
    st.sampled_from(("label", "cls", "x1", " y", "nope")),
)


def quote(cell, rng_bit):
    """A CSV field for cell: quoted when it must be, or when asked to."""
    if rng_bit or any(ch in cell for ch in ',"\n\r'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


@st.composite
def csv_files(draw):
    width = draw(st.integers(1, 5))
    rows = []
    if draw(st.booleans()):
        rows.append([draw(st.sampled_from(NAMES)) for _ in range(width)])
    numeric = draw(st.floats(0.0, 1.0))
    for _ in range(draw(st.integers(0, 8))):
        w = width
        if draw(st.integers(0, 19)) == 0:
            w = max(1, width + draw(st.sampled_from((-1, 1))))
        row = []
        for _ in range(w):
            if draw(st.floats(0.0, 1.0)) < numeric:
                row.append(draw(st.sampled_from(NUMBERS)))
            else:
                row.append(draw(cells))
        rows.append(row)
    lines = []
    for row in rows:
        for _ in range(draw(st.integers(0, 1))):
            lines.append(draw(st.sampled_from(("", "  ", ",", " , "))))
        lines.append(",".join(quote(c, draw(st.integers(0, 9)) == 0) for c in row))
    newline = draw(st.sampled_from(("\n", "\r\n")))
    text = newline.join(lines)
    if draw(st.booleans()):
        text += newline
    return text


def outcome(fn, *args, **kwargs):
    """("ok", value) or ("error", message) of a ValueError."""
    try:
        return "ok", fn(*args, **kwargs)
    except ValueError as exc:
        return "error", str(exc)


def same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                suppress_health_check=[HealthCheck.too_slow])

# one file per outcome, so each is checked whatever the fuzzer draws
OUTCOMES = (
    ("x1,label\n1,0\n\n2, 1\n", "label"),  # named label, blank line
    ("\n  \n", "last"),                     # empty file
    ("1,oops,0\n1,2\n", "last"),            # ragged beats an earlier bad cell
    ("1,0\n2,1\n", 5),                      # label column out of range
    ("a,b\n1,0\n", "nope"),                 # named label not in the header
    ("x,label\n", "last"),                  # no data rows
    ("1,0\ninf,1\n", "last"),               # non-finite feature
    ('1,0\n"2,5",1\n', "last"),             # non-numeric (quoted) feature
    ("3\n4\n", "last"),                     # one column, a label wanted
)


def with_outcomes(test):
    for text, label in OUTCOMES:
        test = example(text=text, label=label)(test)
    return test


@FUZZ
@given(text=csv_files(), label=label_columns)
@with_outcomes
def test_load_csv_matches_the_former_reader(tmp_path_factory, text, label):
    path = tmp_path_factory.getbasetemp() / "fuzz.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    kind, ref = outcome(helpers.load_csv_reference, path, label)
    got_kind, got = outcome(_read_table, path, label, keep_labels=True)
    assert got_kind == kind
    if kind == "error":
        assert got == ref
        kind, msg = outcome(load_csv, path, label)
        assert (kind, msg) == ("error", ref)
        return
    assert same_array(got[0], ref[0])
    assert got[1] == ref[1]
    kind, y = outcome(encode_labels, ref[1])
    got_kind, ds = outcome(load_csv, path, label)
    assert got_kind == kind
    if kind == "error":
        assert ds == y
    else:
        assert same_array(ds.X, ref[0]) and same_array(ds.y, y)


@FUZZ
@given(text=csv_files(), label=st.one_of(st.none(), label_columns))
def test_read_feature_rows_matches_the_former_reader(tmp_path_factory, text, label):
    path = tmp_path_factory.getbasetemp() / "fuzz_rows.csv"
    with open(path, "w", newline="") as handle:
        handle.write(text)
    kind, ref = outcome(helpers.read_feature_rows_reference, path, label)
    got_kind, got = outcome(read_feature_rows, path, label)
    assert got_kind == kind
    if kind == "error":
        assert got == ref
    else:
        assert same_array(got, ref)
