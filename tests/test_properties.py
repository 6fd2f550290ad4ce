"""Property tests of the command line and the loader on generated inputs.

``gammakde estimate`` on any finite positive ``--b`` and any grid either
exits 0 and writes only finite numbers, or is a usage error: exit 2 and
one error line, with no traceback and no numpy warning. ``load_sample``
reads any mix of headers, comments, blank lines and delimiters exactly
as the line parser does, or both refuse the file.
"""

import contextlib
import io
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gammakde.cli import main
from gammakde.estimator import _load_lines, load_sample

# a zero, values on both sides of 1, and a tie
ROWS = "0.0\n0.25\n1.0\n1.0\n3.7\n"

# every finite float >= 0, subnormals and the largest double included
coordinates = st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)
bandwidths = st.floats(min_value=0.0, exclude_min=True, allow_nan=False,
                       allow_infinity=False)


def _estimate(argv):
    """(exit status, stderr, output text or None) of one estimate run."""
    with tempfile.TemporaryDirectory() as tmp:
        sample = Path(tmp) / "rows.txt"
        sample.write_text(ROWS)
        out = Path(tmp) / "field.csv"
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            try:
                status = main(["estimate", "--input", str(sample),
                               "--output", str(out)] + argv)
            except SystemExit as exc:
                status = exc.code
        text = out.read_text() if out.exists() else None
    return status, err.getvalue(), text


@pytest.mark.parametrize("which", ["density", "derivative"])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(b=bandwidths, lo=coordinates, hi=coordinates,
       num=st.integers(min_value=1, max_value=4))
@example(b=0.1, lo=0.0, hi=1e308, num=3)
@example(b=5e-324, lo=0.0, hi=4.0, num=5)
@example(b=sys.float_info.max, lo=0.0, hi=4.0, num=5)
def test_estimate_is_finite_or_usage_error(which, b, lo, hi, num):
    argv = ["--which", which, "--b", repr(b),
            "--grid", f"{lo!r}:{hi!r}:{num}"]
    status, err, text = _estimate(argv)
    assert "Traceback" not in err
    if status == 0:
        rows = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
        assert rows.shape == (num, 2)
        assert np.all(np.isfinite(rows))
    else:
        assert status == 2
        assert err.count("error:") == 1
        assert err.splitlines()[-1].startswith("gammakde estimate: error: ")
        assert text is None


# numbers both parsers read, then tokens one parser or as_sample refuses
GOOD = ["0", "0.0", "1", "1.5", "2.5E+2", "1e-3", "7", "3.25", " 4", "5 "]
values = st.sampled_from(GOOD * 8 + ["-1", "1_000", "nan", "x"])
delimiters = st.sampled_from([",", ", ", " ", "  ", "\t"])
# lines that hold no data: the line parser skips them
spacers = st.sampled_from(["", "   ", "\t", "#", "# comment", "  # indent"])


@st.composite
def sample_files(draw):
    """Text of a file: data rows among headers, comments and blank lines."""
    columns = draw(st.integers(min_value=1, max_value=3))
    delimiter = draw(delimiters)
    row = st.lists(values, min_size=columns, max_size=columns).map(
        delimiter.join)
    # an inline comment or a ragged row
    odd = st.one_of(
        row.map(lambda r: r + " # note"),
        st.lists(values, min_size=1, max_size=4).map(delimiter.join))
    line = st.one_of(row, spacers, odd)
    lines = draw(st.lists(line, min_size=1, max_size=8))
    if draw(st.booleans()):
        lines.insert(0, draw(st.sampled_from(["x,y", "a b", "# header"])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return "".join(text + end for text in lines)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(text=sample_files())
@example(text="1.0,2.0 # note\n3.0,4.0\n")
@example(text="1 2\n3 4 # note\n")
@example(text="1\n#\n2\n")
@example(text="1,2\n   \n3,4\n")
def test_loader_matches_line_parser(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "sample.txt"
        with open(path, "w", newline="") as fh:
            fh.write(text)
        try:
            with open(path) as fh:
                want = _load_lines(path, fh)
        except ValueError:
            want = None
        try:
            got = load_sample(path)
        except ValueError:
            got = None
    if want is None:
        assert got is None
    else:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
