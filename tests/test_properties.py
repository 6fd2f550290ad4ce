"""Property tests of the command line and the loader on generated inputs.

``gammakde estimate`` on any finite positive ``--b`` and any grid, and
``gammakde bandwidth`` and ``simulate`` on any gamma marginal with
parameters in [1e-300, 1e300], either exit 0 and print and write only
finite numbers, or are a usage error: exit 2 and one error line, with no
traceback. ``estimate`` also raises no numpy warning. ``load_sample``
reads any mix of headers, comments, blank lines and delimiters exactly
as the line parser does, or both refuse the file.
"""

import contextlib
import io
import re
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
kinds = st.sampled_from(["density", "derivative"])
taus = st.sampled_from([0, 1])
# gamma shape or scale, from near the smallest normal double to near the
# largest; half come from a moderate range in which every rule is finite,
# so runs that exit 0 are generated too
gamma_params = st.floats(min_value=1e-300, max_value=1e300) \
    | st.floats(min_value=3.0, max_value=10.0)

# numpy overflows in a square or exp at gamma scales near 1e300 and warns
# while the result is still right (or refused); that leak is a defect of
# its own, so the bandwidth and simulate runs ignore RuntimeWarning only
OVERFLOW = (RuntimeWarning,)


def _run(argv, quiet=()):
    """(exit status, output text or None) of one in-process run, checked.

    In argv, ``{rows}`` names a file holding ROWS and ``{out}`` an output
    file, both in a fresh directory. Every warning is an error, except
    those of the categories in ``quiet``. The run must exit 0 with every
    number it prints or writes finite, or exit 2 with one error line, no
    traceback and no output file.
    """
    with tempfile.TemporaryDirectory() as tmp:
        rows = Path(tmp) / "rows.txt"
        rows.write_text(ROWS)
        out = Path(tmp) / "out.csv"
        printed, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(printed):
            warnings.simplefilter("error")
            for category in quiet:
                warnings.simplefilter("ignore", category)
            try:
                status = main([a.format(rows=rows, out=out) for a in argv])
            except SystemExit as exc:
                status = exc.code
        text = out.read_text() if out.exists() else None
    err = err.getvalue()
    assert "Traceback" not in err
    if status == 0:
        numbers = []
        for word in re.split(r"[\s,=]+", printed.getvalue() + (text or "")):
            try:
                numbers.append(float(word))
            except ValueError:
                pass
        assert np.all(np.isfinite(numbers))
    else:
        assert status == 2
        assert err.count("error:") == 1
        assert err.splitlines()[-1].startswith(f"gammakde {argv[0]}: error: ")
        assert text is None
    return status, text


@pytest.mark.parametrize("which", ["density", "derivative"])
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(b=bandwidths, lo=coordinates, hi=coordinates,
       num=st.integers(min_value=1, max_value=4))
@example(b=0.1, lo=0.0, hi=1e308, num=3)
@example(b=5e-324, lo=0.0, hi=4.0, num=5)
@example(b=sys.float_info.max, lo=0.0, hi=4.0, num=5)
def test_estimate_is_finite_or_usage_error(which, b, lo, hi, num):
    argv = ["estimate", "--input", "{rows}", "--output", "{out}",
            "--which", which, "--b", repr(b),
            "--grid", f"{lo!r}:{hi!r}:{num}"]
    status, text = _run(argv)
    if status == 0:
        rows = np.loadtxt(io.StringIO(text), delimiter=",", ndmin=2)
        assert rows.shape == (num, 2)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(which=kinds, tau=taus, n=st.integers(min_value=1, max_value=10**9),
       shape=gamma_params, scale=gamma_params,
       mixing=st.none() | st.tuples(st.floats(0.0, 1.0),
                                    st.floats(0.0, 1e300)
                                    | st.floats(0.5, 5.0)))
# a rule integral that underflows to 0: the derivative and density
# denominators, and the mixing numerator
@example(which="derivative", tau=0, n=1, shape=3.0, scale=1e100,
         mixing=None)
@example(which="density", tau=0, n=1, shape=3.0, scale=1e200, mixing=None)
@example(which="density", tau=0, n=1, shape=3.0, scale=1e300,
         mixing=(0.5, 1.0))
def test_bandwidth_is_finite_or_usage_error(which, tau, n, shape, scale,
                                            mixing):
    argv = ["bandwidth", f"--which={which}", f"--tau={tau}", f"--n={n}",
            f"--model=gamma:{shape!r},{scale!r}"]
    if mixing is not None:
        argv += [f"--upsilon={mixing[0]!r}",
                 f"--alpha-integral={mixing[1]!r}"]
    _run(argv, quiet=OVERFLOW)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(which=kinds, tau=taus,
       sizes=st.lists(st.integers(min_value=1, max_value=60), min_size=3,
                      max_size=3, unique=True).map(sorted),
       b=st.none() | bandwidths,
       phi=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
       shape=gamma_params, scale=gamma_params)
# the reference rule's integral underflows to 0
@example(which="density", tau=0, sizes=[5, 10, 20], b=None, phi=0.0,
         shape=3.0, scale=1e300)
# every ISE is 0, so the rate fit would take log 0
@example(which="density", tau=0, sizes=[5, 10, 20], b=1.9, phi=0.0,
         shape=49.0, scale=6e299)
# every ISE is non-finite, so no replicate is left at any n
@example(which="density", tau=0, sizes=[5, 10, 20], b=1e-300, phi=0.0,
         shape=0.05, scale=1e-300)
def test_simulate_is_finite_or_usage_error(which, tau, sizes, b, phi, shape,
                                           scale):
    argv = ["simulate", "--output={out}", "--seed=1", f"--which={which}",
            f"--tau={tau}", "--n-grid=" + ",".join(map(str, sizes)),
            "--replicates=2", f"--phi={phi!r}",
            f"--marginal=gamma:{shape!r},{scale!r}"]
    if b is not None:
        argv.append(f"--b={b!r}")
    _run(argv, quiet=OVERFLOW)


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
