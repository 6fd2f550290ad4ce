"""Property tests of the command line on extreme inputs.

``gammakde estimate`` on any finite positive ``--b`` and any grid either
exits 0 and writes only finite numbers, or is a usage error: exit 2 and
one error line, with no traceback and no numpy warning.
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
