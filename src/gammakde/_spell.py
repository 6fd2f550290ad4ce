"""Doubles spelled as the text of Python's ``'%.16e'``, in numpy.

``spell`` writes the characters of many values at once into the rows of
a uint8 array: the digits come from ``decimal17``, a double-double
scaling of each value to its 17-digit integer, and Python formats the
values that scaling cannot settle. ``estimator.save_field`` writes its
fields through it.
"""

import threading

import numpy as np

# Dekker's splitting constant 2^27 + 1: a double times it, less the
# difference, is its upper 26 bits, exactly
_SPLIT = 134217729.0
# exponents k of the powers of ten 10^k that scale a value of
# [1e-270, 1e270] to 17 digits, one decade of correction included, and
# their double-double table, made by _tens on first use
_TEN_MIN, _TEN_MAX = -255, 287
_TEN = None
_TEN_LOCK = threading.Lock()


def spell(values):
    """``'%.16e\\n' % v`` for each of ``values``, in the rows of a
    (len(values), 25) uint8 array, right-aligned after NUL pads. The
    columns are the sign, a digit, the point, 16 digits, 'e', the
    exponent's sign, its hundreds (a pad below 100), tens and units, and
    the newline."""
    digits, exp, fast = decimal17(values)
    text = np.empty((values.size, 25), np.uint8)
    text[:, 0] = np.where(np.signbit(values), ord("-"), 0)
    text[:, 2], text[:, 19], text[:, 24] = ord("."), ord("e"), ord("\n")
    text[:, 20] = np.where(exp < 0, ord("-"), ord("+"))
    # the digits after the point as two 8-digit halves, taken apart
    # together in uint32
    head = digits // 10**16
    text[:, 1] = head + ord("0")
    digits -= head * 10**16
    halves = np.empty((values.size, 2), np.uint32)
    halves[:, 0] = digits // 10**8
    halves[:, 1] = digits - halves[:, 0].astype(np.int64) * 10**8
    spelled = np.empty((values.size, 2, 8), np.uint32)
    for i in range(7, -1, -1):
        quot = halves // 10
        np.subtract(halves, quot * 10, out=spelled[:, :, i])
        halves = quot
    spelled += ord("0")
    text[:, 3:19] = spelled.reshape(-1, 16)
    exp = np.abs(exp)
    text[:, 21] = np.where(exp >= 100, exp // 100 + ord("0"), 0)
    text[:, 22] = exp // 10 % 10 + ord("0")
    text[:, 23] = exp % 10 + ord("0")
    slow = np.flatnonzero(~fast)
    for row, v in zip(slow.tolist(), values[slow].tolist()):
        text[row, :24] = np.frombuffer(("%.16e" % v).rjust(24, "\0")
                                       .encode("ascii"), np.uint8)
    return text


def decimal17(values):
    """The 17 significant digits and the decimal exponent E of each of
    ``values`` as ``'%.16e'`` rounds them: ``(digits, exp, fast)``, where
    |v| * 10^(16 - E) rounds to ``digits`` in [10^16, 10^17) wherever
    ``fast`` is true. E starts at floor(log10 |v|) and is corrected once
    where the scaled value leaves [10^16, 10^17); a carry from
    9.99...95e(E) gives 1.0e(E + 1). ``fast`` is false where the digits
    are left to ``'%.16e'`` (see ``estimator.save_field``)."""
    mag = np.abs(values)
    fast = (mag >= 1e-270) & (mag <= 1e270)
    mag = np.where(fast, mag, 1.0)
    exp = np.floor(np.log10(mag)).astype(np.int64)
    digits, frac = _scaled(mag, 16 - exp)
    fix = np.flatnonzero((digits < 10**16) | (digits >= 10**17))
    if fix.size:
        exp[fix] += np.where(digits[fix] < 10**16, -1, 1)
        digits[fix], frac[fix] = _scaled(mag[fix], 16 - exp[fix])
        fast[fix] &= (digits[fix] >= 10**16) & (digits[fix] < 10**17)
    fast &= np.abs(frac - 0.5) >= 1e-9
    digits += frac > 0.5
    carry = digits == 10**17
    digits[carry] = 10**16
    return digits, exp + carry, fast


def _scaled(mag, k):
    """mag * 10^k as its floor, an int64, and the fraction above it.

    The product is the double-double hi + lo: hi = fl(mag * 10^k), and
    lo is hi's rounding error from Dekker's exact product with the high
    part of 10^k plus mag times its low part. It is off by a few units
    of 2^-106 relative, under about 1e-14 at 10^17 (2.2e-15 the most
    seen on 40,000 random values against exact fractions). hi is an
    integer from 2^53 up, so the floor is exact from 10^16 up, and below
    10^16 wherever the product is.
    """
    ten, ten_lo, ten_big, ten_small = _tens(k)
    hi = mag * ten
    split = _SPLIT * mag
    big = split - (split - mag)
    small = mag - big
    lo = (small * ten_small - (((hi - big * ten_big) - small * ten_big)
                               - big * ten_small)) + mag * ten_lo
    whole = np.floor(lo)
    return hi.astype(np.int64) + whole.astype(np.int64), lo - whole


def _tens(k):
    """Rows of the double-double table of 10^k at the exponents ``k``:
    the high part, the low part and the high part's Dekker halves. The
    table is made on first use and filled one exponent at a time."""
    global _TEN
    with _TEN_LOCK:
        if _TEN is None:
            _TEN = np.full((4, _TEN_MAX - _TEN_MIN + 1), np.nan)
        cols = k - _TEN_MIN
        for j in set(cols[np.isnan(_TEN[0, cols])].tolist()):
            _TEN[:, j] = _ten(j + _TEN_MIN)
        return _TEN[:, cols]


def _ten(k):
    """10^k as (hi, lo, big, small): hi + lo to 2^-106, both correctly
    rounded from exact integers, and hi = big + small split by Dekker."""
    num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
    hi = num / den
    a, b = hi.as_integer_ratio()
    lo = (num * b - a * den) / (den * b)
    split = _SPLIT * hi
    big = split - (split - hi)
    return hi, lo, big, hi - big
