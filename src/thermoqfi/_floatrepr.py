"""Render float64 arrays as the exact bytes of repr(float(x)), whole arrays at once.

render() lays every value out in WIDTH fixed byte slots: a sign, the "0.000"
prefix of a small fixed-point number, an 18-slot digit field holding at most
one ".", and an "e+xxx" exponent. Slots a value does not use hold NUL bytes,
so a caller can place whole columns into a row template and drop the NULs
with one bytes.translate.

The digits are the shortest round-trip ones of Steele & White (PLDI 1990) and
Ryu (Adams, PLDI 2018), found with fixed-width arithmetic instead of bignums:

1. x = s * 10**(e - 16) with s in [1e16, 1e17), s formed in double-double
   arithmetic (Dekker's two_prod) from a (hi, lo) table of powers of ten;
2. x's rounding interval is scaled the same way, halved below a power of two;
3. on that 17-digit integer grid, the output is the multiple of 10**j inside
   the interval with the largest j (fewest digits), nearest to s.

The double-double error is below 2e-14 grid units, so a decision taken more
than _MARGIN from a grid boundary is exact. A value that comes closer (a
floor, a tie or an interval end), 0, nan, inf, and magnitudes outside
[_SMALLEST, _LARGEST] are rendered by repr itself (or by the caller's text
for nan and inf).
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

# Slots of one cell: 0 sign, 1-5 "0.000" prefix, 6-23 digits and ".",
# 27 "e", 28-31 exponent sign and digits.
WIDTH = 32

_MARGIN = 1e-9
# Within this range both words of every power of ten used are normal doubles.
_SMALLEST, _LARGEST = 1e-280, 1e280
_POW_MIN, _POW_MAX = -300, 300
_SPLIT = 134217729.0  # 2**27 + 1
_EXPONENT_BITS = np.uint64(0x7FF0000000000000)
_SIGNIFICAND_BITS = np.uint64(0x000FFFFFFFFFFFFF)


class _Tables(NamedTuple):
    hi: np.ndarray  # 10**n = hi + lo (double-double), n in [_POW_MIN, _POW_MAX]
    hi_top: np.ndarray  # hi = hi_top + hi_tail, Dekker's split of hi
    hi_tail: np.ndarray
    lo: np.ndarray
    pow10: np.ndarray  # 10**k as int64, k in [0, 17]
    digits4: np.ndarray  # the four ASCII digits of 0..9999 as uint32 words
    exponents: np.ndarray  # the exponent bytes 28-31 of a cell, by e - _POW_MIN
    # One uint64 row per layout, indexed by (sign, clip(e, -5, 16) + 5,
    # significant digits): the byte masks of `early` and `late`, and the
    # constant bytes.
    from_early: np.ndarray
    from_late: np.ndarray
    constant: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The constant tables of render(), built from Python ints on first use."""
    hi, lo = [], []
    for n in range(_POW_MIN, _POW_MAX + 1):
        if n >= 0:
            power = 10**n
            h = float(power)
            residual = float(power - int(h))
        else:
            denominator = 10**-n
            h = 1 / denominator  # int true division rounds correctly
            num, den = h.as_integer_ratio()
            residual = (den - num * denominator) / (den * denominator)
        hi.append(h)
        lo.append(residual)
    hi = np.array(hi)
    hi_top, hi_tail = _split(hi)
    exponents = [
        (b"-" if e < 0 else b"+") + (b"%d" if abs(e) >= 100 else b"\0%02d") % abs(e)
        if e < -4 or e > 15
        else b"\0"
        for e in range(_POW_MIN, _POW_MAX + 1)
    ]

    from_early, from_late, constant = np.zeros((3, 22, 18, WIDTH), dtype=np.uint8)
    for e in range(-5, 17):
        for significant in range(1, 18):
            # repr: fixed point for 1e-4 <= |x| < 1e16, else exponent form.
            row = e + 5, significant
            if 0 <= e < 16:
                point, end = e + 1, max(significant, e + 2)
            elif -4 <= e < 0:
                point = end = significant
                constant[row][1 : 2 - e] = np.frombuffer(b"0.000"[: 1 - e], dtype=np.uint8)
            else:
                point, end = 1, significant
                constant[row][27] = ord("e")
            # digit p sits in slot 6 + p before the point and 7 + p after it
            from_early[row][6 : 6 + point] = 0xFF
            if point < end:
                constant[row][6 + point] = ord(".")
                from_late[row][7 + point : 7 + end] = 0xFF
    # the rows of negative values follow, with "-" in slot 0
    negative = constant.copy()
    negative[..., 0] = ord("-")
    layouts = [np.concatenate([t, t]) for t in (from_early, from_late)]
    layouts.append(np.concatenate([constant, negative]))
    # in uint16: int64 temporaries would add a megabyte to the peak of every
    # call that writes a table
    places = np.array([1000, 100, 10, 1], dtype=np.uint16)
    digits4 = np.arange(10000, dtype=np.uint16)[:, None] // places % 10 + ord("0")
    return _Tables(
        hi,
        hi_top,
        hi_tail,
        np.array(lo),
        np.array([10**k for k in range(18)], dtype=np.int64),
        digits4.astype(np.uint8).view(np.uint32).reshape(-1),
        np.array(exponents, dtype="S4").view(np.uint32),
        *(t.reshape(-1, WIDTH).view(np.uint64) for t in layouts),
    )


def _split(a):
    """a = top + tail, each half of a's significand (Dekker)."""
    c = _SPLIT * a
    top = c - (c - a)
    return top, a - top


def _scaled(a, e, t: _Tables):
    """a * 10**(16 - e) as s_hi + s_lo (double-double), and 10**(16 - e)'s hi."""
    k = 16 - e - _POW_MIN
    p_hi = t.hi.take(k)
    b1, b2 = t.hi_top.take(k), t.hi_tail.take(k)
    prod = a * p_hi
    a1, a2 = _split(a)
    err = ((a1 * b1 - prod) + a1 * b2 + a2 * b1) + a2 * b2 + a * t.lo.take(k)
    s_hi = prod + err
    return s_hi, err - (s_hi - prod), p_hi


def _off_grid(v):
    """True where v is farther than _MARGIN from every integer."""
    return np.abs(v - np.rint(v)) > _MARGIN


def render(values, nonfinite: str | None = None) -> np.ndarray:
    """The (n, WIDTH) uint8 slots of repr(float(v)) for each v of a 1-D array.

    nan and inf cells hold nonfinite instead, when it is given.
    """
    x = np.asarray(values, dtype=np.float64)
    out, slow = fast_cells(x)
    if slow.size:
        cells = [
            nonfinite if nonfinite is not None and not math.isfinite(v) else repr(v)
            for v in x.take(slow).tolist()
        ]
        out[slow] = np.array(cells, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)
    return out


def fast_cells(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The kernel's (n, WIDTH) slots for a 1-D float64 array, and the indices
    of the cells it leaves to repr (their slots hold no valid text)."""
    t = _tables()
    n = x.shape[0]
    a = np.abs(x)
    fast = (a >= _SMALLEST) & (a <= _LARGEST)
    a[~fast] = 1.0

    # 1. The 17-digit grid: s = a * 10**(16 - e) in [1e16, 1e17).
    e = np.floor(np.log10(a)).astype(np.int64)
    s_hi, s_lo, p_hi = _scaled(a, e, t)
    shift = (s_hi >= 1e17).astype(np.int64) - (s_hi < 1e16)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        s_hi[moved], s_lo[moved], p_hi[moved] = _scaled(a[moved], e[moved], t)
        fast &= (s_hi >= 1e16) & (s_hi < 1e17)
    # s_hi >= 2**53 is an integer, so s = base + s_lo with a small s_lo.
    base = s_hi.astype(np.int64)

    # 2. The rounding interval [lower, upper] and s = s_int + s_frac on the grid.
    bits = a.view(np.uint64)
    ulp = (bits & _EXPONENT_BITS).view(np.float64) * (2.0**-52 * p_hi)
    below = np.where(bits & _SIGNIFICAND_BITS, 0.5, 0.25) * ulp
    lower_off = s_lo - below
    upper_off = s_lo + 0.5 * ulp
    fast &= _off_grid(lower_off) & _off_grid(upper_off)
    lower = base + np.ceil(lower_off).astype(np.int64)
    upper = base + np.floor(upper_off).astype(np.int64)
    floor_lo = np.floor(s_lo)
    s_int = base + floor_lo.astype(np.int64)
    s_frac = s_lo - floor_lo

    # 3. The largest j with a multiple of 10**j in [lower, upper], that is
    # with upper % 10**j <= upper - lower. Few cells get past j = 1.
    width = upper - lower
    j = (upper % 10 <= width).astype(np.int64)
    live = np.flatnonzero(upper % 100 <= width)
    for k in range(2, 18):
        j[live] = k
        if k < 17:
            live = live[upper.take(live) % t.pow10[k + 1] <= width.take(live)]
        if not live.size:
            break

    # The multiple of q = 10**j nearest to s. It lies in the interval, which
    # holds a multiple no farther from s than its wider (upper) half, unless
    # it is below a halved lower half; then the next one up does. Where both
    # neighbours of s fit, a near tie is left to repr.
    q = t.pow10.take(j)
    low = s_int // q * q
    excess = (2 * (s_int - low) - q) + 2.0 * s_frac  # 2 * (s - low) - q
    fast &= (low < lower) | (low + q > upper) | (np.abs(excess) > 2.0 * _MARGIN)
    digits = low + q * (excess > 0)
    digits += q * (digits < lower)

    # x = digits * 10**(e - 16) with digits in [1e16, 1e17). A multiple of
    # 10**(j + 1) would have been found, so exactly j digits end in zero.
    significant = 17 - j
    carry = np.flatnonzero(digits == t.pow10[17])
    digits[carry] = t.pow10[16]
    e[carry] += 1
    significant[carry] = 1
    short = np.flatnonzero(digits < t.pow10[16])
    digits[short] *= 10
    e[short] -= 1
    significant[short] -= 1

    # The ASCII digits as 32 bytes per cell, digit p in byte 7 + p and every
    # other byte 0 or "0"; `early` holds them one byte earlier.
    words = np.zeros((n, WIDTH // 4), dtype=np.uint32)
    rest = digits
    for col, scale in enumerate((10**16, 10**12, 10**8, 10**4), start=1):
        group = rest // scale
        words[:, col] = t.digits4.take(group)
        rest = rest - group * scale
    words[:, 5] = t.digits4.take(rest)
    # A one-byte shift of little-endian words; byte 0 of every cell is 0, so
    # it may run across cells. The masks below act on bytes, in memory order.
    late = words.view(np.uint64)
    flat = words.view("<u8").reshape(-1)
    shifted = flat >> np.uint64(8)
    shifted[:-1] |= flat[1:] << np.uint64(56)
    early = shifted.astype("<u8", copy=False).view(np.uint64).reshape(late.shape)

    # Each layout row picks digits from `early` and `late` and adds the
    # constant bytes: sign, prefix, point, "e". The exponent is per cell.
    layout = (np.clip(e, -5, 16) + 5) * 18 + significant + 22 * 18 * np.signbit(x)
    out = early & t.from_early.take(layout, axis=0)
    out |= late & t.from_late.take(layout, axis=0)
    out |= t.constant.take(layout, axis=0)
    out.view(np.uint32)[:, 7] = t.exponents.take(e - _POW_MIN)
    return out.view(np.uint8), np.flatnonzero(~fast)
