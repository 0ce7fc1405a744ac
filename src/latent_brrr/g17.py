"""CSV rows of a float64 matrix, each value printed exactly as C's "%.17g".

``write_rows`` formats a block of about 4k cells at a time with numpy and
writes each block as soon as it is formatted. A cell with x == +-0 or
1e-10 <= |x| < 1e17 takes the fast path below; the other cells of a block
(subnormal, tiny, huge, nan, inf) are formatted by Python's "%.17g", in one
``%`` call, and spliced into the block's bytes before their separators.

Fast path, for |x| = m 2^e with m < 2^53:
- k = floor(log10 |x|) is floor((e + 52) log10 2), plus one when |x| is at
  least the double 10^(k+1); a k that is still off by one shows up below as
  a scaled value outside [1e16, 1e17) and is corrected;
- D = |x| 10^(16-k) = m 5^s 2^(e+s) with s = 16 - k <= 26 is formed exactly:
  m 5^s (under 2^114) is a pair of uint64 words built from 32-bit limbs,
  shifted right with round-half-even, so D holds the 17 digits "%.17g"
  prints. D never rounds up to 10^17: no double lies within 5e-18 relative
  below a power of ten in this range (the tests hold the nearest ones);
- D is split with int64 // into one digit and four 4-digit groups, each
  turned into ASCII by a lookup table;
- the text (an optional "-", "0.000" for -4 <= k < 0, the digits with a
  point and without trailing zeros, "e-XX" for k < -4, the separator) is
  laid out in three little-endian uint64 words per cell: 24 bytes, which
  the longest text fills. Every piece is placed by shifts whose amounts
  come from tables indexed by (k, number of significant digits);
- unused bytes stay 0, so one boolean mask compacts the block.
numpy shifts a uint64 by 64 or more, or by a negative count cast to
uint64, to 0; the placement shifts rely on that.

``io`` imports this module, so its tables are built when the CLI starts,
before any large array exists. Imported lazily at the first write, the
tables landed in the middle of the heap of a ``predict`` run, and the peak
RSS of the benchmark's study workload rose by 7.8 MB instead of under 1 MB.
"""

from __future__ import annotations

import numpy as np

_U = np.uint64
_K_MIN, _K_MAX = -10, 16            # floor(log10 |x|) over the fast range
_E16 = 10**16
_BLOCK_CELLS = 4096                 # each block temporary stays near 32 KB


# The tables are built mostly with float64 arithmetic, comparisons and
# copies, which the sampler runs anyway. Each further numpy kernel that runs at
# import maps in about 64 KB of numpy's code for every CLI command; the
# integer kernels of the formatter are mapped in by the first write.

def _powers() -> tuple[np.ndarray, np.ndarray]:
    """5^s for s = 0..26 as uint64, and the bit patterns of the doubles
    10^j for j = _K_MIN.._K_MAX + 1 (1 / 10^-j below 1, exact above)."""
    fives = np.full(14, 5.0)
    fives[0] = 1.0
    fives = np.cumprod(fives).astype(np.int64)        # 5^0 .. 5^13, exact
    tens = np.full(_K_MAX + 2, 10.0)
    tens[0] = 1.0
    tens = np.cumprod(tens)
    return (np.concatenate([fives, fives[13] * fives[1:]]).view(_U),
            np.concatenate([1.0 / tens[-_K_MIN:0:-1], tens]).view(_U))


def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """For v < 10^4: its four digits as little-endian ASCII bytes, and how
    many of them come before its trailing zeros (-99 for v = 0, which max()
    then skips)."""
    digit = np.arange(48.0, 58.0)
    text = np.repeat(digit, 1000) + 256 * np.tile(np.repeat(digit, 100), 10) \
        + 65536 * np.tile(np.repeat(digit, 10), 100) + 2**24 * np.tile(digit, 1000)
    significant = np.full(10000, 4)
    significant[::10] = 3
    significant[::100] = 2
    significant[::1000] = 1
    significant[0] = -99
    return text.astype(np.int64).view(_U), significant


def _words(byte_values: np.ndarray) -> np.ndarray:
    """(..., 24) byte values as rows of three little-endian words, one row
    per output word and one column per (k, nd)."""
    return np.ascontiguousarray(byte_values.astype(np.uint8).reshape(-1, 24).view("<u8").T)


def _layout_tables() -> dict[str, np.ndarray]:
    """Where each piece of a cell's text goes, per (k, nd), flattened to
    index (k - _K_MIN) * 17 + nd - 1; nd is the number of significant
    digits."""
    k, nd = np.broadcast_arrays(np.arange(_K_MIN, _K_MAX + 1.0)[:, None], np.arange(1.0, 18.0))
    exponent_form = k < -4                             # "%g" prints d.ddde-XX there
    int_digits = np.where(k < 0, np.where(exponent_form, 1.0, 0.0), k + 1)
    shown = np.where(nd > int_digits, nd, int_digits)  # digits printed
    point = np.where(int_digits > 0, shown, 0.0) > int_digits   # a point inside them
    split = np.where(point, int_digits, 99.0)
    zeros = np.where(exponent_form, 0.0, np.where(k < 0, 1 - k, 0.0))   # "0.000"[:zeros]
    tens = np.where(k == -10, 1.0, 0.0)                # the exponent's tens digit
    byte = np.arange(24.0)
    split, shown, zeros = split[..., None], shown[..., None], zeros[..., None]
    return {
        # Digits before the point stay, those after it move up one byte.
        "head": _words(np.where(byte < split, np.where(byte < shown, 255, 0), 0)),
        "tail": _words(np.where(byte < split, 0, np.where(byte < shown, 255, 0))),
        "dot": _words(np.where(byte == split, 46, 0)),
        "prefix": _words(np.where(byte < zeros, np.frombuffer(b"0.000" + bytes(19), np.uint8),
                                  0))[0],
        "lead_bits": (8 * zeros).astype(np.int64).view(_U).ravel(),
        "body_bits": (8 * (zeros[..., 0] + shown[..., 0] + point)).astype(np.int64)
        .view(_U).ravel(),
        "exponent": np.where(exponent_form, ord("e") + 256 * ord("-") + 65536 * (48 + tens)
                             + 2**24 * (48 - k - 10 * tens), 0).astype(np.int64).view(_U).ravel(),
        "exponent_bits": np.where(exponent_form, 32, 0).view(_U).ravel(),
    }


_POW5, _POW10_BITS = _powers()
_TEXT4, _SIG4 = _digit_tables()
_LAYOUT = _layout_tables()
_M32 = _U(0xFFFFFFFF)
_FRACTION, _HIDDEN = _U((1 << 52) - 1), _U(1 << 52)
_FAST_MIN, _FAST_MAX, _ONE = np.array([1e-10, 1e17, 1.0]).view(_U)


def _scaled(mant, exp, k):
    """floor(m 2^e 10^(16-k)) and whether round-half-even rounds it up."""
    s = 16 - k
    t = exp + s
    mant = mant << np.maximum(t, 0).astype(_U)       # exact when e + s >= 0
    r = np.maximum(-t, 0).astype(_U)
    f = _POW5[s]
    ml, mh, fl, fh = mant & _M32, mant >> _U(32), f & _M32, f >> _U(32)
    ll, lh, hl = ml * fl, ml * fh, mh * fl
    mid = (ll >> _U(32)) + (lh & _M32) + (hl & _M32)
    lo = (ll & _M32) | (mid << _U(32))
    hi = mh * fh + (lh >> _U(32)) + (hl >> _U(32)) + (mid >> _U(32))
    floor = (lo >> r) | (hi << (64 - r))
    one = _U(1) << r
    up = ((lo & (one - _U(1))) << _U(1)) + (floor & _U(1)) > one
    return floor.astype(np.int64), up


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For doubles given by their bits: the fast-path mask, and k and D with
    |x| = D 10^(k-16) to 17 digits (k = D = 0 for +-0); both are meaningless
    outside the mask. Non-negative doubles order as their bit patterns do."""
    mag = bits & _U(2**63 - 1)
    fast = (mag >= _FAST_MIN) & (mag < _FAST_MAX)
    zero = mag == 0
    mag[~fast] = _ONE
    fast |= zero
    mant = (mag & _FRACTION) | _HIDDEN
    exp = (mag >> _U(52)).astype(np.int64) - 1075
    k = ((exp + 52) * 78913) >> 18                    # floor((e + 52) log10 2)
    k += mag >= _POW10_BITS[k + 1 - _K_MIN]
    floor, up = _scaled(mant, exp, k)
    wrong = np.flatnonzero((floor.view(_U) - _U(_E16)) >= _U(9 * _E16))
    if wrong.size:
        k[wrong] += np.where(floor[wrong] < _E16, -1, 1)
        floor[wrong], up[wrong] = _scaled(mant[wrong], exp[wrong], k[wrong])
    D = floor + up
    D *= ~zero
    k *= ~zero
    return fast, k, D


def _digit_text(k: np.ndarray, D: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The layout index of each (k, D), and the 17 digit characters of D as
    bytes 0-16 of three little-endian words."""
    hi8 = D // 10**8
    lo8 = D - hi8 * 10**8
    g0 = hi8 // 10**8
    mid8 = hi8 - g0 * 10**8
    g1 = mid8 // 10**4
    g2 = mid8 - g1 * 10**4
    g3 = lo8 // 10**4
    g4 = lo8 - g3 * 10**4
    nd = np.maximum(np.maximum(1 + _SIG4[g1], 5 + _SIG4[g2]),
                    np.maximum(9 + _SIG4[g3], 13 + _SIG4[g4]))
    A = _TEXT4[g1] | (_TEXT4[g2] << _U(32))
    B = _TEXT4[g3] | (_TEXT4[g4] << _U(32))
    return ((k - _K_MIN) * 17 + np.maximum(nd, 1) - 1,
            ((g0 + 48).astype(_U) | (A << _U(8)), (A >> _U(56)) | (B << _U(8)), B >> _U(56)))


def _insert_point(digits: tuple, kn: np.ndarray) -> list:
    """The printed digits, with the point inside them where there is one."""
    head, tail, dot = _LAYOUT["head"], _LAYOUT["tail"], _LAYOUT["dot"]
    text, carried = [], _U(0)
    for i, d in enumerate(digits):
        after = d & tail[i][kn]
        text.append((d & head[i][kn]) | (after << _U(8)) | carried | dot[i][kn])
        carried = after >> _U(56)
    return text


def _format_cells(x: np.ndarray, sep: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Write the "%.17g" text of each fast-path cell of the contiguous ``x``
    and its separator ``sep`` into the rows of ``words`` (n x 3 little-endian
    uint64), zero bytes after it; rows of other cells hold their separator
    alone. Returns the fast-path mask."""
    bits = x.view(_U)
    fast, k, D = _decimal(bits)
    kn, digits = _digit_text(k, D)
    text = _insert_point(digits, kn)

    # Shift the text past the sign and "0.000", and place the suffix after it.
    sign_bits = (bits >> _U(63)) << _U(3)
    lead = _LAYOUT["lead_bits"][kn] + sign_bits
    start = ((sign_bits >> _U(3)) * _U(45)) | (_LAYOUT["prefix"][kn] << sign_bits)
    end = _LAYOUT["body_bits"][kn] + sign_bits
    suffix = _LAYOUT["exponent"][kn] | (sep << _LAYOUT["exponent_bits"][kn])
    rest = 64 - lead
    np.bitwise_or((text[0] << lead) | start, suffix << end, out=words[:, 0])
    np.bitwise_or((text[1] << lead) | (text[0] >> rest),
                  (suffix << (end - 64)) | (suffix >> (64 - end)), out=words[:, 1])
    np.bitwise_or((text[2] << lead) | (text[1] >> rest),
                  (suffix << (end - 128)) | (suffix >> (128 - end)), out=words[:, 2])
    slow = ~fast
    if slow.any():
        words[slow] = 0
        words[slow, 0] = sep[slow]
    return fast


def write_rows(fh, matrix: np.ndarray) -> None:
    """Write the rows of a two-dimensional float64 ``matrix`` to the binary
    file ``fh``: values separated by "," and each row ended by a newline."""
    n_rows, n_cols = matrix.shape
    if n_cols == 0:
        fh.write(b"\n" * n_rows)
        return
    step = max(1, _BLOCK_CELLS // n_cols)
    sep = np.full((step, n_cols), ord(","), _U)
    sep[:, -1] = ord("\n")
    sep = sep.ravel()
    words = np.empty((step * n_cols, 3), "<u8")
    for first in range(0, n_rows, step):
        x = matrix[first:first + step].ravel()
        n = x.size
        fast = _format_cells(x, sep[:n], words[:n])
        block = words[:n].view(np.uint8)
        text = block[block != 0]
        if fast.all():
            fh.write(text)
            continue
        # Put the text of the other cells before their separators.
        slow = np.flatnonzero(~fast)
        cuts = (np.cumsum(np.count_nonzero(block, axis=1))[slow] - 1).tolist()
        text = memoryview(text)
        pieces = [None] * (2 * slow.size + 1)
        pieces[0::2] = [text[a:b] for a, b in zip([0, *cuts], [*cuts, len(text)])]
        pieces[1::2] = (b"%.17g\0" * slow.size % tuple(x[slow].tolist())).split(b"\0")[:-1]
        fh.write(b"".join(pieces))
