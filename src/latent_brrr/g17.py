"""CSV rows of a float64 matrix: each value written exactly as C's "%.17g"
prints it, and read back bit for bit as np.loadtxt reads it.

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

``read_rows`` parses blocks of about 128 KB of text that end at a newline,
carrying a partial last line into the next block. A block must hold rows
of n_cols values "[+-]digits[.digits][(e|E)[+-]digits]" (at least one
mantissa digit) separated by "," and ended by LF; anything else (spaces,
CR, "#", nan, an empty field or line, a ragged row) returns None, and the
caller reads the whole file with np.loadtxt instead, so its results and
error messages are loadtxt's. Per block:
- one flatnonzero finds the separators, and each value's sign is its first
  byte; exponent marks are looked for only in blocks that hold an e or E;
- the 24 bytes that end at each mantissa's end are gathered as three
  little-endian uint64 words (a strided view of the buffer, whose first 24
  bytes are '0'); bytes before the mantissa are masked off, the dot is
  found by the byte that has bit 4 set after xor with '0', and the bytes
  before it move one byte right over it; the digits are checked with byte
  tests and combined 8 to a word with three multiply-shift steps;
- m 10^q (m the digits, q the exponent less the digits after the dot) is
  formed as a double-double: m = mh + ml exactly, times 10^q = hi + lo from
  a table built with exact integer arithmetic at import, with Dekker's
  exact product mh hi. Its error is under 2^-102 of the value, so fl(sum)
  is the correctly rounded double when it lies farther than 2^-95 of the
  value from a midpoint between doubles;
- values nearer a midpoint, mantissas of more than 24 bytes or of 2^64 or
  more, exponents of more than 8 digits, and results outside about
  1e-270..1e307 go to Python's float, which like np.loadtxt calls the
  correctly rounded PyOS_string_to_double.
Values are written into a matrix sized from the first block and grown or
shrunk in place, as loadtxt's realloc does; the work arrays are reused
from block to block.

``io`` imports this module, so its tables are built when the CLI starts,
before any large array exists. Imported lazily at the first write, the
tables landed in the middle of the heap of a ``predict`` run, and the peak
RSS of the benchmark's study workload rose by 7.8 MB instead of under 1 MB.
"""

from __future__ import annotations

import mmap
import os

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


# ---------------------------------------------------------------------------
# Reading

_READ_BYTES = 1 << 17               # text per block: about 6,500 values of 20 bytes
_PAD = 24                           # '0' bytes before each block: a window never leaves the buffer
_ZERO_CHARS = _U(0x3030303030303030)
_HIGH_BITS = _U(0x8080808080808080)
_DIGIT_LIMIT = _U(0x7676767676767676)  # d + 0x76 sets a byte's top bit when d > 9
_FOURS = _U(0x1010101010101010)
_PLACES = np.array([[0x0102030405060708 + 0x0808080808080808 * j] for j in range(3)], _U)
_TOP_MAX = 1843                     # top 8 of 24 digits: m < 1844e16 < 2^64 - 2^11
_Q_MIN, _Q_MAX = -270, 288          # 10^q for which m 10^q stays normal with its error term
_SPLITTER = 2.0**27 + 1             # Veltkamp's split of a double into two 26-bit halves
_MARGIN = 1 - 2.0**-40              # room for the product's error, under 2^-100 of it
_NUMBER_BYTES = b"0123456789+-.eE"


def _powers_of_ten() -> np.ndarray:
    """Rows hi, lo, hi's high half, hi's low half: 10^q = hi + lo to 2^-106
    relative for q = _Q_MIN.._Q_MAX, built with exact integer arithmetic."""
    hi, lo = [], []
    for q in range(_Q_MIN, _Q_MAX + 1):
        a, b = (10**q, 1) if q >= 0 else (1, 10**-q)
        h = a / b                                       # correctly rounded
        num, den = h.as_integer_ratio()
        hi.append(h)
        lo.append((a * den - num * b) / (b * den))
    hi = np.array(hi)
    high = hi * _SPLITTER
    high -= high - hi
    return np.array([hi, lo, high, hi - high])


def _window_masks() -> tuple[np.ndarray, np.ndarray]:
    """Byte masks of a 24-byte window as (3, 25) uint64 words, one column
    per index: its last i bytes; and the bytes after byte t, indexed by
    t + 1 (t = -1: no dot, so all)."""
    byte = np.arange(24)
    count = np.arange(25)[:, None]

    def words(keep):
        return np.ascontiguousarray((keep * 255).astype(np.uint8).view("<u8").T)

    return words(byte >= 24 - count), words(byte > count - 1)


_POW10 = _powers_of_ten()
_LAST, _AFTER = _window_masks()


def _take_masks(table: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The words of ``table``'s columns ``index`` (clipped to its range)."""
    for row, word in zip(table, out):
        np.take(row, index, out=word, mode="clip")
    return out


def _all_digits(words: np.ndarray, scratch: np.ndarray) -> bool:
    """Whether every byte of ``words`` is 0-9."""
    np.add(words, _DIGIT_LIMIT, out=scratch)
    scratch |= words
    scratch &= _HIGH_BITS
    return not scratch.any()


def _eight_digits(d: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """In place: words of eight digit values, the first in the low byte, to
    the numbers they spell (three multiply-shift steps, Lemire's SWAR)."""
    np.right_shift(d, _U(8), out=scratch)
    d *= _U(10)
    d += scratch
    np.right_shift(d, _U(16), out=scratch)
    scratch &= _U(0x000000FF000000FF)
    scratch *= _U(1 + (10000 << 32))
    d &= _U(0x000000FF000000FF)
    d *= _U(100 + (1000000 << 32))
    d += scratch
    d >>= _U(32)
    return d


class _Parser:
    """Parses blocks of whole lines into values, in work arrays reused from
    block to block. They live in anonymous mappings of their own, which
    the system takes back with the parser: reading leaves no free blocks in
    the heap for the arrays that follow it to fit around."""

    def __init__(self, n_cols: int):
        self.n_cols = n_cols
        self.size = self.n_bytes = 0

    @staticmethod
    def _mapped(dtype, *shape) -> np.ndarray:
        count = int(np.prod(shape))
        return np.frombuffer(mmap.mmap(-1, count * np.dtype(dtype).itemsize), dtype,
                             count).reshape(shape)

    def _reserve(self, n: int) -> None:
        """Rows for n values: 4 of int64 (start, length, q, dot) and 9 that
        hold the window masks (two times three words) while the digits are
        read, and nine doubles while they are rounded."""
        if n > self.size:
            self.size = n + n // 4
            self.rows = self._mapped(_U, 13, self.size)
            self.flags = self._mapped(bool, 3, self.size)
            self.chars = self._mapped(np.uint8, self.size)

    def values(self, buf: bytearray, end: int) -> np.ndarray | None:
        """The values of the lines in buf[_PAD:end], in a work array; None
        when the text leaves the grammar."""
        if len(buf) > self.n_bytes:
            self.n_bytes = len(buf)
            self.found = self._mapped(bool, 2, self.n_bytes)
        text = np.frombuffer(buf, np.uint8, end - _PAD, _PAD)
        newline, found = self.found[:, :text.size]
        np.equal(text, 10, out=newline)
        np.equal(text, 44, out=found)
        found |= newline
        ends = np.flatnonzero(found)                    # each value's separator
        n, n_cols = ends.size, self.n_cols
        rows = n // n_cols
        if (n == 0 or n != rows * n_cols or np.count_nonzero(newline) != rows
                or not newline[ends[n_cols - 1::n_cols]].all()):
            return None
        self._reserve(n)
        start, length, q, dot = self.rows[:4, :n].view(np.int64)
        neg, signed, slow = self.flags[:, :n]
        start[0] = 0
        np.add(ends[:-1], 1, out=start[1:])
        first = np.take(text, start, out=self.chars[:n])
        np.equal(first, 45, out=neg)
        np.equal(first, 43, out=signed)
        signed |= neg

        # At most one exponent mark ('e' | 32 == 'E' | 32) in a value.
        mantissa_end, marks = ends, None
        if buf.find(b"e", _PAD, end) >= 0 or buf.find(b"E", _PAD, end) >= 0:
            np.equal(np.bitwise_or(text, 32, out=newline.view(np.uint8)), 101, out=found)
            marks = np.flatnonzero(found)
            marked = np.searchsorted(ends, marks)
            if (np.diff(marked) <= 0).any():
                return None
            mantissa_end = ends.copy()
            mantissa_end[marked] = marks
        np.subtract(mantissa_end, start, out=length)
        length -= signed
        np.greater(length, 24, out=slow)                # longer than a window

        m = self._mantissa_digits(buf, end, mantissa_end, length, dot, slow)
        if m is None or length.min() < 1:
            return None
        # The windows removed each dot of the block, save those in the part
        # of a long mantissa before its window. (A byte removed that was no
        # dot would leave one dot more; bytes that no window checked are
        # checked by float() below.)
        dots = np.count_nonzero(dot >= 0)
        for j in np.flatnonzero(slow).tolist():
            dots += buf.count(b".", _PAD + start[j], _PAD + mantissa_end[j] - 24)
        if dots != np.count_nonzero(np.equal(text, 46, out=found)):
            return None
        np.subtract(dot, 23, out=q)                     # minus the digits after the dot
        q *= dot >= 0
        if marks is not None and not _add_exponents(text, buf, end, ends, marks, marked,
                                                    q, slow):
            return None
        values = self._nearest(m, q, slow)
        np.negative(values, out=values, where=neg)
        for j in np.flatnonzero(slow).tolist():
            token = bytes(buf[_PAD + start[j]:_PAD + ends[j]])
            if token.translate(None, _NUMBER_BYTES):
                return None
            try:
                values[j] = float(token)
            except ValueError:
                return None
        return values

    def _mantissa_digits(self, buf, end, mantissa_end, length, dot, slow):
        """The digits of each mantissa as an integer, or None when a window
        holds a byte other than a digit and one dot. Sets ``slow`` where the
        top 8 of 24 digits exceed _TOP_MAX (m is 0 there), ``dot`` to the
        dot's byte in the window (-1 without one), and takes it off
        ``length``."""
        n = length.size
        mask, scratch = self.rows[4:7, :n], self.rows[7:10, :n]
        # windows[:, e] are the three little-endian words of the 24 bytes
        # that end at byte e of the block.
        windows = np.ndarray((3, end - 23), "<u8", buf, 0, (8, 1))
        words = windows[:, mantissa_end]
        words ^= _ZERO_CHARS
        words &= _take_masks(_LAST, length, mask)
        # Each word's byte k with bit 4 set (the dot is 0x1e now; the digits
        # have it clear) is byte 8 j + k of the window: times _PLACES it
        # gives 8 j + k + 1 in the top byte when a word marks one byte. The
        # highest such place is taken for the dot; of other marked bytes,
        # at least one is left for the digit test.
        np.bitwise_and(words, _FOURS, out=mask)
        mask >>= _U(4)
        mask *= _PLACES
        mask >>= _U(56)
        np.maximum(mask[0], mask[1], out=dot.view(_U))
        np.maximum(dot.view(_U), mask[2], out=dot.view(_U))
        # Move the bytes before the dot one byte right, over it.
        np.left_shift(words, _U(8), out=mask)
        mask[1:] |= words[:2] >> _U(56)
        words ^= mask
        words &= _take_masks(_AFTER, dot, scratch)
        words ^= mask
        dot -= 1                                        # the dot's byte, or -1
        if not _all_digits(words, mask):
            return None
        length -= dot >= 0
        m = _eight_digits(words, mask)
        big = m[0] > _TOP_MAX
        slow |= big
        m[0] *= ~big
        m[0] *= _U(10**16)
        m[1] *= _U(10**8)
        m[0] += m[1]
        m[0] += m[2]
        return m[0]

    def _nearest(self, m, q, slow):
        """m 10^q rounded to the nearest double by a double-double product,
        in a work array; sets ``slow`` where that may not be the correctly
        rounded value. Clobbers q."""
        n = m.size
        ph, pl, bh, bl, mh, ml, a, e, r = self.rows[4:, :n].view(np.float64)
        q -= _Q_MIN
        slow |= q.view(_U) > _U(_Q_MAX - _Q_MIN)
        for table, row in zip(_POW10, (ph, pl, bh, bl)):
            np.take(table, q, out=row, mode="clip")
        # m = mh + ml exactly.
        np.copyto(mh, m, casting="unsafe")
        low = e.view(_U)
        np.copyto(low, mh, casting="unsafe")
        np.subtract(m, low, out=low)
        np.copyto(ml, low.view(np.int64), casting="unsafe")
        np.multiply(mh, ph, out=r)                      # p
        ml *= ph
        pl *= mh                                        # ml ph + mh pl: the rest but ml pl
        # e = mh ph - p exactly (Dekker), from mh's 26-bit halves a + ph.
        np.multiply(mh, _SPLITTER, out=a)
        np.subtract(a, mh, out=e)
        a -= e
        np.subtract(mh, a, out=ph)
        np.multiply(a, bh, out=e)
        e -= r
        a *= bl
        e += a
        np.multiply(ph, bh, out=a)
        e += a
        ph *= bl
        e += ph
        e += pl
        e += ml
        # x = r + e to 2^-102 x. The result mh = fl(r + e) is the correctly
        # rounded x when 2 |x - mh| is below the gap to mh's lower
        # neighbour (never wider than the upper gap), with room for that
        # error.
        np.add(r, e, out=mh)
        r -= mh                                         # exact (Sterbenz)
        r += e
        r += r
        np.abs(r, out=r)
        np.subtract(mh.view(_U), _U(1), out=a.view(_U))
        np.subtract(mh, a, out=a)                       # NaN for 0, where r = 0
        a *= _MARGIN
        slow |= r >= a
        return mh


def _add_exponents(text, buf, end, ends, marks, marked, q, slow) -> bool:
    """Adds the exponent after each mark to q, for the values ``marked``;
    False when one is not a sign and 1-8 digits (more digits set ``slow``)."""
    first = text[marks + 1]
    neg = first == 45
    digits = ends[marked] - marks - 1
    digits -= neg | (first == 43)
    if digits.min() < 1:
        return False
    slow[marked[digits > 8]] = True
    # The 8 bytes that end at each value's end.
    word = np.ndarray((end - 24,), "<u8", buf, 16, (1,))[ends[marked]]
    word ^= _ZERO_CHARS
    np.minimum(digits, 8, out=digits)
    word &= _LAST[2, digits]
    scratch = np.empty_like(word)
    if not _all_digits(word, scratch):
        return False
    value = _eight_digits(word, scratch).view(np.int64)
    np.negative(value, out=value, where=neg)
    q[marked] += value
    return True


def read_rows(fh, n_cols: int) -> np.ndarray | None:
    """The rest of the binary file ``fh`` as an (n_rows, n_cols) float64
    matrix, bit for bit what np.loadtxt(delimiter=",") returns; None when
    the text is not n_cols decimal numbers on every line, when it holds no
    line, or when n_cols < 1 (the caller then falls back to np.loadtxt)."""
    if n_cols < 1:
        return None
    parser = _Parser(n_cols)
    buf = bytearray(b"0" * _PAD + bytes(_READ_BYTES))
    held = 0                    # bytes of a partial line after the pad
    out, n_rows = None, 0
    while True:
        with memoryview(buf) as view:
            got = fh.readinto(view[_PAD + held:])
        filled = _PAD + held + got
        end = buf.rfind(b"\n", _PAD, filled) + 1
        if not got:
            if not held:
                break
            buf[filled:filled + 1] = b"\n"            # a last line without one
            end = filled = filled + 1
        elif not end:                                   # a line longer than the buffer
            buf += bytes(len(buf))
            held = filled - _PAD
            continue
        values = parser.values(buf, end)
        if values is None:
            return None
        rows = values.size // n_cols
        if out is None:
            # Size the matrix from the first block's bytes per row; grow and
            # shrink it in place, as loadtxt does, so it is never copied.
            left = os.fstat(fh.fileno()).st_size - fh.tell() + filled - end
            out = np.empty((rows + int(1.02 * left * rows / (end - _PAD)) + 8, n_cols))
        elif n_rows + rows > len(out):
            out.resize((max(n_rows + rows, len(out) * 5 // 4), n_cols), refcheck=False)
        out.reshape(-1)[n_rows * n_cols:(n_rows + rows) * n_cols] = values
        n_rows += rows
        held = filled - end
        buf[_PAD:_PAD + held] = buf[end:filled]
    if out is None:
        return None
    out.resize((n_rows, n_cols), refcheck=False)
    return out
