"""Tab-separated text of float columns, each value exactly as Python's
``format(v, '.9g')`` writes it, rendered by a vectorised kernel.

Every value fills a 16-byte field (two uint64 words). Bytes a value does
not use hold 0, and a rendered chunk loses them in one
``bytes.translate(None, b"\\0")``, so no byte has to be shifted into place.
For the decimal exponent e of a value in fixed notation (-4 <= e <= 8):

    slot 0-4    "0." and the zeros after it, for e < 0
    slot 5-14   the nine significant digits; for e >= 0 the point follows
                digit e, in slot 6 + e, and the digits after it move up one
    slot 15     the column separator (tab, or newline after the last column)

Text is rendered TSV_CHUNK_ROWS rows at a time, so a writer holds a few
megabytes of buffers at most. Within a chunk, a column where at most half
the rows start a run of equal values, such as a PR curve's recall, has each
run's first value formatted once and its words repeated over the run.
"""

from __future__ import annotations

import os
from typing import Iterator, Sequence

import numpy as np

TSV_CHUNK_ROWS = 16384

_FIELD = 16
_TIE_MARGIN = 1e-6
# 10**k, exact in float64 for k <= 22
_POW10 = np.array([float(10**k) for k in range(14)])


def _group_table(group: int) -> np.ndarray:
    """(2, 28000) uint64: the words of digits 3·group .. 3·group+2, with the
    lead of a value below 1 (group 0) and the point when one of the digits
    follows it, by row 2000·k + 1000·strip + g. Here k = 8 - e, g is the
    three-digit value, and strip drops g's trailing zeros (right when every
    later digit is 0), though never a digit in front of the point."""
    g = np.arange(1000)
    digits = np.stack([g // 100, g // 10 % 10, g % 10], axis=1) + ord("0")
    # how many of g's digits are left once trailing zeros are dropped
    kept = np.select([g % 10 > 0, g % 100 > 0, g > 0], [3, 2, 1], 0)
    table = np.zeros((14, 2, 1000, _FIELD), np.uint8)
    for k in range(14):
        e = 8 - k
        if group == 0 and e < 0:
            table[k, :, :, 0:2] = list(b"0.")
            table[k, :, :, 2 : 2 + min(-e - 1, 3)] = ord("0")
        for strip in (0, 1):
            for jj in range(3):
                j = 3 * group + jj
                shown = (kept > jj) | (strip == 0)
                slot = 5 + j + (0 <= e < j)
                table[k, strip, :, slot] = np.where(shown | (j <= e), digits[:, jj], 0)
                if e >= 0 and j == e + 1:  # the point goes in front of this digit
                    table[k, strip, :, slot - 1] = np.where(shown, ord("."), 0)
    return np.ascontiguousarray(table.reshape(-1, _FIELD).view(np.uint64).T)


def _scale_tables() -> tuple[np.ndarray, np.ndarray]:
    """By the top 12 bits of a float64 (sign and biased exponent): whether
    the fast path takes it, and k0 = 8 - floor(log10(2**E)) for its binary
    exponent E. The fast path takes positive x in [2**-14, 2**29), where
    k0 is 0..13: below, the decimal exponent is under -4; from 2**29 up,
    k0 = 0 and the step down to k = -1 would have no power of ten."""
    fast = np.zeros(4096, bool)
    k0 = np.full(4096, 8, np.intp)  # 8 is right for 1.0, what other values become
    for e2 in range(-14, 29):
        e10 = len(str(2**e2)) - 1 if e2 >= 0 else -len(str(2 ** -e2))
        fast[1023 + e2] = True
        k0[1023 + e2] = 8 - e10
    return fast, k0


_G0 = _group_table(0)
_G1, _G2 = (_group_table(group)[1].copy() for group in (1, 2))  # slots 8-14: word 1 only
_FAST, _K0 = _scale_tables()


def _separator(sep: bytes) -> np.uint64:
    return np.frombuffer(b"\0" * (_FIELD - 1) + sep, np.uint64)[1]


_TAB, _NEWLINE = _separator(b"\t"), _separator(b"\n")


def _fields(x: np.ndarray, out: np.ndarray) -> bool:
    """Write into ``out`` ((2, n) uint64, one row per word) the field of
    each float64 in ``x``, whose nonzero bytes are ``format(v, '.9g')``.
    False if a value's text takes all 16 bytes (a negative with nine digits
    and a three-digit exponent), leaving its field no room for a separator.

    Fast path, for positive x in [2**-14, 2**29): k estimates 8 - e from
    the binary exponent, so that s = x·10**k lands in [1e8, 1e9) after at
    most one step down. 10**k is exact, so s carries one rounding, under
    6e-8 (half an ulp below 2**30). Where |s - rint(s)| < 0.5 - 1e-6,
    rint(s) is therefore x's correctly rounded nine significant digits,
    which is what '.9g' prints; a carry to 1e9 becomes 1e8 one decade up.
    The field is then the table rows of the three-digit groups at exponent
    e, for fixed notation (-4 <= e <= 8).

    Everything else -- a near-tie, an exponent outside the fixed range,
    zero, a negative or a non-finite value -- is formatted by Python.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    top = (x.view(np.uint64) >> 52).astype(np.intp)
    fast = _FAST.take(top)
    k = _K0.take(top)
    xs = np.where(fast, x, 1.0)
    s = xs * _POW10.take(k)
    k -= s >= 1e9
    s = xs * _POW10.take(k)
    d = np.rint(s)
    fast &= np.abs(s - d) < 0.5 - _TIE_MARGIN
    carry = d == 1e9
    d[carry] = 1e8
    k -= carry
    fast &= k <= 12  # e >= -4

    digits = d.astype(np.int64)
    top3 = digits // 1000
    lo = digits - 1000 * top3
    hi = top3 // 1000
    mid = top3 - 1000 * hi + 1000 * (lo == 0)  # strip when all after it is 0
    hi += 1000 * (mid == 1000)
    row = 2000 * k
    hi += row
    mid += row
    lo += row + 1000  # the last group always strips
    _G0[0].take(hi, out=out[0])
    np.bitwise_or(_G0[1].take(hi), _G1.take(mid), out=out[1])
    out[1] |= _G2.take(lo)

    slow = np.flatnonzero(~fast)
    texts = [format(v, ".9g").encode() for v in x[slow].tolist()]
    if any(len(t) >= _FIELD for t in texts):
        return False
    if texts:
        padded = b"".join(t.ljust(_FIELD, b"\0") for t in texts)
        out[:, slow] = np.frombuffer(padded, np.uint64).reshape(-1, 2).T
    return True


def _run_fields(x: np.ndarray, out: np.ndarray) -> bool:
    """``_fields(x, out)``, with each run of equal values formatted once
    where at most half the rows start a run: the first value of each run is
    formatted, and its two words are repeated over the run. Runs are found
    on the bit patterns, so -0.0 and 0.0 stay apart and so do NaNs with
    different payloads."""
    bits = x.view(np.uint64)
    new_run = np.empty(len(x), bool)
    new_run[:1] = True
    np.not_equal(bits[1:], bits[:-1], out=new_run[1:])
    if 2 * np.count_nonzero(new_run) > len(x):
        return _fields(x, out)
    starts = np.flatnonzero(new_run)
    firsts = np.empty((2, len(starts)), np.uint64)
    if not _fields(x[starts], firsts):
        return False
    out[...] = np.repeat(firsts, np.diff(starts, append=len(x)), axis=1)
    return True


def tsv_chunks(columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """The rows of ``columns`` as ASCII bytes, one line per row with the
    columns' '.9g' values tab-separated, and one ``bytes`` per
    TSV_CHUNK_ROWS rows, so that nothing larger than a chunk is held. Each
    run of equal values is formatted once in a column where at most half
    the chunk's rows start a run.

    A chunk holding a value of 16 characters is formatted value by value
    instead.
    """
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    n = len(columns[0])
    seps = np.array([_TAB] * (len(columns) - 1) + [_NEWLINE], np.uint64)[:, None]
    for start in range(0, n, TSV_CHUNK_ROWS):
        chunk = [c[start : start + TSV_CHUNK_ROWS] for c in columns]
        # word-major, so each column writes whole rows; .T gives the byte order
        words = np.empty((2 * len(chunk), len(chunk[0])), np.uint64)
        if all(_run_fields(c, words[2 * i : 2 * i + 2]) for i, c in enumerate(chunk)):
            words[1::2] |= seps
            yield words.T.tobytes().translate(None, b"\0")
        else:
            rows = zip(*(c.tolist() for c in chunk))
            yield "".join("\t".join(format(v, ".9g") for v in row) + "\n" for row in rows).encode("ascii")


def write_tsv(path: str | os.PathLike, header: Sequence[str], columns: Sequence[np.ndarray]) -> None:
    """Write a tab-separated header line, then ``tsv_chunks(columns)``,
    chunk by chunk, to the file at ``path``."""
    with open(path, "wb") as out:
        out.write(("\t".join(header) + "\n").encode("ascii"))
        for chunk in tsv_chunks(columns):
            out.write(chunk)
