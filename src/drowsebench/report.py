"""Fixed-width text tables for benchmark reports, the one population
standard deviation, and the one CSV reader (row by row, or column by
column in chunks) and writer."""

from __future__ import annotations

import csv
import math
import operator
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence


def mean_std_cell(mean: float, std: float) -> str:
    """Render a statistic as ``m ± s`` with three decimals."""
    return f"{mean:.3f} ± {std:.3f}"


@dataclass
class ReportTable:
    title: str
    headers: list[str]
    rows: list[list[str]] = field(default_factory=list)

    def add_row(self, *cells: object) -> None:
        row = [str(c) for c in cells]
        if len(row) != len(self.headers):
            raise ValueError(f"row has {len(row)} cells, header has {len(self.headers)}")
        self.rows.append(row)

    def render(self) -> str:
        widths = [len(h) for h in self.headers]
        for row in self.rows:
            if len(row) != len(self.headers):
                raise ValueError(f"row has {len(row)} cells, header has {len(self.headers)}")
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = [self.title]
        lines.append("  ".join(h.ljust(w) for h, w in zip(self.headers, widths)).rstrip())
        lines.append("  ".join("-" * w for w in widths))
        for row in self.rows:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        return "\n".join(lines)


def write_csv(path: str | Path, header: list[str], rows: Iterable[Sequence[object]]) -> None:
    """Write the header, then one line per row (``None`` as an empty field)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def iter_csv(path: str | Path, header: list[str], parse: Callable[..., object]) -> Iterator:
    """One ``parse(*fields)`` record per row, for every CSV format of the package.

    The first row must equal ``header``, blank lines are skipped and every
    other row must have one field per column.  A foreign header raises
    ``ValueError``; so does a bad row, or any ``ValueError`` from
    ``parse``, as ``"PATH line N: ..."``.  Rows are read as the caller
    asks for them, so a caller can fold them into what it needs.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != header:
            raise ValueError(f"unexpected header {first} in {path}")
        width = len(header)
        try:
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                yield parse(*fields)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None


_CHUNK_HINT = 1 << 16  # about 64 KiB of whole lines per chunk
# a quote and a NUL, which csv.reader treats apart, and the line breaks of
# str.splitlines other than "\n" and "\r" (a "\r" may only end a line, in
# "\r\n"): csv.reader keeps these inside a field as the split would, but
# a file that holds one is read row by row rather than rely on that
_UNCLEAN = '"\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'


def _split_lines(lines: list[str], width: int) -> list[list[str]] | None:
    """One list of fields per column of whole CSV lines, or ``None`` unless plainly clean.

    The lines, joined with commas, split into ``width`` fields each, and
    each line's end must fall in its last field; so every line has
    ``width - 1`` commas.
    """
    end = "\r\n" if lines[0].endswith("\r\n") else "\n"
    if not lines[-1].endswith("\n"):  # a file's last line may lack its end
        lines[-1] += end
    text = ",".join(lines)
    fields = text.split(",")
    if len(fields) != width * len(lines):
        return None
    last = "".join(fields[width - 1 :: width]).split(end)
    if len(last) != len(lines) + 1:
        return None
    if text.count("\r") != (len(lines) if end == "\r\n" else 0):
        return None
    if any(map(text.__contains__, _UNCLEAN)):
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    del last[-1]
    return [fields[k::width] for k in range(width - 1)] + [last]


def _clean_columns(path: str | Path, header: list[str], parse_chunk: Callable) -> list[list] | None:
    """The columns of plainly clean CSV text, or ``None`` where it is not plainly clean."""
    head = ",".join(header)
    columns: list[list] = [[] for _ in header]
    with open(path, newline="") as fh:
        # the row path reads the file again, which a pipe cannot give twice
        if not fh.seekable() or fh.readline() not in (head + "\n", head + "\r\n", head):
            return None
        while lines := fh.readlines(_CHUNK_HINT):
            fields = _split_lines(lines, len(header))
            if fields is None:  # blank lines are skipped, as by iter_csv
                lines = [line for line in lines if line not in ("\n", "\r\n")]
                if not lines:
                    continue
                fields = _split_lines(lines, len(header))
                if fields is None:
                    return None
            for column, values in zip(columns, parse_chunk(*fields)):
                column.extend(values)
    return columns


def read_columns(
    path: str | Path, header: list[str], parse: Callable[..., tuple], parse_chunk: Callable
) -> list[list]:
    """One list of values per column of a CSV file, with the rules of ``iter_csv``.

    Plainly clean text is read in chunks of about 64 KiB of whole lines:
    the first line is exactly ``header``, there is no quote or NUL, the
    lines of a chunk all end in ``\\n`` or all in ``\\r\\n``, with no other
    line-breaking character, each non-blank line has one comma fewer than
    the header has columns, and no line is longer than
    ``csv.field_size_limit()``.  Each chunk is split into one list of
    strings per column, and ``parse_chunk(*columns)`` returns them
    converted and checked before the next chunk is read, so no string
    column of the whole file is ever held.

    On anything else, on any ``ValueError`` from ``parse_chunk``, and for
    a file that cannot seek, such as a pipe, the file is read (again) as
    ``iter_csv(path, header, parse)``, where ``parse(*fields)`` returns
    one row's values as a tuple.  That path words every error, so
    ``parse_chunk`` may reject more than ``parse`` does, but must accept
    nothing that ``parse`` rejects and convert every field as ``parse``
    does.
    """
    try:
        columns = _clean_columns(path, header, parse_chunk)
    except ValueError:
        columns = None
    if columns is None:
        columns = [[] for _ in header]
        for row in iter_csv(path, header, parse):
            for column, value in zip(columns, row):
                column.append(value)
    return columns


# a ratio scaled to at least 2**108 has a root of at least 55 bits: a double's
# 53, plus the two that rounding to odd needs for one correct final rounding
_ROOT_RATIO_BITS = 2 * 53 + 3


def _sqrt_of_ratio(n: int, m: int) -> float:
    """``sqrt(n / m)`` correctly rounded to a float, for integers n >= 0, m > 0.

    The ratio is scaled by ``4**-q`` so that its integer root has at least
    55 bits; that root is rounded to odd (its last bit set when it is
    inexact), which makes the one rounding of the final division correct.
    """
    q = (n.bit_length() - m.bit_length() - _ROOT_RATIO_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def _times_power_of_two(values: Sequence[float], shift: int, all_floats: bool) -> list[int]:
    """Each value times ``2**shift`` as an exact integer.

    ``shift`` must clear every float's fraction bits.  ``ldexp`` does it
    in one pass for floats whose scaled value stays a float; ints, which
    ``ldexp`` would round above ``2**53``, and a spread too wide for the
    float range take the exact ratio of each value.
    """
    if not shift:  # ints, and floats too large to have fraction bits
        return list(map(int, values))
    if all_floats:
        try:
            return list(map(int, map(math.ldexp, values, repeat(shift))))
        except OverflowError:
            pass
    scaled = []
    for value in values:
        numerator, denominator = value.as_integer_ratio()
        scaled.append(numerator << (shift - denominator.bit_length() + 1))
    return scaled


def pstdev(values: Sequence[float]) -> float:
    """Population standard deviation of ints and finite floats, correctly rounded.

    Equal to ``statistics.pstdev`` on Python 3.11+.  Every value is
    scaled by one power of two to an exact integer (``frexp`` of the
    smallest non-zero float magnitude fixes the power), so the variance
    is an exact ratio of integer sums and only its square root rounds.
    """
    n = len(values)
    if not n:
        raise ValueError("pstdev needs at least one value")
    all_floats = set(map(type, values)) == {float}
    floats = values if all_floats else [v for v in values if isinstance(v, float)]
    smallest = min(map(abs, floats), default=0.0)
    if not smallest:
        smallest = min((abs(v) for v in floats if v), default=0.0)
    # a float of exponent e >= that of the smallest is a multiple of 2**(e - 53)
    shift = max(0, 53 - math.frexp(smallest)[1]) if smallest else 0
    scaled = _times_power_of_two(values, shift, all_floats)
    total = sum(scaled)
    squares = sum(map(operator.mul, scaled, scaled))
    return _sqrt_of_ratio(n * squares - total * total, n * n << 2 * shift)
