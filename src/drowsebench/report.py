"""Fixed-width text tables for benchmark reports, the one population
standard deviation, the one CSV reader (row by row, or column by
column in chunks) and writer, and the error for degenerate input data."""

from __future__ import annotations

import contextlib
import csv
import math
import operator
from dataclasses import dataclass, field
from itertools import chain, repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence


class DegenerateDataError(ValueError):
    """Input data cannot support the requested computation."""


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


def read_header(lines: Iterator[str]) -> tuple[list[str], Iterator[str]]:
    """The fields of the first of ``lines`` by the ``csv`` rules, ``[]`` if it refuses them,
    and the lines from that one on; ``lines`` goes on after it, so a pipe is read once."""
    first = next(lines, "")
    try:
        header = next(csv.reader([first]), [])
    except csv.Error:  # a field longer than csv.field_size_limit()
        header = []
    return header, chain([first], lines)


def iter_csv(
    path: str | Path, header: list[str], parse: Callable[..., object],
    lines: Iterable[str] | None = None,
) -> Iterator:
    """One ``parse(*fields)`` record per row, for every CSV format of the package.

    The first line, read by ``read_header``, must equal ``header``; blank
    lines are skipped and every other row must have one field per column.
    A foreign header raises ``ValueError``; so does a bad row, or any
    ``ValueError`` from ``parse``, as ``"PATH line N: ..."``.  Rows are
    read as the caller asks for them, so a caller can fold them into what
    it needs.  ``lines``, when given, are the lines of the file ``path``
    names, from its header on, read from a file already open (a pipe can
    be read only once); otherwise the file is opened here.
    """
    with open(path, newline="") if lines is None else contextlib.nullcontext(iter(lines)) as fh:
        first = read_header(fh)[0]
        if first != header:
            raise ValueError(f"unexpected header {first} in {path}")
        reader = csv.reader(fh)  # the lines after the header
        width = len(header)
        try:
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != width:
                    raise ValueError(f"expected {width} fields, got {len(fields)}")
                yield parse(*fields)
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path} line {reader.line_num + 1}: {exc}") from None


_CHUNK_HINT = 1 << 16  # about 64 KiB of whole lines per chunk
# a quote and a NUL, which csv.reader treats apart from other characters
_UNCLEAN = '"\x00'


def _split_lines(lines: list[str], width: int) -> list[list[str]] | None:
    """One list of fields per column of whole CSV lines, or ``None`` unless plainly clean.

    The lines end in ``\\n``.  Joined with commas, they split into
    ``width`` fields each, and each line's end must fall in its last
    field; so every line has ``width - 1`` commas.
    """
    if not lines[-1].endswith("\n"):  # a file's last line may lack its end
        lines[-1] += "\n"
    text = ",".join(lines)
    fields = text.split(",")
    if len(fields) != width * len(lines):
        return None
    last = "".join(fields[width - 1 :: width]).split("\n")
    if len(last) != len(lines) + 1:
        return None
    if any(map(text.__contains__, _UNCLEAN)):
        return None
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, lines)) > limit:
        return None
    del last[-1]
    return [fields[k::width] for k in range(width - 1)] + [last]


def _clean_columns(
    path: str | Path, header: list[str], parse_chunk: Callable, columns: list
) -> list | None:
    """``columns`` filled from the plainly clean text after ``header``, or ``None`` unless clean.

    The file is read with universal newlines, which end a line at
    ``\\r\\n``, ``\\r`` or ``\\n`` as ``csv.reader`` does in unquoted text.
    """
    with open(path) as fh:
        # the row path reads the file again, which a pipe cannot give twice
        if not fh.seekable() or read_header(fh)[0] != header:
            return None
        while lines := fh.readlines(_CHUNK_HINT):
            fields = _split_lines(lines, len(header))
            if fields is None:  # blank lines are skipped, as by iter_csv
                lines = [line for line in lines if line != "\n"]
                if not lines:
                    continue
                fields = _split_lines(lines, len(header))
                if fields is None:
                    return None
            for column, values in zip(columns, parse_chunk(*fields)):
                column.extend(values)
    return columns


def read_columns(
    path: str | Path,
    header: list[str],
    parse: Callable[..., tuple],
    parse_chunk: Callable,
    build: Callable[..., object],
) -> object:
    """``build(*columns)``, the columns that ``parse_chunk`` makes filled by ``iter_csv``'s rules.

    ``parse_chunk(*fields)`` takes one list of strings per column of the
    header and returns them converted, one sequence per kept column: a
    list, or an ``array`` or ``bytearray`` that holds C values, so a
    caller keeps only the columns it needs, each in the type it needs.
    Called on empty lists, it makes the empty columns.

    Plainly clean text is read in chunks of about 64 KiB of whole lines:
    ``read_header`` finds ``header``, and after it there is no quote or
    NUL, each non-blank line has one comma fewer than the header has
    columns, and no line is longer than ``csv.field_size_limit()``.
    Each chunk is split into its columns, and what ``parse_chunk``
    returns extends the columns before the next chunk is read; so no
    string column of the whole file is ever held.

    On anything else, on any ``ValueError`` or ``OverflowError`` (a value
    too large for its C type) from ``parse_chunk``, the columns or
    ``build``, and for a file that cannot seek, such as a pipe, the
    columns are made anew and filled from ``iter_csv(path, header,
    parse)`` (reading the file again), where ``parse(*fields)`` returns
    one row's kept values as a tuple.  So ``parse_chunk`` converts, the
    columns and ``build`` check, and ``parse`` names the line: it must
    reject, as a ``ValueError``, each row that the columns or ``build``
    would refuse.  ``parse_chunk`` may refuse a field that ``parse``
    accepts, but must convert every field it accepts as ``parse`` does.
    """
    def new_columns() -> list:
        return list(parse_chunk(*([] for _ in header)))

    try:
        columns = _clean_columns(path, header, parse_chunk, new_columns())
        if columns is not None:
            return build(*columns)
    except (ValueError, OverflowError):
        pass
    columns = new_columns()
    for row in iter_csv(path, header, parse):
        for column, value in zip(columns, row):
            column.append(value)
    return build(*columns)


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
