"""Fixed-width text tables for benchmark reports, and the one CSV reader and writer."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence


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

    def to_dict(self) -> dict:
        return {"title": self.title, "headers": list(self.headers),
                "rows": [list(r) for r in self.rows]}


def write_csv(path: str | Path, header: list[str], rows: Iterable[Sequence[object]]) -> None:
    """Write the header, then one line per row (``None`` as an empty field)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def read_csv(path: str | Path, header: list[str], parse: Callable[..., object]) -> list:
    """One ``parse(*fields)`` record per row, for every CSV format of the package.

    The first row must equal ``header``, blank lines are skipped and every
    other row must have one field per column.  A foreign header raises
    ``ValueError``; so does a bad row, or any ``ValueError`` from
    ``parse``, as ``"PATH line N: ..."``.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        first = next(reader, None)
        if first != header:
            raise ValueError(f"unexpected header {first} in {path}")
        try:
            for fields in reader:
                if not fields:
                    continue
                if len(fields) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(fields)}")
                records.append(parse(*fields))
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path} line {reader.line_num}: {exc}") from None
    return records
