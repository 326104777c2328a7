import csv
import gc
import math
import re
import statistics
import sys
import tracemalloc
from fractions import Fraction
from itertools import cycle

import pytest

from drowsebench import report
from drowsebench.blink import EAR_CSV_HEADER, read_ear_csv
from drowsebench.cli import main
from drowsebench.decision import (
    SCORES_CSV_HEADER,
    Label,
    ScoreTally,
    read_scores_csv,
)
from drowsebench.report import iter_csv, pstdev, read_columns, write_csv


def _check_pstdev(oracle):
    """Run ``oracle(values)`` over lists that cover the whole finite range."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    # every finite float: subnormals, zeros of both signs, negatives, up to the largest
    floats = st.floats(allow_nan=False, allow_infinity=False)
    ints = st.integers(-(2**80), 2**80)
    values = st.one_of(floats, ints)
    samples = st.one_of(
        st.lists(floats, min_size=1, max_size=40),
        st.lists(ints, min_size=1, max_size=40),
        st.lists(values, min_size=1, max_size=40),
        st.builds(lambda value, n: [value] * n, values, st.integers(1, 40)),
    )

    @hypothesis.settings(max_examples=1000, deadline=None)
    @hypothesis.given(samples)
    @hypothesis.example([1e300, 1e-300])
    @hypothesis.example([-1e300, 1e-300, 0.0, 5e-324])
    @hypothesis.example([5e-324, 0.0, -5e-324])
    @hypothesis.example([1.7976931348623157e308, -1.7976931348623157e308])
    @hypothesis.example([2**53 + 1, 2**53])
    # ints that a float would round, next to a float with fraction bits
    @hypothesis.example([2**64 + 668, 2**60 + 973, 2**63 - 89, 2**56 + 221, 3.0])
    @hypothesis.example([0.0, -0.0])
    @hypothesis.example([7])
    def check(values):
        got = pstdev(values)
        assert type(got) is float
        oracle(values, got)

    check()


# before 3.11, statistics.pstdev rounds twice (a float variance, then its root)
@pytest.mark.skipif(sys.version_info < (3, 11), reason="statistics.pstdev rounds twice")
def test_pstdev_equals_statistics_pstdev():
    def oracle(values, got):
        assert got == statistics.pstdev(values)

    _check_pstdev(oracle)


def test_pstdev_is_correctly_rounded():
    def oracle(values, got):
        exact = [Fraction(v) for v in values]
        mean = sum(exact) / len(exact)
        variance = sum((x - mean) ** 2 for x in exact) / len(exact)
        # the exact root lies within half a gap of got on either side
        low = (Fraction(got) + Fraction(math.nextafter(got, 0.0))) / 2
        high = Fraction(got) + Fraction(math.ulp(got)) / 2
        assert low * low <= variance <= high * high

    _check_pstdev(oracle)


def test_pstdev_keeps_ints_exact():
    # converting either int to a float first would read 0.0
    assert pstdev([2**53 + 1, 2**53]) == 0.5


def test_table_row_must_have_one_cell_per_column():
    table = report.ReportTable(title="t", headers=["a", "b"])
    with pytest.raises(ValueError, match="^row has 3 cells, header has 2$"):
        table.add_row(1, 2, 3)
    assert table.rows == []


def test_pstdev_of_nothing_raises():
    with pytest.raises(ValueError, match="at least one value"):
        pstdev([])


# ---- the chunked column reader against the row reader it must match ----


def outcome(read, path):
    """What ``read(path)`` returns, or the type and message of what it raises."""
    try:
        return read(path)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)


def ear_rows(path):
    """The EAR CSV rules row by row, as ``read_ear_csv`` applied them before columns."""
    last = None

    def parse(frame_id, ts_us, ear):
        nonlocal last
        frame_id, ts_us, ear = int(frame_id), int(ts_us), float(ear)
        if not math.isfinite(ear) or ear < 0:
            raise ValueError(f"ear must be finite and non-negative, got {ear}")
        if last is not None and frame_id <= last:
            raise ValueError(f"frame_id {frame_id} does not follow {last}")
        last = frame_id
        return frame_id, ts_us, ear

    return list(iter_csv(path, EAR_CSV_HEADER, parse))


def ear_samples(path):
    """The ``(frame_id, ts_us, ear)`` rows of ``read_ear_csv(path)``, read off its columns."""
    series = read_ear_csv(path)
    return list(zip(series.frame_id, series.ts_us, series.ear))


def score_rows_tally(path):
    """The scores CSV rules row by row, folded into a tally: id, score, label, score range."""
    def parse(seq_id, score, label):
        int(seq_id)
        score, label = float(score), Label(int(label))
        if not 0 <= score <= 10:
            raise ValueError(f"score must be within [0, 10], got {score}")
        return score, label

    rows = list(iter_csv(path, SCORES_CSV_HEADER, parse))
    return ScoreTally([score for score, label in rows if label is Label.DROWSY],
                      [score for score, label in rows if label is Label.ALERT], path)


def fields_of(*fields):
    return fields


def string_columns(path):
    return read_columns(path, ["a", "b", "c"], fields_of, fields_of, lambda *columns: list(columns))


def csv_string_columns(path):
    columns = [[], [], []]
    for row in iter_csv(path, ["a", "b", "c"], fields_of):
        for column, field in zip(columns, row):
            column.append(field)
    return columns


# misaligned rows whose fields add up; a row twice as wide; a "\r\n" line
# among "\n" lines; a quoted field; a NaN or infinity after a finite value
SPLIT_TRAPS = ["a,b,c\nx,y,z,w\np,q\n", "a,b,c\nx,y,z,u,v,w\n", "a,b,c\nx,y,z\np,q,r\r\n",
               'a,b,c\n"x",y,z\n', "a,b,c\r\nx,y,z\r\np,q,r\rs,t,u\r\n", "a,b,c\nx,y,z\x0c\n"]

# format: header, a valid row from (k, x), field values to try, the reader,
# its row-by-row oracle, and texts that every run tries
READERS = {
    "ear": (
        EAR_CSV_HEADER,
        lambda k, x: [str(3 * k + 1), str(33333 * k), repr(x)],
        ["nan", "inf", "-inf", "-0.1", "-0.0", "0", " 0.3", "0.3 ", '"0.3"', '"0,3"', "1_0",
         "", "x", "+5", "٣", "1e-3", "0.3\x00", "5\x0c", "0", "-3", "2"],
        ear_samples,
        ear_rows,
        ["frame_id,ts_us,ear\n0,0,0.3\n1,1,inf\n", "frame_id,ts_us,ear\n0,0,0.3\n1,1,nan\n",
         "frame_id,ts_us,ear\n0,0,0.3\n1,1,-0.1\n", "frame_id,ts_us,ear\n5,0,0.3\n5,1,0.3\n"],
    ),
    "scores": (
        SCORES_CSV_HEADER,
        lambda k, x: [str(k), repr(10 * x), "10" if k % 3 else "0"],
        ["+10", "010", "5", " 10", "10.0", "0", "10", "-0", "nan", "inf", "11", "-1", "1e1",
         '"7"', "", "x", "٣", "3\x00", "10\x0c", "7\x85"],
        read_scores_csv,
        score_rows_tally,
        ["id,score,label\n0,0.5,0\n1,nan,10\n", "id,score,label\n0,0.5,0\n1,11,10\n",
         "id,score,label\n0,0.5,0\n1,0.5,+10\n"],
    ),
    "fields": (
        ["a", "b", "c"],
        lambda k, x: [f"a{k}", str(x), "c"],
        ['"x"', '"x,y"', 'x"y', '""', "", " ", "x\x00", "x\x0c", "x\rb", "x\nb", "x\r\n",
         "\u2028", "\x85", "\x1d", "x\x0b"],
        string_columns,
        csv_string_columns,
        SPLIT_TRAPS,
    ),
}

HEADER_VARIANTS = ['"{0}",{1},{2}', "{0},{1}", "{0},{1},{2},", "{0},{1},{2} ", "\ufeff{0},{1},{2}",
                   "{0}, {1},{2}", "{0},{1},{2}\x00", ""]
LINE_ENDS = ["\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", " ", "\r\r\n", "\n\n"]


def mutated_csv(header, row_of, pool):
    """Strategy: the text of a valid CSV file with a few defects or oddities."""
    st = pytest.importorskip("hypothesis.strategies")
    index = st.integers(0, 39)
    edits = st.one_of(
        st.tuples(st.just("field"), index, st.integers(0, 2), st.sampled_from(pool)),
        st.tuples(st.just("short"), index),
        st.tuples(st.just("long"), index),
        st.tuples(st.just("wide"), index),
        st.tuples(st.just("blank"), index),
        st.tuples(st.just("repeat_id"), index),
        st.tuples(st.just("header"), st.sampled_from(HEADER_VARIANTS)),
        st.tuples(st.just("end"), index, st.sampled_from(LINE_ENDS)),
    )

    @st.composite
    def text(draw):
        values = draw(st.lists(st.floats(0.0, 1.0), min_size=0, max_size=40))
        rows = [row_of(k, x) for k, x in enumerate(values)]
        head = ",".join(header)
        end = draw(st.sampled_from(["\n", "\r\n"]))
        ends = [end] * len(rows)
        for edit in draw(st.lists(edits, max_size=4)):
            kind, *args = edit
            if kind == "header":
                head = args[0].format(*header)
                continue
            if not rows:
                continue
            k = args[0] % len(rows)
            if kind == "field" and args[1] < len(rows[k]):
                rows[k][args[1]] = args[2]
            elif kind == "short":
                rows[k] = rows[k][:-1]
            elif kind == "long":
                rows[k] = rows[k] + ["7"]
            elif kind == "wide":  # as many fields again
                rows[k] = rows[k] + ["7"] * len(header)
            elif kind == "blank":
                rows.insert(k, [])
                ends.insert(k, end)
            elif kind == "repeat_id" and k and rows[k] and rows[k - 1]:
                rows[k][0] = rows[k - 1][0]
            elif kind == "end":
                ends[k] = args[1]
        body = "".join(",".join(row) + e for row, e in zip(rows, ends))
        if draw(st.booleans()):  # no line end after the last line
            body = body.removesuffix(ends[-1]) if rows else body
        return head + end + body

    return text()


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_column_reader_matches_row_reader_on_mutated_files(fmt, tmp_path):
    # "fields" reads every field as its string, so it compares the split
    # itself with csv.reader's; "ear" and "scores" add each format's checks
    hypothesis = pytest.importorskip("hypothesis")
    header, row_of, pool, read, oracle, traps = READERS[fmt]
    path = tmp_path / f"{fmt}.csv"

    @hypothesis.settings(max_examples=500, deadline=None,
                         suppress_health_check=[hypothesis.HealthCheck.too_slow])
    @hypothesis.given(mutated_csv(header, row_of, pool))
    def check(text):
        with open(path, "w", newline="") as fh:
            fh.write(text)
        assert outcome(read, path) == outcome(oracle, path)

    for text in traps:
        check = hypothesis.example(text)(check)
    check()


@pytest.mark.parametrize("hint", [1, 64])
@pytest.mark.parametrize("fmt", sorted(READERS))
def test_column_reader_matches_row_reader_across_chunk_boundaries(fmt, hint, tmp_path,
                                                                  monkeypatch):
    # a chunk of one line, or of a few: repeated ids, blank lines and bad
    # values then fall on the boundaries between chunks
    monkeypatch.setattr(report, "_CHUNK_HINT", hint)
    test_column_reader_matches_row_reader_on_mutated_files(fmt, tmp_path)


def write_ear_text(path, rows, end="\r\n", last_end=True, head=",".join(EAR_CSV_HEADER)):
    with open(path, "w", newline="") as fh:
        fh.write(end.join([head, *rows]) + (end if last_end else ""))


def ear_lines(n):
    return [f"{k},{33333 * k},{0.3 - (k % 7) / 100!r}" for k in range(n)]


@pytest.fixture
def no_row_reader(monkeypatch):
    """Fail the test if the reader falls back to the row-by-row path."""
    def fail(*args):
        raise AssertionError("read the file row by row")

    monkeypatch.setattr(report, "iter_csv", fail)


PLAIN_HEADS = ("frame_id,ts_us,ear", "id,score,label")


# csv.reader ends a line at "\n", "\r\n" or "\r", and keeps a form feed in
# its field, which int() and float() strip; each EAR row ends in its tail
@pytest.mark.parametrize("end, tails, heads", [
    pytest.param("\n", [""], PLAIN_HEADS, id="\n"),
    pytest.param("\r\n", [""], PLAIN_HEADS, id="\r\n"),
    pytest.param("\r", [""], PLAIN_HEADS, id="\r"),
    pytest.param("\n", ["", "\r"], PLAIN_HEADS, id="mixed"),  # "\n" and "\r\n" in turn
    pytest.param("\n", ["\x0c"], PLAIN_HEADS, id="form-feed"),
    # the header is read by the csv rules, so a quoted header field is the plain one
    pytest.param("\r\n", [""], ('"frame_id",ts_us,"ear"', 'id,"score",label'),
                 id="quoted-header"),
])
def test_plainly_clean_files_are_read_in_chunks(tmp_path, no_row_reader, end, tails, heads):
    path = tmp_path / "ear.csv"
    rows = [row + tail for row, tail in zip(ear_lines(9000), cycle(tails))]
    # blank lines are skipped, and the last line may lack its end
    write_ear_text(path, rows[:10] + ["", ""] + rows[10:], end, last_end=False, head=heads[0])
    series = read_ear_csv(path)
    assert len(series) == 9000
    assert series.frame_id[-1] == 8999 and series.ear[-1] == 0.3 - (8999 % 7) / 100
    scores = tmp_path / "scores.csv"
    with open(scores, "w", newline="") as fh:
        fh.write(end.join([heads[1], "0,2.5,0", "1,7.5,10", "2,6.0,10"]) + end)
    assert read_scores_csv(scores) == ScoreTally((6.0, 7.5), (2.5,))


def test_frame_id_decrease_across_a_chunk_boundary_names_its_line(tmp_path):
    path = tmp_path / "ear.csv"
    rows = ear_lines(9000)
    write_ear_text(path, rows)
    first_chunk = lines_in_first_chunk(path)
    assert first_chunk < len(rows)
    # the first row of the second chunk repeats the last frame id of the first
    rows[first_chunk] = rows[first_chunk - 1]
    write_ear_text(path, rows)
    k = first_chunk - 1
    with pytest.raises(ValueError) as raised:
        read_ear_csv(path)
    assert str(raised.value) == f"{path} line {first_chunk + 2}: frame_id {k} does not follow {k}"
    assert outcome(ear_samples, path) == outcome(ear_rows, path)


def lines_in_first_chunk(path):
    # with universal newlines, as the chunk path reads the file
    with open(path) as fh:
        fh.readline()
        return len(fh.readlines(report._CHUNK_HINT))


@pytest.mark.parametrize("column, value, message", [
    (None, None, None),
    ("score", "nan", "score must be within [0, 10], got nan"),
    ("score", "11", "score must be within [0, 10], got 11.0"),
    ("label", "5", "5 is not a valid Label"),
])
def test_bad_score_in_a_later_chunk_names_its_line(tmp_path, request, column, value, message):
    path = tmp_path / "scores.csv"
    rows = [[str(k), repr(k % 1001 / 100), "10" if k % 3 else "0"] for k in range(9000)]
    write_csv(path, SCORES_CSV_HEADER, rows)
    first_chunk = lines_in_first_chunk(path)
    assert first_chunk < len(rows)
    if column is None:
        expected = score_rows_tally(path)
        request.getfixturevalue("no_row_reader")
        assert read_scores_csv(path) == expected
        return
    k = first_chunk + 3  # a row of the second chunk
    rows[k][SCORES_CSV_HEADER.index(column)] = value
    write_csv(path, SCORES_CSV_HEADER, rows)
    with pytest.raises(ValueError) as raised:
        read_scores_csv(path)
    assert str(raised.value) == f"{path} line {k + 2}: {message}"
    assert outcome(read_scores_csv, path) == outcome(score_rows_tally, path)


def test_field_longer_than_the_csv_limit(tmp_path):
    path = tmp_path / "ear.csv"
    limit = csv.field_size_limit()
    write_ear_text(path, ["0,0,0.3", "1,33333,0." + "3" * limit, "2,66667,0.3"])
    with pytest.raises(ValueError) as raised:
        read_ear_csv(path)
    assert str(raised.value) == f"{path} line 3: field larger than field limit ({limit})"
    assert outcome(ear_samples, path) == outcome(ear_rows, path)


def test_nul_byte(tmp_path):
    path = tmp_path / "ear.csv"
    write_ear_text(path, ["0,0,0.3", "1,33333,0.3\x00", "2,66667,0.3"])
    with pytest.raises(ValueError, match="^" + re.escape(f"{path} line 3: ")):
        read_ear_csv(path)
    assert outcome(ear_samples, path) == outcome(ear_rows, path)


# ---- frame ids and timestamps are signed 64-bit integers ----


def ear_text_with(path, rows, quoted):
    """Write EAR ``rows``; a quoted field sends the reader to the row path."""
    if quoted:
        head, last = rows[0].rsplit(",", 1)
        rows = [f'{head},"{last}"', *rows[1:]]
    write_ear_text(path, rows, "\n")


@pytest.mark.parametrize("quoted", [False, True], ids=["chunks", "rows"])
@pytest.mark.parametrize("column", ["frame_id", "ts_us"])
@pytest.mark.parametrize("value", [2**63, -(2**63) - 1])
def test_values_outside_64_bits_name_their_line(tmp_path, capsys, quoted, column, value):
    rows = [["0", "0", "0.3"], ["1", "33333", "0.1"], ["2", "66667", "0.3"]]
    rows[1][EAR_CSV_HEADER.index(column)] = str(value)
    path = tmp_path / "ear.csv"
    ear_text_with(path, [",".join(row) for row in rows], quoted)
    message = f"{path} line 3: {column} {value} does not fit a signed 64-bit integer"
    with pytest.raises(ValueError) as raised:
        read_ear_csv(path)
    assert str(raised.value) == message
    assert main(["detect", "--in", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("quoted", [False, True], ids=["chunks", "rows"])
def test_values_at_the_64_bit_bounds_read(tmp_path, request, quoted):
    if not quoted:
        request.getfixturevalue("no_row_reader")
    ends = [-(2**63), 0, 2**63 - 1]
    path = tmp_path / "ear.csv"
    ear_text_with(path, [f"{v},{v},0.3" for v in ends], quoted)
    series = read_ear_csv(path)
    assert list(series.frame_id) == list(series.ts_us) == ends


# ---- memory: typed columns, and no string column of a whole file ----

MEMORY_ROWS = 50_000


def bytes_per_row(read, path):
    """Peak and retained bytes a row that tracemalloc traces while ``read(path)`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        value = read(path)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del value
    return peak / MEMORY_ROWS, retained / MEMORY_ROWS


@pytest.mark.parametrize("quoted", [False, True], ids=["chunks", "rows"])
def test_ear_series_keeps_8_bytes_a_value(tmp_path, quoted):
    path = tmp_path / "ear.csv"
    ear_text_with(path, ear_lines(MEMORY_ROWS), quoted)
    peak, retained = bytes_per_row(read_ear_csv, path)
    # three 8-byte values a row; boxed numbers in tuples took 105 B/row,
    # and 130 B/row at the peak
    assert retained < 40
    assert peak < 80


def test_score_tally_reads_within_a_bounded_peak(tmp_path):
    path = tmp_path / "scores.csv"
    with open(path, "w", newline="") as fh:
        fh.write("id,score,label\n")
        fh.writelines(f"{k},{(k * 7919) % 1000 / 100!r},{10 * (k % 3 == 0)}\n"
                      for k in range(MEMORY_ROWS))
    peak, _ = bytes_per_row(read_scores_csv, path)
    # the tally's sorted tuples of floats take 32 B/row; keeping every id,
    # score and label object besides them peaked at 100 B/row
    assert peak < 75
