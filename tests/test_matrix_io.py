"""CSV ingestion, standardization, and model persistence."""

import math
import os
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spikepca import (
    DataMatrix,
    DegenerateVariable,
    DimensionError,
    EmptyInput,
    FormatError,
    ParseError,
    Preprocessing,
    fit,
    gen_two_spike,
    read_matrix,
    read_model,
    standardize,
    write_matrix,
    write_model,
)
import spikepca.matrix_io
from spikepca.matrix_io import (
    _csv,
    _fmt,
    _is_header,
    _parse_clean,
    _parse_csv,
    _scan_csv,
)


class TestReadMatrix:
    def test_rows_are_variables(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5,6\n")
        X = read_matrix(path, "rows_are_variables")
        assert (X.p, X.n) == (2, 3)
        np.testing.assert_array_equal(X.values, [[1, 2, 3], [4, 5, 6]])

    def test_rows_are_samples_transposes(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5,6\n")
        X = read_matrix(path, "rows_are_samples")
        assert (X.p, X.n) == (3, 2)
        np.testing.assert_array_equal(X.values, [[1, 4], [2, 5], [3, 6]])

    def test_non_numeric_cell_reports_position(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,a,3\n4,5,6\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.row == 1
        assert err.value.col == 2

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert err.value.row == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("")
        with pytest.raises(EmptyInput):
            read_matrix(path)

    def test_header_row_is_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("s1,s2,s3\n1,2,3\n4,5,6\n")
        X = read_matrix(path)
        assert (X.p, X.n) == (2, 3)

    @pytest.mark.parametrize("header", ["", "s1,s2,s3\n"])
    def test_byte_order_mark_is_not_a_cell(self, tmp_path, header):
        # spreadsheet "CSV UTF-8" exports start with U+FEFF
        body = header + "1,2,3\n4,5,6\n7,8,10\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(body, encoding="utf-8")
        marked.write_text("\ufeff" + body, encoding="utf-8")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        np.testing.assert_array_equal(_parse_csv(marked), _parse_csv(plain))
        np.testing.assert_array_equal(
            _parse_csv(marked), [[1, 2, 3], [4, 5, 6], [7, 8, 10]]
        )

    def test_header_without_data(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("s1,s2,s3\n")
        with pytest.raises(EmptyInput):
            read_matrix(path)

    def test_missing_values_rejected(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1,nan,3\n4,5,6\n")
        with pytest.raises(ParseError) as err:
            read_matrix(path)
        assert (err.value.row, err.value.col) == (1, 2)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            read_matrix(tmp_path / "nope.csv")

    def test_write_then_read_idempotent(self, tmp_path):
        rng = np.random.default_rng(0)
        X = DataMatrix(rng.standard_normal((4, 7)) * 1e3)
        path = tmp_path / "m.csv"
        write_matrix(X, path)
        Y = read_matrix(path)
        np.testing.assert_array_equal(Y.values, X.values)
        write_matrix(Y, path)
        np.testing.assert_array_equal(read_matrix(path).values, X.values)


def scanned(path):
    """The cell-by-cell scanner's result for a file, or the error it raises."""
    text = Path(path).read_text()
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    try:
        return _scan_csv(numbered[1 if _is_header(numbered[0][1]) else 0 :])
    except ParseError as exc:
        return exc


def assert_parses_like_scanner(path):
    """_parse_csv gives the scanner's doubles bit for bit, or its error."""
    expected = scanned(path)
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as err:
            _parse_csv(path)
        assert str(err.value) == str(expected)
        for attr in ("row", "col"):
            assert getattr(err.value, attr, None) == getattr(expected, attr, None)
    else:
        got = _parse_csv(path)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestParseCsvFastPath:
    """_parse_csv agrees with the scanner, bit for bit or error for error."""

    FILES = {
        "padded": " 1.5 ,\t2, 3e-2 \n4 ,5,  -6\n",
        "blank_lines": "1,2,3\n   \n\t\n4,5,6\n\n",
        "crlf": "1,2,3\r\n4,5,6\r\n",
        "header": "s1,s2,s3\n1,2,3\n4,5,6\n",
        "header_ragged": "s1,s2,s3\n1,2,3\n4,5\n",
        "header_nan": "s1,s2\n1,2\nnan,4\n",
        "underscore": "1_0,2,3\n4,5,6\n",
        "nan": "1,2,3\n4,nan,6\n",
        "inf": "1,2,-inf\n4,5,6\n",
        "non_numeric": "1,2,3\n4,x5,6\n",
        "ragged": "1,2,3\n4,5\n",
        "long_digits": "0.10000000000000001,1.2345678901234567e-300,3\n4,5,6\n",
        # spellings float() takes after str.strip() but the bulk parse refuses
        "arabic_indic": "\u0661\u0662,2\n3,4\n",
        # Unicode padding; float("1\\x1f") raises, but both paths strip it.
        # str.splitlines() breaks lines at \\x0b, so it pads line ends only.
        "nbsp_padding": "\xa01\xa0,2\n3,\xa04\n",
        "unit_sep_padding": "\x1f1\x1f,2\n3,4\x1f\n",
        "vt_padding": "\x0b1,2\x0b\n3,4\n",
        "hash_tail": "1,2 # note\n3,4\n",
        "overflow": "1,1e400\n3,4\n",
        "underflow": "1,1e-400\n3,4\n",
        "subnormal": "4.9406564584124654e-324,2\n3,-4.9406564584124654e-324\n",
        "trailing_comma": "1,2,\n3,4,\n",
        "lone_comma": "1,2\n,\n3,4\n",
        "quoted": '"1",2\n3,4\n',
        "hex_float": "0x1p3,2\n3,4\n",
        "single_row": "1,2.5,-3\n",
        "single_column": "1\n2.5\n-3\n",
    }

    @pytest.mark.parametrize("name", sorted(FILES))
    def test_matches_scanner(self, tmp_path, name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(self.FILES[name].encode())
        assert_parses_like_scanner(path)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("nbsp_padding", [[1, 2], [3, 4]]),
            ("unit_sep_padding", [[1, 2], [3, 4]]),
            ("vt_padding", [[1, 2], [3, 4]]),
            ("arabic_indic", [[12, 2], [3, 4]]),
            ("underflow", [[1, 0], [3, 4]]),
            ("single_row", [[1, 2.5, -3]]),
            ("single_column", [[1], [2.5], [-3]]),
            ("subnormal", [[5e-324, 2], [3, -5e-324]]),
        ],
    )
    def test_accepted_spellings(self, tmp_path, name, value):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(self.FILES[name].encode())
        got = _parse_csv(path)
        assert got.shape == np.shape(value)
        np.testing.assert_array_equal(got, value)

    def test_clean_file_never_scans(self, tmp_path, monkeypatch):
        def refuse(numbered):
            raise AssertionError("a clean file reached the cell scanner")

        rng = np.random.default_rng(5)
        X = DataMatrix(rng.standard_normal((50, 20)))
        path = tmp_path / "clean.csv"
        write_matrix(X, path)
        monkeypatch.setattr("spikepca.matrix_io._scan_csv", refuse)
        assert _parse_csv(path).tobytes() == X.values.tobytes()

    def test_underscore_cell_parses(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("1_0,2\n3,4\n")
        np.testing.assert_array_equal(_parse_csv(path), [[10.0, 2.0], [3.0, 4.0]])

    def test_clean_rows_take_fast_path(self):
        lines = ["1,2,3", " 4 , 5 ,6"]
        np.testing.assert_array_equal(_parse_clean(lines), [[1, 2, 3], [4, 5, 6]])
        for bad in (["a,b", "1,2"], ["1,2", "3"], ["1,nan"], ["1,"]):
            assert _parse_clean(bad) is None

    def test_header_detection(self):
        assert _is_header("s1, s2 ,s3")
        assert not _is_header("s1,2,s3")
        assert not _is_header(" 1_0 ,x")
        assert not _is_header("1\x1f,2\x1f")
        assert _is_header("\x1fs1\x1f, x ")

    def test_padded_numeric_first_row_is_data(self, tmp_path):
        # str.strip() removes \x1f but bare float() refuses it; the header
        # test strips the cell as the scanner does, so the row is data
        path = tmp_path / "m.csv"
        path.write_bytes(b"1\x1f,2\x1f\n3,4\n5,6\n")
        np.testing.assert_array_equal(_parse_csv(path), [[1, 2], [3, 4], [5, 6]])

    def test_padded_non_numeric_first_row_is_a_header(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"\x1fs1\x1f, x \n3,4\n5,6\n")
        np.testing.assert_array_equal(_parse_csv(path), [[3, 4], [5, 6]])

    @pytest.mark.parametrize(
        "text, row, col, where",
        [
            ("1,2\n\n3,x\n", 3, 2, "at row 3, column 2"),
            ("s1,s2\n\n1,2\n  \n3\n", 5, None, "line 5 has 1 cells"),
        ],
    )
    def test_error_row_is_the_file_line(self, tmp_path, text, row, col, where):
        # blank lines are skipped but still counted
        path = tmp_path / "m.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            _parse_csv(path)
        assert (err.value.row, err.value.col) == (row, col)
        assert where in str(err.value)


class TestDataMatrix:
    def test_rejects_single_sample(self):
        with pytest.raises(DimensionError):
            DataMatrix(np.ones((3, 1)))

    def test_rejects_non_finite(self):
        with pytest.raises(ParseError):
            DataMatrix(np.array([[1.0, np.inf], [0.0, 1.0]]))

    @pytest.mark.parametrize("row", [0, 937, 1999])
    def test_finiteness_checked_in_blocks(self, monkeypatch, row):
        # every row block is checked, the last one included, and no
        # p x n boolean temporary (values.size bytes) is made
        monkeypatch.setattr(spikepca.matrix_io, "BLOCK_CELLS", 2**12)
        values = np.ones((2000, 500))
        tracemalloc.start()
        try:
            DataMatrix(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < values.size // 4
        values[row, -1] = np.nan
        with pytest.raises(ParseError, match="data matrix contains non-finite entries"):
            DataMatrix(values)


class TestStandardize:
    def test_center_constant_row(self):
        X = DataMatrix(np.array([[1.0, 1.0, 1.0]]))
        Y, prep = standardize(X, "center")
        np.testing.assert_array_equal(Y.values, [[0.0, 0.0, 0.0]])
        assert prep.means[0] == 1.0
        assert prep.scales[0] == 1.0

    def test_center_scale_hand_case(self):
        # sd with divisor n=2 of [0, 2] is exactly 1
        X = DataMatrix(np.array([[0.0, 2.0]]))
        Y, prep = standardize(X, "center_scale")
        np.testing.assert_array_equal(Y.values, [[-1.0, 1.0]])
        assert prep.means[0] == 1.0
        assert prep.scales[0] == 1.0

    def test_none_is_identity(self):
        X = DataMatrix(np.array([[1.0, 2.0], [3.0, 4.0]]))
        Y, prep = standardize(X, "none")
        assert Y is X
        assert prep.mode == "none"
        np.testing.assert_array_equal(prep.means, [0.0, 0.0])
        np.testing.assert_array_equal(prep.scales, [1.0, 1.0])

    def test_zero_variance_row_fails_center_scale(self):
        X = DataMatrix(np.array([[1.0, 2.0, 3.0], [5.0, 5.0, 5.0]]))
        with pytest.raises(DegenerateVariable) as err:
            standardize(X, "center_scale")
        assert err.value.row == 1

    def test_center_scale_moments(self):
        rng = np.random.default_rng(3)
        X = DataMatrix(rng.standard_normal((20, 50)) * 7 + 2)
        Y, _ = standardize(X, "center_scale")
        assert np.abs(Y.values.mean(axis=1)).max() < 1e-12
        sds = np.sqrt(np.mean(Y.values**2, axis=1))
        assert np.abs(sds - 1).max() < 1e-12


class TestApplyPreprocessing:
    def test_identity(self):
        prep = Preprocessing("none", np.zeros(3), np.ones(3))
        np.testing.assert_array_equal(prep.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_hand_case(self):
        prep = Preprocessing("center_scale", np.array([1.0]), np.array([2.0]))
        np.testing.assert_array_equal(prep.apply([3.0]), [1.0])

    def test_training_columns_round_trip(self):
        # standardize(X, mode) and prep.apply agree bit for bit, on the
        # whole matrix and on each column alone
        rng = np.random.default_rng(11)
        X = DataMatrix(rng.standard_normal((6, 9)) * 3 + 1)
        for mode in ("none", "center", "center_scale"):
            Y, prep = standardize(X, mode)
            np.testing.assert_array_equal(prep.apply(X.values), Y.values)
            for j in range(X.n):
                np.testing.assert_array_equal(
                    prep.apply(X.values[:, j]), Y.values[:, j]
                )

    def test_input_left_unchanged(self):
        prep = Preprocessing("center_scale", np.array([1.0, 2.0]), np.array([2.0, 4.0]))
        x = np.array([[3.0, 5.0], [6.0, 10.0]])
        np.testing.assert_array_equal(prep.apply(x), [[1.0, 2.0], [1.0, 2.0]])
        np.testing.assert_array_equal(x, [[3.0, 5.0], [6.0, 10.0]])

    def test_length_mismatch(self):
        prep = Preprocessing("center", np.zeros(3), np.ones(3))
        with pytest.raises(DimensionError):
            prep.apply([1.0, 2.0])
        with pytest.raises(DimensionError):
            prep.apply(np.zeros((2, 4)))
        with pytest.raises(DimensionError):
            prep.apply(np.zeros((3, 4, 1)))


@settings(max_examples=25, deadline=None)
@given(
    p=st.integers(1, 6),
    n=st.integers(2, 9),
    scale=st.floats(0.01, 1e6),
    seed=st.integers(0, 2**16),
)
def test_csv_round_trip_exact(tmp_path_factory, p, n, scale, seed):
    rng = np.random.default_rng(seed)
    X = DataMatrix(rng.standard_normal((p, n)) * scale)
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    write_matrix(X, path)
    np.testing.assert_array_equal(read_matrix(path).values, X.values)


@pytest.mark.parametrize(
    "value, text",
    [
        (1.0, "1"),
        (np.float64(np.pi), "3.1415926535897931"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (-0.0, "-0"),
        (3e-300, "3.0000000000000002e-300"),
        # an integer prints in full, never through a float's 1e+17
        (10**17, "100000000000000000"),
        (np.int64(600), "600"),
        # a flag is an int subclass, so it is told apart before integers
        (True, "true"),
        (np.True_, "true"),
        (None, ""),
        ("lambda_hat", "lambda_hat"),
    ],
)
def test_fmt_encodes_by_type(value, text):
    assert _fmt(value) == text


def test_csv_writes_header_and_rows():
    rows = [("pc", "value", "used", "spike"), (1, 0.5, None, False), (2, -0.0, 7, True)]
    assert _csv(rows) == "pc,value,used,spike\n1,0.5,,false\n2,-0,7,true\n"
    assert _csv([]) == ""


def split_into(monkeypatch, blocks):
    """Make the bulk parse cut a file of at least `blocks` rows into
    `blocks` row blocks; returns the list of children the parent forks."""
    forks = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr("spikepca.matrix_io.SPLIT_CELLS", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(blocks)), raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def loadtxt_calls(monkeypatch):
    """Record the number of lines of each np.loadtxt call in this process."""
    calls = []
    loadtxt = np.loadtxt

    def counted(lines, *args, **kwargs):
        calls.append(len(lines))
        return loadtxt(lines, *args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counted)
    return calls


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split parse needs os.fork")
class TestSplitParse:
    """Row blocks converted by forked children give the single call's
    result, bit for bit or error for error, and leave no process behind."""

    # a header and a blank line, so data row i is file line i + 3
    CLEAN = ["s1,s2,s3", ""] + [f"{i}.5,-{i},{i}e-3" for i in range(7)]

    def write(self, tmp_path, rows):
        path = tmp_path / "m.csv"
        path.write_text("\n".join(rows) + "\n")
        return path

    @pytest.mark.parametrize("blocks", [2, 3])
    @pytest.mark.parametrize("name", sorted(TestParseCsvFastPath.FILES))
    def test_matches_scanner(self, tmp_path, monkeypatch, name, blocks):
        split_into(monkeypatch, blocks)
        path = tmp_path / f"{name}.csv"
        path.write_bytes(TestParseCsvFastPath.FILES[name].encode())
        assert_parses_like_scanner(path)
        assert_no_child()

    @pytest.mark.parametrize("blocks", [2, 3])
    def test_children_convert_all_but_the_first_block(self, tmp_path, monkeypatch, blocks):
        forks = split_into(monkeypatch, blocks)
        calls = loadtxt_calls(monkeypatch)
        path = self.write(tmp_path, self.CLEAN)
        assert_parses_like_scanner(path)
        assert len(forks) == blocks - 1
        assert calls == [7 // blocks]
        assert_no_child()

    @pytest.mark.parametrize(
        "blocks, row",
        # the last row, and the first row of a child's block
        [(2, 6), (2, 3), (3, 6), (3, 2), (3, 4)],
    )
    @pytest.mark.parametrize("bad", ["4,x5,6", "4,nan,6", "4,5", "4,5,6,7", "4,5,6,"])
    def test_bad_row_in_a_child_block(self, tmp_path, monkeypatch, blocks, row, bad):
        forks = split_into(monkeypatch, blocks)
        rows = list(self.CLEAN)
        rows[2 + row] = bad
        path = self.write(tmp_path, rows)
        assert isinstance(scanned(path), ParseError)
        assert_parses_like_scanner(path)
        assert len(forks) == blocks - 1
        assert_no_child()

    @pytest.mark.parametrize("row", ["1,2,3,4", "7"])
    def test_child_block_of_another_width(self, tmp_path, monkeypatch, row):
        # each block converts on its own; only the width check sees it
        forks = split_into(monkeypatch, 2)
        rows = self.CLEAN[:5] + [row] * 4
        path = self.write(tmp_path, rows)
        assert scanned(path).row == 6
        assert_parses_like_scanner(path)
        assert len(forks) == 1
        assert_no_child()

    def test_without_fork_one_call(self, tmp_path, monkeypatch):
        split_into(monkeypatch, 3)
        monkeypatch.delattr(os, "fork")
        calls = loadtxt_calls(monkeypatch)
        assert_parses_like_scanner(self.write(tmp_path, self.CLEAN))
        assert calls == [7]

    def test_failing_fork_one_call(self, tmp_path, monkeypatch):
        def refuse():
            raise OSError("fork refused")

        split_into(monkeypatch, 3)
        monkeypatch.setattr(os, "fork", refuse)
        calls = loadtxt_calls(monkeypatch)
        assert_parses_like_scanner(self.write(tmp_path, self.CLEAN))
        assert calls == [7]

    def test_second_fork_failing_leaves_the_parent_a_leading_run(
        self, tmp_path, monkeypatch
    ):
        forks = split_into(monkeypatch, 3)
        counted_fork = os.fork

        def once():
            if forks:
                raise OSError("fork refused")
            return counted_fork()

        monkeypatch.setattr(os, "fork", once)
        calls = loadtxt_calls(monkeypatch)
        assert_parses_like_scanner(self.write(tmp_path, self.CLEAN))
        # the last block went to the child, the first two to the parent
        assert len(forks) == 1
        assert calls == [4]
        assert_no_child()

    def test_interrupt_in_parent_reaps_children(self, tmp_path, monkeypatch):
        parent = os.getpid()
        split_into(monkeypatch, 3)
        loadtxt = np.loadtxt

        def interrupted(lines, *args, **kwargs):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return loadtxt(lines, *args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", interrupted)
        with pytest.raises(KeyboardInterrupt):
            _parse_csv(self.write(tmp_path, self.CLEAN))
        assert_no_child()

    def test_interrupt_in_child_exits_it(self, tmp_path, monkeypatch):
        # the child leaves through os._exit, never back into the caller;
        # the parent converts its failed block again, so the scanner never runs
        parent = os.getpid()
        split_into(monkeypatch, 2)
        loadtxt = np.loadtxt
        calls = []

        def interrupted(lines, *args, **kwargs):
            if os.getpid() != parent:
                raise KeyboardInterrupt
            calls.append(len(lines))
            return loadtxt(lines, *args, **kwargs)

        scans = []

        def scan(numbered):
            scans.append(len(numbered))
            return _scan_csv(numbered)

        monkeypatch.setattr(np, "loadtxt", interrupted)
        monkeypatch.setattr("spikepca.matrix_io._scan_csv", scan)
        assert_parses_like_scanner(self.write(tmp_path, self.CLEAN))
        # rows 0-2 are the parent's own block, rows 3-6 the child's
        assert calls == [3, 4]
        assert scans == []
        assert_no_child()


PADDING = st.sampled_from(["", " ", "  ", "\t", "\xa0", "\x1f", "\u2003"])
SPECIAL = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]
)


PADDED_ROWS = st.integers(1, 5).flatmap(
    lambda width: st.lists(
        st.lists(
            st.tuples(
                PADDING,
                st.floats(allow_nan=False, allow_infinity=False) | SPECIAL,
                PADDING,
            ),
            min_size=width,
            max_size=width,
        ),
        min_size=1,
        max_size=6,
    )
)


def assert_bulk_parse_matches_scanner(tmp_path_factory, cells):
    text = "".join(
        ",".join(f"{left}{v:.17g}{right}" for left, v, right in row) + "\n"
        for row in cells
    )
    path = tmp_path_factory.mktemp("csv") / "m.csv"
    path.write_bytes(text.encode())
    expected = scanned(path)
    assert expected.shape == (len(cells), len(cells[0]))
    bulk = _parse_clean(text.splitlines())
    assert bulk is not None
    assert bulk.tobytes() == expected.tobytes()
    assert _parse_csv(path).tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(cells=PADDED_ROWS)
def test_bulk_parse_matches_scanner(tmp_path_factory, cells):
    # random rectangular files of %.17g doubles, subnormals and signed
    # zeros included, with Unicode padding: the bulk path takes each one
    # and gives the scanner's doubles bit for bit; every row is numeric
    # once stripped, so none is taken for a header
    assert_bulk_parse_matches_scanner(tmp_path_factory, cells)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the split parse needs os.fork")
@pytest.mark.parametrize("blocks", [2, 3])
@settings(max_examples=60, deadline=None)
@given(cells=PADDED_ROWS)
def test_split_parse_matches_scanner(tmp_path_factory, blocks, cells):
    # the same files cut into row blocks that forked children convert
    with pytest.MonkeyPatch.context() as monkeypatch:
        split_into(monkeypatch, blocks)
        assert_bulk_parse_matches_scanner(tmp_path_factory, cells)
    assert_no_child()


def edit_model_cell(path, section, row, col, value):
    """Replace one comma-separated cell of a model file section in place."""
    lines = path.read_text().splitlines()
    i = lines.index(f"[{section}]") + 1 + row
    cells = lines[i].split(",")
    cells[col] = value
    lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


class TestModelPersistence:
    @pytest.fixture
    def fitted(self):
        X = gen_two_spike(10, 0.5, seed=42)
        return fit(X, mode="center", k=3)

    def test_round_trip_field_for_field(self, fitted, tmp_path):
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        loaded = read_model(path)
        assert loaded.prep.mode == fitted.prep.mode
        np.testing.assert_array_equal(loaded.prep.means, fitted.prep.means)
        np.testing.assert_array_equal(loaded.prep.scales, fitted.prep.scales)
        np.testing.assert_array_equal(loaded.eig.d, fitted.eig.d)
        np.testing.assert_array_equal(loaded.eig.U, fitted.eig.U)
        assert loaded.eig.gamma == fitted.eig.gamma
        np.testing.assert_array_equal(loaded.spectrum.d_hat, fitted.spectrum.d_hat)
        np.testing.assert_array_equal(
            loaded.spectrum.lambda_hat, fitted.spectrum.lambda_hat
        )
        assert loaded.spectrum.k == fitted.spectrum.k
        assert loaded.spectrum.tau == fitted.spectrum.tau
        assert loaded.spectrum.converged == fitted.spectrum.converged
        assert loaded.spectrum.iterations == fitted.spectrum.iterations
        np.testing.assert_array_equal(loaded.shrinkage, fitted.shrinkage)
        np.testing.assert_array_equal(loaded.adjustment, fitted.adjustment)
        np.testing.assert_array_equal(loaded.score_corr, fitted.score_corr)
        np.testing.assert_array_equal(loaded.evec_angle, fitted.evec_angle)
        np.testing.assert_array_equal(loaded.identifiable, fitted.identifiable)
        assert loaded.n == fitted.n

    def test_noise_components_keep_nan_shrinkage(self, fitted, tmp_path):
        assert fitted.k_spikes < fitted.k
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        loaded = read_model(path)
        assert np.isnan(loaded.shrinkage[fitted.k_spikes:]).all()

    @pytest.mark.parametrize(
        "section, row, col, value",
        [
            ("means", 0, 0, "nan"),
            ("scales", 1, 0, "inf"),
            ("eigenvalues", 0, 0, "inf"),
            ("eigenvalues", 2, 1, "nan"),
            ("eigenvalues", 1, 2, "-inf"),
            ("eigenvector 1", 0, 0, "inf"),
            ("eigenvector 3", 4, 0, "nan"),
            ("adjustment", 0, 0, "nan"),
            ("adjustment", 0, 2, "inf"),
            ("adjustment", 2, 0, "inf"),
            ("adjustment", 2, 1, "-inf"),
            ("meta", 3, 0, "gamma=nan"),
            ("meta", 3, 0, "gamma=inf"),
            ("meta", 7, 0, "tau=nan"),
            ("meta", 7, 0, "tau=-inf"),
        ],
    )
    def test_non_finite_value_rejected(self, fitted, tmp_path, section, row, col, value):
        # fitted has k=3: row 0 of [adjustment] is a spike, rows 1-2 noise;
        # rows 3 and 7 of [meta] are gamma and tau
        assert fitted.k_spikes == 1
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        edit_model_cell(path, section, row, col, value)
        with pytest.raises(FormatError, match=rf"\[{section}\]"):
            read_model(path)

    @pytest.mark.parametrize(
        "mode, section, row, value, message",
        [
            ("center_scale", "scales", 0, "-1", r"scale -1 in \[scales\] line 1 is not"),
            ("center", "scales", 2, "0", r"scale 0 in \[scales\] line 3 is not pos"),
            ("none", "means", 1, "0.5", r"mean 0.5 in \[means\] line 2 is not 0"),
            ("none", "scales", 0, "2", r"scale 2 in \[scales\] line 1 is not 1"),
        ],
    )
    def test_invalid_preprocessing_rejected(
        self, tmp_path, mode, section, row, value, message
    ):
        # statistics that Preprocessing refuses are a malformed file, not
        # a bare ValueError from the model's construction
        path = tmp_path / "model.spca"
        write_model(fit(gen_two_spike(10, 0.5, seed=42), mode=mode, k=1), path)
        edit_model_cell(path, section, row, 0, value)
        with pytest.raises(FormatError, match=message):
            read_model(path)

    @pytest.mark.parametrize("value", ["0", "-0.5", "1e-300", "0.58", "1.5"])
    def test_spike_shrinkage_out_of_range_rejected(self, fitted, tmp_path, value):
        # a spike's shrinkage lies in (1 / (1 + sqrt(gamma)), 1]; here
        # gamma = 0.5, so the floor is 0.5858
        assert fitted.gamma == 0.5
        assert 1 / (1 + 0.5**0.5) < fitted.shrinkage[0] <= 1
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        edit_model_cell(path, "adjustment", 0, 0, value)
        with pytest.raises(FormatError, match=r"spike shrinkage .* \[adjustment\]"):
            read_model(path)

    @pytest.mark.parametrize(
        "row, col, value",
        [
            (0, 0, "ulp"),  # spike shrinkage, one ulp below the derived one
            (0, 1, "0.5"),  # spike score_corr
            (0, 2, "ulp"),  # spike evec_angle
            (1, 1, "0.5"),  # noise score_corr, derived as 0
        ],
    )
    def test_adjustment_disagreeing_with_spectrum_rejected(
        self, fitted, tmp_path, row, col, value
    ):
        # finite, in-range estimates that the spectrum does not give: the
        # file's [adjustment] must be the estimates derived from
        # [eigenvalues], or predict would adjust by other numbers
        assert fitted.k_spikes == 1
        names = ("shrinkage", "score_corr", "evec_angle")
        derived = getattr(fitted, names[col])[row]
        if value == "ulp":
            value = _fmt(np.nextafter(derived, 0.0))
        stored = float(value)
        assert stored != derived and 0 <= stored <= 1
        if col == 0:
            assert 1 / (1 + math.sqrt(fitted.gamma)) < stored
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        edit_model_cell(path, "adjustment", row, col, value)
        kind = "spike" if row < fitted.k_spikes else "noise"
        message = (
            rf"{kind} {names[col]} {re.escape(value)} in \[adjustment\] "
            rf"line {row + 1} is not {re.escape(_fmt(derived))}"
        )
        with pytest.raises(FormatError, match=message):
            read_model(path)

    @pytest.mark.parametrize("value", ["1.0", "0.5", "-3"])
    def test_spike_lambda_hat_not_above_one_rejected(self, fitted, tmp_path, value):
        # gamma = 0.5, so 0.5 is the lambda_hat = 1 - gamma at which the
        # shrinkage formula divides by zero: rejected before any estimate
        # is derived, with no floating-point warning
        assert fitted.gamma == 0.5 and fitted.k_spikes == 1
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        edit_model_cell(path, "eigenvalues", 0, 2, value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(
                FormatError, match=r"spike lambda_hat .* \[eigenvalues\] line 1"
            ):
                read_model(path)

    def test_edited_spectrum_with_matching_adjustment_rejected(self, fitted, tmp_path):
        # a spike lambda_hat edited together with its [adjustment] cells
        # agrees with itself but not with the d column it came from
        assert fitted.k_spikes == 1
        lam = fitted.spectrum.lambda_hat[0] * 1.01
        cells = (
            spikepca.model._shrinkage(lam, fitted.gamma),
            spikepca.model.score_angle(lam, fitted.gamma),
            spikepca.model.eigenvector_angle(lam, fitted.gamma),
        )
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        edit_model_cell(path, "eigenvalues", 0, 2, _fmt(lam))
        for col, value in enumerate(cells):
            edit_model_cell(path, "adjustment", 0, col, _fmt(value))
        message = (
            rf"spike lambda_hat {re.escape(_fmt(lam))} in \[eigenvalues\] line 1 is not "
            rf"{re.escape(_fmt(fitted.spectrum.lambda_hat[0]))}, the value the "
            r"\[eigenvalues\] d column gives"
        )
        with pytest.raises(FormatError, match=message):
            read_model(path)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("iterations={}\n", "iterations=1\n", r"^iterations 1 in \[meta\] is not"),
            ("converged=true", "converged=false", r"^converged false in \[meta\]"),
            ("k_spikes=1", "k_spikes=2", r"^k_spikes 2 in \[meta\] is not 1,"),
            ("gamma=0.5", "gamma=0.25", r"^gamma 0.25 in \[meta\] is not 0.5,"),
        ],
    )
    def test_meta_disagreeing_with_spectrum_rejected(
        self, fitted, tmp_path, old, new, message
    ):
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        text = path.read_text()
        old = old.format(fitted.spectrum.iterations)
        assert old in text and fitted.spectrum.iterations > 1
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(FormatError, match=message):
            read_model(path)

    @pytest.mark.parametrize(
        "value, message", [("100", "non-increasing"), ("-1", "negative")]
    )
    def test_bad_d_column_rejected(self, fitted, tmp_path, value, message):
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        edit_model_cell(path, "eigenvalues", 2, 0, value)
        with pytest.raises(FormatError, match=rf"bad d column in \[eigenvalues\]: .*{message}"):
            read_model(path)

    @pytest.mark.parametrize("mode", ["none", "center", "center_scale"])
    @pytest.mark.parametrize("k", ["auto", 1, 3])
    @pytest.mark.parametrize("gamma, n, seed", [(0.5, 10, 1), (1.0, 40, 2), (4.0, 12, 3)])
    def test_every_written_model_loads(self, tmp_path, mode, k, gamma, n, seed):
        # the reader re-derives the estimates; a written model reads back
        # with the fitted model's bits, never as a disagreement
        fitted = fit(gen_two_spike(n, gamma, seed=seed), mode=mode, k=k)
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        loaded = read_model(path)
        for name in ("shrinkage", "score_corr", "evec_angle", "identifiable"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(fitted, name))

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("[scales]", "[means]", r"duplicate section \[means\]"),
            ("[meta]", "stray\n[meta]", r"content before first section: 'stray'"),
            ("[meta]", "[info]", r"missing \[meta\] section"),
            ("mode=", "oops\nmode=", r"bad meta line 'oops'"),
            ("tau=", "tau_=", r"missing meta key 'tau'"),
            ("iterations=", "iterations=x", r"bad meta value"),
            ("mode=center", "mode=whiten", r"unknown mode 'whiten'"),
            ("[scales]", "[spread]", r"missing \[scales\] section"),
            ("[eigenvalues]", "[spectrum]", r"missing \[eigenvalues\] section"),
            ("[eigenvector 2]", "[vector 2]", r"missing \[eigenvector 2\] section"),
            ("[adjustment]", "[notes]", r"missing \[adjustment\] section"),
            ("[scales]\n", "[scales]\nx", r"bad number 'x.*' in \[scales\]"),
            ("[scales]\n", "[scales]\n1,", r"\[scales\]"),
            ("[eigenvector 1]\n", "[eigenvector 1]\n0,", r"\[eigenvector 1\]"),
            ("[eigenvalues]\n", "[eigenvalues]\n0,", r"bad \[eigenvalues\] line"),
            ("[adjustment]\n", "[adjustment]\n0,", r"bad \[adjustment\] line"),
            ("converged=true", "converged=maybe", r"bad converged='maybe' in \[meta\]"),
        ],
    )
    def test_malformed_file_rejected(self, fitted, tmp_path, old, new, message):
        # one edit of a written model per rejection of a malformed layout
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        with pytest.raises(FormatError, match=message):
            read_model(path)

    @pytest.mark.parametrize("key, value", [
        ("k", "-1"), ("k", "0"), ("k", "6"),
        ("k_spikes", "-1"), ("k_spikes", "6"),
    ])
    def test_meta_count_out_of_range_rejected(self, fitted, tmp_path, key, value):
        # fitted has p = 5, n = 10, so k lies in [1, 5] and k_spikes in [0, 5]
        assert min(fitted.p, fitted.n) == 5
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        text = path.read_text()
        old = f"\n{key}={getattr(fitted, key)}\n"
        assert old in text
        path.write_text(text.replace(old, f"\n{key}={value}\n"))
        with pytest.raises(FormatError, match=rf"{key}={value} in \[meta\]"):
            read_model(path)

    def test_more_spikes_than_kept_components_loads(self, tmp_path):
        model = fit(gen_two_spike(100, 0.5, seed=7), mode="center", k=1)
        assert (model.k, model.k_spikes) == (1, 2)
        path = tmp_path / "model.spca"
        write_model(model, path)
        loaded = read_model(path)
        assert (loaded.k, loaded.k_spikes) == (1, 2)
        np.testing.assert_array_equal(loaded.eig.U, model.eig.U)

    def test_unknown_format_version(self, fitted, tmp_path):
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        text = path.read_text().replace("format_version=1", "format_version=99")
        path.write_text(text)
        with pytest.raises(FormatError):
            read_model(path)

    def test_truncated_file(self, fitted, tmp_path):
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[: len(lines) // 2]))
        with pytest.raises(FormatError):
            read_model(path)

    def test_wrong_magic(self, fitted, tmp_path):
        path = tmp_path / "model.spca"
        write_model(fitted, path)
        path.write_text("something-else\n" + path.read_text())
        with pytest.raises(FormatError):
            read_model(path)

    def test_empty_path_surfaces_as_format_error(self, fitted):
        with pytest.raises(FormatError):
            write_model(fitted, "")
        with pytest.raises(FormatError):
            read_model("")
