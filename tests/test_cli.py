import contextlib
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import bellband
from bellband import __version__, band_map, cli, f4, sampling
from bellband.band import band_limits
from bellband.chsh import octet_correlations
from bellband.cli import _read_sequence_csv, _write_sequence_csv, _write_table_csv, main
from bellband.core import MAX_GRID_RESOLUTION, grid_points
from bellband.errors import BellbandError
from bellband.f4 import BUILTIN_KINDS, F4Candidate, contradiction_report, inequality_scan
from bellband.sampling import CHUNK


def run(capsys, *args):
    code = main([str(a) for a in args])
    out = capsys.readouterr().out
    return code, out


def run_report(capsys, *args):
    code, out = run(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["tool"] == "bellband"
    assert doc["version"] == __version__
    assert "config" in doc
    return doc["result"]


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        result = run_report(
            capsys,
            "simulate", "--theta", math.pi / 3, "--n", 20000, "--seed", 42,
            "--out", out,
        )
        assert abs(result["empirical_correlation"] + 0.5) < 0.05
        lines = out.read_text().splitlines()
        assert lines[0] == "a,b"
        assert len(lines) == 20001
        assert set(lines[1].split(",")) <= {"+1", "-1"}

    def test_degrees_flag(self, tmp_path, capsys):
        out = tmp_path / "pairs.csv"
        result = run_report(
            capsys,
            "simulate", "--theta", 60, "--degrees", "--n", 20000, "--seed", 42,
            "--out", out,
        )
        assert result["expected_correlation"] == pytest.approx(-0.5)


class TestLhv:
    def test_summary(self, tmp_path, capsys):
        out = tmp_path / "lhv.csv"
        result = run_report(
            capsys,
            "lhv", "--theta-a", 0.0, "--theta-b", math.pi / 2, "--n", 50000,
            "--seed", 1, "--out", out,
        )
        assert abs(result["empirical_correlation"]) < 0.02
        assert result["expected_correlation"] == pytest.approx(0.0, abs=1e-12)

    def test_gap_beyond_pi_wraps(self, tmp_path, capsys):
        # |0 - 5| = 5 > pi; the circular gap 2*pi - 5 gives the sawtooth value
        result = run_report(
            capsys,
            "lhv", "--theta-a", 0, "--theta-b", 5, "--n", 50000,
            "--seed", 1, "--out", tmp_path / "lhv.csv",
        )
        expected = -1.0 + 2.0 * (2.0 * math.pi - 5.0) / math.pi
        assert result["expected_correlation"] == pytest.approx(expected, abs=1e-12)
        assert result["empirical_correlation"] == pytest.approx(expected, abs=0.02)

    def test_gap_overflow_fails_cleanly(self, tmp_path, capsys):
        # each angle is finite, but their difference overflows to inf
        out = tmp_path / "lhv.csv"
        code = main(["lhv", "--theta-a=1e308", "--theta-b=-1e308", "--n", "5", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("bellband: error: ") and captured.err.count("\n") == 1
        assert not out.exists()

    def test_gap_overflow_fails_before_sampling(self, tmp_path, capsys, monkeypatch):
        def no_draws(*args):
            raise AssertionError("sampled before the angle gap was checked")

        monkeypatch.setattr(cli, "sample_lhv_pairs", no_draws)
        code = main(["lhv", "--theta-a=1e308", "--theta-b=-1e308", "--n", "5",
                     "--out", str(tmp_path / "lhv.csv")])
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1 and "overflows a float" in err

    @pytest.mark.parametrize("angles", [("nan", "0"), ("0", "inf"), ("inf", "-inf")])
    def test_non_finite_angle_names_the_angle(self, tmp_path, capsys, angles):
        code = main(["lhv", f"--theta-a={angles[0]}", f"--theta-b={angles[1]}", "--n", "5",
                     "--out", str(tmp_path / "lhv.csv")])
        err = capsys.readouterr().err
        name = "theta_a" if angles[0] != "0" else "theta_b"
        assert code == 1 and err.count("\n") == 1 and f"{name} must be finite" in err


class TestOctetAndBoole:
    @pytest.mark.parametrize("f", ["nan", "inf", "-inf"])
    def test_non_finite_f_names_f(self, tmp_path, capsys, f):
        out = tmp_path / "octet.csv"
        code = main(["octet", "--theta1", "1", "--theta2", "2", "--theta3", "3", f"--f={f}",
                     "--n", "10", "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"bellband: error: f must be finite, got {float(f)}\n"
        assert not out.exists()

    def test_octet_then_boole(self, tmp_path, capsys):
        out = tmp_path / "octet.csv"
        result = run_report(
            capsys,
            "octet", "--theta1", math.pi / 3, "--theta2", math.pi / 2,
            "--theta3", 2 * math.pi / 3, "--n", 50000, "--seed", 7, "--out", out,
        )
        assert result["targets"]["f"] == pytest.approx(0.0, abs=1e-12)
        for key, target in (("c1", -0.5), ("c2", 0.0), ("c3", 0.5)):
            assert result["empirical"][key] == pytest.approx(target, abs=0.02)
        boole = run_report(capsys, "boole", "--in", out)
        assert boole["holds"] is True
        assert boole["lhs1"] <= 2 + 1e-12 and boole["lhs2"] <= 2 + 1e-12

    def test_octet_reports_the_correlations_of_its_file(self, tmp_path, capsys):
        out = tmp_path / "octet.csv"
        result = run_report(
            capsys,
            "octet", "--theta1", 1, "--theta2", 2, "--theta3", 0.5, "--n", CHUNK + 3,
            "--seed", 11, "--out", out,
        )
        assert result["empirical"] == octet_correlations(*_read_sequence_csv(str(out)).values())

    def test_boole_missing_columns(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n+1,-1\n")
        code, _ = run(capsys, "boole", "--in", bad)
        assert code == 1

    def test_boole_missing_file(self, tmp_path, capsys):
        code, _ = run(capsys, "boole", "--in", tmp_path / "nope.csv")
        assert code == 1

    @pytest.mark.parametrize(
        "text",
        [
            "a_oo,b_oo,a_bo,b_ob\n+1,-1,x,+1\n",
            "",
            "a_oo,b_oo,a_bo,b_ob\n+1,-1,+1,+1\n+1,-1\n",
            "a_oo,b_oo,a_bo,b_ob\n+1,-1,300,+1\n",
            "a_oo,b_oo,a_bo,b_ob\n+1,-1\n",
            "a_oo,b_oo,a_bo,b_ob,b_ob\n+1,-1,+1,+1,-1\n",
            "a_oo,b_oo,a_bo,b_ob\n+1,-1,1,+1\n",
            "a_oo,b_oo,a_bo,b_ob\r\n+1,-1,+1,+1\r\n",
            "a_oo,b_oo,a_bo,b_ob\n+1,-1,+1,+1\n\n+1,-1,+1,+1\n",
            "a_oo,b_oo,a_bo,b_ob\n+1,-1, +1,+1\n",
            "a_oo,b_oo,a_bo,b_ob\n+1,-1,+1,+1\n+1,-1,+1,-+\n",
            "a_oo,b_oo,a_bo,b_ob\n+1,-1,+1,+2\n",
            "a_oo,b_oo,a_bo,b_ob\n+1,-1;+1,+1\n",
            "a_oo,b_oo,a_bo,b_ob\n+1,1-,+1,+1\n",
            "a_oo,b_oo,a_bo,b_ob\n+1,-1\n+1,+1,+1,-1,+1,+1\n",
            "a\r\n+1\r\n-1\r\n+1\r\n",
            "a_oo,b_oo,a_bo,b_ob\n++1,+1,+1,1\n",
        ],
        ids=[
            "non-integer", "empty", "ragged", "overflow", "short-rows", "duplicate-name",
            "unsigned", "crlf", "blank-line", "space", "bad-sign-byte", "digit",
            "separator", "swapped", "row-break", "crlf-aligned", "sign-in-digit",
        ],
    )
    def test_boole_malformed_csv(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        code = main(["boole", "--in", str(bad)])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("bellband: error: ") and err.count("\n") == 1
        # the reader itself rejects each case, not a later check on the columns
        with pytest.raises(BellbandError):
            _read_sequence_csv(str(bad))

    def test_error_naming_a_path_with_a_newline_is_one_line(self, tmp_path, capsys):
        empty = tmp_path / "em\npty.csv"
        empty.write_bytes(b"")
        code = main(["boole", "--in", str(empty)])
        out, err = capsys.readouterr()
        assert (code, out) == (1, "")
        assert err == f"bellband: error: {tmp_path}/em\\npty.csv is empty\n"

    def test_boole_without_final_newline(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_bytes(b"a_oo,b_oo,a_bo,b_ob\n+1,-1,+1,+1\n-1,-1,+1,-1")
        result = run_report(capsys, "boole", "--in", good)
        assert result["lhs1"] == 2.0 and result["holds"] is True


def _savetxt_reference(columns: dict) -> bytes:
    """The sequence-file bytes the np.savetxt writer produced."""
    buf = io.BytesIO()
    buf.write((",".join(columns) + "\n").encode("utf-8"))
    np.savetxt(buf, np.column_stack(list(columns.values())), fmt="%+d", delimiter=",")
    return buf.getvalue()


def _random_signs(seed: int, shape) -> np.ndarray:
    return np.random.default_rng(seed).choice(np.array([-1, 1], dtype=np.int8), shape)


class TestSequenceCodec:
    @given(
        st.integers(1, 5).flatmap(
            lambda k: arrays(np.int8, st.tuples(st.integers(1, 300), st.just(k)),
                             elements=st.sampled_from([-1, 1]))
        )
    )
    def test_matches_savetxt_and_round_trips(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("codec") / "seq.csv"
        columns = {f"c{j}": data[:, j] for j in range(data.shape[1])}
        _write_sequence_csv(str(path), columns)
        assert path.read_bytes() == _savetxt_reference(columns)
        decoded = _read_sequence_csv(str(path))
        assert list(decoded) == list(columns)
        for name, column in columns.items():
            assert decoded[name].dtype == np.int8
            np.testing.assert_array_equal(decoded[name], column)

    def test_header_only_gives_empty_columns(self, tmp_path):
        path = tmp_path / "seq.csv"
        path.write_bytes(b"a,b\n")
        decoded = _read_sequence_csv(str(path))
        assert list(decoded) == ["a", "b"] and all(c.size == 0 for c in decoded.values())

    @pytest.mark.parametrize("k", [1, 4, 5])
    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
    def test_matches_savetxt_and_round_trips_across_blocks(self, tmp_path, n, k):
        path = tmp_path / "seq.csv"
        data = _random_signs(n * 10 + k, (k, n))
        columns = {f"c{j}": data[j] for j in range(k)}
        _write_sequence_csv(str(path), columns)
        assert path.read_bytes() == _savetxt_reference(columns)
        decoded = _read_sequence_csv(str(path))
        assert list(decoded) == list(columns)
        np.testing.assert_array_equal(np.array(list(decoded.values())), data)

    @pytest.mark.parametrize("n", [CHUNK, CHUNK + 1])
    def test_without_final_newline_across_blocks(self, tmp_path, n):
        path = tmp_path / "seq.csv"
        data = _random_signs(n, (4, n))
        _write_sequence_csv(str(path), {f"c{j}": data[j] for j in range(4)})
        path.write_bytes(path.read_bytes()[:-1])
        decoded = _read_sequence_csv(str(path))
        np.testing.assert_array_equal(np.array(list(decoded.values())), data)

    @pytest.mark.parametrize(
        "edits, reported",
        [
            ([(0, 0, 1, "x")], (0, 0, b"+x,")),
            ([(CHUNK - 1, 3, 2, "x")], (CHUNK - 1, 3, b"-1x")),
            ([(CHUNK, 2, 0, "1")], (CHUNK, 2, b"11,")),
            # the first bad cell of the file, not of the block or column seen first
            ([(CHUNK - 1, 3, 1, "2"), (CHUNK, 0, 0, "x")], (CHUNK - 1, 3, b"-2\n")),
            ([(2 * CHUNK + 1, 0, 0, "x"), (CHUNK + 3, 1, 2, ";")], (CHUNK + 3, 1, b"-1;")),
            # "-" is good only as a sign byte
            ([(CHUNK + 1, 0, 1, "-")], (CHUNK + 1, 0, b"+-,")),
            ([(0, 3, 2, "-")], (0, 3, b"-1-")),
        ],
        ids=["row-0", "row-chunk-1", "row-chunk", "two-blocks", "two-blocks-later-first",
             "minus-as-digit", "minus-as-line-end"],
    )
    def test_reports_the_first_bad_cell(self, tmp_path, capsys, edits, reported):
        names = ["a_oo", "b_oo", "a_bo", "b_ob"]
        text = bytearray(b"a_oo,b_oo,a_bo,b_ob\n" + b"+1,-1,+1,-1\n" * (2 * CHUNK + 3))
        for row, cell, byte, char in edits:
            text[20 + 12 * row + 3 * cell + byte] = ord(char)
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        row, cell, got = reported
        message = (f"{path} is not a table of +1/-1 cells: cell {got!r} "
                   f"on line {row + 2}, column {names[cell]!r}")
        with pytest.raises(BellbandError) as exc:
            _read_sequence_csv(str(path))
        assert str(exc.value) == message
        assert main(["boole", "--in", str(path)]) == 1
        assert capsys.readouterr() == ("", f"bellband: error: {message}\n")

    @pytest.mark.parametrize(
        "text, size",
        [
            (b"a,b\n+1,-1\n+1\n", 9),
            (b"a,b\n+1,-1\n+1", 9),  # the missing final newline is counted
            (b"a,b\nx1,-1\n+1,-1,+1\n", 15),  # before any cell is checked
        ],
        ids=["ragged", "ragged-without-final-newline", "ragged-after-a-bad-cell"],
    )
    def test_length_error_counts_the_bytes_of_rows(self, tmp_path, text, size):
        path = tmp_path / "bad.csv"
        path.write_bytes(text)
        with pytest.raises(BellbandError) as exc:
            _read_sequence_csv(str(path))
        assert str(exc.value) == (
            f"{path} is not a table of +1/-1 cells: its {size} bytes of rows "
            "are not a whole number of 2-cell rows of 3 bytes a cell"
        )

    def test_memory_stays_within_a_block(self, tmp_path):
        # the writer holds one block of rows whatever n is; the reader holds
        # the bytes it read, the columns and one scratch step, on any pool,
        # and makes no copy of a file whose final newline is missing
        n, k = 10**6, 4
        data = _random_signs(0, (k, n))
        columns = {f"c{j}": data[j] for j in range(k)}
        path = tmp_path / "seq.csv"
        _write_sequence_csv(str(path), columns)
        cut = tmp_path / "cut.csv"
        cut.write_bytes(path.read_bytes()[:-1])

        def read():
            _read_sequence_csv(str(path))

        reader_bound = path.stat().st_size + k * n + 4 * 2**20
        with ThreadPoolExecutor(max_workers=8) as eight:
            for call, bound in (
                (lambda: _write_sequence_csv(os.devnull, columns), 2 * 2**20),
                (read, reader_bound),
                (mock.patch.object(sampling, "_pool", lambda: eight)(read), reader_bound),
                (lambda: _read_sequence_csv(str(cut)), reader_bound),
            ):
                tracemalloc.start()
                try:
                    call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < bound


def _savetxt_table_reference(rows) -> bytes:
    """The float-table bytes the np.savetxt writer produced."""
    buf = io.BytesIO()
    np.savetxt(buf, rows, fmt="%.17g", delimiter=",")
    return buf.getvalue()


# signed zeros, subnormals, huge values, every exponent form of %.17g and
# its longest cell
_TABLE_FLOATS = [
    0.0, -0.0, 5e-324, -2.5e-320, -2.2250738585072014e-308, 1e-300, -1e300, 1e300,
    1e-5, 1.5e-4, 1e16, 1e17, 123456789.0, -math.pi, 1.0, -1.0, 0.1,
]


@st.composite
def _float_tables(draw):
    """A (rows, 1..7) float table drawn from a small pool, so values repeat."""
    pool = draw(st.lists(st.sampled_from(_TABLE_FLOATS) | st.floats(), min_size=1, max_size=8))
    k = draw(st.integers(1, 7))
    index = draw(arrays(np.intp, st.tuples(st.integers(1, 40), st.just(k)),
                        elements=st.integers(0, len(pool) - 1)))
    return np.array(pool)[index]


def _write_table_bytes(rows, block=cli._TABLE_BLOCK, slots=cli._CELL_CACHE) -> bytes:
    buf = io.BytesIO()
    with mock.patch.object(cli, "_TABLE_BLOCK", block), mock.patch.object(cli, "_CELL_CACHE", slots):
        _write_table_csv(buf, rows)
    return buf.getvalue()


_NAN_PAYLOADS = np.array([0x7FF8000000000000, 0xFFF8000000000001], dtype=np.uint64).view(np.float64)


class TestTableWriter:
    @given(
        _float_tables(),
        st.sampled_from([1, 2, 3, 16, cli._TABLE_BLOCK]),
        st.sampled_from([1, 2, 4, cli._CELL_CACHE]),
    )
    def test_matches_savetxt(self, rows, block, slots):
        # small blocks put block boundaries inside small tables, and a cache
        # of a few slots makes distinct floats of one block share a slot and
        # later blocks evict the cells of earlier ones
        assert _write_table_bytes(rows, block, slots) == _savetxt_table_reference(rows)

    @pytest.mark.parametrize("slots", [1, 2, 4, cli._CELL_CACHE])
    @pytest.mark.parametrize(
        "rows",
        [
            # 0.1 is formatted in block 1, evicted or kept, and read in block 3
            [[0.1, 2.0], [3.0, 4.0], [5.0, 0.1]],
            # the longest cell appears only in the last block
            [[1.0, 2.0], [3.0, 0.5], [1.0, -1.2345678901234567e-308]],
            # each zero and each NaN payload is first seen in its own block
            [[0.0, 1.0], [-0.0, 1.0], [_NAN_PAYLOADS[0], 0.0], [_NAN_PAYLOADS[1], -0.0]],
        ],
        ids=["reappears", "longest-late", "zeros-and-nans"],
    )
    def test_cells_across_blocks(self, rows, slots):
        rows = np.array(rows)
        assert _write_table_bytes(rows, 1, slots) == _savetxt_table_reference(rows)

    @pytest.mark.parametrize("resolution", [50, 64])
    def test_memory_does_not_grow_with_the_table(self, resolution):
        # the writer holds one block and the fixed cell cache; the r = 50
        # table alone is 6 MB, so a whole-table np.unique goes past the bound
        rows = band_map(resolution)
        with open(os.devnull, "wb") as sink:
            tracemalloc.start()
            try:
                _write_table_csv(sink, rows)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_matches_savetxt_over_several_blocks(self):
        rng = np.random.default_rng(5)
        rows = rng.choice(_TABLE_FLOATS, (2 * cli._TABLE_BLOCK + 5, 7))
        rows[:, 3] = rng.normal(size=len(rows))  # mostly distinct cells
        buf = io.BytesIO()
        _write_table_csv(buf, rows)
        assert buf.getvalue() == _savetxt_table_reference(rows)

    def test_band_map_file_matches_savetxt(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        result = run_report(capsys, "band-map", "--resolution", 50, "--out", out)
        assert result["rows"] == 50**3
        header = b"theta1,theta2,theta3,lo,hi,width\n"
        assert out.read_bytes() == header + _savetxt_table_reference(band_map(50))


def _python(*args, unbuffered=False):
    """The argv and environment of ``python *args`` importing this bellband.

    PYTHONUNBUFFERED is not passed on, so the child's stdout is buffered as it is
    by default; ``unbuffered`` runs it with ``-u`` instead.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(bellband.__file__).parent.parent)
    return [sys.executable, *(["-u"] if unbuffered else []), *args], env


@pytest.mark.parametrize("n", [10**15, 2**62, 10**29], ids=["1e15", "2^62", "1e29"])
@pytest.mark.parametrize(
    "args",
    [
        ["simulate", "--theta", "1"],
        ["lhv", "--theta-a", "0", "--theta-b", "1"],
        ["octet", "--theta1", "1", "--theta2", "0.5", "--theta3", "0.5"],
    ],
)
def test_petabyte_count_fails_cleanly(tmp_path, args, n):
    # 10^15 draws exceed the memory, so the allocation fails at once; from
    # 2^62 draws the columns' bytes exceed the largest array numpy can index
    argv, env = _python("-m", "bellband.cli", *args, "--n", str(n), "--out", "x.csv")
    result = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=tmp_path,
                            timeout=120)
    assert result.returncode == 1 and result.stdout == ""
    assert result.stderr.startswith("bellband: error: ") and result.stderr.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


#: about 700 kB of stdout, many times a pipe's buffer
_LARGE_SCAN = ["scan", "--candidate", "locality", "--resolution", "30"]


def _cli_process(args, unbuffered, **kwargs):
    argv, env = _python("-m", "bellband.cli", *args, unbuffered=unbuffered)
    return subprocess.Popen(argv, stderr=subprocess.PIPE, text=True, env=env, **kwargs)


#: a buffered stdout keeps the bytes a failed write left, for the flush at exit
_STDOUT_MODES = pytest.mark.parametrize("unbuffered", [False, True],
                                        ids=["buffered", "unbuffered"])


@_STDOUT_MODES
@pytest.mark.parametrize("read", [0, 10])
def test_closed_stdout_fails_cleanly(read, unbuffered):
    # as `bellband scan ... | head -c 10`: the reader leaves after `read` bytes
    with _cli_process(_LARGE_SCAN, unbuffered, stdout=subprocess.PIPE) as proc:
        proc.stdout.read(read)
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 1
    assert err.startswith("bellband: error: ") and err.count("\n") == 1, err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("args", [["band", "--theta1", "0", "--theta2", "0", "--theta3", "0"],
                                  _LARGE_SCAN], ids=["band", "scan"])
@_STDOUT_MODES
def test_full_stdout_fails_cleanly(args, unbuffered):
    with open("/dev/full", "wb") as full, _cli_process(args, unbuffered, stdout=full) as proc:
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert code == 1
    assert err.startswith("bellband: error: ") and err.count("\n") == 1, err


def test_failed_write_to_a_stdout_without_descriptor(capsys):
    # in process, sys.stdout may be a capture with no descriptor to redirect
    class Full(io.StringIO):
        def write(self, text):
            raise OSError(28, "No space left on device")

    with mock.patch("sys.stdout", Full()):
        assert main(["band", "--theta1", "0", "--theta2", "0", "--theta3", "0"]) == 1
    assert capsys.readouterr() == ("", "bellband: error: [Errno 28] No space left on device\n")


def test_cli_import_leaves_out_scipy_stats():
    # no module of the package imports scipy; when f4 imported scipy.stats it was
    # most of the CLI's start-up, so this keeps it from coming back
    code = "import sys, bellband.cli; print('scipy.stats' in sys.modules)"
    argv, env = _python("-c", code)
    result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


def test_analyze_runs_without_scipy(tmp_path):
    # analyze draws its quasi-random points with numpy alone
    grid = tmp_path / "grid.json"
    doc = {"kind": "grid", "name": "g", "resolution": 3, "values": np.linspace(-1.0, 1.0, 27).tolist()}
    grid.write_text(json.dumps(doc))
    candidates = [["--candidate", kind] for kind in BUILTIN_KINDS]
    candidates.append(["--candidate", "grid", "--candidate-file", str(grid)])
    runs = [["analyze", *c, "--seed", str(s)] for c in candidates for s in (0, 2**64 - 1)]
    outputs = []
    for block in ("", "sys.modules['scipy'] = None\n"):
        code = (
            f"import json, sys\n{block}from bellband.cli import main\n"
            "sys.exit(max(main(argv) for argv in json.loads(sys.argv[1])))\n"
        )
        argv, env = _python("-c", code, json.dumps(runs))
        result = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0].count('"command": "analyze"') == len(runs)
    assert outputs[1] == outputs[0]


class TestChsh:
    def test_tsirelson_violation(self, capsys):
        result = run_report(
            capsys,
            "chsh", "--theta1", 3 * math.pi / 4, "--theta2", math.pi / 4,
            "--theta3", math.pi / 4, "--candidate", "locality",
        )
        assert result["chsh_value"] == pytest.approx(2 * math.sqrt(2), abs=1e-7)
        assert result["violated"] is True

    def test_member_reports_no_violation(self, capsys):
        result = run_report(
            capsys,
            "chsh", "--theta1", 0, "--theta2", 0, "--theta3", 0,
            "--candidate", "product",
        )
        assert result["chsh_value"] == pytest.approx(2.0)
        assert result["violated"] is False


class TestBandCommands:
    def test_band_corner(self, capsys):
        result = run_report(capsys, "band", "--theta1", 0, "--theta2", 0, "--theta3", 0)
        assert result["lo"] == -1.0 and result["hi"] == -1.0

    def test_band_map(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        result = run_report(capsys, "band-map", "--resolution", 3, "--out", out)
        assert result["rows"] == 27
        lines = out.read_text().splitlines()
        assert lines[0] == "theta1,theta2,theta3,lo,hi,width"
        assert len(lines) == 28

    @pytest.mark.parametrize(
        "args", [["band-map", "--out", "map.csv"], ["scan", "--candidate", "product"]]
    )
    def test_resolution_cap(self, tmp_path, capsys, monkeypatch, args):
        monkeypatch.chdir(tmp_path)
        tracemalloc.start()
        try:
            code = main(args + ["--resolution", str(MAX_GRID_RESOLUTION + 1)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("bellband: error: ") and err.count("\n") == 1
        assert peak < 10_000_000  # the grid itself would take 195 MB
        assert not (tmp_path / "map.csv").exists()

    def test_lp_band(self, capsys):
        result = run_report(capsys, "lp-band", "--c1", 0, "--c2", 0, "--c3", 0)
        assert result["min"] == pytest.approx(-1.0, abs=1e-9)
        assert result["max"] == pytest.approx(1.0, abs=1e-9)
        assert len(result["witness_min"]) == 16


class TestAnalyzeAndScan:
    def test_analyze_product_diagonal(self, capsys):
        result = run_report(capsys, "analyze", "--candidate", "product-diagonal")
        assert result["contradiction"] is False
        assert "directional-jump-detected" in result["flags"]

    def test_scan_with_grid_file(self, tmp_path, capsys):
        doc = {"kind": "grid", "resolution": 2, "values": [-1.0] * 8}
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        result = run_report(
            capsys, "scan", "--candidate", "grid", "--candidate-file", path,
            "--resolution", 5,
        )
        assert result["violation_count"] == len(result["violations"]) > 0

    def test_grid_without_file_fails(self, capsys):
        code, _ = run(capsys, "scan", "--candidate", "grid", "--resolution", 5)
        assert code == 1

    @pytest.mark.parametrize("command", [
        ["chsh", "--theta1", "1", "--theta2", "1", "--theta3", "1"],
        ["analyze"],
        ["scan", "--resolution", "5"],
    ], ids=lambda command: command[0])
    def test_builtin_with_file_fails(self, tmp_path, capsys, command):
        # the file would go unread while config echoed it
        path = tmp_path / "grid.json"
        path.write_text(json.dumps({"kind": "grid", "resolution": 2, "values": [-1.0] * 8}))
        code = main([*command, "--candidate", "product", "--candidate-file", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            "bellband: error: --candidate-file needs --candidate grid, not product\n"
        )

    @pytest.mark.parametrize("seed", ["-1", str(2**70)], ids=["negative", "2^70"])
    def test_analyze_rejects_seed_outside_u64(self, capsys, seed):
        code = main(["analyze", "--candidate", "product", "--seed", seed])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (
            f"bellband: error: seed must be an unsigned 64-bit integer, got {seed}\n"
        )

    def test_grid_file_not_utf8_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "grid.json"
        path.write_bytes(b"\xff\xfe{")
        code = main(["scan", "--candidate", "grid", "--candidate-file", str(path),
                     "--resolution", "5"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("bellband: error: grid document is not valid JSON")
        assert len(captured.err.splitlines()) == 1


class TestDumps:
    """cli.dumps prints the Python types the commands return, and no other."""

    def test_bytes_of_every_kept_type(self):
        doc = {
            "nested": {"inner": {"empty": {}}, "list": [1, {"k": "v"}]},
            "empty": {},
            "list": [0, 2**64 - 1],
            "tuple": (True, False, None),
            "floats": [-0.0, 5e-324, 1 / 3, 1e22, np.float64(0.1)],
            "text": 'a "quote" and \u00e9',
        }
        assert cli.dumps(doc) == (
            '{\n'
            '  "nested": {\n'
            '    "inner": {\n'
            '      "empty": {}\n'
            '    },\n'
            '    "list": [1, {\n'
            '      "k": "v"\n'
            '    }]\n'
            '  },\n'
            '  "empty": {},\n'
            '  "list": [0, 18446744073709551615],\n'
            '  "tuple": [true, false, null],\n'
            '  "floats": [-0, 4.9406564584124654e-324, 0.33333333333333331, 1e+22, '
            '0.10000000000000001],\n'
            '  "text": "a \\"quote\\" and \\u00e9"\n'
            '}'
        )

    @pytest.mark.parametrize("value", [np.int64(1), np.float32(0.5), {1}],
                             ids=["int64", "float32", "set"])
    def test_other_types_rejected(self, value):
        with pytest.raises(TypeError, match="cannot serialize"):
            cli.dumps({"value": [value]})

    def test_value_type_as_the_dict_of_its_fields(self):
        # a report holds a nested QuadraticFit, tuples and None
        report = contradiction_report(F4Candidate.builtin("product"))
        assert report.disclaimer is None
        assert cli.dumps(report) == cli.dumps(dataclasses.asdict(report))


def reference_scan(args) -> dict:
    """scan's report as it was built before the row template: each
    Violation a dict of its fields, walked by the recursive dumps."""
    violations = inequality_scan(cli._candidate(args), args.resolution)
    return {
        "resolution": args.resolution,
        "violation_count": len(violations),
        "violations": [vars(v) for v in violations],
    }


def scan_stdout(candidate, resolution: int, reference: bool = False) -> str:
    """stdout of ``bellband scan`` at ``resolution`` with ``candidate`` in
    place of the one its flags name, rendered by reference_scan if asked."""
    function, *rest = cli._COMMANDS["scan"]
    command = (reference_scan if reference else function, *rest)
    out = io.StringIO()
    with mock.patch.object(cli, "_candidate", lambda args: candidate), \
            mock.patch.dict(cli._COMMANDS, scan=command), contextlib.redirect_stdout(out):
        assert main(["scan", "--candidate", "product", "--resolution", str(resolution)]) == 0
    return out.getvalue()


class Quiet:
    """A candidate that breaks no constraint: -cos(theta1) on the diagonal
    and the band's midpoint elsewhere, but for the nodes given their own
    values.  Its values come back as ``dtype``."""

    name = "quiet"

    def __init__(self, nodes=(), dtype=float):
        self.nodes, self.dtype = dict(nodes), dtype

    def values(self, points):
        lo, hi = band_limits(points)
        diagonal = (points[:, 0] == points[:, 1]) & (points[:, 1] == points[:, 2])
        values = np.where(diagonal, -np.cos(points[:, 0]), 0.5 * (lo + hi))
        for node, value in self.nodes.items():
            values[np.all(points == node, axis=1)] = value
        return values.astype(self.dtype)


# (0, 0, 0) is a diagonal node whose band is [-1, -1], and (0, 0, pi) one
# off the diagonal whose band is [1, 1]
_ORIGIN, _EDGE = (0.0, 0.0, 0.0), (0.0, 0.0, math.pi)
#: name -> (candidate, resolution, violations by kind)
SCANS = {
    "none": (Quiet(), 9, {}),
    "product-r2-none": (F4Candidate.builtin("product"), 2, {}),
    "one": (Quiet({_EDGE: -1.0}), 9, {"band": 1}),
    "both-kinds-at-one-node": (Quiet({_ORIGIN: 0.5}), 9, {"band": 1, "diagonal": 1}),
    "nan": (Quiet({_EDGE: math.nan, _ORIGIN: math.nan}), 9, {"band": 2}),
    "float32": (Quiet({_ORIGIN: 0.1, _EDGE: 0.3}, np.float32), 9, None),
    "int": (Quiet(dtype=np.int64), 9, None),
    **{f"{kind}-r{r}": (F4Candidate.builtin(kind), r, None)
       for kind, r in (("product", 50), ("locality", 12), ("product-diagonal", 7))},
    # the r = 10 tabulated product scanned at r = 25, as in the benchmark's grid workload
    "tabulated-product-r25": (
        F4Candidate.from_grid(10, F4Candidate.builtin("product").values(grid_points(10))),
        25, None),
}


class TestScanRows:
    """scan's row template against the dumps rendering it replaced."""

    @pytest.mark.parametrize("name", SCANS)
    def test_same_bytes_as_the_reference(self, name):
        candidate, resolution, kinds = SCANS[name]
        out = scan_stdout(candidate, resolution)
        assert out == scan_stdout(candidate, resolution, reference=True)
        violations = inequality_scan(candidate, resolution)
        if kinds is not None:
            assert {k: sum(v.kind == k for v in violations) for k in kinds} == kinds
            assert len(violations) == sum(kinds.values())
        assert f'"violation_count": {len(violations)},' in out

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 30), st.integers(2, 5), st.integers(0, 2**32 - 1))
    def test_grid_candidates(self, resolution, grid_resolution, seed):
        values = np.random.default_rng(seed).uniform(-1.0, 1.0, grid_resolution ** 3)
        candidate = F4Candidate.from_grid(grid_resolution, values)
        out = scan_stdout(candidate, resolution)
        assert out == scan_stdout(candidate, resolution, reference=True)

    def test_percent_g_is_format_g(self):
        # the template's "%.17g" slots stand for dumps' format(v, ".17g")
        doubles = np.frombuffer(np.random.default_rng(22).bytes(8 * 200_000), dtype=np.float64)
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                   math.nextafter(sys.float_info.min, 0.0), sys.float_info.min,
                   sys.float_info.max, 1e16, 1e17, 0.1, 1 / 3, -math.pi]
        values = doubles.tolist() + special
        assert [v.hex() for v in values if "%.17g" % v != format(v, ".17g")] == []


def run_exit(capsys, argv):
    """main(argv)'s exit code, stdout and stderr; a usage error's too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_scan_builds_no_violation(capsys, monkeypatch):
    argv = ["scan", "--candidate", "locality", "--resolution", "12"]
    want = run_exit(capsys, argv)
    assert want[0] == 0 and want[2] == ""

    def no_violation(*args, **kwargs):
        raise AssertionError("scan built a Violation")

    monkeypatch.setattr(f4, "Violation", no_violation)
    with pytest.raises(AssertionError, match="built a Violation"):
        inequality_scan(F4Candidate.builtin("locality"), 12)
    assert run_exit(capsys, argv) == want


class TestUsageErrors:
    """A usage error exits 2 with one stderr line and no usage block."""

    def test_unknown_subcommand(self, capsys):
        code, out, err = run_exit(capsys, ["frobnicate"])
        assert code == 2 and out == ""
        assert err.startswith("bellband: error: argument command: invalid choice: 'frobnicate'")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_missing_flag(self, capsys):
        code, out, err = run_exit(capsys, ["band", "--theta1", "0"])
        assert (code, out) == (2, "")
        assert err == (
            "bellband band: error: the following arguments are required: --theta2, --theta3\n"
        )

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_every_command_without_its_flags(self, capsys, command):
        code, out, err = run_exit(capsys, [command])
        assert code == 2 and out == ""
        assert err.startswith(f"bellband {command}: error: the following arguments are required: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_bad_choice(self, capsys):
        code, out, err = run_exit(capsys, ["analyze", "--candidate", "other"])
        assert code == 2 and out == ""
        assert err.startswith("bellband analyze: error: argument --candidate: invalid choice: ")
        assert err.count("\n") == 1 and err.endswith("\n")

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_unrecognized_argument_names_its_subcommand(self, tmp_path, capsys, command):
        argv = [command, *_required_flags(command, tmp_path), "--bogus"]
        code, out, err = run_exit(capsys, argv)
        assert (code, out) == (2, "")
        assert err == f"bellband {command}: error: unrecognized arguments: --bogus\n"

    def test_unrecognized_argument_with_a_newline_is_one_line(self, capsys):
        code, out, err = run_exit(capsys, ["band", "--theta1", "0", "--theta2", "0",
                                           "--theta3", "0", "a\nb"])
        assert (code, out) == (2, "")
        assert err == "bellband band: error: unrecognized arguments: a\\nb\n"

    def test_help_keeps_its_usage_block(self, capsys):
        code, out, err = run_exit(capsys, ["band", "-h"])
        assert code == 0 and err == ""
        assert out.startswith("usage: bellband band [-h] --theta1 THETA1")


def _required_flags(command, tmp_path):
    """Valid values of the flags that ``command`` requires, as argv tokens."""
    valid = {**_VALID, "--out": str(tmp_path / "out.csv"), "--in": str(tmp_path / "in.csv"),
             "--candidate": "product", "--resolution": "5"}
    return [token for flag in cli._COMMANDS[command][2] if cli._FLAGS[flag].get("required")
            for token in (flag, valid[flag])]


#: every flag that takes a real number
_REAL_FLAGS = [flag for flag, keywords in cli._FLAGS.items() if keywords.get("type") is float]
#: a valid value of each flag that a command taking a real flag requires
_VALID = {"--theta": "1", "--theta-a": "0", "--theta-b": "1.2", "--theta1": "2.3",
          "--theta2": "0.7", "--theta3": "0.7", "--n": "10", "--c1": "0", "--c2": "0",
          "--c3": "0"}


@pytest.mark.parametrize("value", ["-5e-1", "-1E-3", "-inf", "-nan"])
@pytest.mark.parametrize("flag", _REAL_FLAGS)
def test_negative_real_as_its_own_token(tmp_path, capsys, flag, value):
    # argparse alone reads only "-5" and "-.5" as negative numbers
    command, flags = next((c, f) for c, (_, _, f) in cli._COMMANDS.items() if flag in f)
    argv = [command]
    for other in flags:
        if other == "--out":
            argv += [other, str(tmp_path / "out.csv")]
        elif other != flag and cli._FLAGS[other].get("required"):
            argv += [other, _VALID[other]]
    separate = run_exit(capsys, [*argv, flag, value])
    assert separate == run_exit(capsys, [*argv, f"{flag}={value}"])
    assert "expected one argument" not in separate[2]


class TestParserReuse:
    """main parses every call with one parser, built on the first call."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_switch_and_default_do_not_carry_over(self, tmp_path, capsys):
        out = tmp_path / "octet.csv"
        code, text = run(capsys, "octet", "--theta1", 60, "--theta2", 90, "--theta3", 120,
                         "--degrees", "--f", 0, "--n", 100, "--out", out)
        assert code == 0
        assert json.loads(text)["config"]["degrees"] is True
        code, text = run(capsys, "octet", "--theta1", 1, "--theta2", 1.5, "--theta3", 2,
                         "--n", 100, "--out", out)
        assert code == 0
        config = json.loads(text)["config"]
        assert config["degrees"] is False and "f" not in config

    def test_usage_error_then_valid_call(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["band", "--theta1", "0"])
        assert exc.value.code == 2
        assert run(capsys, "band", "--theta1", 0, "--theta2", 0, "--theta3", 0)[0] == 0

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_help_lists_the_table_flags(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "-h"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        listed = [line.split()[0] for line in lines if line.startswith("  --")]
        assert listed == list(cli._COMMANDS[command][2])


class TestDeterminism:
    @pytest.mark.parametrize(
        "args",
        [
            ["simulate", "--theta", "1.0472", "--n", "5000", "--seed", "42"],
            ["lhv", "--theta-a", "0", "--theta-b", "1.2", "--n", "5000", "--seed", "3"],
            [
                "octet", "--theta1", "1.0472", "--theta2", "1.5708",
                "--theta3", "2.0944", "--n", "5000", "--seed", "5",
            ],
        ],
    )
    def test_byte_identical_outputs(self, tmp_path, capsys, args):
        out1, out2 = tmp_path / "one.csv", tmp_path / "two.csv"
        code1, text1 = run(capsys, *args, "--out", out1)
        code2, text2 = run(capsys, *args, "--out", out2)
        assert code1 == code2 == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert text1.replace("one.csv", "x") == text2.replace("two.csv", "x")

    def test_seventeen_digit_floats(self, capsys):
        _, out = run(capsys, "band", "--theta1", "0.1", "--theta2", "0.2", "--theta3", "0.3")
        doc = json.loads(out)
        # round-trip is lossless at 17 significant digits
        lo = doc["result"]["lo"]
        assert float(format(lo, ".17g")) == lo


# the subcommands that write --out, at sizes of one to two sequence blocks
_WRITERS = {
    "simulate": ["simulate", "--theta", "1.0472", "--n", str(CHUNK + 5), "--seed", "42"],
    "octet": ["octet", "--theta1", "1.0472", "--theta2", "1.5708", "--theta3", "2.0944",
              "--n", "5000", "--seed", "5"],
    "band-map": ["band-map", "--resolution", "4"],
}


class _FailingWriter:
    """A file whose second write writes half its bytes and then fails."""

    def __init__(self, fh):
        self.fh, self.calls, self.written = fh, 0, 0

    def write(self, data):
        self.calls += 1
        data = memoryview(data).cast("B")
        if self.calls == 2:
            data = data[:len(data) // 2]
        self.written += self.fh.write(data)
        if self.calls == 2:
            raise OSError("the disk went away")
        return len(data)


@pytest.mark.parametrize("command", _WRITERS)
class TestOutput:
    """--out is written over its old bytes and cut to what was written."""

    def fresh(self, tmp_path, capsys, command) -> bytes:
        path = tmp_path / "fresh.csv"
        assert run(capsys, *_WRITERS[command], "--out", path)[0] == 0
        return path.read_bytes()

    def test_longer_file_is_replaced(self, tmp_path, capsys, monkeypatch, command):
        fresh = self.fresh(tmp_path, capsys, command)
        old = tmp_path / "old.csv"
        old.write_bytes(b"-1," * len(fresh))
        flags, os_open = [], os.open

        def spy(path, flag, *args):
            flags.append(flag)
            return os_open(path, flag, *args)

        monkeypatch.setattr(os, "open", spy)
        assert run(capsys, *_WRITERS[command], "--out", old)[0] == 0
        assert old.read_bytes() == fresh
        # written over in place: truncating on open makes ext4 flush at close
        assert flags and not any(flag & os.O_TRUNC for flag in flags)

    def test_symlink_is_kept(self, tmp_path, capsys, command):
        fresh = self.fresh(tmp_path, capsys, command)
        target, link = tmp_path / "target.csv", tmp_path / "link.csv"
        target.write_bytes(b"-1," * len(fresh))
        link.symlink_to(target)
        assert run(capsys, *_WRITERS[command], "--out", link)[0] == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh

    def test_devices(self, capsys, command):
        code, out, err = run_exit(capsys, [*_WRITERS[command], "--out", os.devnull])
        assert code == 0 and err == ""
        json.loads(out)
        code, out, err = run_exit(capsys, [*_WRITERS[command], "--out", "/dev/full"])
        assert code == 1 and out == ""
        assert err.startswith("bellband: error: ") and err.count("\n") == 1

    def test_failed_write_leaves_its_prefix(self, tmp_path, capsys, monkeypatch, command):
        fresh = self.fresh(tmp_path, capsys, command)
        old = tmp_path / "old.csv"
        old.write_bytes(b"-1," * len(fresh))
        output = cli._output
        writers = []

        @contextlib.contextmanager
        def failing(path):
            with output(path) as fh:
                writers.append(_FailingWriter(fh))
                yield writers[-1]

        monkeypatch.setattr(cli, "_output", failing)
        code, out, err = run_exit(capsys, [*_WRITERS[command], "--out", str(old)])
        assert code == 1 and out == ""
        assert err == "bellband: error: the disk went away\n"
        # the header and half the first block of rows
        assert fresh.index(b"\n") + 1 < writers[0].written < len(fresh)
        assert old.read_bytes() == fresh[:writers[0].written]


# argv fuzzing: each flag takes its value as "--flag=value" or as the next
# token, which must mean the same even for "-1e308" and "-inf".  The first
# value of each list is a valid one, drawn half the time so that whole
# commands succeed too.
_FLOATS = ["0.5", "nan", "inf", "-inf", "0.0", "-0.0", "1e308", "-1e308", "1", "-1", "3",
           str(10**30), "abc", ""]
_COUNTS = ["1000", "-1", "0", "1", str(-(10**30)), "1e3", "nan", "abc"]
_SEEDS = ["1", "0", "-1", str(2**64 - 1), str(2**64), str(10**30), str(-(10**30)), "abc"]
_RESOLUTIONS = ["8", "-1", "0", "1", "2", str(-(10**30)), "nan", "abc"]
_CANDIDATES = ["product", "locality", "product-diagonal", "grid", "other"]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """Files for the argv fuzz: inputs good and bad, and places to write."""
    root = tmp_path_factory.mktemp("fuzz")
    values = F4Candidate.builtin("product").values(grid_points(3)).tolist()
    grid = json.dumps({"kind": "grid", "name": "grid", "resolution": 3, "values": values})
    files = {
        "grid.json": grid,
        "truncated.json": grid[: len(grid) // 2],
        "strings.json": '{"kind": "grid", "resolution": 2, "values": ["0","0","0","0","0","0","0","0"]}',
        "not-utf-8": b"\xff\xfe{",
        "octet.csv": "a_oo,b_oo,a_bo,b_ob\n+1,-1,+1,+1\n-1,-1,+1,-1\n",
        "bad.csv": "a_oo,b_oo,a_bo,b_ob\n+1,-1,+1,+2\n",
    }
    for name, content in files.items():
        path = root / name
        path.write_bytes(content if isinstance(content, bytes) else content.encode())
    inputs = [str(root / name) for name in files] + [str(root / "missing"), str(root)]
    outputs = [str(root / "out.csv"), str(root), str(root / "no" / "out.csv"), "/dev/full"]
    # each list starts with a valid value, as the lists above do
    return [str(root / "grid.json"), *inputs], [str(root / "octet.csv"), *inputs], outputs


def _fuzz_specs(grids, sequences, outputs) -> dict:
    """Subcommand -> (flag, values, required); values None marks a switch."""
    triple = [(f"--theta{i}", _FLOATS, True) for i in (1, 2, 3)]
    degrees = [("--degrees", None, False)]
    seed_out = [("--seed", _SEEDS, False), ("--out", outputs, True)]
    candidate = [("--candidate", _CANDIDATES, True), ("--candidate-file", grids, False)]
    return {
        "simulate": [("--theta", _FLOATS, True), ("--n", _COUNTS, True), *degrees, *seed_out],
        "lhv": [("--theta-a", _FLOATS, True), ("--theta-b", _FLOATS, True),
                ("--n", _COUNTS, True), *degrees, *seed_out],
        "octet": [*triple, ("--f", _FLOATS, False), ("--n", _COUNTS, True), *degrees, *seed_out],
        "boole": [("--in", sequences, True)],
        "chsh": [*triple, *candidate, *degrees],
        "band": [*triple, *degrees],
        "band-map": [("--resolution", _RESOLUTIONS, True), ("--out", outputs, True)],
        "lp-band": [(f"--c{i}", _FLOATS, True) for i in (1, 2, 3)],
        "analyze": [*candidate, ("--seed", _SEEDS, False)],
        "scan": [*candidate, ("--resolution", _RESOLUTIONS, True)],
    }


def test_fuzz_specs_follow_the_grammar(fuzz_paths):
    # a flag added to the CLI cannot go unfuzzed
    specs = _fuzz_specs(*fuzz_paths)
    assert sorted(specs) == sorted(cli._COMMANDS)
    for command, (_, _, flags) in cli._COMMANDS.items():
        assert [spec[0] for spec in specs[command]] == list(flags), command
        for flag, values, required in specs[command]:
            keywords = cli._FLAGS[flag]
            assert required == keywords.get("required", False), (command, flag)
            assert (values is None) == (keywords.get("action") == "store_true"), (command, flag)


def _reject_constant(token):
    raise ValueError(f"non-JSON token {token}")


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
@settings(derandomize=True, max_examples=50, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_argv_fuzz(fuzz_paths, command, data):
    argv = [command]
    for flag, values, required in _fuzz_specs(*fuzz_paths)[command]:
        if not (required or data.draw(st.booleans())):
            continue
        if values is None:
            argv.append(flag)
            continue
        value = data.draw(st.one_of(st.just(values[0]), st.sampled_from(values)))
        argv += [flag, value] if data.draw(st.booleans()) else [f"{flag}={value}"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2), argv
    if code == 0:
        json.loads(out, parse_constant=_reject_constant)
    else:
        assert out == "", argv
    if code == 1:
        assert err.startswith("bellband: error: ") and err.count("\n") == 1, (argv, err)
    if code == 2:
        assert err.startswith(f"bellband {command}: error: ") and err.count("\n") == 1, (argv, err)
