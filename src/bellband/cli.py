"""Command-line interface: every analysis as a reproducible batch command.

All angle flags are radians unless ``--degrees`` is given.  Structured
reports are JSON with floats printed to 17 significant digits; sequence
files are CSV with cells exactly ``+1`` or ``-1`` in fixed-width rows
(README.md gives the grammar).  Exit codes:
0 success, 1 operational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import re
import stat
import sys
from collections.abc import Iterator

import numpy as np

from . import __version__
from .band import band_map, feasible_band, feasible_distribution, lp_band
from .chsh import (
    boole_check, chsh_value, correlations_from_angles, octet_correlations, polytope_member,
)
from .core import (
    TWO_PI, AngleTriple, empirical_correlation, singlet_correlation, twisted_malus,
)
from .errors import BellbandError, DomainError
# inequality_scan's one reader here is bench/layers.py, which wraps cli.inequality_scan
from .f4 import (  # noqa: F401
    _KINDS, BUILTIN_KINDS, F4Candidate, _violations, contradiction_report, inequality_scan,
)
from .sampling import CHUNK, OctetSequences, sample_lhv_pairs, sample_octet, sample_singlet_pairs


def _pieces(obj, indent: int = 0):
    """The JSON text of ``obj`` in pieces, with floats at 17 significant
    digits.  An iterator is JSON text already, and is written as it is."""
    if isinstance(obj, float):
        yield format(obj, ".17g")
    # an empty dict or list writes its opener and closer as one piece
    elif isinstance(obj, dict):
        pad, opener = "  " * indent, "{\n"
        for k, v in obj.items():
            yield f'{opener}{pad}  "{k}": '
            yield from _pieces(v, indent + 1)
            opener = ",\n"
        yield f"\n{pad}}}" if obj else "{}"
    elif isinstance(obj, (list, tuple)):
        opener = "["
        for v in obj:
            yield opener
            yield from _pieces(v, indent)
            opener = ", "
        yield "]" if obj else "[]"
    elif isinstance(obj, bool) or obj is None:
        yield {True: "true", False: "false", None: "null"}[obj]
    elif isinstance(obj, int):
        yield str(obj)
    elif isinstance(obj, str):
        yield json.dumps(obj)
    elif isinstance(obj, Iterator):
        yield from obj
    elif dataclasses.is_dataclass(type(obj)):  # an instance, as the dict of its fields in order
        yield from _pieces({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}, indent)
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def dumps(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits."""
    return "".join(_pieces(obj, indent))


def _angle(args, value: float) -> float:
    return math.radians(value) if args.degrees else value


def _triple(args) -> AngleTriple:
    return AngleTriple(
        _angle(args, args.theta1), _angle(args, args.theta2), _angle(args, args.theta3)
    )


def _candidate(args) -> F4Candidate:
    if args.candidate == "grid":
        if not args.candidate_file:
            raise BellbandError("--candidate grid requires --candidate-file")
        with open(args.candidate_file, "rb") as fh:
            return F4Candidate.from_json(fh.read())
    if args.candidate_file is not None:
        raise BellbandError(f"--candidate-file needs --candidate grid, not {args.candidate}")
    return F4Candidate.builtin(args.candidate)


# A sequence file is a header line of column names joined by "," and then
# rows of k cells, each exactly "+1" or "-1", joined by "," and ended by
# "\n".  Every data row is k cells of exactly 3 bytes, so both directions
# are array operations on bytes.  The writer reuses one (m, k, 3) block of
# at most CHUNK rows.  The reader checks and decodes the bytes it read in
# one serial pass, in steps of _CHECK_ROWS rows through one scratch step
# (196 KB at k = 4).
_COMMA = ord(",")
_CHECK_ROWS = 1 << 14


def _rows_template(n: int, k: int) -> np.ndarray:
    """n rows of k "+1" cells, as a writable (n, k, 3) byte array."""
    row = bytearray(b"+1," * k)
    row[-1] = ord("\n")
    # repeating the row's bytes is about 4x faster than np.tile
    return np.frombuffer(row * n, dtype=np.uint8).reshape(n, k, 3)


@contextlib.contextmanager
def _output(path: str):
    """``path`` opened to write over its old bytes and, if it is a regular
    file, cut to the bytes written when the writer ends, even by an
    exception.  Truncating on open would make ext4 (``auto_da_alloc``) flush
    the new blocks at close; unlinking the old file would break a symlink or
    /dev/stdout."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with open(fd, "wb") as fh:
        try:
            yield fh
        finally:
            if stat.S_ISREG(os.fstat(fd).st_mode):
                fh.truncate()


def _write_sequence_csv(path: str, columns: dict) -> None:
    """Write equal-length +/-1 columns as a sequence file."""
    names, values = list(columns), list(columns.values())
    n = len(values[0])
    template = _rows_template(min(CHUNK, n), len(names))
    with _output(path) as fh:
        fh.write((",".join(names) + "\n").encode("utf-8"))
        for start in range(0, n, CHUNK):
            rows = template[:n - start]
            for j, column in enumerate(values):
                # "," - (+1) is "+" and "," - (-1) is "-"
                np.subtract(_COMMA, column[start:start + CHUNK], out=rows[:, j, 0],
                            casting="unsafe")
            fh.write(rows)


def _read_sequence_csv(path: str) -> dict:
    """Read a sequence file into int8 columns keyed by name; anything but
    the exact format raises BellbandError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise BellbandError(f"{path} is empty")
    # a missing final newline is counted, not appended: appending copies the file
    size = len(data) + (not data.endswith(b"\n"))
    offset = data.find(b"\n") + 1 or size
    try:
        names = data[:offset - 1].decode("utf-8").split(",")
    except UnicodeDecodeError as exc:
        raise BellbandError(f"{path} has a header that is not UTF-8: {exc}") from None
    if "" in names or len(set(names)) != len(names):
        raise BellbandError(f"{path} needs distinct, non-empty column names, got {names}")
    k, size = len(names), size - offset
    if size % (3 * k):
        raise BellbandError(
            f"{path} is not a table of +1/-1 cells: its {size} bytes of rows "
            f"are not a whole number of {k}-cell rows of 3 bytes a cell"
        )
    # the rows' bytes, one short of a whole last row if the newline is missing
    cells = np.frombuffer(memoryview(data)[offset:], dtype=np.uint8)
    n = size // (3 * k)
    template = _rows_template(min(_CHECK_ROWS, n), k).reshape(-1)
    # "-" - "+" is 2, so (step - template) & keep is 0 exactly where a byte
    # is the template's, or "-" in place of a sign byte's "+"
    keep = np.full_like(template, 0xFF)
    keep[::3] = 0xFD
    diff = np.empty_like(template)
    values = np.empty((k, n), dtype=np.int8)
    for start in range(0, len(cells), 3 * k * _CHECK_ROWS):
        step = cells[start:start + len(template)]
        d = diff[:len(step)]
        np.subtract(step, template[:len(d)], out=d)
        d &= keep[:len(d)]
        if d.max():  # a uint8 max is about 3x faster than any()
            byte = start + np.flatnonzero(d)[0]
            row, cell = divmod(byte // 3, k)
            at = offset + byte - byte % 3
            # padded by the final newline, if the file lacks it
            bad = (data[at:at + 3] + b"\n")[:3]
            raise BellbandError(
                f"{path} is not a table of +1/-1 cells: cell {bad!r} "
                f"on line {row + 2}, column {names[cell]!r}"
            )
        # the step's sign bytes, copied while the step is in cache
        row = start // (3 * k)
        np.copyto(values[:, row:row + _CHECK_ROWS], step[::3].reshape(-1, k).T.view(np.int8))
    # "," - "+" is +1 and "," - "-" is -1
    np.subtract(_COMMA, values, out=values)
    return dict(zip(names, values))


# A float row is written as its cells, each the format(v, ".17g") text of
# its float and then the piece of bytes that the row's kind and the cell's
# column select; with "," and a last "\n" these are np.savetxt(fmt="%.17g",
# delimiter=",")'s bytes.  Each block of rows looks its distinct bit patterns
# (they keep -0.0, 0.0 and NaN payloads apart) up in a direct-mapped cache
# of NUL-padded cells, with room for the widest piece, that every block
# shares, formats only the misses, writes the pieces into its gathered
# cells' padding and drops the NULs.  As CSV, 2^11 rows of 6 cells take
# about 1 MB, and the cache at most 4.3 MB, whatever the output's size.
_TABLE_BLOCK = 1 << 11
#: slots of the cell cache at most, a power of two
_CELL_CACHE = 1 << 17
_DIGITS = 24  # the longest ".17g" cell, such as "-1.2345678901234567e-308"
_HASH = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd


def _row_blocks(parts, pieces, kinds=None):
    """Each block of rows of a list of 2-D float arrays, part after part, as
    ASCII bytes in a uint8 array, each cell followed by
    ``pieces[kind][column]``: the text for the row's entry in its part of
    ``kinds`` (0 for every row if None) and the cell's column."""
    pieces = np.array(pieces, dtype=bytes)[..., None].view(np.uint8)
    width = _DIGITS + pieces.shape[-1]
    cell = np.dtype([("bits", np.uint64), ("text", np.uint8, width)])
    size = sum(np.size(rows) for rows in parts)
    cache = np.zeros(min(_CELL_CACHE, 1 << size.bit_length()), dtype=cell)
    # multiplicative hashing: the top log2(slots) bits of bits * _HASH
    shift = np.uint64(65 - len(cache).bit_length())
    for rows, codes in zip(parts, kinds or [None] * len(parts)):
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        for start in range(0, len(rows), _TABLE_BLOCK):
            block = rows[start:start + _TABLE_BLOCK]
            bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
            slots = (bits * _HASH >> shift).astype(np.intp)
            # read every slot before storing a miss: two of this block's
            # distinct floats may share a slot
            local = cache.take(slots)
            # an empty slot's cell starts with NUL
            miss = np.flatnonzero((local["bits"] != bits) | (local["text"][:, 0] == 0))
            texts = [format(v, ".17g") for v in bits[miss].view(np.float64).tolist()]
            cells = np.empty(len(texts), dtype=cell)
            cells["bits"] = bits[miss]
            cells["text"] = np.array(texts, dtype=f"S{width}").view(np.uint8).reshape(-1, width)
            local.put(miss, cells)
            # whole slots, so a slot two misses share holds one of them intact
            cache.put(slots[miss], cells)
            out = local["text"][inverse.reshape(block.shape)]
            out[..., _DIGITS:] = pieces[0 if codes is None else codes[start:start + len(block)]]
            yield out[out != 0]


def _pair_report(args, pairs: tuple, expected: float) -> dict:
    """Write sampled columns (a, b) to ``--out`` and report their
    correlation beside the model's ``expected`` one."""
    a, b = pairs
    _write_sequence_csv(args.out, {"a": a, "b": b})
    return {
        "out": args.out,
        "empirical_correlation": empirical_correlation(a, b),
        "expected_correlation": expected,
    }


def _cmd_simulate(args) -> dict:
    theta = _angle(args, args.theta)
    return _pair_report(args, sample_singlet_pairs(theta, args.n, args.seed), twisted_malus(theta))


def _cmd_lhv(args) -> dict:
    ta, tb = _angle(args, args.theta_a), _angle(args, args.theta_b)
    # checked before the draws; the sampler itself rejects a nan or inf angle
    if math.isfinite(ta) and math.isfinite(tb) and not math.isfinite(ta - tb):
        raise DomainError(f"the angle gap {ta} - {tb} overflows a float")
    pairs = sample_lhv_pairs(ta, tb, args.n, args.seed)
    # circular gap in [0, pi]; fmod is exact, so gaps up to pi keep every bit
    gap = math.fmod(abs(ta - tb), TWO_PI)
    gap = min(gap, TWO_PI - gap)
    return _pair_report(args, pairs, -1.0 + 2.0 * gap / math.pi)


def _cmd_octet(args) -> dict:
    theta = _triple(args)
    interval = feasible_band(theta)
    f = interval.midpoint if args.f is None else args.f
    c1, c2, c3 = singlet_correlation(theta.as_array()).tolist()
    dist = feasible_distribution(c1, c2, c3, f)
    # the fields (a_oo, b_oo, a_bo, b_ob) in the order of the pattern columns
    columns = vars(sample_octet(dist, args.n, args.seed))
    _write_sequence_csv(args.out, columns)
    return {
        "out": args.out,
        "targets": {"c1": c1, "c2": c2, "c3": c3, "f": f},
        "empirical": octet_correlations(*columns.values()),
    }


def _cmd_boole(args):
    cols = _read_sequence_csv(args.infile)
    # the OctetSequences fields, in the order of the pattern columns
    required = [field.name for field in dataclasses.fields(OctetSequences)]
    missing = [name for name in required if name not in cols]
    if missing:
        raise BellbandError(f"input CSV is missing columns {missing}")
    return boole_check(*(cols[name] for name in required))


def _cmd_chsh(args) -> dict:
    theta = _triple(args)
    candidate = _candidate(args)
    vector = correlations_from_angles(theta, candidate)
    value = chsh_value(vector)
    return {
        "correlations": [vector.c1, vector.c2, vector.c3, vector.c4],
        "chsh_value": value,
        "violated": not polytope_member(vector),
    }


def _cmd_band(args) -> dict:
    interval = feasible_band(_triple(args))
    return {"lo": interval.lo, "hi": interval.hi, "width": interval.width}


def _cmd_band_map(args) -> dict:
    rows = band_map(args.resolution)
    with _output(args.out) as fh:
        fh.write(b"theta1,theta2,theta3,lo,hi,width\n")
        for block in _row_blocks([rows], [[","] * 5 + ["\n"]]):
            fh.write(block)
    return {"out": args.out, "rows": int(rows.shape[0])}


def _cmd_lp_band(args) -> dict:
    result = lp_band(args.c1, args.c2, args.c3)
    return {
        "min": result.min_value,
        "max": result.max_value,
        "witness_min": list(result.witness_min.p),
        "witness_max": list(result.witness_max.p),
    }


def _cmd_analyze(args):
    return contradiction_report(_candidate(args), seed=args.seed)


# a violation of scan's report as dumps writes it in the list, split at its
# six cells, for each kind; a row's last piece closes it and opens the next
# row, or for a kind code raised by len(_KINDS) closes the list
_VIOLATION = [dumps({"theta": ["\0"] * 3, "kind": kind, "value": "\0", "lo": "\0", "hi": "\0"},
                    2).split(dumps("\0")) for kind in _KINDS]
_SCAN_PIECES = [[*middle, tail + end] for end in (", " + _VIOLATION[0][0], "]")
                for _, *middle, tail in _VIOLATION]


def _cmd_scan(args) -> dict:
    rows, kinds = _violations(_candidate(args), args.resolution)
    # the last part holds the last row
    if kinds:
        kinds[-1][-1] += len(_KINDS)
    blocks = (str(block, "ascii") for block in _row_blocks(rows, _SCAN_PIECES, kinds))
    return {"resolution": args.resolution, "violation_count": sum(map(len, rows)),
            "violations": itertools.chain(["[" + _VIOLATION[0][0] if rows else "[]"], blocks)}


_REAL = {"type": float, "required": True}
_INT = {"type": int, "required": True}
#: each flag's add_argument keywords, whichever subcommands take it
_FLAGS = {
    "--theta": {**_REAL, "help": "relative detector angle"},
    "--theta-a": _REAL,
    "--theta-b": _REAL,
    **{f"--theta{i}": _REAL for i in (1, 2, 3)},
    "--f": {"type": float, "help": "fourth moment (default: band midpoint)"},
    "--n": _INT,
    "--degrees": {"action": "store_true"},
    "--seed": {"type": int, "default": 0, "help": "64-bit unsigned RNG seed"},
    "--out": {"required": True, "help": "output CSV path"},
    "--in": {"dest": "infile", "required": True, "help": "octet CSV (a_oo,b_oo,a_bo,b_ob)"},
    "--candidate": {"choices": (*BUILTIN_KINDS, "grid"), "required": True},
    "--candidate-file": {"help": "grid candidate JSON document"},
    "--resolution": _INT,
    **{f"--c{i}": _REAL for i in (1, 2, 3)},
}
_TRIPLE = ("--theta1", "--theta2", "--theta3")
_CANDIDATE = ("--candidate", "--candidate-file")
#: subcommand -> (function, help, flags in usage order)
_COMMANDS = {
    "simulate": (_cmd_simulate, "sample singlet outcome pairs",
                 ("--theta", "--n", "--degrees", "--seed", "--out")),
    "lhv": (_cmd_lhv, "sample the local hidden-variable baseline",
            ("--theta-a", "--theta-b", "--n", "--degrees", "--seed", "--out")),
    "octet": (_cmd_octet, "sample the identified counterfactual quadruple",
              (*_TRIPLE, "--f", "--n", "--degrees", "--seed", "--out")),
    "boole": (_cmd_boole, "check both Boole inequalities on a sequence CSV", ("--in",)),
    "chsh": (_cmd_chsh, "CHSH value of a candidate at a configuration",
             (*_TRIPLE, *_CANDIDATE, "--degrees")),
    "band": (_cmd_band, "feasible band endpoints at a configuration", (*_TRIPLE, "--degrees")),
    "band-map": (_cmd_band_map, "band endpoints over a uniform grid, as CSV",
                 ("--resolution", "--out")),
    "lp-band": (_cmd_lp_band, "LP oracle extremes for the fourth moment",
                ("--c1", "--c2", "--c3")),
    "analyze": (_cmd_analyze, "full regularity report for a candidate", (*_CANDIDATE, "--seed")),
    "scan": (_cmd_scan, "band and diagonal violations over a grid",
             (*_CANDIDATE, "--resolution")),
}


class _Parser(argparse.ArgumentParser):
    """argparse's parser, and its subcommands' parsers, with a usage error
    on one stderr line and no usage block.  A token such as "-5e-1",
    "-inf" or "-nan" after a flag is its value, as with "--flag=value";
    argparse alone reads only "-5" and "-.5" as negative numbers, and the
    rest as unknown options.

    This replaces argparse's private ``_negative_number_matcher``, which
    ``_parse_optional`` reads; the argument groups made by ``__init__`` keep
    the old one, which only checks that no option string looks like a
    number.  ``test_negative_real_as_its_own_token`` in tests/test_cli.py
    fails if a Python release stops reading it."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # argparse matches this at the start of each token that begins with "-"
        self._negative_number_matcher = re.compile(r"-\.?\d|-(inf|nan)", re.IGNORECASE)

    def error(self, message):
        self.exit(2, _error_line(self.prog, message))


def _error_line(prog: str, message: str) -> str:
    """``prog: error: message`` on one line: a newline in it is written as \\n."""
    return f"{prog}: error: {message}".replace("\n", "\\n") + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once: the grammar is fixed."""
    parser = _Parser(
        prog="bellband",
        description="CHSH band and correlation-regularity toolkit",
    )
    parser.add_argument("--version", action="version", version=f"bellband {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:  # parse_args would report them as an error of the top-level parser
        parser.exit(2, _error_line(f"bellband {args.command}",
                                   f"unrecognized arguments: {' '.join(extras)}"))
    config = {
        k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None
    }
    try:
        result = _COMMANDS[args.command][0](args)
        report = {"tool": "bellband", "version": __version__, "command": args.command,
                  "config": config, "result": result}
        try:  # flushed here, so that a closed pipe or a full disk is an error of the command
            sys.stdout.writelines(_pieces(report))
            print(flush=True)
        except OSError:  # drop the unwritten bytes, or stdout's flush at exit fails (exit 120)
            with contextlib.suppress(OSError, ValueError), open(os.devnull, "wb") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())  # no descriptor: a capture, kept
            raise
    except (BellbandError, OSError, MemoryError) as exc:
        # numpy names the failed allocation; a bare MemoryError says nothing
        sys.stderr.write(_error_line("bellband", str(exc) or "out of memory"))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
