"""Command-line interface: every analysis as a reproducible batch command.

All angle flags are radians unless ``--degrees`` is given.  Structured
reports are JSON with floats printed to 17 significant digits; sequence
files are CSV with cells exactly ``+1`` or ``-1`` in fixed-width rows
(README.md gives the grammar).  Exit codes:
0 success, 1 operational failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys

import numpy as np

from . import __version__
from .band import band_map, feasible_band, feasible_distribution, lp_band
from .chsh import boole_check, chsh_value, correlations_from_angles, polytope_member
from .core import TWO_PI, AngleTriple, empirical_correlation, singlet_correlation, twisted_malus
from .errors import BellbandError, DomainError
from .f4 import BUILTIN_KINDS, F4Candidate, contradiction_report, inequality_scan
from .sampling import (
    JointDistribution4, OctetSequences, sample_lhv_pairs, sample_octet, sample_singlet_pairs,
)


def _format_number(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return repr(x)


def dumps(obj, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{k}": {dumps(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps(v, indent) for v in obj) + "]"
    if isinstance(obj, bool) or obj is None:
        return {True: "true", False: "false", None: "null"}[obj]
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_number(float(obj))
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


def _report(command: str, config: dict, result: dict) -> str:
    return dumps(
        {
            "tool": "bellband",
            "version": __version__,
            "command": command,
            "config": config,
            "result": result,
        }
    )


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
    return F4Candidate.builtin(args.candidate)


# A sequence file is a header line of column names joined by "," and then
# rows of k cells, each exactly "+1" or "-1", joined by "," and ended by
# "\n".  Every data row is k cells of exactly 3 bytes, so both directions
# are array operations on an (n, k, 3) uint8 view of the rows.
_COMMA = ord(",")


def _rows_template(n: int, k: int) -> np.ndarray:
    """n rows of k "+1" cells, as a writable (n, k, 3) byte array."""
    row = bytearray(b"+1," * k)
    row[-1] = ord("\n")
    # repeating the row's bytes is about 4x faster than np.tile
    return np.frombuffer(row * n, dtype=np.uint8).reshape(n, k, 3)


def _write_sequence_csv(path: str, columns: dict) -> None:
    """Write equal-length +/-1 columns as a sequence file."""
    names = list(columns)
    rows = _rows_template(len(columns[names[0]]), len(names))
    for j, name in enumerate(names):
        # "," - (+1) is "+" and "," - (-1) is "-"
        np.subtract(_COMMA, columns[name], out=rows[:, j, 0], casting="unsafe")
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode("utf-8"))
        fh.write(rows)


def _read_sequence_csv(path: str) -> dict:
    """Read a sequence file into int8 columns keyed by name; anything but
    the exact format raises BellbandError."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data:
        raise BellbandError(f"{path} is empty")
    header, _, body = data.partition(b"\n")
    try:
        names = header.decode("utf-8").split(",")
    except UnicodeDecodeError as exc:
        raise BellbandError(f"{path} has a header that is not UTF-8: {exc}") from None
    if "" in names or len(set(names)) != len(names):
        raise BellbandError(f"{path} needs distinct, non-empty column names, got {names}")
    if body and not body.endswith(b"\n"):
        body += b"\n"
    k = len(names)
    if len(body) % (3 * k):
        raise BellbandError(
            f"{path} is not a table of +1/-1 cells: its {len(body)} bytes of rows "
            f"are not a whole number of {k}-cell rows of 3 bytes a cell"
        )
    rows = np.frombuffer(body, dtype=np.uint8).reshape(-1, k, 3)
    # every byte is the template's, but a sign byte may also be "-"; the
    # template is full size, as a broadcast compare loops per row
    bad = rows != _rows_template(len(rows), k)
    bad[:, :, 0] &= rows[:, :, 0] != ord("-")
    if bad.any():
        row, cell = np.argwhere(bad)[0, :2]
        raise BellbandError(
            f"{path} is not a table of +1/-1 cells: cell {rows[row, cell].tobytes()!r} "
            f"on line {row + 2}, column {names[cell]!r}"
        )
    # "," - "+" is +1 and "," - "-" is -1; one contiguous row per column
    values = np.subtract(_COMMA, rows[:, :, 0].T.view(np.int8), order="C")
    return dict(zip(names, values))


# A float table is written as "%.17g" cells joined by "," with "\n" after
# each row: the bytes of np.savetxt(fmt="%.17g", delimiter=",").  A grid
# table repeats few distinct floats, so each block of rows takes its
# distinct bit patterns (they keep -0.0, 0.0 and NaN payloads apart), looks
# them up in a direct-mapped cache of formatted cells that every block of
# the table shares, formats only the misses, gathers the cells from a
# NUL-padded table of their bytes and drops the NULs.  A block takes about
# 100 bytes a cell while it is written, so 2^11 rows of 6 cells take about
# 1 MB, and the cache 4.5 MB, whatever the size of the table.
_TABLE_BLOCK = 1 << 11
#: slots of the cell cache, a power of two
_CELL_CACHE = 1 << 17
# a slot: bit pattern, cell length (0 while empty) and NUL-padded cell; the
# longest "%.17g," cell is 25 bytes, such as "-1.2345678901234567e-308,"
_CELL = np.dtype([("bits", np.uint64), ("width", np.uint8), ("text", np.uint8, 25)])
_HASH = np.uint64(0x9E3779B97F4A7C15)  # 2^64 / golden ratio, odd


def _write_table_csv(fh, rows) -> None:
    """Write the rows of a 2-D float array to a binary file as CSV."""
    rows = np.ascontiguousarray(rows, dtype=np.float64)
    cache = np.zeros(_CELL_CACHE, dtype=_CELL)
    # multiplicative hashing: the top log2(slots) bits of bits * _HASH
    shift = np.uint64(65 - _CELL_CACHE.bit_length())
    for start in range(0, len(rows), _TABLE_BLOCK):
        block = rows[start:start + _TABLE_BLOCK]
        bits, inverse = np.unique(block.view(np.uint64), return_inverse=True)
        slots = (bits * _HASH >> shift).astype(np.intp)
        # read every slot before storing a miss: two of this block's
        # distinct floats may share a slot
        local = cache.take(slots)
        miss = np.flatnonzero((local["bits"] != bits) | (local["width"] == 0))
        texts = [format(v, ".17g") + "," for v in bits[miss].view(np.float64).tolist()]
        cells = np.empty(len(texts), dtype=_CELL)
        cells["bits"] = bits[miss]
        cells["width"] = np.fromiter(map(len, texts), dtype=np.uint8, count=len(texts))
        cells["text"] = np.array(texts, dtype="S25").view(np.uint8).reshape(-1, 25)
        local.put(miss, cells)
        # whole slots, so a slot two misses share holds one of them intact
        cache.put(slots[miss], cells)
        index = inverse.reshape(block.shape)
        out = local["text"][index]
        # the "," of each row's last cell becomes "\n"
        commas = local["width"][index[:, -1]].astype(np.intp) - 1
        out[np.arange(len(block)), -1, commas] = ord("\n")
        fh.write(out[out != 0])


def _add_seed_out(parser):
    parser.add_argument("--seed", type=int, default=0, help="64-bit unsigned RNG seed")
    parser.add_argument("--out", required=True, help="output CSV path")


def _add_triple(parser):
    parser.add_argument("--theta1", type=float, required=True)
    parser.add_argument("--theta2", type=float, required=True)
    parser.add_argument("--theta3", type=float, required=True)


def _add_candidate(parser):
    parser.add_argument("--candidate", choices=(*BUILTIN_KINDS, "grid"), required=True)
    parser.add_argument("--candidate-file", help="grid candidate JSON document")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellband",
        description="CHSH band and correlation-regularity toolkit",
    )
    parser.add_argument("--version", action="version", version=f"bellband {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample singlet outcome pairs")
    p.add_argument("--theta", type=float, required=True, help="relative detector angle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", action="store_true")
    _add_seed_out(p)

    p = sub.add_parser("lhv", help="sample the local hidden-variable baseline")
    p.add_argument("--theta-a", type=float, required=True)
    p.add_argument("--theta-b", type=float, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", action="store_true")
    _add_seed_out(p)

    p = sub.add_parser("octet", help="sample the identified counterfactual quadruple")
    _add_triple(p)
    p.add_argument("--f", type=float, default=None, help="fourth moment (default: band midpoint)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--degrees", action="store_true")
    _add_seed_out(p)

    p = sub.add_parser("boole", help="check both Boole inequalities on a sequence CSV")
    p.add_argument("--in", dest="infile", required=True, help="octet CSV (a_oo,b_oo,a_bo,b_ob)")

    p = sub.add_parser("chsh", help="CHSH value of a candidate at a configuration")
    _add_triple(p)
    _add_candidate(p)
    p.add_argument("--degrees", action="store_true")

    p = sub.add_parser("band", help="feasible band endpoints at a configuration")
    _add_triple(p)
    p.add_argument("--degrees", action="store_true")

    p = sub.add_parser("band-map", help="band endpoints over a uniform grid, as CSV")
    p.add_argument("--resolution", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("lp-band", help="LP oracle extremes for the fourth moment")
    p.add_argument("--c1", type=float, required=True)
    p.add_argument("--c2", type=float, required=True)
    p.add_argument("--c3", type=float, required=True)

    p = sub.add_parser("analyze", help="full regularity report for a candidate")
    _add_candidate(p)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("scan", help="band and diagonal violations over a grid")
    _add_candidate(p)
    p.add_argument("--resolution", type=int, required=True)

    return parser


def _cmd_simulate(args) -> dict:
    theta = _angle(args, args.theta)
    a, b = sample_singlet_pairs(theta, args.n, args.seed)
    _write_sequence_csv(args.out, {"a": a, "b": b})
    return {
        "out": args.out,
        "empirical_correlation": empirical_correlation(a, b),
        "expected_correlation": twisted_malus(theta),
    }


def _cmd_lhv(args) -> dict:
    ta, tb = _angle(args, args.theta_a), _angle(args, args.theta_b)
    # checked before the draws; the sampler itself rejects a nan or inf angle
    if math.isfinite(ta) and math.isfinite(tb) and not math.isfinite(ta - tb):
        raise DomainError(f"the angle gap {ta} - {tb} overflows a float")
    a, b = sample_lhv_pairs(ta, tb, args.n, args.seed)
    # circular gap in [0, pi]; fmod is exact, so gaps up to pi keep every bit
    gap = math.fmod(abs(ta - tb), TWO_PI)
    gap = min(gap, TWO_PI - gap)
    _write_sequence_csv(args.out, {"a": a, "b": b})
    return {
        "out": args.out,
        "empirical_correlation": empirical_correlation(a, b),
        "expected_correlation": -1.0 + 2.0 * gap / math.pi,
    }


def _cmd_octet(args) -> dict:
    theta = _triple(args)
    interval = feasible_band(theta)
    f = interval.midpoint if args.f is None else args.f
    c1, c2, c3 = singlet_correlation(theta.as_array()).tolist()
    dist = feasible_distribution(c1, c2, c3, f)
    # the fields (a_oo, b_oo, a_bo, b_ob) in the order of the pattern columns
    columns = vars(sample_octet(dist, args.n, args.seed))
    _write_sequence_csv(args.out, columns)
    seqs = list(columns.values())
    return {
        "out": args.out,
        "targets": {"c1": c1, "c2": c2, "c3": c3, "f": f},
        "empirical": {
            name: empirical_correlation(seqs[i], seqs[j])
            for name, (i, j) in JointDistribution4.CORRELATIONS.items()
        },
    }


def _cmd_boole(args) -> dict:
    cols = _read_sequence_csv(args.infile)
    # the OctetSequences fields, in the order of the pattern columns
    required = [field.name for field in dataclasses.fields(OctetSequences)]
    missing = [name for name in required if name not in cols]
    if missing:
        raise BellbandError(f"input CSV is missing columns {missing}")
    result = boole_check(*(cols[name] for name in required))
    return {"lhs1": result.lhs1, "lhs2": result.lhs2, "holds": result.holds}


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
    with open(args.out, "wb") as fh:
        fh.write(b"theta1,theta2,theta3,lo,hi,width\n")
        _write_table_csv(fh, rows)
    return {"out": args.out, "rows": int(rows.shape[0])}


def _cmd_lp_band(args) -> dict:
    result = lp_band(args.c1, args.c2, args.c3)
    return {
        "min": result.min_value,
        "max": result.max_value,
        "witness_min": list(result.witness_min.p),
        "witness_max": list(result.witness_max.p),
    }


def _cmd_analyze(args) -> dict:
    report = contradiction_report(_candidate(args), seed=args.seed)
    return report.to_dict()


def _cmd_scan(args) -> dict:
    violations = inequality_scan(_candidate(args), args.resolution)
    return {
        "resolution": args.resolution,
        "violation_count": len(violations),
        # a Violation's fields in order; dataclasses.asdict costs 10 us a row
        "violations": [vars(v) for v in violations],
    }


_COMMANDS = {
    "simulate": _cmd_simulate,
    "lhv": _cmd_lhv,
    "octet": _cmd_octet,
    "boole": _cmd_boole,
    "chsh": _cmd_chsh,
    "band": _cmd_band,
    "band-map": _cmd_band_map,
    "lp-band": _cmd_lp_band,
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    config = {
        k: v for k, v in sorted(vars(args).items()) if k != "command" and v is not None
    }
    try:
        result = _COMMANDS[args.command](args)
    except (BellbandError, OSError, MemoryError) as exc:
        # numpy names the failed allocation; a bare MemoryError says nothing
        print(f"bellband: error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1
    print(_report(args.command, config, result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
