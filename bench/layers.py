"""Which bellband names the traced run wraps, and the per-layer metrics
computed from what the wrappers record.

Every per-layer figure is per cycle: the total over the traced cycles of
a run divided by their number, so that a faster program, which fits more
cycles into the same run, does not inflate its counts.  Times are
calibrated like the end-to-end ones (``calibration``).
"""

from __future__ import annotations

import os
import sys

from tracer import Tracer

#: per-layer metric name -> unit; the order is the order of BENCHMARK.json
LAYER_UNITS = {
    "cli.encode_s": "s",
    "cli.decode_s": "s",
    "cli.format_s": "s",
    "cli.bytes_out": "bytes",
    "cli.bytes_in": "bytes",
    "sampling.calls": "count",
    "sampling.rows": "count",
    "sampling.busy_s": "s",
    "core.empirical_correlation.calls": "count",
    "core.empirical_correlation.busy_s": "s",
    "core.angle_triples": "count",
    "chsh.boole_check.calls": "count",
    "chsh.boole_check.busy_s": "s",
    "band.band_map.busy_s": "s",
    "band.feasible_band.calls": "count",
    "band.feasible_band.busy_s": "s",
    "band.lp_band.calls": "count",
    "band.lp_band.busy_s": "s",
    "band.lp_band.bases": "count",
    "band.feasible_distribution.busy_s": "s",
    "f4.evaluate.calls": "count",
    "f4.inequality_scan.busy_s": "s",
    "f4.violations": "count",
    "f4.contradiction_report.busy_s": "s",
    "trace.overhead_s": "s",
}

#: CLI subcommands whose self time in ``main`` is CSV encoding, CSV
#: decoding, or float formatting of a table
ENCODE_COMMANDS = ("simulate", "octet", "lhv")
DECODE_COMMANDS = ("boole",)
FORMAT_COMMANDS = ("band-map",)


def _sampled_rows(result, args):
    return {"sampling.rows": len(result[0]) if isinstance(result, tuple) else len(result)}


def _violations(result, args):
    return {"f4.violations": len(result)}


def _argv_label(args):
    argv = args[0] if args else None
    return argv[0] if argv else ""


def _file_bytes(result, args):
    """Bytes of the files a command wrote and read, plus the report it
    printed to the (captured) stdout."""
    argv = list(args[0] or [])
    counts = {}
    if hasattr(sys.stdout, "getvalue"):
        counts["cli.bytes_out"] = len(sys.stdout.getvalue().encode("utf-8"))
    for flag, key in (("--out", "cli.bytes_out"), ("--in", "cli.bytes_in"),
                      ("--candidate-file", "cli.bytes_in")):
        if flag in argv:
            path = argv[argv.index(flag) + 1]
            if os.path.exists(path):
                counts[key] = counts.get(key, 0) + os.path.getsize(path)
    return counts


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every bellband module where their
    callers look them up."""
    import bellband.band as band
    import bellband.chsh as chsh
    import bellband.cli as cli
    import bellband.core as core
    import bellband.f4 as f4

    tracer.wrap(cli, "main", "cli.main", label=_argv_label, after=_file_bytes)
    for name in ("sample_singlet_pairs", "sample_lhv_pairs", "sample_octet"):
        tracer.wrap(cli, name, "sampling", after=_sampled_rows)
    for module in (cli, chsh):
        tracer.wrap(module, "empirical_correlation", "core.empirical_correlation")
    tracer.wrap(core.AngleTriple, "__post_init__", "core.angle_triples", kind="count")
    tracer.wrap(cli, "boole_check", "chsh.boole_check")
    tracer.wrap(cli, "band_map", "band.band_map")
    for module in (cli, band, f4):
        tracer.wrap(module, "feasible_band", "band.feasible_band", kind="agg")
    for module in (cli, band):
        tracer.wrap(module, "lp_band", "band.lp_band", kind="agg")
        tracer.wrap(module, "feasible_distribution", "band.feasible_distribution")
    tracer.wrap(f4.F4Candidate, "evaluate", "f4.evaluate", kind="agg")
    tracer.wrap(cli, "inequality_scan", "f4.inequality_scan", after=_violations)
    tracer.wrap(cli, "contradiction_report", "f4.contradiction_report")


def layer_metrics(tracer: Tracer, cycles: int, overhead_s: float,
                  factor: float) -> dict[str, float]:
    """Per-cycle per-layer figures from one traced run; times are scaled
    by the run's calibration ``factor``."""
    import bellband.band as band

    per = 1.0 / max(cycles, 1)
    counters = tracer.counters
    totals = tracer.totals

    def busy(name):
        return tracer.span_sum(name)[1] * per * factor

    def calls(name):
        return tracer.span_sum(name)[0] * per

    def self_time(labels):
        return tracer.span_sum("cli.main", labels, field="self")[1] * per * factor

    lp_calls = totals["band.lp_band"][0] * per
    return {
        "cli.encode_s": self_time(ENCODE_COMMANDS),
        "cli.decode_s": self_time(DECODE_COMMANDS),
        "cli.format_s": self_time(FORMAT_COMMANDS),
        "cli.bytes_out": counters["cli.bytes_out"] * per,
        "cli.bytes_in": counters["cli.bytes_in"] * per,
        "sampling.calls": calls("sampling"),
        "sampling.rows": counters["sampling.rows"] * per,
        "sampling.busy_s": busy("sampling"),
        "core.empirical_correlation.calls": calls("core.empirical_correlation"),
        "core.empirical_correlation.busy_s": busy("core.empirical_correlation"),
        "core.angle_triples": counters["core.angle_triples"] * per,
        "chsh.boole_check.calls": calls("chsh.boole_check"),
        "chsh.boole_check.busy_s": busy("chsh.boole_check"),
        "band.band_map.busy_s": busy("band.band_map"),
        "band.feasible_band.calls": totals["band.feasible_band"][0] * per,
        "band.feasible_band.busy_s": totals["band.feasible_band"][1] * per * factor,
        "band.lp_band.calls": lp_calls,
        "band.lp_band.busy_s": totals["band.lp_band"][1] * per * factor,
        # computed, not observed: each call enumerates every non-singular basis
        "band.lp_band.bases": lp_calls * len(band._BASES_NS),
        "band.feasible_distribution.busy_s": busy("band.feasible_distribution"),
        "f4.evaluate.calls": totals["f4.evaluate"][0] * per,
        "f4.inequality_scan.busy_s": busy("f4.inequality_scan"),
        "f4.violations": counters["f4.violations"] * per,
        "f4.contradiction_report.busy_s": busy("f4.contradiction_report"),
        "trace.overhead_s": overhead_s,
    }
