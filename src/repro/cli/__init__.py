"""Command-line interface to the reproduction.

Subcommands mirror the operational steps of the paper's pipeline::

    repro info                       # regions, categories, machine specs
    repro synth VA --scale 1e-3 -o out/       # build population + network
    repro simulate VA --days 120 --tau 0.22   # run EpiHiper for one region
    repro calibrate VA --cells 30 --days 80   # case-study-3 calibration
    repro night prediction                    # orchestrate a nightly cycle
    repro store stats                         # result-store maintenance
    repro trace summarize                     # where did the night go?
    repro chaos run VA --inject worker.crash:times=1   # fault drill
    repro serve --port 8377                   # always-on scenario service
    repro submit VT --tau 0.22 --days 60      # ask the running service
    repro surrogate train                     # fit the emulator fast path

One module per command family adds its subcommands and handlers
(:mod:`~repro.cli.run`, :mod:`~repro.cli.night`, :mod:`~repro.cli.service`,
:mod:`~repro.cli.maintenance`) over the shared :mod:`~repro.cli.options`;
handlers import lazily, so building the parser loads nothing else.  Run
``python -m repro.cli <cmd> -h`` for per-command options.
"""

from __future__ import annotations

import argparse

#: Exit code for "work was quarantined / lost to faults": distinct from
#: 1 (domain failure, e.g. blown window or mismatch) and 2 (bad usage),
#: so scripted callers can tell "ran but gave up on some work" apart.
EXIT_QUARANTINED = 4

from . import maintenance, night, run, service  # noqa: E402

__all__ = ["EXIT_QUARANTINED", "build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scalable epidemiological workflows (IPDPS 2021 "
                    "reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)
    for family in (run, night, service, maintenance):
        family.add_parsers(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)
