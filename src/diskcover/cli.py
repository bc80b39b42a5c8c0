"""Command-line interface.

Subcommands that consume a configuration read it from --config or, when
piped, from stdin; subcommands that produce one write JSON to stdout, so
stages compose with ordinary shell pipes.  `main` decides every exit
code: 0 for any computed verdict, 2 for usage errors (among them an
--out file that cannot be written and a stdout closed at start, as by
`>&-`), 3 for unreadable configurations, 4 for infeasible parameters,
141 (128 + SIGPIPE, as a shell reports a process that SIGPIPE ended)
when the reader of stdout closed the pipe before the output was written.

A module that only some commands use is imported inside them, so each
process loads just what its command runs.  The names imported below stay
bound on this module because perfbench's tracer rebinds them here
(HOOKS in `perfbench/pbench/trace.py`).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys

from ._lazy import lazy_numpy
from .coverage import covering_radius, verify_k_coverage
from .lattice import ConfigFormatError, PeriodicConfig
from .render import render_svg
from .voronoi import all_cells_congruent, congruence_signature, voronoi_cell

USAGE_ERROR = 2
CONFIG_ERROR = 3
INFEASIBLE_ERROR = 4
BROKEN_PIPE = 141


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout)
    sys.stdout.write("\n")


def _load_config(args: argparse.Namespace) -> PeriodicConfig:
    try:
        if args.config is None:
            text = sys.stdin.read()
        else:
            with open(args.config, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        source = "stdin" if args.config is None else args.config
        raise ConfigFormatError(f"cannot read {source}: {exc}") from exc
    return PeriodicConfig.from_json(text)


def cmd_pattern(args) -> None:
    from .patterns import PatternSpec

    spec = PatternSpec(args.name, args.x, args.y, args.d)
    _emit(spec.build().to_dict())


def _import_numpy() -> None:
    # the search computes with numpy: importing it before a piped config is
    # read overlaps the import with the process that writes the pipe
    lazy_numpy().ndarray


def cmd_verify(args) -> None:
    _import_numpy()
    config = _load_config(args)
    cert = verify_k_coverage(config, args.k, args.tol)
    _emit(cert.to_dict())


def cmd_radius(args) -> None:
    _import_numpy()
    config = _load_config(args)
    enclosure = covering_radius(config, args.k, args.tol)
    _emit(
        {
            "k": args.k,
            "low": enclosure.low,
            "high": enclosure.high,
            "witness": [enclosure.witness.x, enclosure.witness.y],
            "converged": enclosure.converged,
        }
    )


def cmd_density(args) -> None:
    from .density import density_report

    config = _load_config(args)
    report = density_report(config, args.k)
    _emit(report.to_dict())


def cmd_voronoi(args) -> None:
    config = _load_config(args)
    cells = [voronoi_cell(config, i) for i in range(len(config.offsets))]
    payload: dict = {
        "cells": [
            {
                "site": [cell.site.x, cell.site.y],
                "vertices": [[p.x, p.y] for p in cell.polygon.vertices],
                "area": cell.polygon.area,
            }
            for cell in cells
        ]
    }
    if args.congruence:
        congruent, classes = all_cells_congruent(config, args.tol)
        sigs = [congruence_signature(cell, args.tol) for cell in cells]
        payload["all_congruent"] = congruent
        payload["class_count"] = len(classes)
        payload["cell_class"] = [classes.index(sig) for sig in sigs]
    _emit(payload)


def cmd_bounds(args) -> None:
    from .density import _BLUNDON_MULTIPLIERS, kershner_theta, known_values, toth_lower_bound

    table = known_values()
    payload = {
        "k": args.k,
        "theta": kershner_theta(),
        "toth": toth_lower_bound(args.k),
        "known_values": table,
    }
    if args.k in _BLUNDON_MULTIPLIERS:
        payload["blundon"] = _BLUNDON_MULTIPLIERS[args.k] * table["theta"]
    if args.k == 2:
        payload["danzer"] = [table["danzer_low"], table["danzer_high"]]
    _emit(payload)


def cmd_optimize(args) -> None:
    from .optimize import optimize_pattern_b, optimize_single_lattice

    if args.mode == "pattern-b" and args.k != 2:
        # checked before the probe, so a rejected run creates no file
        raise ValueError(f"pattern-b is a two-fold search: k must be 2, got {args.k}")
    if args.out is not None:
        # fail before the search, not after it; appending nothing keeps
        # what the file holds if the search then fails, and a file the
        # probe made goes until there is a history to write
        existed = os.path.lexists(args.out)
        open(args.out, "a", encoding="utf-8").close()
        if not existed:
            os.remove(args.out)
    if args.mode == "single-lattice":
        result = optimize_single_lattice(args.k, budget=args.budget, tol=args.tol)
    else:
        result = optimize_pattern_b(budget=args.budget, tol=args.tol)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(result.history_csv())
    _emit(result.to_dict())


def cmd_render(args) -> None:
    svg = render_svg(_load_config(args), size=args.size)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(svg)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diskcover",
        description="Construct, verify, and optimize k-fold disk coverings "
        "of the plane on periodic lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_arg(p):
        p.add_argument("--config", help="configuration JSON file (default: stdin)")

    p = sub.add_parser("pattern", help="emit a named pattern configuration")
    p.add_argument("--name", required=True)
    p.add_argument("--x", type=float)
    p.add_argument("--y", type=float)
    p.add_argument("--d", type=float)
    p.set_defaults(func=cmd_pattern)

    p = sub.add_parser(
        "verify",
        help="certify k-fold coverage",
        description="Certify k-fold coverage by disks of the configured radius.  "
        "The search stops once its enclosure of the covering radius decides the "
        "verdict, so radius_low and radius_high may lie wider apart than --tol; "
        "the radius command gives the converged enclosure.",
    )
    add_config_arg(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("radius", help="certified covering-radius enclosure")
    add_config_arg(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_radius)

    p = sub.add_parser("density", help="density report against the k-fold bound")
    add_config_arg(p)
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("voronoi", help="Voronoi cells, optionally with congruence")
    add_config_arg(p)
    p.add_argument("--congruence", action="store_true")
    p.add_argument("--tol", type=float, default=1e-6)
    p.set_defaults(func=cmd_voronoi)

    p = sub.add_parser("bounds", help="classical density bounds for order k")
    p.add_argument("--k", type=int, default=1)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("optimize", help="search for low-density configurations")
    p.add_argument(
        "--mode", choices=("single-lattice", "pattern-b"), default="single-lattice"
    )
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--budget", type=int, default=20000)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--out", help="write the evaluation history as CSV")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("render", help="render a configuration to SVG")
    add_config_arg(p)
    p.add_argument("--out", required=True)
    p.add_argument("--size", type=int, default=640)
    p.set_defaults(func=cmd_render)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # without --config stdin is read, and it is None if closed at start
    if getattr(args, "config", "") is None and (sys.stdin is None or sys.stdin.isatty()):
        parser.exit(USAGE_ERROR, "error: no configuration: pass --config or pipe JSON\n")
    try:
        # sys.stdout is None when the process starts with stdout closed:
        # fail before the work whose output it would take; render writes
        # only its --out file
        if sys.stdout is None and args.command != "render":
            raise OSError(errno.EBADF, os.strerror(errno.EBADF), "stdout")
        args.func(args)
        # flush here, so a reader that has gone is caught below
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so the flush at interpreter exit does
        # not raise again on the closed pipe
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return BROKEN_PIPE
    except OSError as exc:
        # --out cannot be written, or stdout is closed; an error that
        # names no file came from writing an open one
        parser.exit(USAGE_ERROR, f"error: cannot write {exc.filename or 'output'}: {exc}\n")
    except ConfigFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return CONFIG_ERROR
    except (ValueError, OverflowError) as exc:
        # OverflowError: an integer flag beyond the float range
        print(f"error: {exc}", file=sys.stderr)
        return INFEASIBLE_ERROR
    return 0


if __name__ == "__main__":
    sys.exit(main())
