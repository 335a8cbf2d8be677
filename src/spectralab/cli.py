"""Command-line front end: run / verify / convergence / list.

Exit status: 0 when every evaluated inequality holds within slack, 1 when
some check failed, 2 on a module error.  The environment variable
``SPECTRA_OUT`` overrides the output directory root.
"""

from __future__ import annotations

import argparse
import sys

from .errors import SpectralabError
from .reporting import catalog_text, load_scenario, run_scenario


def _add_scenario_args(parser):
    parser.add_argument("config", help="scenario configuration file")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="spectralab",
        description="eigenvalue-inequality laboratory for weighted "
                    "divergence-form operators")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_scenario_args(sub.add_parser("run", help="run a scenario and write artifacts"))
    _add_scenario_args(sub.add_parser(
        "verify", help="run a scenario, print verdicts, write nothing"))
    _add_scenario_args(sub.add_parser(
        "convergence", help="run the resolution ladder, write spectra and "
                            "convergence tables only"))
    sub.add_parser("list", help="list charts, field builtins and check names")
    args = parser.parse_args(argv)

    if args.command == "list":
        sys.stdout.write(catalog_text())
        return 0

    try:
        scenario = load_scenario(args.config)
    except (OSError, UnicodeDecodeError, SpectralabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "run":
        run = run_scenario(scenario)
        for message in run.messages:
            print(message, file=sys.stderr)
        if run.exit_code == 0:
            print(f"{scenario.name}: all checks hold "
                  f"({sum(1 for r in run.reports if not r.skipped)} evaluated)")
        return run.exit_code

    if args.command == "verify":
        run = run_scenario(scenario, write=False)
        evaluated = [r for r in run.reports if not r.skipped]
        for report in evaluated:
            if not report.holds:
                print(f"FAIL {report.name} k={report.k} "
                      f"lhs={report.lhs:.12g} rhs={report.rhs:.12g}")
        if run.exit_code == 2:
            for message in run.messages:
                print(message, file=sys.stderr)
        status = "ok" if run.exit_code == 0 else "failed"
        print(f"{scenario.name}: {status} "
              f"({len(evaluated)} checks, {len(run.reports) - len(evaluated)} skipped)")
        return run.exit_code

    # convergence: spectra + extrapolation tables, no inequality checks
    run = run_scenario(scenario, checks=False)
    for message in run.messages:
        print(message, file=sys.stderr)
    return run.exit_code


if __name__ == "__main__":
    sys.exit(main())
