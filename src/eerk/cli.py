"""Command line front end.

Subcommands::

    eerk catalog                      list methods and their parameters
    eerk analyze  --method SPEC ...   PSD/NPD classification + minor curves
    eerk rate     --method SPEC ...   average dissipation rate curves
    eerk converge [--config FILE]     error/order table against a reference
    eerk energy   [--config FILE]     energy series (opt. stage margins)

Method specs look like ``etd1``, ``eerk2:c2=0.5`` or
``eerk32:c2=0.75,c3=0.6``; abscissas accept decimals or fractions.  Each
flag but ``--config`` is a config key of :func:`eerk.bench.load_config`,
spelled ``--key`` with ``_`` written ``-``; flags override the config file,
which overrides the subcommand's defaults.  All outputs are CSV.  Exit
codes: 0 success, 2 configuration error (also a z grid on which a diagonal
coefficient of D(z) vanishes or, for analyze, a minor leaves the float64
range, a monitored energy run at whose points ``-tau*mu`` a diagonal
coefficient vanishes, and with ``--out`` a method label of more than 239
characters), 3 divergence.  A run that exits 2 makes no output directory.
"""

from __future__ import annotations

import argparse
import sys

from eerk.bench import (
    _KEYS,
    BenchDivergence,
    ConfigError,
    ExperimentConfig,
    _parse_bool,
    load_config,
    run_analysis,
    run_convergence,
    run_energy,
    run_rate,
)
from eerk.dissipation import SingularDiagonalError
from eerk.tableaux import catalog

_EXIT_CONFIG = 2
_EXIT_DIVERGENCE = 3


def _cmd_catalog(_args) -> int:
    for name, params, text in catalog():
        sig = name if not params else f"{name}:{','.join(p + '=...' for p in params)}"
        print(f"{sig:24s} {text}")
    return 0


def _cmd_analyze(args) -> int:
    for label, verdict in run_analysis(_config(args)).items():
        if verdict.witness is None:
            print(f"{label:28s} {verdict.verdict}")
        else:
            w = verdict.witness
            print(f"{label:28s} {verdict.verdict}  witness z={w.z:.6g} "
                  f"minor {w.minor_index} = {w.minor_value:.6g}")
    return 0


def _cmd_rate(args) -> int:
    for label, data in run_rate(_config(args)).items():
        z, rate = data["z"], data["rate"]  # ascending: z[0] most negative
        print(f"{label:28s} R({z[-1]:.3g}) = {rate[-1]:.6g}   R({z[0]:.3g}) = {rate[0]:.6g}")
    return 0


def _cmd_converge(args) -> int:
    for label, rows in run_convergence(_config(args)).items():
        print(f"# {label}")
        print(f"{'tau':>12s} {'error':>14s} {'order':>7s}")
        for row in rows:
            order = "-" if row.order is None else f"{row.order:.2f}"
            print(f"{row.tau:12.6g} {row.error:14.4e} {order:>7s}")
    return 0


def _cmd_energy(args) -> int:
    reports = run_energy(_config(args))
    diverged = False
    for label, report in reports.items():
        if report.diverged:
            diverged = True
            print(f"{label:28s} DIVERGED at step {report.diverged_step} "
                  f"(t = {report.diverged_step * report.tau:.6g})")
            continue
        line = (f"{label:28s} E(0) = {report.energies[0]:.6g}  "
                f"E({report.times[-1]:.6g}) = {report.energies[-1]:.6g}")
        if report.margins is not None:
            line += (f"  min margin = {float(report.margins.min()):.3e}"
                     f"  stage law {report.energy_law}")
        print(line)
    return _EXIT_DIVERGENCE if diverged else 0


_PROBLEM = ("tau", "kappa", "eps", "T", "m", "h", "ic")

#: subcommand -> (handler, help, config keys of its flags besides ``method``
#: and ``out``, None for no flags at all, defaults below its config file)
_COMMANDS = {
    "catalog": (_cmd_catalog, "list available methods", None, {}),
    "analyze": (_cmd_analyze, "PSD/NPD classification", ("grid", "implicit"), {}),
    "rate": (_cmd_rate, "average dissipation rate curves", ("grid", "implicit"), {}),
    "converge": (_cmd_converge, "convergence table vs reference",
                 _PROBLEM + ("ref_method", "ref_tau"), {}),
    "energy": (_cmd_energy, "energy dissipation run", _PROBLEM + ("monitor",),
               {"ic": "bumps", "tau": "0.1", "T": "160"}),
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per ``_COMMANDS`` entry; a boolean key's flag is a
    switch whose value is optional, ``on`` when left out."""
    parser = argparse.ArgumentParser(
        prog="eerk",
        description="Exponential Runge-Kutta gradient-flow benchmarks")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, keys, _) in _COMMANDS.items():
        sub = subs.add_parser(command, help=summary)
        if keys is None:
            continue
        sub.add_argument("--method", action="append", metavar="SPEC", help=_KEYS["method"][2])
        sub.add_argument("--config", help="key=value config file")
        for key in ("out",) + keys:
            _, parse, text = _KEYS[key]
            flag = "--" + key.replace("_", "-")
            if parse is _parse_bool:
                sub.add_argument(flag, nargs="?", const="on", metavar="on|off", help=text)
            else:
                sub.add_argument(flag, help=text)
    return parser


def _config(args) -> ExperimentConfig:
    """The config of a subcommand: its defaults, then its config file, then
    the flags given, repeated ``--method`` values joined by commas."""
    flags = {key: value for key, value in vars(args).items() if key in _KEYS}
    if args.method:
        flags["method"] = ",".join(args.method)
    return load_config(args.config, flags, _COMMANDS[args.command][3])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](args)
    except (ConfigError, SingularDiagonalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except BenchDivergence as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        return _EXIT_DIVERGENCE


if __name__ == "__main__":
    sys.exit(main())
