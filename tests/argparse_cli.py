"""Reference for bifield.cli.parse_args: the argparse parser it replaced.

build_parser builds the top parser, a parent holding the shared flags and
one subparser per command, with --R on charge alone. Usage errors raise
ConfigError through _Parser.error; -h, --help and --version raise
SystemExit(0) after printing.
"""

import argparse
from pathlib import Path

from bifield import __version__
from bifield.cli import _HELP
from bifield.errors import ConfigError


class _Parser(argparse.ArgumentParser):
    # argparse exits with its own code 2 on usage errors; route them through
    # the config-error path instead so exit codes keep their meaning
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bifield", description="Config-driven command line for the field engine.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    common = _Parser(add_help=False)
    common.add_argument("--config", type=Path, default=None,
                        help="JSON run configuration")
    common.add_argument("--out-dir", type=Path, default=Path("."),
                        help="directory for outputs (created if missing)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed")
    common.add_argument("--threads", type=int, default=1,
                        help="ignored; bifield starts no threads, but numpy's "
                             "OpenBLAS does: set OPENBLAS_NUM_THREADS")
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="override the config output format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HELP:
        cmd = sub.add_parser(name, parents=[common], help=_HELP[name])
        if name == "charge":
            cmd.add_argument("--R", type=float, default=None,
                             help="base radius of the flux ladder (R, 2R, 4R, 8R)")
    return parser
