"""Command-line front end, on the standard library's argparse.

Exit codes: 0 all checks passed / solve converged; 1 a verification failed,
the iteration did not converge or a write failed (one `error:` line, none
for a closed pipe); 2 input error (bad file, bad flag, bad index).  A
process (`process_main`) runs without the cyclic garbage collector and ends
with `os._exit` once stdout and stderr are flushed, so no teardown or
`atexit` hook runs; `main` raises SystemExit and leaves the collector be.
Reports are deterministic: identical invocations on identical files
produce byte-identical output, and JSON reports carry "schema": 4.
Rationals are written and read as integers or "p/q" only; a report with a
rational past the interpreter's digit limit (`rational._past_digit_limit`)
is an input error, and nothing of it is written.  An integer option takes
ASCII digits after an optional "-" only.

This module holds the command table, the parser and the process's ending.
Each command's handler and its text rendering are a module of `commands`,
which `main` imports after parsing; the parser adds only the named
command's options.  The choices the options offer come from `kinds`; every
other module is imported by the handler that runs it, so `--help`,
`--version` and `corpus --list` compile none of them, and `verify` no
`solver`.  A command compiles every module it imports whole, code it does
not run included, and the contraction scans compile their kernels as they
run.  No handler imports `orthofix.cli`: under `python -m orthofix.cli`
the running cli is `__main__`, so that import would run `cli.py` again.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys

from . import __version__
from .errors import CertificateError, InputError, OrthofixError
from .kinds import _AUDIT_DEFAULTS, _MAX_POINTS, ContractionKind, list_cases


def _int_option(text: str) -> int:
    """An integer option: ASCII digits after an optional "-" (`int()` also takes other digits, "_", blanks, "+")."""
    if not re.fullmatch("-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r} (use ASCII digits 0-9, with an optional leading '-')")
    if 0 < sys.get_int_max_str_digits() < len(text.lstrip("-")):
        raise argparse.ArgumentTypeError(f"integer exceeds the interpreter's limit of {sys.get_int_max_str_digits()} digits")
    return int(text)


# (its name, its handler's module in `commands`, its help, whether it reads a space FILE, its options but --json and --help)
_COMMANDS = (
    ("verify", "verify", "Run every check on a space file: classification, preservation, contraction constants, hierarchy "
     "implications and theorem hypotheses.", True, {}),
    ("classify", "classify", "Classify a space file (orthogonal set / weak orthogonal set / neither).", True, {
        "--seq": dict(metavar="LABELS", help="comma-separated point labels to check as a weak orthogonal sequence"),
        "--orbit": dict(dest="orbit_start", metavar="LABEL", help="point label whose orbit to print (needs a map)"),
    }),
    ("estimate-k", "estimate_k", "Estimate the minimal feasible contraction constant for one kind.", True, {
        "--kind": dict(choices=[kind.value for kind in ContractionKind], required=True, help="the contraction kind to scan"),
        "--symmetric": dict(action="store_true", help="scan both orientations of every related pair"),
    }),
    ("solve", "solve", "Run certified Picard iteration on a space file.", True, {
        "--start": dict(required=True, metavar="LABEL", help="point label to start from (must be a weak orthogonal element)"),
        "--eps": dict(metavar="RATIONAL", help="stop once the certified tail bound drops to this rational"),
        "--max-iter": dict(type=_int_option, default=1000, metavar="N", help="most map applications (default: %(default)s)"),
        "--k": dict(dest="k_raw", metavar="RATIONAL", help="explicit contraction constant in [0, 1)"),
        "--allow-any-start": dict(action="store_true", help="iterate from a non weak-orthogonal start (uncertified trace)"),
        "--allow-inadmissible-k": dict(action="store_true", help="skip the minimal-k precondition on an explicit --k"),
    }),
    ("corpus", "corpus", "Run the registered desk-checkable cases and report every assertion.", False, {
        "--case": dict(dest="case_name", choices=[name for name, _ in list_cases()], help="run only this case"),
        "--list": dict(dest="list_only", action="store_true", help="list registered cases"),
    }),
    ("audit", "audit", "Randomized theorem audit against the brute-force oracle.", False, {
        "--trials": dict(type=_int_option, default=_AUDIT_DEFAULTS["trials"], metavar="N", help="number of accepted instances to audit (default: %(default)s)"),
        "--seed": dict(type=_int_option, default=_AUDIT_DEFAULTS["seed"], metavar="N", help="seed of the audit's random stream (default: %(default)s)"),
        "--max-points": dict(type=_int_option, default=_AUDIT_DEFAULTS["max_points"], metavar="N",
                             help="largest generated space, %d to %d points (default: %%(default)s)" % _MAX_POINTS),
        "--density": dict(default=str(_AUDIT_DEFAULTS["relation_density"]), metavar="RATIONAL", help="relation density as a rational in [0, 1] (default: %(default)s)"),
        "--map-attempts": dict(type=_int_option, default=_AUDIT_DEFAULTS["map_attempts"], metavar="N", help="candidate maps drawn per generated space (default: %(default)s)"),
        "--dump-dir": dict(metavar="PATH", help="write failure reproduction files here"),
    }),
)


def _parser(command: str | None = None) -> argparse.ArgumentParser:
    """The command line of `_COMMANDS`; `--help` is the only help option, and no option may be abbreviated.

    Every command gets its sub-parser and help, but only `command`'s sub-parser gets its arguments (every
    one's when None): a command line is parsed by the one sub-parser it names, so the others need none.
    """
    about = "Exact verification and certified fixed point iteration for metric spaces carrying an orthogonality relation."
    parser = argparse.ArgumentParser(prog="orthofix", description=about, add_help=False, allow_abbrev=False)
    parser.add_argument("--version", action="version", version=f"orthofix, version {__version__}")
    parser.add_argument("--help", action="help", help="show this message and exit")
    commands = parser.add_subparsers(title="commands", metavar="COMMAND", required=True)
    for name, module, doc, reads_file, options in _COMMANDS:
        sub = commands.add_parser(name, help=doc, description=doc, add_help=False, allow_abbrev=False)
        if command not in (None, name):
            continue
        sub.set_defaults(handler=module)
        if reads_file:
            sub.add_argument("file", metavar="FILE", help="space file (JSON)")
        for flag, keywords in options.items():
            sub.add_argument(flag, **keywords)
        sub.add_argument("--json", dest="as_json", action="store_true", help="emit a JSON report")
        sub.add_argument("--help", action="help", help="show this message and exit")
    return parser


_ERRORS = {InputError: ("input error", 2), CertificateError: ("certificate failure", 1), OrthofixError: ("error", 1)}


def _write_failed(exc: OSError) -> int:
    """Exit code 1 for a failed write: quiet for a closed pipe, else an `error:` line; stdout's rest goes to /dev/null."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    if not isinstance(exc, BrokenPipeError):
        print(f"error: {exc}", file=sys.stderr)
    return 1


def main(args: list[str] | None = None, prog_name: str = "orthofix", standalone_mode: bool = True):
    """Run one command line (`sys.argv[1:]` by default) and raise SystemExit with its code; `process_main` ends
    the process.  The other two parameters are ignored; they are there for the `main.main` alias below."""
    args = sys.argv[1:] if args is None else args
    # the top-level options take no values, so the first argument that is not one names the command
    options = vars(_parser(next((arg for arg in args if not arg.startswith("-")), "")).parse_args(args))
    try:
        # `__import__`, unlike `importlib.import_module`, shows in `-X importtime`
        code = __import__(f"{__package__}.commands.{options.pop('handler')}", fromlist=["run"]).run(**options)
        sys.stdout and sys.stdout.flush()  # a closed or full stdout shows here, inside the handlers, not at exit
    except OrthofixError as exc:
        prefix, code = next(entry for cls, entry in _ERRORS.items() if isinstance(exc, cls))  # the most specific first
        print(f"{prefix}: {exc}", file=sys.stderr)
    except OSError as exc:
        code = _write_failed(exc)
    except KeyboardInterrupt:
        print("\nAborted!", file=sys.stderr)
        code = 1
    sys.exit(code)


def process_main() -> None:
    """The process entry point (`python -m orthofix.cli`, the `orthofix` script): run `main` with the cyclic collector
    off, flush both streams and end with `os._exit`, skipping the teardown.  Another exception or a non-int exit code
    ends the process as usual.  The collector stays off in the audit's forked workers: a command's only cycles are
    those its imports leave, which the process's end frees, yet it ran 6-22 passes per command to find them."""
    gc.disable()
    try:
        main()
    except SystemExit as exc:
        if not isinstance(exc.code, (int, type(None))):
            raise
        code = exc.code or 0
        try:  # stdout may still hold argparse's --help or --version; a stream is None if its descriptor was closed
            sys.stdout and sys.stdout.flush()
        except OSError as error:
            code = _write_failed(error)
        sys.stderr and sys.stderr.flush()
        os._exit(code)


# The benchmark harness still calls click's spelling, `cli.main.main(args=..., prog_name="orthofix",
# standalone_mode=False)`, and reads the exit code from SystemExit.  Delete this alias once it calls `cli.main(args)`.
main.main = main


if __name__ == "__main__":
    process_main()
