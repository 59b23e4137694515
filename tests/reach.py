"""List the executable lines of `src/orthofix` that the commands never enter, with the standard library only.

    python3 tests/reach.py

In one traced process it runs every case of `golden_cases.py`, then the text
form of each command and option the cases leave out (`classify --seq
--orbit`, `estimate-k`, `solve --eps`, `corpus --case`, `audit --dump-dir`).
The audit is held to one process (`oracle._usable_cpus` reads 1), so that
its trials run under the trace.  A line is executable if it starts a line of
bytecode in its module's compiled code; the generated scan kernels are
compiled from strings and are not counted.  Prints, per module, how many of
its executable lines were entered and the ranges of those never entered,
then the totals.  The lines a command does not run are the candidates of a
deletion, less its error paths.
"""

import contextlib
import dis
import io
import os
import sys
import tempfile
from itertools import groupby
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "orthofix"

TEXT_FORMS = [
    ["classify", "--seq", "0,2,4", "--orbit", "4", "data/five_point.json"],
    ["estimate-k", "--kind", "ciric", "--symmetric", "data/five_point.json"],
    ["solve", "--start", "0", "--eps", "1/1000", "data/ratio_chain.json"],
    ["corpus", "--case", "rational-product"],
]


def executable_lines(path: Path) -> set[int]:
    """The lines that start bytecode in the module at `path` or in any code object nested in it."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)  # 0: a module's RESUME
        stack.extend(const for const in code.co_consts if hasattr(const, "co_code"))
    return lines


def _ranges(lines: list[int]) -> str:
    runs = [[line for _, line in run] for _, run in groupby(enumerate(lines), lambda item: item[1] - item[0])]
    return ", ".join(str(run[0]) if len(run) == 1 else f"{run[0]}-{run[-1]}" for run in runs)


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from golden_cases import CASES

    prefix, entered = str(PACKAGE) + os.sep, set()

    def trace_lines(frame, event, arg):
        if event == "line":
            entered.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as dump_dir:
        runs = [args for _, args, _ in CASES] + TEXT_FORMS + [["audit", "--trials", "50", "--dump-dir", dump_dir]]
        sys.settrace(trace_calls)
        try:
            from orthofix import cli, oracle

            oracle._usable_cpus = lambda: 1
            for args in runs:
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    with contextlib.suppress(SystemExit):
                        cli.main(list(args))
        finally:
            sys.settrace(None)

    total = reached = 0
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = executable_lines(path)
        missed = sorted(line for line in lines if (str(path), line) not in entered)
        total, reached = total + len(lines), reached + len(lines) - len(missed)
        name = path.relative_to(PACKAGE.parent).with_suffix("").as_posix().replace("/", ".")
        print(f"{name}: {len(lines) - len(missed)} of {len(lines)}; never entered: {_ranges(missed) or 'none'}")
    print(f"total: {reached} of {total} executable lines entered, {total - reached} never")
    return 0


if __name__ == "__main__":
    sys.exit(main())
