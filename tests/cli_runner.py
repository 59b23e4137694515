"""Run the command line in this process and capture what it writes.

`CliRunner().invoke(main, args)` calls `main(args)` with `sys.stdout` and
`sys.stderr` redirected, and returns a `Result`: the exit code, stdout and
stderr apart, both in write order as `output`, and the exception that ended
the run (a non-zero `SystemExit`, or any other exception, which counts as
exit code 1, as an uncaught one would in a process).
"""

from __future__ import annotations

import contextlib
import io
from typing import NamedTuple


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved in write order
    stdout: str
    stderr: str
    exception: BaseException | None


class _Stream(io.StringIO):
    """A captured stream that also appends each write to the shared, interleaved record."""

    def __init__(self, record: list[str]):
        super().__init__()
        self._record = record

    def write(self, text: str) -> int:
        self._record.append(text)
        return super().write(text)


class CliRunner:
    def invoke(self, main, args) -> Result:
        record: list[str] = []
        out, err = _Stream(record), _Stream(record)
        exception = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                main(list(args))
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
                exception = exc if code else None
            except Exception as exc:
                code, exception = 1, exc
        return Result(code, "".join(record), out.getvalue(), err.getvalue(), exception)
