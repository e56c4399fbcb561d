"""Run one sytkit command line in this process, with its streams captured."""

import contextlib
import io
from typing import NamedTuple

from sytkit import cli


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """stdout, under the name most assertions read it by."""
        return self.stdout

    @property
    def stdout_bytes(self) -> bytes:
        return self.stdout.encode()


def invoke(*args: str) -> Result:
    """Run ``sytkit ARGS...`` through ``cli.run``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(args))
    return Result(code, out.getvalue(), err.getvalue())
