"""Run one sytkit command line in this process, with its streams captured."""

import contextlib
import io
from typing import NamedTuple

from sytkit import cli


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str


def invoke(*args: str) -> Result:
    """Run ``sytkit ARGS...`` through ``cli.run``: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(list(args))
    return Result(code, out.getvalue(), err.getvalue())
