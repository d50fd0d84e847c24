"""Run the `audit` command in process, capturing what it writes.

Standard library only, so that a test may import it in a fresh interpreter
and still see which modules the command itself loads.
"""

import io
import sys
from typing import NamedTuple

from statcert.cli import main


class Result(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # what ended the command, unless it exited 0


def invoke(*args) -> Result:
    """`audit ARGS...` with stdout and stderr captured as UTF-8 streams."""
    streams = [io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in range(2)]
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = streams
    exception = None
    try:
        main([str(a) for a in args])
        exit_code = 0
    except SystemExit as e:
        exit_code = 0 if e.code is None else e.code
        exception = e if exit_code != 0 else None
    except Exception as e:
        exit_code, exception = 1, e
    finally:
        sys.stdout, sys.stderr = saved
    for stream in streams:
        stream.flush()
    out, err = (stream.buffer.getvalue().decode("utf-8", "replace") for stream in streams)
    return Result(exit_code, out, err, exception)
