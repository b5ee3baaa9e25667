"""The CSV writer that every command shares.

A command passes its header and its rows in blocks: a block holds one
sequence of values per column (a NumPy array or a plain sequence), and
a label column may be :class:`Labels`, codes into a table of labels.
Each column is written as its values' type says: ints and bools ``%d``
(bools 0/1), floats ``%.6g``, labels and strings as text. :mod:`.encode`
turns each block into its lines, byte for byte what ``%`` formatting
gives: every column at once in NumPy, floats by a vectorized ``%.6g``
that hands a value to ``format`` only within 1e-6 of a rounding tie of
its sixth digit or outside [1e-300, 1e300].
"""

from __future__ import annotations

import errno
import os
import stat
import sys
import tempfile
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

__all__ = ["Labels", "reject_directory", "write_csv"]


class Labels(NamedTuple):
    """A label column as codes into a table: row ``i`` reads ``table[codes[i]]``."""

    codes: np.ndarray
    table: Sequence[str]


def write_csv(path: str, header, blocks) -> None:
    """Write the ``header`` names and the lines of every block, atomically.

    ``blocks`` yields, per block of rows, one sequence of values per
    column, which its values' type formats (see :func:`.encode.encode_block`).

    When ``path`` is the file open as stdout (``/dev/stdout``, or the
    file stdout is redirected to), the lines go through ``sys.stdout``'s
    buffer after what the command printed before, in program order.
    Otherwise, when ``path`` is missing or a regular file, the lines go
    to a temporary file beside it that is then renamed onto it (keeping
    an existing file's permission bits), so a failure (an ``OSError`` or
    any exception raised by ``blocks``) leaves ``path`` as it was and no
    temporary file behind. Anything else (a symlink, a device, a pipe)
    is written in place, through the link. A directory ``path`` raises
    before any block is pulled (see :func:`reject_directory`).
    """
    reject_directory(path)
    # imported on first use: its tables are start-up work that a command
    # writing no CSV does without
    from .encode import encode_block

    def emit(handle) -> None:
        handle.write((",".join(header) + "\n").encode("utf-8"))
        # map holds no block once it is written
        handle.writelines(map(encode_block, blocks))

    def write(file) -> None:
        with open(file, "wb") as handle:
            emit(handle)

    if _is_stdout(path):
        sys.stdout.flush()
        emit(sys.stdout.buffer)
        sys.stdout.buffer.flush()
        return
    try:
        mode = os.lstat(path).st_mode
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = stat.S_IFREG | 0o666 & ~umask  # what open() would create
    if not stat.S_ISREG(mode):
        write(path)
        return
    directory, name = os.path.split(os.path.abspath(path))
    try:
        fd, temp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    except OSError as exc:  # name the path, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        os.fchmod(fd, stat.S_IMODE(mode))  # mkstemp creates the file 0600
        write(fd)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


def reject_directory(path: str) -> None:
    """Raise IsADirectoryError naming ``path`` if it is an existing
    directory or its last component is ``""``, ``.`` or ``..``."""
    if os.path.basename(path) in ("", ".", "..") or os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)


def _is_stdout(path: str) -> bool:
    """Whether ``path`` leads to the file open as file descriptor 1.

    Reopening that file (``/dev/stdout`` is ``/proc/self/fd/1``) with
    mode ``w`` would truncate a redirected file and write at its own
    offset, over or under the lines printed through ``sys.stdout``;
    renaming a new file onto it would leave those lines in the old one.
    """
    try:
        out, target = os.fstat(1), os.stat(path)
    except OSError:
        return False
    return (out.st_dev, out.st_ino) == (target.st_dev, target.st_ino)
