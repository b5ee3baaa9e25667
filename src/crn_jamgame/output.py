"""The CSV writer that every command shares.

A command passes its columns as (header, %-format) pairs: ``%d`` for ints
and bools (written 0/1), ``%s`` for labels, ``%.6g`` for floats. A row is
a tuple, formatted by ``%`` against the line template that the formats
make.
"""

from __future__ import annotations

import os
import stat
import sys
import tempfile

__all__ = ["write_csv"]


def write_csv(path: str, columns, rows) -> None:
    """Write the header and one line per row tuple, atomically.

    When ``path`` is the file open as stdout (``/dev/stdout``, or the
    file stdout is redirected to), the lines go through ``sys.stdout``,
    in order with what the command prints. Otherwise, when ``path`` is
    missing or a regular file, the lines go to a temporary file beside
    it that is then renamed onto it (keeping an existing file's
    permission bits), so a failure (an ``OSError`` or any exception
    raised by ``rows``) leaves ``path`` as it was and no temporary file
    behind. Anything else (a symlink, a device, a pipe) is written in
    place, through the link.
    """
    names, formats = zip(*columns)
    header = ",".join(names) + "\n"
    line = ",".join(formats) + "\n"

    def emit(handle) -> None:
        handle.write(header)
        handle.writelines(map(line.__mod__, rows))

    def write(file) -> None:
        with open(file, "w", encoding="utf-8", newline="\n") as handle:
            emit(handle)

    if _is_stdout(path):
        emit(sys.stdout)
        sys.stdout.flush()
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
    fd, temp = tempfile.mkstemp(prefix=f".{name}.", suffix=".tmp", dir=directory)
    try:
        os.fchmod(fd, stat.S_IMODE(mode))  # mkstemp creates the file 0600
        write(fd)
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise


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
