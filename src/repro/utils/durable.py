"""Crash-consistent writes: the one module in the repo that renames files.

Every durable publish — serving bundles and version directories, the
``CURRENT`` pointer, integrity manifests, WAL snapshot graphs and trace-file
rotation — is built from the primitives here, so a single module owns the
ordering that makes a write survive both process death and power loss:

1. write the new bytes under a temp name in the destination directory;
2. ``fsync`` them;
3. rename the temp name onto the final one (atomic on POSIX);
4. ``fsync`` the directory, so the rename itself survives a power cut.

Skipping step 2 can atomically publish a file full of zeroes; skipping
step 4 can roll the rename back after a reboot.  ``reprolint`` rule
``REP-U201`` flags every rename call (:data:`RENAME_CALLS`) made outside this
module.

Every temp name ends in :data:`TEMP_SUFFIX`, so a directory scan (the
integrity manifest) can tell the leftovers of a crashed write from payload.

Examples
--------
>>> import tempfile
>>> root = Path(tempfile.mkdtemp())
>>> atomic_write(root / "CURRENT", b'{"version": 1}').read_bytes()
b'{"version": 1}'
>>> bundle = atomic_dir(root / "bundle", {"header.json": b"{}", "a0000.npy": b"x"})
>>> sorted(path.name for path in bundle.iterdir())
['a0000.npy', 'header.json']
>>> [path.name for path in root.iterdir() if is_temp(path.name)]
[]
"""

from __future__ import annotations

import ctypes
import errno
import os
import shutil
from collections.abc import Mapping
from functools import lru_cache
from pathlib import Path

__all__ = [
    "RENAME_CALLS",
    "TEMP_SUFFIX",
    "atomic_dir",
    "atomic_write",
    "durable_rename",
    "is_temp",
    "sync_dir",
]

#: the calls only this module may make (enforced by reprolint REP-U201)
RENAME_CALLS = frozenset({"os.replace", "os.rename", "os.renames", "shutil.move"})

#: suffix of every temp file or staging directory this module creates
TEMP_SUFFIX = ".tmp"

#: ``renameat2`` arguments: relative paths resolve against the cwd, and
#: the two entries swap places in one step
_AT_FDCWD = -100
_RENAME_EXCHANGE = 2


def is_temp(name: str) -> bool:
    """Whether ``name`` is the staging name of an unfinished durable write."""
    return name.endswith(TEMP_SUFFIX)


def _temp_path(path: Path, tag: str = "") -> Path:
    return path.with_name(f"{path.name}.{os.getpid()}{tag}{TEMP_SUFFIX}")


def sync_dir(path: str | Path) -> None:
    """fsync a directory so a just-renamed entry in it survives power loss.

    The rename is atomic against *process* death, but the directory entry
    lives in the parent's data blocks — without a directory fsync a power
    cut can roll the rename back.  Best effort on platforms that refuse
    ``O_DIRECTORY`` opens or directory fsync.
    """
    try:
        fd = os.open(path, os.O_RDONLY | getattr(os, "O_DIRECTORY", 0))
    except OSError:  # pragma: no cover - platform dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform dependent
        pass
    finally:
        os.close(fd)


def _write_synced(path: Path, data: bytes) -> None:
    """Create ``path`` holding exactly ``data``, fsynced."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: str | Path, data: bytes) -> Path:
    """Replace file ``path`` with ``data``; readers see the old or new bytes.

    temp file in the same directory → write → fsync → rename → directory
    fsync.  A failure before the rename removes the temp file and leaves
    ``path`` untouched.
    """
    path = Path(path)
    tmp = _temp_path(path)
    try:
        _write_synced(tmp, data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    sync_dir(path.parent)
    return path


@lru_cache(maxsize=1)
def _renameat2():
    try:
        renameat2 = getattr(ctypes.CDLL(None, use_errno=True), "renameat2", None)
    except OSError:  # pragma: no cover - no C library to load
        return None
    if renameat2 is not None:
        renameat2.argtypes = [
            ctypes.c_int, ctypes.c_char_p, ctypes.c_int, ctypes.c_char_p, ctypes.c_uint
        ]
        renameat2.restype = ctypes.c_int
    return renameat2


def _exchange(staged: Path, path: Path) -> None:
    """Swap the ``staged`` and ``path`` directories in one step.

    Uses Linux ``renameat2(RENAME_EXCHANGE)``, so ``path`` names a complete
    tree at every instant.  Where that call is missing, the old tree is
    moved aside first; a crash between the two renames then leaves ``path``
    absent, with both trees intact under temp names.
    """
    renameat2 = _renameat2()
    if renameat2 is not None:
        if renameat2(
            _AT_FDCWD, os.fsencode(staged), _AT_FDCWD, os.fsencode(path), _RENAME_EXCHANGE
        ) == 0:
            return
        code = ctypes.get_errno()
        if code not in (errno.ENOSYS, errno.EINVAL):
            raise OSError(code, os.strerror(code), str(path))
    aside = _temp_path(path, ".old")
    os.replace(path, aside)
    os.replace(staged, path)
    os.replace(aside, staged)


def atomic_dir(path: str | Path, files: Mapping[str, bytes]) -> Path:
    """Build directory ``path`` holding ``files`` (name → bytes) in one step.

    The tree is staged under a temp name beside ``path``; every staged file
    and the staging directory are fsynced before it is renamed into place,
    then the parent is fsynced.  An existing ``path`` is swapped out, not
    deleted first, and is removed only once its replacement is durable, so
    readers see the complete old or the complete new tree.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    staged = _temp_path(path)
    shutil.rmtree(staged, ignore_errors=True)  # a crashed run's leftover
    staged.mkdir()
    try:
        for name, data in files.items():
            _write_synced(staged / name, data)
        sync_dir(staged)
        if path.exists():
            _exchange(staged, path)
        else:
            os.replace(staged, path)
        sync_dir(path.parent)
    finally:
        # Before the rename this is the half-built tree; after an exchange
        # it is the replaced one.
        shutil.rmtree(staged, ignore_errors=True)
    return path


def durable_rename(src: str | Path, dst: str | Path) -> Path:
    """Rename ``src`` onto ``dst`` and make the rename itself durable.

    For a file whose contents the caller has already fsynced (the trace
    sink's rotation): the rename, then an fsync of ``dst``'s directory.
    """
    dst = Path(dst)
    os.replace(src, dst)
    sync_dir(dst.parent)
    return dst
