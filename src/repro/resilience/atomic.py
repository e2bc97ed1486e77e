"""Crash-safe file writes and CRC32 integrity manifests.

A process killed mid-``np.savez`` leaves a half-written archive at the
destination path — the next ``load_model`` then explodes (or worse,
half-loads).  Every persistence writer in the repo routes through the
helpers here instead: data is written to a temporary sibling file,
flushed and ``fsync``\\ ed, and atomically ``os.replace``\\ d over the
destination, so readers only ever observe the old file or the complete
new one.  The containing directory is fsynced too, making the rename
itself durable.

For multi-file artifacts (checkpoints) :func:`write_manifest` /
:func:`verify_manifest` add a CRC32 manifest covering every member
file, so torn *directories* (rename of the dir happened, a member was
silently truncated by the filesystem, bit rot) are detected at load
time instead of producing a half-loaded model.
"""

from __future__ import annotations

import json
import os
import zipfile
import zlib
from contextlib import contextmanager
from typing import Any, Dict, Iterable, Iterator, Optional, Union

import numpy as np

__all__ = [
    "IntegrityError",
    "atomic_writer",
    "atomic_write_bytes",
    "atomic_write_text",
    "atomic_savez",
    "read_npz",
    "crc32_file",
    "fsync_directory",
    "write_manifest",
    "verify_manifest",
    "MANIFEST_NAME",
]

PathLike = Union[str, "os.PathLike[str]"]

#: Filename of the integrity manifest inside a checkpoint directory.
MANIFEST_NAME = "MANIFEST.json"

#: Manifest schema version.
MANIFEST_SCHEMA = 1


class IntegrityError(RuntimeError):
    """A persisted artifact failed its integrity check (truncated file,
    CRC mismatch, unreadable archive).  Loaders raise this instead of
    leaking half-parsed state."""


def fsync_directory(path: PathLike) -> None:
    """fsync a directory so a completed rename survives power loss."""
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
    except OSError:  # platforms without directory fds
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync unsupported on dir
        pass
    finally:
        os.close(fd)


@contextmanager
def atomic_writer(path: PathLike, mode: str = "wb") -> Iterator[Any]:
    """Context manager yielding a file handle whose contents replace
    ``path`` atomically on success (tmp + flush + fsync + rename).

    On any exception the temporary file is removed and the destination
    is untouched.  The parent directory is created if missing.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    handle = open(tmp, mode)
    try:
        yield handle
        handle.flush()
        os.fsync(handle.fileno())
        handle.close()
        os.replace(tmp, path)
        fsync_directory(directory or ".")
    except BaseException:
        try:
            handle.close()
        except OSError:  # pragma: no cover
            pass
        try:
            os.unlink(tmp)
        except FileNotFoundError:  # pragma: no cover
            pass
        raise


def atomic_write_bytes(path: PathLike, data: bytes) -> None:
    """Atomically replace ``path`` with ``data``."""
    with atomic_writer(path, "wb") as handle:
        handle.write(data)


def atomic_write_text(path: PathLike, text: str, encoding: str = "utf-8") -> None:
    """Atomically replace ``path`` with ``text``."""
    atomic_write_bytes(path, text.encode(encoding))


def atomic_savez(path: PathLike, **arrays: np.ndarray) -> None:
    """``np.savez_compressed`` with the atomic-replace protocol.

    A ``SIGKILL`` mid-save leaves only a ``*.tmp.<pid>`` orphan; the
    previously saved archive at ``path`` stays valid.
    """
    with atomic_writer(path, "wb") as handle:
        np.savez_compressed(handle, **arrays)


def read_npz(path: PathLike) -> Dict[str, np.ndarray]:
    """Fully materialize an npz archive, or raise :class:`IntegrityError`.

    Every member is decompressed here (not lazily), so truncation
    anywhere in the archive surfaces as one typed error at load time
    instead of a crash halfway through mutating the caller's state.
    A missing file stays ``FileNotFoundError`` — absent is not corrupt.
    """
    try:
        with np.load(os.fspath(path)) as archive:
            return {key: archive[key] for key in archive.files}
    except FileNotFoundError:
        raise
    except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError) as exc:
        raise IntegrityError(f"{os.fspath(path)}: unreadable archive: {exc}") from exc


def crc32_file(path: PathLike, chunk_size: int = 1 << 20) -> int:
    """CRC32 of a file's contents (streamed, constant memory)."""
    crc = 0
    with open(os.fspath(path), "rb") as handle:
        while True:
            chunk = handle.read(chunk_size)
            if not chunk:
                return crc
            crc = zlib.crc32(chunk, crc)


def write_manifest(
    directory: PathLike,
    filenames: Iterable[str],
    extra: Optional[Dict[str, Any]] = None,
) -> str:
    """Write ``MANIFEST.json`` covering ``filenames`` inside ``directory``.

    Each entry records the file's CRC32 and byte size;
    :func:`verify_manifest` re-checks both.  Returns the manifest path.
    """
    directory = os.fspath(directory)
    files: Dict[str, Dict[str, int]] = {}
    for name in filenames:
        member = os.path.join(directory, name)
        files[name] = {
            "crc32": crc32_file(member),
            "nbytes": os.path.getsize(member),
        }
    manifest = {"schema": MANIFEST_SCHEMA, "files": files}
    if extra:
        manifest.update(extra)
    path = os.path.join(directory, MANIFEST_NAME)
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def verify_manifest(directory: PathLike) -> Dict[str, Any]:
    """Validate every file listed in a directory's manifest.

    Returns the parsed manifest on success; raises
    :class:`IntegrityError` naming the first failure (missing manifest,
    unparsable JSON, missing member, size or CRC mismatch).
    """
    directory = os.fspath(directory)
    path = os.path.join(directory, MANIFEST_NAME)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except FileNotFoundError as exc:
        raise IntegrityError(f"{directory}: no {MANIFEST_NAME}") from exc
    except (json.JSONDecodeError, OSError) as exc:
        raise IntegrityError(f"{path}: unreadable manifest: {exc}") from exc
    files = manifest.get("files")
    if not isinstance(files, dict):
        raise IntegrityError(f"{path}: manifest has no file table")
    for name, entry in files.items():
        member = os.path.join(directory, name)
        if not os.path.isfile(member):
            raise IntegrityError(f"{directory}: missing member {name!r}")
        nbytes = os.path.getsize(member)
        if nbytes != entry.get("nbytes"):
            raise IntegrityError(
                f"{member}: size {nbytes} != manifest {entry.get('nbytes')}"
            )
        crc = crc32_file(member)
        if crc != entry.get("crc32"):
            raise IntegrityError(
                f"{member}: CRC32 {crc:#010x} != manifest "
                f"{int(entry.get('crc32', 0)):#010x}"
            )
    return manifest
