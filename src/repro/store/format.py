"""On-disk columnar format primitives: checksummed ``.npy`` columns, a
versioned JSON manifest, fsync/rename commit helpers, and the fault
hook the crash tests drive.

**Commit protocol.**  A snapshot is a directory.  The writer builds it
in a temp sibling (``<name>.tmp-<pid>-<token>``) on the same
filesystem: every column file is written and fsynced, then the manifest
— carrying the format version, the engine config, and a sha256 per
column — is written and fsynced *last*, the directory entry itself is
fsynced, and one atomic ``rename`` publishes the whole snapshot.  The
manifest is therefore the commit point: a reader that finds a parseable
manifest referencing checksum-valid columns is reading a complete
snapshot, and any interrupted writer leaves either nothing visible (the
rename never happened) or debris under a ``.tmp-*`` name no reader
opens.

**Fault points.**  Every intermediate step of the writer calls
:func:`fault_point` with a stable label.  The crash test harness
installs a hook (:func:`fault_injection`) that raises
:class:`InjectedFault` at a chosen label, simulating a crash at that
exact point; the writer deliberately performs *no cleanup* on an
injected fault, so the on-disk state the test observes is the state a
real crash would leave.

**Corruption is typed.**  Torn manifests, checksum mismatches,
dtype/shape disagreements, and dangling column references raise
:class:`StoreCorruptionError` — never garbage results.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import shutil
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator

import numpy as _np

FORMAT_NAME = "repro-columnar-store"
#: the version this build writes; it also reads version 1, whose
#: persisted indexes it ignores
FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, FORMAT_VERSION)
MANIFEST_NAME = "MANIFEST.json"

#: distinguishes parallel writers' temp dirs within one process
_token_counter = itertools.count()


class StoreError(RuntimeError):
    """Base error of the persistence layer (missing snapshot, missing
    numpy, unsupported format version, ...).

        >>> from repro.store import StoreError
        >>> try:
        ...     raise StoreError("no committed snapshot")
        ... except RuntimeError as err:
        ...     str(err)
        'no committed snapshot'
    """


class StoreCorruptionError(StoreError):
    """The on-disk snapshot is damaged: torn or non-JSON manifest,
    checksum mismatch, column shape/dtype disagreement, or columns that
    contradict each other.  Loading fails loudly instead of serving
    garbage rankings.

        >>> from repro.store import StoreCorruptionError, StoreError
        >>> issubclass(StoreCorruptionError, StoreError)
        True
        >>> from repro import load_engine
        >>> import tempfile
        >>> try:
        ...     load_engine(tempfile.mkdtemp())   # no manifest there
        ... except StoreCorruptionError:
        ...     print("refused")
        refused
    """


class InjectedFault(Exception):
    """Raised by a fault hook to simulate a crash mid-write.  The
    writer re-raises it without cleaning up its temp state — exactly
    the debris a real crash leaves."""

    def __init__(self, label: str) -> None:
        super().__init__(f"injected fault at {label!r}")
        self.label = label


# -- fault hook ---------------------------------------------------------

_fault_hook: "Callable[[str], None] | None" = None


@contextmanager
def fault_injection(hook: "Callable[[str], None]") -> Iterator[None]:
    """Install ``hook`` as the fault hook for the body and restore the
    previous one afterwards.  The hook is called with each
    :func:`fault_point` label as the writer passes it and may raise
    :class:`InjectedFault` to crash there."""
    global _fault_hook
    previous = _fault_hook
    _fault_hook = hook
    try:
        yield
    finally:
        _fault_hook = previous


def fault_point(label: str) -> None:
    """Announce a writer step to the installed fault hook (no-op
    without one).  Labels are stable identifiers like
    ``column:xs:partial`` or ``commit:pre-rename``."""
    hook = _fault_hook
    if hook is not None:
        hook(label)


# -- low-level IO -------------------------------------------------------

def fsync_dir(path: Path) -> None:
    """fsync a directory so its entries (new files, renames) are
    durable, not just the file contents."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_column(directory: Path, name: str, array) -> dict:
    """Write one column as ``<name>.npy`` (serialised in memory first,
    so the sha256 covers exactly the bytes on disk), fsync it, and
    return its manifest entry.  Fault points: ``column:<name>:partial``
    (half the payload on disk), ``column:<name>:pre-fsync`` (written,
    not yet durable), ``column:<name>:synced``."""
    buffer = io.BytesIO()
    _np.save(buffer, _np.ascontiguousarray(array), allow_pickle=False)
    payload = buffer.getvalue()
    target = directory / f"{name}.npy"
    with open(target, "wb") as f:
        half = len(payload) // 2
        f.write(payload[:half])
        fault_point(f"column:{name}:partial")
        f.write(payload[half:])
        f.flush()
        fault_point(f"column:{name}:pre-fsync")
        os.fsync(f.fileno())
    fault_point(f"column:{name}:synced")
    return {
        "file": target.name,
        "sha256": hashlib.sha256(payload).hexdigest(),
        "dtype": str(array.dtype),
        "shape": list(array.shape),
    }


def write_manifest(directory: Path, manifest: dict) -> None:
    """Write and fsync the manifest — the snapshot's commit point
    within its directory.  Fault points: ``manifest:pre-write``,
    ``manifest:partial``, ``manifest:pre-fsync``, ``manifest:synced``."""
    payload = json.dumps(manifest, indent=2, sort_keys=True).encode("utf-8")
    fault_point("manifest:pre-write")
    target = directory / MANIFEST_NAME
    with open(target, "wb") as f:
        half = len(payload) // 2
        f.write(payload[:half])
        fault_point("manifest:partial")
        f.write(payload[half:])
        f.flush()
        fault_point("manifest:pre-fsync")
        os.fsync(f.fileno())
    fault_point("manifest:synced")


def temp_sibling(path: Path) -> Path:
    """A same-filesystem temp-directory name for building ``path``:
    rename between the two is atomic, and the ``.tmp-`` infix keeps
    readers (and the snapshot lister) away from unfinished state."""
    return path.with_name(f"{path.name}.tmp-{os.getpid()}-{next(_token_counter)}")


def commit_dir(tmp: Path, final: Path) -> None:
    """Publish a fully-written snapshot directory atomically.  Fault
    points: ``commit:pre-rename`` (everything durable, nothing
    visible), ``commit:renamed``.

    When ``final`` already exists it is moved aside and removed after
    the new snapshot lands — callers needing crash-safe *history*
    (not in-place replace) should write fresh directories and commit
    through a pointer file like :class:`~repro.store.SnapshotManager`
    does."""
    fsync_dir(tmp)
    fault_point("commit:pre-rename")
    if final.exists():
        trash = final.with_name(final.name + ".trash")
        if trash.exists():
            shutil.rmtree(trash)
        os.rename(final, trash)
        try:
            os.rename(tmp, final)
        except BaseException:  # pragma: no cover - rename-back is best effort
            os.rename(trash, final)
            raise
        shutil.rmtree(trash)
    else:
        os.rename(tmp, final)
    fsync_dir(final.parent)
    fault_point("commit:renamed")


# -- reading ------------------------------------------------------------

def read_manifest(path) -> dict:
    """Read and validate a snapshot's manifest.  Missing, torn, or
    non-JSON manifests raise :class:`StoreCorruptionError`; a manifest
    of a format version this build does not read raises
    :class:`StoreError`."""
    target = Path(path) / MANIFEST_NAME
    try:
        payload = target.read_bytes()
    except OSError as err:
        raise StoreCorruptionError(
            f"snapshot at {path} has no readable manifest: {err}"
        ) from err
    try:
        manifest = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as err:
        raise StoreCorruptionError(
            f"manifest at {target} is truncated or not JSON: {err}"
        ) from err
    if not isinstance(manifest, dict) or manifest.get("format") != FORMAT_NAME:
        raise StoreCorruptionError(f"{target} is not a {FORMAT_NAME} manifest")
    version = manifest.get("format_version")
    if version not in _READABLE_VERSIONS:
        raise StoreError(
            f"snapshot at {path} has format version {version!r}; "
            f"this build reads versions {_READABLE_VERSIONS}"
        )
    return manifest


def read_column(path, entry: dict, *, mmap: bool = True, verify: bool = True):
    """Load one column named by a manifest entry.

    ``verify=True`` checks the stored sha256 against the bytes on disk
    first (one sequential read).  ``mmap=True`` maps the array
    copy-on-write (``mmap_mode='c'``): loading is O(page-cache read)
    and in-process mutation never writes back to the snapshot.
    """
    target = Path(path) / entry["file"]
    try:
        if verify:
            digest = hashlib.sha256(target.read_bytes()).hexdigest()
            if digest != entry["sha256"]:
                raise StoreCorruptionError(
                    f"checksum mismatch for {target.name}: manifest has "
                    f"{entry['sha256'][:12]}..., file hashes {digest[:12]}..."
                )
        array = _np.load(target, mmap_mode="c" if mmap else None, allow_pickle=False)
    except StoreCorruptionError:
        raise
    except (OSError, ValueError, EOFError) as err:
        raise StoreCorruptionError(f"column {target.name} unreadable: {err}") from err
    if list(array.shape) != list(entry["shape"]) or str(array.dtype) != entry["dtype"]:
        raise StoreCorruptionError(
            f"column {target.name} is {array.dtype}{array.shape}, the "
            f"manifest says {entry['dtype']}{tuple(entry['shape'])}"
        )
    return array
