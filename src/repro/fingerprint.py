"""Source-code fingerprints for content-addressed caching.

Both caches in the repository — the telemetry summary cache
(:mod:`repro.telemetry.cache`) and the experiment artifact store
(:mod:`repro.experiments.store`) — key their entries on a hash that
includes the *code* that produced the value, so editing any module that
can change a result transparently invalidates old entries.

The fingerprint is derived from the package tree, not from a hand-kept
module list: :func:`fingerprint_tree` hashes every ``.py`` file under a
package directory, and :func:`code_fingerprint` applies it to all of
``repro`` except the :data:`INERT_MODULES`.  Every import closure is a
subset of that tree, so no module can change a result without changing
the key.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable

#: The ``repro`` package directory.
PACKAGE_DIR = Path(__file__).resolve().parent

#: Layers whose source bytes are proven result-inert, so
#: :func:`code_fingerprint` leaves them out:
#:
#: * ``repro.obs`` — tracing and metrics never perturb results
#:   (byte-identical goldens with tracing on and off);
#: * ``repro.lint`` — the analyzer, never imported by experiments;
#: * ``repro.cli`` / ``repro.analysis.paper_report`` — presentation on
#:   top of finished metrics dicts.
INERT_MODULES = (
    "repro.analysis.paper_report",
    "repro.cli",
    "repro.lint",
    "repro.obs",
)

_memo: dict[tuple[Path, tuple[str, ...]], str] = {}


def tree_files(package_dir: Path, exclude: Iterable[str] = ()) -> dict[str, Path]:
    """Every ``.py`` file under ``package_dir``, keyed by dotted module name.

    Modules equal to or under a dotted prefix in ``exclude`` are left
    out.  Ordered by package-relative path.
    """
    package_dir = Path(package_dir).resolve()
    prefixes = tuple(exclude)
    files: dict[str, Path] = {}
    for path in sorted(
        package_dir.rglob("*.py"),
        key=lambda p: p.relative_to(package_dir).as_posix(),
    ):
        parts = path.relative_to(package_dir.parent).with_suffix("").parts
        if parts[-1] == "__init__":
            parts = parts[:-1]
        name = ".".join(parts)
        if not any(name == p or name.startswith(p + ".") for p in prefixes):
            files[name] = path
    return files


def fingerprint_tree(package_dir: Path, exclude: Iterable[str] = ()) -> str:
    """SHA-256 over the path and bytes of every file :func:`tree_files` lists.

    Memoised per process; imports nothing, so it is cheap to call
    before any of the hashed modules is loaded.
    """
    package_dir = Path(package_dir).resolve()
    key = (package_dir, tuple(sorted(exclude)))
    cached = _memo.get(key)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in tree_files(package_dir, key[1]).values():
        data = path.read_bytes()
        relpath = path.relative_to(package_dir).as_posix()
        digest.update(f"{relpath}\x00{len(data)}\x00".encode("utf-8"))
        digest.update(data)
    result = _memo[key] = digest.hexdigest()
    return result


def code_fingerprint() -> str:
    """Fingerprint of every ``repro`` module that can change a result."""
    return fingerprint_tree(PACKAGE_DIR, INERT_MODULES)
