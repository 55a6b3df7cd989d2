"""Persistent on-disk cache of ground-truth simulation runtimes.

Full simulations are the expensive half of every sweep — and they are
pure functions of ``(app, variant, scale, ranks, seed, topology)``.  The
:class:`SimCache` memoizes their runtimes as small JSON files under
``results/cache/`` so repeated sweeps, what-if validations and CI runs
never pay for the same grid point twice.  The topology component of the
key is :meth:`repro.network.topology.Topology.fingerprint`, a stable
hash of every timing-relevant parameter.

One entry schema, whoever writes it (``docs/serve.md``, "Cache
entries"): :func:`runtime_entry` is the only constructor of a runtime
entry — attribution fields for ``cache ls`` plus the result record — and
:func:`entry_runtime` the only judge of whether an entry holds a usable
runtime.  The typed :meth:`SimCache.get` / :meth:`SimCache.put` (keyed
by topology) and the :class:`~repro.experiments.runner.Sweeper` and
:mod:`repro.serve` stores (keyed by :func:`~repro.experiments.runner.
point_key`, plus a kind/FaultPlan/engine-version suffix for degraded,
predicted and profile results) all go through them, and every reader
through :meth:`SimCache.result`.  The generic
:meth:`SimCache.lookup` / :meth:`SimCache.store` underneath also carry
:mod:`repro.replay`'s compiled event programs.

Lookups are *read-through*: a small entry (a runtime memo; compiled
programs are too big and bypass this) is read from disk once and then
served from a bounded in-process map for as long as one ``os.stat``
still shows the file it was read from — same ``(st_mtime_ns, st_size,
st_ino)``.  The directory stays the only source of truth: an entry that
any process deletes (``cache clear``, a bare ``os.unlink``) is a miss on
the next lookup, one that any process replaces is reloaded, and every
hit returns a fresh object the caller may mutate.  Entry files are
immutable once visible (writers go through ``os.replace``), which is
what makes the stamp a sufficient identity; the one thing it cannot
tell apart is a file rewritten with the same size on a recycled inode
within one filesystem timestamp tick, with no lookup in between.

A file that is there but does not parse (truncated, garbled), or parses
but holds no usable runtime where one is read (no consistent program
where :mod:`repro.replay` reads one), is counted as ``corrupt``
— not folded into the misses, never served — so a damaged cache shows
up in :meth:`SimCache.stats`, ``python -m repro cache ls`` and the
service's ``serve.cache.corrupt`` counter instead of silently costing a
re-simulation.

Entries carry an optional ``kind`` field (absent for plain runtime
memos); :meth:`SimCache.stats` attributes entries and bytes per kind,
and :meth:`SimCache.clear` can drop a single kind — compiled programs
(kind ``replay`` for frozen ones, ``replay-adaptive`` for the
order-adaptive ones) are two orders of magnitude larger than runtime
memos, so "free the big entries, keep the sim results" is a real
operation.

Manage the cache from the command line::

    python -m repro cache ls                   # per app/variant + per-kind stats
    python -m repro cache clear                # drop every entry
    python -m repro cache clear --kind replay  # drop the frozen programs
    python -m repro cache clear --kind replay-adaptive  # and the adaptive ones
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, List, Optional, Tuple

from ..network.topology import Topology

#: Default cache directory, relative to the working directory.
DEFAULT_ROOT = os.path.join("results", "cache")

#: Entry files up to this size are kept in the in-process map.  Runtime
#: memos are ~250 bytes; compiled ``replay`` programs are megabytes and
#: always come from disk.
MEMO_MAX_BYTES = 4096
#: Entries the in-process map keeps (oldest-inserted evicted first); at
#: the size bound above that is at most 32 MiB of entry text.
MEMO_MAX_ENTRIES = 8192


#: The fields of a runtime entry that say *whose* result it is (what
#: ``cache ls`` and ``clear --kind`` read); every other field is the
#: result record the run produced, which is what gets streamed.
ATTRIBUTION = frozenset(("app", "variant", "scale", "seed", "ranks",
                         "fingerprint", "topology", "kind"))


def runtime_entry(app: str, variant: str, scale: str, seed: int,
                  topology: Topology, result: Dict[str, Any],
                  kind: Optional[str] = None) -> Dict[str, Any]:
    """The cache entry for one run's ``result`` record on ``topology``.

    ``kind`` marks results that are not plain ground truth (``chaos``,
    ``whatif``, ``replay``, ``profile``, a fault-bearing ``sweep``).
    """
    entry: Dict[str, Any] = {
        "app": app, "variant": variant, "scale": scale, "seed": seed,
        "ranks": topology.num_ranks,
        "fingerprint": topology.fingerprint(),
        "topology": topology.describe(),
    }
    if kind is not None:
        entry["kind"] = kind
    entry.update(result)
    return entry


def entry_runtime(entry: Dict[str, Any]) -> Optional[float]:
    """The runtime ``entry`` holds if it is usable — a finite, positive
    number, not a bool (whose type is not ``int``) — else None.  Entries
    of every earlier version pass: all kept ``runtime`` at the top level."""
    runtime = entry.get("runtime")
    if type(runtime) not in (int, float) or not 0.0 < runtime < math.inf:
        return None
    return float(runtime)


def _stamp(st: os.stat_result) -> Tuple[int, int, int]:
    """What identifies the file an entry was read from."""
    return (st.st_mtime_ns, st.st_size, st.st_ino)


class SimCache:
    """File-per-entry JSON cache of simulated runtimes.

    One entry is one file, so concurrent writers (parallel sweeps, serve
    workers) never corrupt each other; writes go through a temp file +
    ``os.replace`` so readers never observe a partial entry.
    """

    def __init__(self, root: str = DEFAULT_ROOT) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0
        #: lookups that found a file that does not parse, or an entry
        #: that is not a result (or not a program)
        self.corrupt = 0
        #: key -> (file stamp, entry text) of small entries already read
        self._memo: Dict[str, Tuple[Tuple[int, int, int], str]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def key(app: str, variant: str, scale: str, seed: int,
            topology: Topology) -> str:
        """Filename-safe cache key for one clean simulation."""
        return (f"{app}-{variant}-{scale}-r{topology.num_ranks}"
                f"-s{seed}-{topology.fingerprint()}")

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key + ".json")

    # ------------------------------------------------------------------
    # Generic content-addressed access (used by repro.serve)
    # ------------------------------------------------------------------
    def lookup(self, key: str) -> Optional[Dict[str, Any]]:
        """Full record stored under ``key``, or None; counts hit / miss
        / corrupt.  The returned dict is the caller's to mutate."""
        path = self._path(key)
        # Popped here, put back below only after a good read: every
        # failure leaves the key out of the map, and every hit moves it
        # to the young end of the eviction order.
        memo = self._memo.pop(key, None)
        try:
            if memo is None or _stamp(os.stat(path)) != memo[0]:
                with open(path) as fh:
                    memo = (_stamp(os.fstat(fh.fileno())), fh.read())
            entry = json.loads(memo[1])
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            self.corrupt += 1
            return None
        (_mtime_ns, size, _ino), _text = memo
        if size <= MEMO_MAX_BYTES:
            if len(self._memo) >= MEMO_MAX_ENTRIES:
                del self._memo[next(iter(self._memo))]
            self._memo[key] = memo
        self.hits += 1
        return entry

    def store(self, key: str, record: Dict[str, Any]) -> None:
        """Store one JSON-able record (atomic, last writer wins)."""
        os.makedirs(self.root, exist_ok=True)
        path = self._path(key)
        tmp = path + f".tmp{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(record, fh, sort_keys=True)
        os.replace(tmp, path)
        self._memo.pop(key, None)

    # ------------------------------------------------------------------
    # Runtime entries (see runtime_entry / entry_runtime above)
    # ------------------------------------------------------------------
    def result(self, key: str) -> Optional[Dict[str, Any]]:
        """The result record stored under ``key`` — the entry minus its
        attribution — or None.  A result holds a usable runtime, or is a
        chaos run's recorded failure (``ok: false`` plus a typed error).
        An entry that parses but is neither is corrupt, not a hit: it is
        counted, and the caller recomputes and overwrites it."""
        entry = self.lookup(key)
        if entry is None:
            return None
        if entry_runtime(entry) is None and not (
                entry.get("kind") == "chaos" and entry.get("ok") is False):
            self.mark_corrupt()
            return None
        return {name: value for name, value in entry.items()
                if name not in ATTRIBUTION}

    def mark_corrupt(self) -> None:
        """Re-count the hit :meth:`lookup` just returned as corrupt: the
        entry parsed but does not hold what its key promises (a runtime
        above; a consistent program for :mod:`repro.replay`).  The
        caller recomputes it and stores over it."""
        self.hits -= 1
        self.corrupt += 1

    def get(self, app: str, variant: str, scale: str, seed: int,
            topology: Topology) -> Optional[float]:
        """Cached runtime for this simulation, or None."""
        result = self.result(self.key(app, variant, scale, seed, topology))
        return entry_runtime(result) if result else None

    def put(self, app: str, variant: str, scale: str, seed: int,
            topology: Topology, runtime: float) -> None:
        """Store one simulated runtime (atomic, last writer wins)."""
        self.store(self.key(app, variant, scale, seed, topology),
                   runtime_entry(app, variant, scale, seed, topology,
                                 {"runtime": runtime}))

    # ------------------------------------------------------------------
    def entries(self) -> List[dict]:
        """All readable cache entries (unreadable files are skipped)."""
        if not os.path.isdir(self.root):
            return []
        out = []
        for name in sorted(os.listdir(self.root)):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.root, name)) as fh:
                    out.append(json.load(fh))
            except (OSError, ValueError):
                continue
        return out

    @staticmethod
    def entry_kind(entry: Dict[str, Any]) -> str:
        """An entry's ``kind``; plain runtime memos predate the field."""
        return entry.get("kind", "runtime")

    def _entry_kind_of(self, path: str) -> Optional[str]:
        """The ``kind`` of the entry file at ``path``, or None if
        unreadable (being written, or not a cache entry at all)."""
        try:
            with open(path) as fh:
                return self.entry_kind(json.load(fh))
        except (OSError, ValueError):
            return None

    def stats(self) -> Dict[str, Any]:
        """On-disk footprint plus this instance's hit/miss counters.

        ``entries``/``bytes`` are measured from the cache directory (so
        they see entries written by other processes); ``kinds`` breaks
        both down per entry kind — compiled replay programs dominate the
        bytes while runtime memos dominate the count, and conflating
        them hides both facts.  ``hits``/``misses``/``corrupt`` count
        only this instance's lookups; a corrupt lookup (file present,
        not parseable) is neither a hit nor a miss.
        """
        entries = 0
        size = 0
        kinds: Dict[str, Dict[str, int]] = {}
        if os.path.isdir(self.root):
            for name in os.listdir(self.root):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(self.root, name)
                try:
                    file_size = os.path.getsize(path)
                except OSError:
                    continue
                entries += 1
                size += file_size
                kind = self._entry_kind_of(path) or "?"
                bucket = kinds.setdefault(kind, {"entries": 0, "bytes": 0})
                bucket["entries"] += 1
                bucket["bytes"] += file_size
        total = self.hits + self.misses + self.corrupt
        return {
            "root": self.root,
            "entries": entries,
            "bytes": size,
            "kinds": kinds,
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "hit_rate": (self.hits / total) if total else 0.0,
        }

    def clear(self, kind: Optional[str] = None) -> int:
        """Delete cache entries; returns how many were removed.

        With ``kind``, only entries of that kind are dropped (plain
        runtime memos are kind ``"runtime"``).  The bytes freed are
        available from :meth:`stats` *before* the clear (the CLI
        reports both).
        """
        removed = 0
        self._memo.clear()
        if not os.path.isdir(self.root):
            return removed
        for name in os.listdir(self.root):
            if not name.endswith(".json"):
                continue
            path = os.path.join(self.root, name)
            if kind is not None and self._entry_kind_of(path) != kind:
                continue
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                continue
        return removed

    def __len__(self) -> int:
        if not os.path.isdir(self.root):
            return 0
        return sum(1 for n in os.listdir(self.root) if n.endswith(".json"))


def _format_bytes(size: int) -> str:
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{size} B"
        size /= 1024.0
    return f"{size} B"


def main(argv: Optional[list] = None) -> None:
    """``python -m repro cache {ls,clear}``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="Inspect or clear the on-disk simulation result cache.")
    parser.add_argument("action", choices=["ls", "clear"])
    parser.add_argument("--root", default=DEFAULT_ROOT,
                        help=f"cache directory (default: {DEFAULT_ROOT})")
    parser.add_argument("--kind", default=None,
                        help="restrict to one entry kind (plain runtime "
                             "memos are 'runtime'; compiled programs are "
                             "'replay' (frozen) and 'replay-adaptive')")
    args = parser.parse_args(argv)

    cache = SimCache(args.root)
    if args.action == "clear":
        stats = cache.stats()
        removed = cache.clear(kind=args.kind)
        freed = stats["kinds"].get(args.kind, {"bytes": 0})["bytes"] \
            if args.kind else stats["bytes"]
        what = (f"{args.kind} entr(ies)" if args.kind
                else "cached simulation(s)")
        print(f"removed {removed} {what} "
              f"({_format_bytes(freed)}) from {cache.root}")
        return

    stats = cache.stats()
    unreadable = stats["kinds"].get("?", {"entries": 0})["entries"]
    if unreadable:
        print(f"{unreadable} entry file(s) in {cache.root} do not parse: "
              f"lookups count them as corrupt, and recompute")
    entries = cache.entries()
    if args.kind:
        entries = [e for e in entries
                   if SimCache.entry_kind(e) == args.kind]
    if not entries:
        print(f"cache {cache.root} is empty"
              + (f" (no {args.kind!r} entries)" if args.kind else ""))
        return
    by_app: Dict[Tuple[str, str], List[dict]] = {}
    for entry in entries:
        by_app.setdefault((entry.get("app", "?"), entry.get("variant", "?")),
                          []).append(entry)
    kind_parts = ", ".join(
        f"{k}: {v['entries']} / {_format_bytes(v['bytes'])}"
        for k, v in sorted(stats["kinds"].items()))
    print(f"{stats['entries']} cached simulation(s), "
          f"{_format_bytes(stats['bytes'])} in {cache.root}"
          + (f" ({kind_parts})" if kind_parts else "") + ":")
    for (app, variant), group in sorted(by_app.items()):
        print(f"  {app}/{variant}: {len(group)} point(s)")
        for entry in group:
            kind = entry.get("kind")
            suffix = f" [{kind}]" if kind else ""
            if "program" in entry:
                prog = entry.get("stats", {})
                shown = (f"program {prog.get('nodes', '?')} nodes / "
                         f"{prog.get('levels', '?')} levels")
                where = f"ref fp={str(entry.get('fingerprint'))[:12]}"
            else:
                runtime = entry_runtime(entry)
                shown = f"{runtime:.6f}s" if runtime is not None \
                    else str(entry.get("error", "no usable runtime"))
                where = entry.get("topology", "?")
            print(f"    scale={entry.get('scale')} seed={entry.get('seed')} "
                  f"{where} -> {shown}{suffix}")
