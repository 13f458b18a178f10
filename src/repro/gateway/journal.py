"""The session journal: what the gateway must remember to survive a worker.

A worker process owns live, unserializable state (the pipeline, socket
buffers, numpy workspaces).  The journal records the small durable core
a session actually needs back after a crash — its seat (id, name, resume
token), its subscription options, and the worker-shared environment
pieces every seat depends on (rake layout under original ids, clock
state, tool settings).  The supervisor replays a worker's journal slice
into a fresh process over ``wt.restore``; clients then resume through
the ordinary ``wt.rejoin`` path, tokens intact.

Grab locks are deliberately *not* journaled: a grab held at the moment
of a crash releases, exactly as if the user had let go, and the user
re-grabs.  Restoring a lock nobody's hand is tracking would wedge the
rake for everyone.

Everything recorded is plain JSON-safe data (``Rake.to_dict`` is lists,
not arrays), so the journal can optionally checkpoint itself to a file
— a gateway restart then still knows every outstanding token.  Mutations
come from the gateway's routing thread while the supervisor thread reads
recovery slices, so every method takes the internal lock.
"""

from __future__ import annotations

import json
import os
import threading

__all__ = ["SessionJournal"]


class SessionJournal:
    """Per-worker recoverable session state, with a global routing index.

    Parameters
    ----------
    path
        Optional checkpoint file.  When given, every mutation rewrites
        the file (atomically, via rename) and a pre-existing file is
        loaded at construction — a restarted gateway keeps honoring the
        resume tokens it minted before.
    """

    def __init__(self, path: str | None = None) -> None:
        self._lock = threading.Lock()
        # worker -> {"sessions": {cid: entry}, "rakes": {rid: rake_dict},
        #            "clock": snap|None, "tool_settings": dict|None,
        #            "steering": [entry, ...]}
        self._workers: dict[str, dict] = {}
        self._session_worker: dict[int, str] = {}
        self._rake_worker: dict[int, str] = {}
        self.path = path
        if path and os.path.exists(path):
            self._load(path)

    # -- recording (gateway routing thread) --------------------------------

    def _slot(self, worker: str) -> dict:
        return self._workers.setdefault(
            worker,
            {
                "sessions": {},
                "rakes": {},
                "clock": None,
                "tool_settings": None,
                "steering": [],
            },
        )

    def record_join(self, worker: str, client_id: int, name: str, token: str) -> None:
        with self._lock:
            self._slot(worker)["sessions"][int(client_id)] = {
                "client_id": int(client_id),
                "name": name,
                "token": token,
                "subscription": None,
            }
            self._session_worker[int(client_id)] = worker
            self._checkpoint()

    def record_leave(self, client_id: int) -> None:
        with self._lock:
            worker = self._session_worker.pop(int(client_id), None)
            if worker is not None:
                self._workers[worker]["sessions"].pop(int(client_id), None)
            self._checkpoint()

    def record_subscribe(self, client_id: int, options: dict) -> None:
        """``options`` is the normalized option dict — exactly what
        ``wt.restore`` feeds back in."""
        with self._lock:
            worker = self._session_worker.get(int(client_id))
            if worker is None:
                return
            entry = self._workers[worker]["sessions"].get(int(client_id))
            if entry is not None:
                entry["subscription"] = options
                self._checkpoint()

    def record_add_rake(self, client_id: int, rake_id: int, rake: dict) -> None:
        with self._lock:
            worker = self._session_worker.get(int(client_id))
            if worker is None:
                return
            self._slot(worker)["rakes"][int(rake_id)] = rake
            self._rake_worker[int(rake_id)] = worker
            self._checkpoint()

    def record_remove_rake(self, rake_id: int) -> None:
        with self._lock:
            worker = self._rake_worker.pop(int(rake_id), None)
            if worker is not None:
                self._workers[worker]["rakes"].pop(int(rake_id), None)
            self._checkpoint()

    def record_clock(self, worker: str, snapshot: dict) -> None:
        with self._lock:
            self._slot(worker)["clock"] = dict(snapshot)
            self._checkpoint()

    def record_tool_settings(self, worker: str, settings: dict) -> None:
        with self._lock:
            self._slot(worker)["tool_settings"] = dict(settings)
            self._checkpoint()

    def record_steering(self, worker: str, entry: dict) -> None:
        """Append one accepted ``wt.steer`` change set to the worker's log.

        ``entry`` is the server reply's provenance (``epoch`` +
        normalized ``changes``); replaying the list in epoch order is how
        a respawned in situ worker recovers the steered regime
        (docs/steering.md).
        """
        with self._lock:
            self._slot(worker).setdefault("steering", []).append(dict(entry))
            self._checkpoint()

    # -- queries -----------------------------------------------------------

    def worker_of(self, client_id: int) -> str | None:
        with self._lock:
            return self._session_worker.get(int(client_id))

    def session(self, client_id: int) -> dict | None:
        with self._lock:
            worker = self._session_worker.get(int(client_id))
            if worker is None:
                return None
            entry = self._workers[worker]["sessions"].get(int(client_id))
            return None if entry is None else dict(entry)

    def load(self) -> dict[str, int]:
        """Current routing load: ``{worker: n_sessions}`` for every
        worker that has ever been journaled."""
        with self._lock:
            return {
                worker: len(slot["sessions"])
                for worker, slot in self._workers.items()
            }

    @property
    def total_sessions(self) -> int:
        with self._lock:
            return len(self._session_worker)

    def recovery_state(self, worker: str) -> dict:
        """The ``wt.restore`` payload for a fresh incarnation of ``worker``."""
        with self._lock:
            slot = self._workers.get(worker)
            if slot is None:
                return {"sessions": [], "rakes": {}, "clock": None,
                        "tool_settings": None, "steering": []}
            return {
                "sessions": [dict(e) for e in slot["sessions"].values()],
                "rakes": {str(rid): r for rid, r in slot["rakes"].items()},
                "clock": None if slot["clock"] is None else dict(slot["clock"]),
                "tool_settings": (
                    None
                    if slot["tool_settings"] is None
                    else dict(slot["tool_settings"])
                ),
                "steering": [
                    dict(e) for e in slot.get("steering", [])
                ],
            }

    # -- persistence (caller holds the lock) --------------------------------

    def _checkpoint(self) -> None:
        if not self.path:
            return
        payload = {
            worker: {
                "sessions": {str(c): e for c, e in slot["sessions"].items()},
                "rakes": {str(r): d for r, d in slot["rakes"].items()},
                "clock": slot["clock"],
                "tool_settings": slot["tool_settings"],
                "steering": slot.get("steering", []),
            }
            for worker, slot in self._workers.items()
        }
        tmp = f"{self.path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        os.replace(tmp, self.path)

    def _load(self, path: str) -> None:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        for worker, slot in payload.items():
            self._workers[worker] = {
                "sessions": {
                    int(c): dict(e) for c, e in slot["sessions"].items()
                },
                "rakes": {int(r): d for r, d in slot["rakes"].items()},
                "clock": slot.get("clock"),
                "tool_settings": slot.get("tool_settings"),
                "steering": [dict(e) for e in slot.get("steering", [])],
            }
            for cid in self._workers[worker]["sessions"]:
                self._session_worker[cid] = worker
            for rid in self._workers[worker]["rakes"]:
                self._rake_worker[rid] = worker
