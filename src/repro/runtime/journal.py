"""Write-ahead journal: crash-safe checkpoint/resume for mapping runs.

A mapping run over an hg38-scale corpus is hours of work; a ``kill
-9``, OOM kill, or node loss used to throw all of it away and could
leave a truncated PAF behind that looked complete. This module makes
the committed prefix of a run durable and exactly recoverable, so
``manymap map --run-dir DIR`` can be killed at *any* instant and
``manymap resume DIR`` continues from the last commit, producing
byte-identical output to an uninterrupted run.

Run-dir layout::

    DIR/journal.jsonl   append-only write-ahead journal
    DIR/output.paf      the mapped output (PAF or SAM), committed prefix

Journal format — one JSON object per line, each carrying a ``crc``
over its own canonical serialization (so a torn tail is detected, not
trusted):

``run_start``
    the header: journal format version, run id, ``commit_reads``
    cadence, and the run *identity* — every option that affects output
    bytes (reference/reads paths, preset, engine, cigar, sam). Resume
    refuses an identity mismatch; backend/kernel/workers may change
    freely because output is backend-independent (the PR-1 invariant).
``commit``
    the durability heartbeat: after ``commit_reads`` reads' output has
    been *written and fsynced*, one fsynced record of ``(reads,
    offset, crc32)`` — cumulative reads emitted, output byte length,
    and the rolling CRC-32 of that prefix.
``note``
    unfsynced breadcrumbs mirroring the event bus (chunk dispatched/
    done, pool respawns, faults) — diagnostic timeline, never trusted
    for recovery.
``resume`` / ``complete``
    a resume appends where it picked up (and how many torn bytes it
    truncated); a clean finish appends the final tally.

Commit protocol (WAL ordering): output bytes are flushed and fsynced
*first*, then the commit record is appended and fsynced. A crash
between the two loses only the record, never the bytes — recovery
verifies each journaled ``(offset, crc32)`` against the actual file
with one incremental CRC pass, truncates the output to the last commit
that checks out, and re-maps from that read count. Reads are free to
re-map after a crash (mapping is deterministic and side-effect free);
output bytes are never re-trusted without their CRC.

The output choke point is :meth:`RunJournal.write_text` /
:meth:`RunJournal.read_done`: both backends (serial / processes) emit
their in-input-order PAF lines through :func:`repro.api.map_file`'s
``emit`` callback, so journaling that one sink covers both. Chaos points (:mod:`repro.testing.chaos`) are
planted at every write/fsync step; the chaos harness SIGKILLs there
and asserts resume identity.
"""

from __future__ import annotations

import json
import os
import time
import uuid
import zlib
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from ..errors import ReproError

__all__ = [
    "JournalError",
    "JournalFile",
    "RunJournal",
    "journal_events",
    "JOURNAL_NAME",
    "OUTPUT_NAME",
    "JOURNAL_VERSION",
]

#: journal format version, recorded in ``run_start`` and checked on
#: resume so an old journal is rejected loudly, not misparsed.
JOURNAL_VERSION = 1

JOURNAL_NAME = "journal.jsonl"
OUTPUT_NAME = "output.paf"

#: event-bus kinds mirrored into the journal as ``note`` records.
MIRRORED_EVENTS = ("chunk.dispatched", "chunk.done", "pool.respawn", "fault")


class JournalError(ReproError):
    """A journal could not be created, parsed, or safely resumed."""


def _chaos(point: str, fh=None, payload=None) -> None:
    """Chaos-injection hook; one attribute check when chaos is off."""
    from ..testing import chaos

    if chaos.ARMED:
        chaos.chaos_point(point, fh=fh, payload=payload)


def _canonical(record: Dict) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def encode_record(record: Dict) -> bytes:
    """Serialize one journal record with its self-CRC, newline included."""
    crc = zlib.crc32(_canonical(record).encode("utf-8"))
    return (_canonical({**record, "crc": crc}) + "\n").encode("utf-8")


def decode_record(line: bytes) -> Optional[Dict]:
    """Parse + verify one journal line; ``None`` if torn or corrupt."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict) or "crc" not in record:
        return None
    claimed = record.pop("crc")
    if zlib.crc32(_canonical(record).encode("utf-8")) != claimed:
        return None
    return record


class JournalFile:
    """Append-only JSONL with per-record CRCs and torn-tail replay.

    The generic layer under :class:`RunJournal` and the serve request
    journal: ``append`` optionally fsyncs (commit records must be
    durable; notes need not be), ``replay`` returns every verifiable
    record and stops at the first corrupt line — a torn tail from a
    mid-append crash is expected, silently-skipping past it is not
    (anything after a torn record has unknown provenance).
    """

    def __init__(self, path: str) -> None:
        self.path = os.fspath(path)
        self._fh = open(self.path, "ab")

    def append(
        self,
        record: Dict,
        sync: bool = False,
        fsync_point: str = "journal.fsync",
    ) -> None:
        data = encode_record(record)
        _chaos("journal.append", fh=self._fh, payload=data)
        self._fh.write(data)
        self._fh.flush()
        if sync:
            _chaos(fsync_point, fh=self._fh)
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        try:
            self._fh.close()
        except OSError:
            pass

    @staticmethod
    def replay(path: str) -> Tuple[List[Dict], int]:
        """All verifiable records, plus how many tail lines were torn."""
        records: List[Dict] = []
        torn = 0
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return records, torn
        with fh:
            for raw in fh:
                record = decode_record(raw.rstrip(b"\n"))
                if record is None:
                    torn += 1
                    break  # nothing after a torn record is trustworthy
                records.append(record)
        return records, torn


class RunJournal:
    """One run directory's journal + committed output, as an object.

    Fresh run: creates ``DIR``, writes the ``run_start`` header, opens
    ``output.paf`` at offset 0. Resume: replays the journal, checks
    the identity, verifies the last durable commit against the output
    file byte-for-byte (incremental CRC), truncates the torn suffix,
    and exposes ``reads_done`` so the caller can skip exactly that
    many input reads. Either way the caller then streams output
    through :meth:`write_text` + :meth:`read_done` and finishes with
    :meth:`complete`.
    """

    def __init__(
        self,
        run_dir: str,
        *,
        identity: Dict,
        commit_reads: int = 256,
        resume: bool = False,
    ) -> None:
        if commit_reads < 1:
            raise JournalError(f"commit_reads must be >= 1: {commit_reads}")
        self.run_dir = os.fspath(run_dir)
        self.journal_path = os.path.join(self.run_dir, JOURNAL_NAME)
        self.output_path = os.path.join(self.run_dir, OUTPUT_NAME)
        self.identity = dict(identity)
        self.commit_reads = int(commit_reads)
        self.reads_done = 0
        self.offset = 0
        self.crc = 0
        self.resumed = False
        self.truncated_bytes = 0
        self.counters: Dict[str, int] = {
            "journal.commits": 0,
            "journal.notes": 0,
            "journal.resumes": 0,
            "journal.reads_skipped": 0,
            "journal.truncated_bytes": 0,
        }
        self._completed = False
        self._last_commit = (0, 0)  # (reads, offset) last made durable

        os.makedirs(self.run_dir, exist_ok=True)
        exists = os.path.exists(self.journal_path)
        if exists and not resume:
            raise JournalError(
                f"{self.run_dir!r} already holds a journal; "
                f"use --resume (or `manymap resume`) to continue it, "
                f"or point --run-dir at a fresh directory"
            )
        if not exists and resume:
            raise JournalError(
                f"nothing to resume: no {JOURNAL_NAME} in {self.run_dir!r}"
            )

        if exists:
            self._recover()
        self._journal = JournalFile(self.journal_path)
        if not exists:
            self._journal.append(
                {
                    "t": "run_start",
                    "v": JOURNAL_VERSION,
                    "run_id": uuid.uuid4().hex[:12],
                    "ts": time.time(),
                    "commit_reads": self.commit_reads,
                    "identity": self.identity,
                },
                sync=True,
            )
        else:
            self.resumed = True
            self.counters["journal.resumes"] = 1
            self.counters["journal.reads_skipped"] = self.reads_done
            self.counters["journal.truncated_bytes"] = self.truncated_bytes
            self._journal.append(
                {
                    "t": "resume",
                    "ts": time.time(),
                    "reads": self.reads_done,
                    "offset": self.offset,
                    "truncated": self.truncated_bytes,
                },
                sync=True,
            )
        # After a resume the file was truncated to ``offset``; append
        # mode therefore continues exactly at the committed prefix.
        self._out = open(self.output_path, "ab")
        self._last_commit = (self.reads_done, self.offset)

    # -- recovery ------------------------------------------------------ #

    @staticmethod
    def read_header(run_dir: str) -> Dict:
        """The ``run_start`` record of a run dir (for `resume` CLIs)."""
        path = os.path.join(os.fspath(run_dir), JOURNAL_NAME)
        records, _ = JournalFile.replay(path)
        if not records or records[0].get("t") != "run_start":
            raise JournalError(
                f"{path!r} has no valid run_start header — not a run "
                f"journal (or its first record is torn)"
            )
        return records[0]

    def _recover(self) -> None:
        records, torn = JournalFile.replay(self.journal_path)
        if not records or records[0].get("t") != "run_start":
            raise JournalError(
                f"{self.journal_path!r} has no valid run_start header; "
                f"cannot resume"
            )
        header = records[0]
        if header.get("v") != JOURNAL_VERSION:
            raise JournalError(
                f"journal version {header.get('v')!r} != "
                f"{JOURNAL_VERSION} — refusing to resume"
            )
        theirs = header.get("identity") or {}
        for key, want in self.identity.items():
            have = theirs.get(key)
            if have != want:
                raise JournalError(
                    f"resume identity mismatch on {key!r}: journal has "
                    f"{have!r}, this run has {want!r} — output would "
                    f"not be byte-identical; start a fresh run dir"
                )
        commits = [
            r for r in records if r.get("t") in ("commit", "complete")
        ]
        self.reads_done, self.offset, self.crc = self._verify_commits(
            commits
        )
        self._truncate_output()

    def _verify_commits(
        self, commits: List[Dict]
    ) -> Tuple[int, int, int]:
        """The last journaled commit the output file actually satisfies.

        One incremental CRC pass over the output: for each commit (in
        append order, offsets monotonic) the rolling CRC at its offset
        must equal its ``crc32``. The first commit that fails — short
        file, torn bytes, anything — invalidates it and everything
        after it.
        """
        state = (0, 0, 0)
        if not commits:
            return state
        try:
            fh = open(self.output_path, "rb")
        except FileNotFoundError:
            return state
        with fh:
            pos = 0
            crc = 0
            for rec in commits:
                target = rec.get("offset", -1)
                reads = rec.get("reads", -1)
                want = rec.get("crc32")
                if target < pos or reads < 0 or want is None:
                    break  # malformed or non-monotonic: stop trusting
                chunk = fh.read(target - pos)
                if len(chunk) != target - pos:
                    break  # output shorter than journaled: not durable
                crc = zlib.crc32(chunk, crc)
                pos = target
                if crc != want:
                    break  # bytes differ from what was committed
                state = (reads, pos, crc)
        return state

    def _truncate_output(self) -> None:
        """Drop uncommitted output bytes; records how many were torn."""
        try:
            size = os.path.getsize(self.output_path)
        except OSError:
            size = 0
        self.truncated_bytes = max(0, size - self.offset)
        with open(self.output_path, "ab") as fh:
            fh.truncate(self.offset)
            fh.flush()
            os.fsync(fh.fileno())

    # -- the output sink ----------------------------------------------- #

    @property
    def output_handle(self):
        """The (binary, append-mode) committed-output file handle."""
        return self._out

    def write_text(self, text: str) -> None:
        """Append output text; tracked by the rolling CRC and offset."""
        data = text.encode("utf-8")
        _chaos("output.write", fh=self._out, payload=data)
        self._out.write(data)
        self.offset += len(data)
        self.crc = zlib.crc32(data, self.crc)

    def read_done(self) -> None:
        """One read's output is fully written; commit on cadence."""
        self.reads_done += 1
        if self.reads_done % self.commit_reads == 0:
            self.commit()

    def commit(self) -> None:
        """Make the current output prefix durable (WAL ordering).

        Output first: flush + fsync the data so the bytes named by the
        commit record exist on disk before the record does. Then the
        fsynced commit record. A crash between the two only loses the
        record — those reads re-map on resume, output stays identical.
        """
        if (self.reads_done, self.offset) == self._last_commit:
            return  # nothing new since the last commit
        self._out.flush()
        _chaos("output.fsync", fh=self._out)
        os.fsync(self._out.fileno())
        self._journal.append(
            {
                "t": "commit",
                "reads": self.reads_done,
                "offset": self.offset,
                "crc32": self.crc,
            },
            sync=True,
            fsync_point="journal.commit.fsync",
        )
        self._last_commit = (self.reads_done, self.offset)
        self.counters["journal.commits"] += 1

    def note(self, event: str, **data) -> None:
        """An unfsynced diagnostic breadcrumb (chunk lifecycle etc.)."""
        try:
            self._journal.append({"t": "note", "event": event, **data})
        except ValueError:
            return  # journal already closed (late event); drop the note
        self.counters["journal.notes"] += 1

    def complete(self) -> None:
        """Final commit + ``complete`` record; closes both files."""
        if self._completed:
            return
        self.commit()
        self._journal.append(
            {
                "t": "complete",
                "ts": time.time(),
                "reads": self.reads_done,
                "offset": self.offset,
                "crc32": self.crc,
            },
            sync=True,
            fsync_point="journal.commit.fsync",
        )
        self._completed = True
        self.close()

    def close(self) -> None:
        """Close file handles without committing (crash-equivalent)."""
        try:
            self._out.close()
        except OSError:
            pass
        self._journal.close()

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # A clean exit is NOT auto-completed: completion is an explicit
        # statement that every input read was emitted. On error, just
        # release handles — the journal already holds the last commit.
        self.close()

    def summary(self) -> Dict:
        """The ``journal`` manifest object (schema v8)."""
        return {
            "run_dir": self.run_dir,
            "commit_reads": self.commit_reads,
            "commits": self.counters["journal.commits"],
            "notes": self.counters["journal.notes"],
            "resumed": self.resumed,
            "reads_skipped": self.counters["journal.reads_skipped"],
            "truncated_bytes": self.counters["journal.truncated_bytes"],
            "reads_done": self.reads_done,
            "output_bytes": self.offset,
            "output_crc32": self.crc,
            "completed": self._completed,
        }


@contextmanager
def journal_events(journal: Optional[RunJournal]):
    """Mirror chunk-lifecycle events into ``journal`` for the duration.

    Subscribes a listener on the global event bus that appends a
    ``note`` record for every :data:`MIRRORED_EVENTS` kind — the
    journal doubles as a per-run decision timeline (which chunks were
    in flight at the crash, whether a pool respawned first). No-op
    when ``journal`` is ``None``.
    """
    if journal is None:
        yield
        return
    from ..obs.events import EVENTS

    def listener(rec: Dict) -> None:
        kind = rec.get("kind")
        if kind in MIRRORED_EVENTS:
            data = {
                k: v
                for k, v in rec.items()
                if k not in ("record", "kind", "ts", "seq")
            }
            journal.note(kind, **data)

    EVENTS.add_listener(listener)
    try:
        yield
    finally:
        EVENTS.remove_listener(listener)
