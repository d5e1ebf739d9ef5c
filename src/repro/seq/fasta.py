"""FASTA/FASTQ parsing and writing.

Two read paths are provided, mirroring the paper's I/O discussion
(§4.4.2): a conventional buffered line parser, and a whole-file path that
works over a ``memoryview`` so it can run on top of an ``mmap``-backed
buffer from :mod:`repro.runtime.mmio` without copying the file into
Python objects first.
"""

from __future__ import annotations

import io
import os
from typing import IO, Iterable, Iterator, List, Union

import numpy as np

from ..errors import ParseError
from .alphabet import encode
from .records import SeqRecord

PathOrHandle = Union[str, os.PathLike, IO[str]]


def _open_text(path: PathOrHandle, mode: str) -> IO[str]:
    if hasattr(path, "read") or hasattr(path, "write"):
        return path  # type: ignore[return-value]
    if str(path).endswith(".gz"):
        import gzip

        return gzip.open(path, mode + "t")  # type: ignore[return-value]
    return open(path, mode)


def iter_fasta(path: PathOrHandle) -> Iterator[SeqRecord]:
    """Stream records from a FASTA file (buffered line parser).

    Malformed input raises :class:`ParseError` naming the offending
    record and its approximate line number, for both plain and
    gzip-compressed files.
    """
    handle = _open_text(path, "r")
    close = handle is not path
    try:
        name: str | None = None
        chunks: List[str] = []
        lineno = 0
        for raw in handle:
            lineno += 1
            line = raw.rstrip("\n")
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    yield SeqRecord(name, encode("".join(chunks)))
                name = line[1:].split()[0] if len(line) > 1 else ""
                if not name:
                    raise ParseError(
                        f"FASTA header with empty name at line {lineno}"
                    )
                chunks = []
            else:
                if name is None:
                    raise ParseError(
                        "FASTA sequence data before first header "
                        f"at line {lineno}"
                    )
                chunks.append(line)
        if name is not None:
            yield SeqRecord(name, encode("".join(chunks)))
    finally:
        if close:
            handle.close()


def read_fasta(path: PathOrHandle) -> List[SeqRecord]:
    """Read a whole FASTA file into a list of records."""
    return list(iter_fasta(path))


def iter_fastq(path: PathOrHandle) -> Iterator[SeqRecord]:
    """Stream records from a FASTQ file (4-line records).

    Malformed records — bad header/separator lines, a quality string
    whose length does not match the sequence, or a final record cut
    short mid-way — raise :class:`ParseError` naming the record and its
    approximate line number. Works identically for plain and
    gzip-compressed files (both go through the same text handle).
    """
    handle = _open_text(path, "r")
    close = handle is not path
    lineno = 0

    def next_line(name: str) -> str:
        nonlocal lineno
        raw = handle.readline()
        if raw == "":
            raise ParseError(
                f"truncated FASTQ record {name!r} at line {lineno + 1}: "
                "file ended mid-record"
            )
        lineno += 1
        return raw.rstrip("\n")

    try:
        while True:
            header = handle.readline()
            if not header:
                return
            lineno += 1
            header_line = lineno
            header = header.rstrip("\n")
            if not header:
                continue
            if not header.startswith("@"):
                raise ParseError(
                    f"FASTQ header must start with '@' at line "
                    f"{header_line}: {header!r}"
                )
            name = header[1:].split()[0] if len(header) > 1 else ""
            seq = next_line(name)
            plus = next_line(name)
            qual = next_line(name)
            if not plus.startswith("+"):
                raise ParseError(
                    f"FASTQ separator must start with '+' in record "
                    f"{name!r} at line {lineno - 1}: {plus!r}"
                )
            if len(qual) != len(seq):
                raise ParseError(
                    f"FASTQ quality length {len(qual)} != sequence length "
                    f"{len(seq)} in record {name!r} at line {lineno}"
                )
            q = np.frombuffer(qual.encode("ascii"), dtype=np.uint8) - 33
            yield SeqRecord(name, encode(seq), quality=q)
    finally:
        if close:
            handle.close()


def read_fastq(path: PathOrHandle) -> List[SeqRecord]:
    """Read a whole FASTQ file into a list of records."""
    return list(iter_fastq(path))


def iter_reads(path: PathOrHandle) -> Iterator[SeqRecord]:
    """Stream records from a read file, dispatching on its extension.

    ``.fq`` / ``.fastq`` (optionally ``.gz``-suffixed) parse as FASTQ;
    everything else as FASTA. This is the shared reader path every
    mapping entry point goes through (:func:`repro.api.map_file` and
    the CLI), so every backend sees the same records.
    """
    name = str(path) if not (hasattr(path, "read")) else getattr(path, "name", "")
    base = name[: -len(".gz")] if name.endswith(".gz") else name
    if base.endswith((".fq", ".fastq")):
        return iter_fastq(path)
    return iter_fasta(path)


def parse_fasta_buffer(buf: Union[bytes, memoryview, np.ndarray]) -> List[SeqRecord]:
    """Parse FASTA from an in-memory buffer (the mmap-friendly path).

    The buffer is scanned once for record boundaries; sequence bytes are
    encoded directly from slices of the buffer, never materialized as
    Python strings. This is the "consecutive file reads" layout the paper
    uses to replace fragmented parsing (§4.4.2).
    """
    if isinstance(buf, np.ndarray):
        data = buf.tobytes()
    else:
        data = bytes(buf)
    records: List[SeqRecord] = []
    pos = 0
    n = len(data)
    if data.find(b">") == -1:
        raise ParseError("buffer contains no FASTA records")
    while pos < n:
        if data[pos : pos + 1] != b">":
            nxt = data.find(b">", pos)
            if nxt == -1:
                break
            pos = nxt
            continue
        eol = data.find(b"\n", pos)
        if eol == -1:
            raise ParseError("truncated FASTA header")
        name = data[pos + 1 : eol].split()[0].decode("ascii") if eol > pos + 1 else ""
        if not name:
            raise ParseError("FASTA header with empty name")
        nxt = data.find(b">", eol)
        body = data[eol + 1 : nxt if nxt != -1 else n]
        seq = body.replace(b"\n", b"").replace(b"\r", b"")
        records.append(SeqRecord(name, encode(seq)))
        pos = nxt if nxt != -1 else n
    return records


def write_fasta(
    path: PathOrHandle, records: Iterable[SeqRecord], width: int = 80
) -> None:
    """Write records as FASTA with fixed line width."""
    handle = _open_text(path, "w")
    close = handle is not path
    try:
        for rec in records:
            handle.write(f">{rec.name}\n")
            s = rec.seq
            for i in range(0, len(s), width):
                handle.write(s[i : i + width])
                handle.write("\n")
    finally:
        if close:
            handle.close()


def write_fastq(path: PathOrHandle, records: Iterable[SeqRecord]) -> None:
    """Write records as FASTQ (flat quality 'I' when absent)."""
    handle = _open_text(path, "w")
    close = handle is not path
    try:
        for rec in records:
            if rec.quality is not None:
                qual = (rec.quality + 33).astype(np.uint8).tobytes().decode("ascii")
            else:
                qual = "I" * len(rec)
            handle.write(f"@{rec.name}\n{rec.seq}\n+\n{qual}\n")
    finally:
        if close:
            handle.close()
