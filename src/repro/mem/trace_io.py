"""Persistence for reference and miss traces (NumPy ``.npz`` format).

Two uses:

- **Bring your own trace.** The synthetic workload models stand in for
  the paper's SimpleScalar traces, but nothing in the simulators cares
  where a trace came from: convert any page-level reference stream
  (e.g. from a Valgrind/Pin/QEMU plugin) into the RLE ``.npz`` layout
  and every mechanism, sweep and figure harness runs on it unchanged —
  see ``repro-tlb run --trace-file``.
- **Cache expensive intermediates.** Miss traces embed the TLB
  configuration that produced them, so a saved filter result can be
  replayed later without re-filtering.

The format is versioned; loading rejects unknown versions rather than
guessing.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.mem.trace import MissTrace, ReferenceTrace

_FORMAT_VERSION = 1
_REFERENCE_KIND = "reference-trace"
_MISS_KIND = "miss-trace"


def save_reference_trace(trace: ReferenceTrace, path: str | Path) -> Path:
    """Write a reference trace to ``path`` (``.npz``); returns the path."""
    path = Path(path)
    np.savez_compressed(
        path,
        kind=np.array(_REFERENCE_KIND),
        version=np.array(_FORMAT_VERSION),
        name=np.array(trace.name),
        pcs=trace.pcs,
        pages=trace.pages,
        counts=trace.counts,
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_reference_trace(path: str | Path) -> ReferenceTrace:
    """Read a reference trace written by :func:`save_reference_trace`."""
    with np.load(Path(path), allow_pickle=False) as data:
        _check_header(data, _REFERENCE_KIND, path)
        return ReferenceTrace(
            data["pcs"], data["pages"], data["counts"], name=str(data["name"])
        )


def save_miss_trace(miss_trace: MissTrace, path: str | Path) -> Path:
    """Write a miss trace (with its TLB provenance) to ``path``."""
    path = Path(path)
    np.savez_compressed(path, **_miss_arrays(miss_trace))
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def miss_trace_bytes(miss_trace: MissTrace) -> bytes:
    """The ``.npz`` bytes of a miss trace, as :func:`save_miss_trace` writes them."""
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **_miss_arrays(miss_trace))
    return buffer.getvalue()


def load_miss_trace(path: str | Path) -> MissTrace:
    """Read a miss trace written by :func:`save_miss_trace`."""
    with np.load(Path(path), allow_pickle=False) as data:
        return _miss_trace_from(data, path)


def parse_miss_trace(blob: bytes, source: str | Path = "<bytes>") -> MissTrace:
    """Decode :func:`miss_trace_bytes` output; ``source`` names it in errors."""
    with np.load(io.BytesIO(blob), allow_pickle=False) as data:
        return _miss_trace_from(data, source)


def _miss_arrays(miss_trace: MissTrace) -> dict[str, np.ndarray]:
    return dict(
        kind=np.array(_MISS_KIND),
        version=np.array(_FORMAT_VERSION),
        name=np.array(miss_trace.name),
        tlb_label=np.array(miss_trace.tlb_label),
        pcs=miss_trace.pcs,
        pages=miss_trace.pages,
        evicted=miss_trace.evicted,
        ref_index=miss_trace.ref_index,
        total_references=np.array(miss_trace.total_references),
        warmup_misses=np.array(miss_trace.warmup_misses),
    )


def _miss_trace_from(data: np.lib.npyio.NpzFile, source: str | Path) -> MissTrace:
    _check_header(data, _MISS_KIND, source)
    return MissTrace(
        pcs=data["pcs"],
        pages=data["pages"],
        evicted=data["evicted"],
        ref_index=data["ref_index"],
        total_references=int(data["total_references"]),
        warmup_misses=int(data["warmup_misses"]),
        name=str(data["name"]),
        tlb_label=str(data["tlb_label"]),
    )


def _check_header(data: np.lib.npyio.NpzFile, expected_kind: str, path: str | Path) -> None:
    try:
        kind = str(data["kind"])
        version = int(data["version"])
    except KeyError as exc:
        raise TraceError(f"{path}: not a repro trace file (missing {exc})") from exc
    if kind != expected_kind:
        raise TraceError(f"{path}: expected a {expected_kind}, found {kind}")
    if version != _FORMAT_VERSION:
        raise TraceError(
            f"{path}: unsupported trace format version {version} "
            f"(this library reads version {_FORMAT_VERSION})"
        )
