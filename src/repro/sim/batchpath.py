"""The compiled replay engine: generated loops over one shared miss stream.

Phase-2 replay runs mechanisms over a recorded TLB miss stream. The
reference engine (:func:`repro.sim.two_phase.replay_prefetcher`) drives
live mechanism and buffer objects miss by miss; this module is the one
compiled engine, and one code generator serves every way a replay is
asked for:

- :func:`replay_batch` — N freshly built configurations that share a
  stream (a :class:`~repro.run.Runner` stream group, a group of one
  included): one loop per equivalence class, its row fanned out to
  every configuration in the class.
- :func:`replay_compiled` — one mechanism, fresh or trained: its
  canonical snapshot seeds the loop and the final state is written
  back into the instance, exactly as the reference engine trains it.
- :class:`ReplayKernel` — one mechanism replayed window by window
  (``[start, stop)`` of the stream), with its tables, prefetch buffer,
  recency stack and counters kept live between windows and exported as
  canonical :mod:`repro.ckpt` snapshots on demand. It is the engine
  under :class:`~repro.ckpt.ReplaySession`, so streaming sessions and
  checkpointed runs replay at compiled speed.

Each generated loop replays one class: one mechanism configuration
and its prefetch buffer. It keeps flat parallel arrays for
direct-mapped tables, per-set insertion-ordered dicts (first key =
LRU) for other associativities, an insertion-ordered-dict prefetch
buffer with a local population counter, and plain integer statistics
counters. Every constant (rows, ways, slots, buffer capacity, clamp,
warm-up boundary, degrees) is inlined as a literal, and the source is
``compile()``d once per shape and memoized. All of a class's state,
its history registers (previous page, distance, packed key) included,
lives in one dict; the loop loads it into locals on entry and stores
the scalars back on exit, which is what lets a loop stop anywhere and
continue later.

Batches add two exact optimizations on top:

1. **Equivalence-class deduplication.** A prediction table's content
   trajectory depends only on its key stream (pages for MP, distances
   for DP, PCs for ASP, packed keys for DP-PC/DP-2) and its key→set
   mapping. Before running, the batch planner analyzes the stream's
   key universe and proves two sufficient conditions:

   - *Never-overflow*: if no set ever holds more distinct keys than it
     has ways, LRU eviction can never fire, so the table behaves
     exactly like an unbounded per-key dict — independent of geometry.
     Every such config is bit-identical to every other one (same
     family, slots, buffer, clamp), so one simulation serves all.
   - *Same-partition*: two geometries that induce the same partition
     of the key universe into sets, with equal ways, perform the same
     set operations in the same order and are bit-identical.

   Configurations proven equivalent share one loop and one counter
   set; each still reports its own mechanism label.

2. **Collapsed geometry.** Never-overflow tables are emitted as single
   plain dicts with no set indexing, no LRU promotion and no eviction
   branch, and provably hit-free tables run no loop at all.

Kernels never collapse: a snapshot must record the real per-set LRU
order, so they always run the exact geometry.

The contract is **bit-identical statistics** to the reference engine —
and, for kernels, bit-identical canonical snapshots — enforced by
``tests/differential/`` (curated grid, fuzzing, compiled-session
properties) and the golden files.
"""

from __future__ import annotations

import dataclasses
import weakref

import numpy as np

from repro.ckpt.snapshots import (
    BufferSnapshot,
    MechanismSnapshot,
    TableSnapshot,
    restore_prefetcher,
    snapshot_buffer,
    snapshot_prefetcher,
)
from repro.core.distance import DistancePrefetcher
from repro.core.distance_pair import DistancePairPrefetcher, pack_distance_pair
from repro.core.pc_distance import PCDistancePrefetcher, pack_pc_distance
from repro.errors import ConfigurationError
from repro.mem.trace import MissTrace
from repro.prefetch.adaptive_sequential import AdaptiveSequentialPrefetcher
from repro.prefetch.base import Prefetcher
from repro.prefetch.markov import MarkovPrefetcher
from repro.prefetch.null import NullPrefetcher
from repro.prefetch.recency import RecencyPrefetcher
from repro.prefetch.sequential import SequentialPrefetcher
from repro.prefetch.stride import ArbitraryStridePrefetcher
from repro.sim.two_phase import replay_stats
from repro.tlb.prefetch_buffer import PrefetchBuffer

#: Mechanism class -> compiled family. Dispatch is on *exact* type:
#: user subclasses may override behavior the generated loops do not
#: model, so they always take the reference engine.
_FAMILIES: dict[type, str] = {
    NullPrefetcher: "none",
    SequentialPrefetcher: "seq",
    AdaptiveSequentialPrefetcher: "aseq",
    ArbitraryStridePrefetcher: "stride",
    MarkovPrefetcher: "markov",
    DistancePrefetcher: "distance",
    PCDistancePrefetcher: "pcdist",
    DistancePairPrefetcher: "distpair",
    RecencyPrefetcher: "recency",
}

#: Families with a table whose key universe the planner can analyze.
_TABLE_FAMILIES = ("stride", "markov", "distance", "pcdist", "distpair")


def supports(prefetcher: Prefetcher) -> bool:
    """True when the compiled engine has a loop for this mechanism."""
    return type(prefetcher) in _FAMILIES


def is_fresh(prefetcher: Prefetcher) -> bool:
    """True when the instance carries no trained state or statistics.

    :func:`replay_batch` accepts only fresh instances (its planner
    assumes empty tables); single replays and kernels take any state.
    Each mechanism reports its own trained state through
    :meth:`~repro.prefetch.base.Prefetcher.has_prediction_state`.
    """
    return (
        not prefetcher.prefetches_issued
        and not prefetcher.overhead_ops_total
        and not prefetcher.has_prediction_state()
    )


class _SlotPlan:
    """One requested replay: mechanism config + buffer geometry."""

    __slots__ = ("label", "family", "config", "cap", "clamp")

    def __init__(self, label, family, config, cap, clamp):
        self.label = label
        self.family = family
        self.config = config
        self.cap = cap
        self.clamp = clamp


def _plan(prefetcher: Prefetcher, cap: int, clamp: int) -> _SlotPlan:
    family = _FAMILIES.get(type(prefetcher))
    if family is None:
        raise ConfigurationError(
            f"compiled engine has no replay loop for "
            f"{type(prefetcher).__name__}; use engine='reference'"
        )
    if family == "none":
        config = ()
    elif family == "seq":
        config = (prefetcher.degree,)
    elif family == "aseq":
        config = (
            prefetcher.max_degree,
            prefetcher.window,
            prefetcher.raise_above,
            prefetcher.lower_below,
        )
    elif family == "recency":
        config = (prefetcher.variant_three,)
    elif family == "stride":
        config = (prefetcher.table.rows, prefetcher.table.ways)
    else:
        config = (prefetcher.table.rows, prefetcher.table.ways, prefetcher.slots)
    return _SlotPlan(prefetcher.label, family, config, cap, clamp)


def _exact_sig(plan: _SlotPlan) -> tuple:
    """Emission signature of a configuration at its real geometry."""
    if plan.family in _TABLE_FAMILIES:
        rows, ways = plan.config[0], plan.config[1]
        return (plan.family, plan.config[2:], (rows, ways), plan.cap, plan.clamp)
    if plan.family == "none":
        # Null never buffers or issues: cap and clamp cannot matter.
        return ("none",)
    return (plan.family, plan.config, plan.cap, plan.clamp)


# ---------------------------------------------------------------------------
# Equivalence analysis: prove table configs interchangeable on this stream.
# ---------------------------------------------------------------------------


def _table_class(unique_keys: list[int], rows: int, ways: int) -> tuple:
    """Canonical equivalence class of a ``(rows, ways)`` table on a stream.

    ``unique_keys`` is the stream's key universe in first-occurrence
    order. Returns ``("inf",)`` when no set can ever overflow (the
    table is equivalent to an unbounded per-key dict, hence to every
    other never-overflow geometry), else ``("assoc", ways, labels)``
    where ``labels`` is the canonical first-occurrence numbering of the
    key→set partition — equal labels + equal ways ⇒ identical behavior.
    """
    num_sets = rows // ways
    counts: dict[int, int] = {}
    overflow = False
    for key in unique_keys:
        bucket = key % num_sets
        grown = counts.get(bucket, 0) + 1
        if grown > ways:
            overflow = True
            break
        counts[bucket] = grown
    if not overflow:
        return ("inf",)
    labels: dict[int, int] = {}
    out = []
    for key in unique_keys:
        bucket = key % num_sets
        label = labels.get(bucket)
        if label is None:
            label = len(labels)
            labels[bucket] = label
        out.append(label)
    return ("assoc", ways, tuple(out))


class _StreamKeys:
    """Lazily computed, memoized key universes of one miss stream.

    Shared by every thread that batches over the same trace (the
    service's handler threads do), so each family's universe and key
    count are published together as one ``(unique, length)`` value: a
    reader can never see one without the other.
    """

    def __init__(self, pcs: list[int], pages: list[int]) -> None:
        self._pcs = pcs
        self._pages = pages
        self._distances: list[int] | None = None
        self._cache: dict[str, tuple[list[int], int]] = {}

    def distances(self) -> list[int]:
        if self._distances is None:
            pages = self._pages
            self._distances = [
                pages[i] - pages[i - 1] for i in range(1, len(pages))
            ]
        return self._distances

    def _keys(self, family: str) -> tuple[list[int], int]:
        cached = self._cache.get(family)
        if cached is not None:
            return cached
        if family == "stride":
            keys = self._pcs
        elif family == "markov":
            keys = self._pages
        elif family == "distance":
            keys = self.distances()
        elif family == "pcdist":
            pcs, pages = self._pcs, self._pages
            keys = [
                pack_pc_distance(pcs[i], pages[i] - pages[i - 1])
                for i in range(1, len(pages))
            ]
        else:  # distpair
            dist = self.distances()
            keys = [
                pack_distance_pair(dist[i - 1], dist[i])
                for i in range(1, len(dist))
            ]
        cached = (list(dict.fromkeys(keys)), len(keys))
        self._cache[family] = cached
        return cached

    def universe(self, family: str) -> list[int]:
        """``family``'s distinct keys in first-occurrence order."""
        return self._keys(family)[0]

    def never_hits(self, family: str) -> bool:
        """True when ``family``'s key stream never repeats a key.

        Every table lookup then tag-misses (a key is only ever in the
        table once a *prior* lookup or successor update allocated it),
        so the mechanism issues zero prefetches for *any* geometry,
        slot count, buffer size, or clamp — all such configurations
        collapse into one all-zero class that runs no loop.
        """
        unique, length = self._keys(family)
        return len(unique) == length


def _sigs(plan: _SlotPlan, keys: _StreamKeys) -> tuple[tuple, tuple]:
    """(dedup signature, emission signature) for one batch request.

    Requests with equal dedup signatures are bit-identical on this
    stream and share one loop. The emission signature is what the code
    generator needs: for never-overflow tables the geometry collapses
    to ``None`` (emitted as one plain dict), otherwise the class
    representative's concrete ``(rows, ways)`` is kept.
    """
    exact = _exact_sig(plan)
    if plan.family in _TABLE_FAMILIES:
        if keys.never_hits(plan.family):
            # No repeated key -> no tag hit -> no prefetch, ever. One
            # zero-cost class regardless of geometry/slots/cap/clamp.
            return ("zero",), ("zero",)
        rows, ways = plan.config[0], plan.config[1]
        tclass = _table_class(keys.universe(plan.family), rows, ways)
        emit = exact if tclass != ("inf",) else exact[:2] + (None,) + exact[3:]
        return (plan.family, exact[1], tclass, plan.cap, plan.clamp), emit
    return exact, exact


def _layout(sig: tuple) -> str:
    """How a table class's state is laid out, for codegen and snapshots.

    ``dict``: one unbounded dict (collapsed never-overflow geometry);
    ``sets``: per-set insertion-ordered dicts; ``stride_dm`` /
    ``markov_dm2`` / ``dm``: direct-mapped flat parallel arrays.
    """
    family, geom = sig[0], sig[2]
    if geom is None:
        return "dict"
    if geom[1] != 1:
        return "sets"
    if family == "stride":
        return "stride_dm"
    if family == "markov":
        return "markov_dm2" if sig[1][0] == 2 else "dm"
    return "dm" if family == "distance" else "sets"


# ---------------------------------------------------------------------------
# Code generation: one loop per class, constants inlined. Templates use
# @CONST@ markers substituted with plain str.replace (no str.format — the
# code itself is full of braces and modulo operators), and @INSERT:var@
# marker lines spliced with the buffer install block at the marker's
# indentation.
# ---------------------------------------------------------------------------

#: State every class carries: the buffer, its population, and counters.
_BUFFER = ("buf", "bn", "pb", "iss", "ins", "rf", "ev")


def _probe_lines(pad: str, var: str, warmup: int) -> list[str]:
    """Buffer probe: remove on hit, count after warm-up.

    Buffer values are always ``None``, so one ``pop`` with a non-None
    default replaces the ``in`` + ``del`` double hash lookup.
    """
    lines = [
        f"{pad}if bp({var}, 0) is None:",
        f"{pad}    bn -= 1",
    ]
    if warmup:
        lines += [
            f"{pad}    if index >= {warmup}:",
            f"{pad}        pb += 1",
        ]
    else:
        lines.append(f"{pad}    pb += 1")
    return lines


def _insert_lines(pad: str, var: str, cap: int) -> list[str]:
    """Buffer install: refresh-on-duplicate, evict-LRU accounting."""
    return [
        f"{pad}if bp({var}, 0) is None:",
        f"{pad}    buf[{var}] = None",
        f"{pad}    rf += 1",
        f"{pad}else:",
        f"{pad}    if bn >= {cap}:",
        f"{pad}        del buf[next(iter(buf))]",
        f"{pad}        ev += 1",
        f"{pad}    else:",
        f"{pad}        bn += 1",
        f"{pad}    buf[{var}] = None",
        f"{pad}    ins += 1",
    ]


def _prefetch_lines(pad: str, cap: int, clamp: int) -> list[str]:
    """Clamp the materialized ``pf`` list and install every target."""
    lines = [f"{pad}if pf:"]
    if clamp:
        lines += [
            f"{pad}    if len(pf) > {clamp}:",
            f"{pad}        pf = pf[:{clamp}]",
        ]
    lines.append(f"{pad}    for tg in pf:")
    lines.extend(_insert_lines(pad + "        ", "tg", cap))
    return lines


def _render(out: list[str], template: str, base: str, subs: dict, cap: int):
    """Splice a body template into ``out`` at indentation ``base``."""
    text = template
    for marker, value in subs.items():
        text = text.replace(marker, str(value))
    for raw in text.splitlines():
        stripped = raw.strip()
        if not stripped:
            continue
        pad = base + raw[: len(raw) - len(raw.lstrip())]
        if stripped.startswith("@INSERT:"):
            out.extend(_insert_lines(pad, stripped[len("@INSERT:"):-1], cap))
        else:
            out.append(pad + stripped)


_ASEQ_BODY = """\
hit = bp(page, 0) is None
if hit:
    bn -= 1
@HIT_COUNT@
wm += 1
wh += hit
if wm >= @WINDOW@:
    hr = wh / wm
    if hr > @RAISE@:
        deg = min(deg * 2, @MAXD@)
    elif hr < @LOWER@:
        deg = max(deg // 2, 1)
    wm = 0
    wh = 0
iss += deg
for of in range(1, @EFF@ + 1):
    t = page + of
    @INSERT:t@
"""

_STRIDE_FSM = """\
ns = page - @PREV@
un = ns == @STRIDE@
s = @STATE@
if s == 0:
    if un:
        @STATE@ = 2
    else:
        @STATE@ = 1
        @STRIDE@ = ns
elif s == 1:
    if un:
        @STATE@ = 2
    else:
        @STATE@ = 3
        @STRIDE@ = ns
elif s == 2:
    if not un:
        @STATE@ = 0
else:
    if un:
        @STATE@ = 1
    else:
        @STRIDE@ = ns
@PREV@ = page
if @STATE@ == 2:
    sv = @STRIDE@
    if sv:
        t = page + sv
        if t >= 0:
            iss += 1
            @INSERT:t@
"""

_SUCCESSOR_UPDATE = """\
if not sc or sc[0] != @VALUE@:
    if @VALUE@ in sc:
        sc.remove(@VALUE@)
    sc.insert(0, @VALUE@)
    if len(sc) > @SLOTS@:
        sc.pop()
"""

# Specialized MRU updates for tiny slot counts (the paper's common
# cases). For 2 slots, "move/insert @VALUE@ to the front and truncate"
# always ends as [@VALUE@, old_front] when 2 entries exist — whether
# @VALUE@ was at index 1 or absent — so the scan/remove/insert/pop
# sequence collapses to two subscript stores.
_SUCCESSOR_UPDATE_1 = """\
if not sc:
    sc.append(@VALUE@)
elif sc[0] != @VALUE@:
    sc[0] = @VALUE@
"""

_SUCCESSOR_UPDATE_2 = """\
if not sc:
    sc.append(@VALUE@)
elif sc[0] != @VALUE@:
    if len(sc) == 2:
        sc[1] = sc[0]
        sc[0] = @VALUE@
    else:
        sc.insert(0, @VALUE@)
"""


def _successor_update(slots: int) -> str:
    """Pick the MRU-update template for a slot count."""
    if slots == 1:
        return _SUCCESSOR_UPDATE_1
    if slots == 2:
        return _SUCCESSOR_UPDATE_2
    return _SUCCESSOR_UPDATE.replace("@SLOTS@", str(slots))


def _mod(expr: str, n: int) -> str:
    """Row-index expression; ``&`` for power-of-two table sizes.

    Python's infinite two's complement makes ``x & (n-1)`` equal
    ``x % n`` for any int ``x`` (negative distances included) whenever
    ``n`` is a power of two — and it skips the division.
    """
    if n & (n - 1) == 0:
        return f"{expr} & {n - 1}"
    return f"{expr} % {n}"


def _bind_set(num_sets: int, key: str, out: list[str], prologue: list[str]) -> None:
    """Bind the per-set dict for ``key`` to ``ts``.

    A fully associative table (one set) binds its only dict once, in
    the prologue, so the loop pays no per-miss indexing.
    """
    if num_sets == 1:
        prologue.append("ts = sets[0]")
    else:
        out.append(f"ts = sets[{_mod(key, num_sets)}]")


#: The per-miss page-history prelude of MP and the DP family: ``lp`` is
#: the previous miss's page (``None`` on the first miss).
_LAST_PAGE = ("lp = last_page", "last_page = page")


def _emit_none(sig, warmup):
    # Null never installs; it only probes whatever a seeded buffer
    # holds (a fresh one stays empty).
    return (), [], _probe_lines("", "page", warmup)


def _emit_seq(sig, warmup):
    (degree,), cap, clamp = sig[1], sig[2], sig[3]
    effective = degree if not clamp else min(degree, clamp)
    out = _probe_lines("", "page", warmup)
    out.append(f"iss += {degree}")
    if effective <= 8:
        # Small degrees (the common case) fully unrolled, no offset loop.
        for offset in range(1, effective + 1):
            out.append(f"t = page + {offset}")
            out.extend(_insert_lines("", "t", cap))
    else:
        out.append(f"for of in range(1, {effective + 1}):")
        out.append("    t = page + of")
        out.extend(_insert_lines("    ", "t", cap))
    return (), [], out


def _emit_aseq(sig, warmup):
    maxd, window, raise_above, lower_below = sig[1]
    cap, clamp = sig[2], sig[3]
    if warmup:
        hit_count = f"if hit and index >= {warmup}:\n    pb += 1"
    else:
        hit_count = "if hit:\n    pb += 1"
    out: list[str] = []
    _render(
        out,
        _ASEQ_BODY.replace("@HIT_COUNT@", hit_count),
        "",
        {
            "@WINDOW@": window,
            "@RAISE@": repr(raise_above),
            "@LOWER@": repr(lower_below),
            "@MAXD@": maxd,
            "@EFF@": "deg" if not clamp else f"min(deg, {clamp})",
        },
        cap,
    )
    return ("deg", "wm", "wh"), [], out


def _emit_stride(sig, warmup):
    geom, cap = sig[2], sig[3]
    layout = _layout(sig)
    prologue: list[str] = []
    out = _probe_lines("", "page", warmup)
    if layout == "dict":
        # Never-overflow: one plain dict pc -> [prev_page, stride, state].
        out.append("en = dt.get(pc)")
        out.append("if en is None:")
        out.append("    dt[pc] = [page, 0, 0]")
        out.append("else:")
        fields = {"@PREV@": "en[0]", "@STRIDE@": "en[1]", "@STATE@": "en[2]"}
        _render(out, _STRIDE_FSM, "    ", fields, cap)
        return ("dt",), prologue, out
    rows, ways = geom
    if layout == "stride_dm":
        out.append(f"r = {_mod('pc', rows)}")
        out.append("if tag[r] != pc:")
        out.append("    tag[r] = pc")
        out.append("    ppg[r] = page")
        out.append("    str[r] = 0")
        out.append("    sst[r] = 0")
        out.append("else:")
        fields = {"@PREV@": "ppg[r]", "@STRIDE@": "str[r]", "@STATE@": "sst[r]"}
        _render(out, _STRIDE_FSM, "    ", fields, cap)
        return ("tag", "ppg", "str", "sst"), prologue, out
    _bind_set(rows // ways, "pc", out, prologue)
    out.append("en = ts.pop(pc, None)")
    out.append("if en is None:")
    out.append(f"    if len(ts) >= {ways}:")
    out.append("        del ts[next(iter(ts))]")
    out.append("    ts[pc] = [page, 0, 0]")
    out.append("else:")
    out.append("    ts[pc] = en")
    fields = {"@PREV@": "en[0]", "@STRIDE@": "en[1]", "@STATE@": "en[2]"}
    _render(out, _STRIDE_FSM, "    ", fields, cap)
    return ("sets",), prologue, out


def _emit_markov(sig, warmup):
    """MP: lookup and install, then the successor update.

    The install loop iterates the *live* slot list captured at lookup
    time, before the successor update runs — exactly the reference
    engine's materialize-at-predict semantics (buffer inserts never
    touch the table, so running them first is unobservable). The update
    runs under the self-successor rule: a page is never its own
    successor.
    """
    (slots,), geom, cap, clamp = sig[1], sig[2], sig[3], sig[4]
    layout = _layout(sig)
    prologue: list[str] = []
    out = [*_LAST_PAGE, *_probe_lines("", "page", warmup)]
    update = _successor_update(slots).replace("@VALUE@", "page")
    upd: list[str] = []
    # Two slots (the paper's standard MP geometry) unrolls the install:
    # no iterator and no clamp copy. A clamp >= 2 is a no-op for two
    # slots; clamp == 1 just omits the second install (``issued`` still
    # counts the full slot list, matching the reference engine).
    two = slots == 2
    second = clamp != 1
    if layout == "dict":
        prologue.append("dg = dt.get")
        out.append("pf = dg(page)")
        if two:
            out.append("if pf is None:")
            out.append("    dt[page] = []")
            out.append("elif pf:")
            out.append("    n = len(pf)")
            out.append("    iss += n")
            out.append("    tg = pf[0]")
            out.extend(_insert_lines("    ", "tg", cap))
            if second:
                out.append("    if n > 1:")
                out.append("        tg = pf[1]")
                out.extend(_insert_lines("        ", "tg", cap))
        else:
            out.append("if pf is not None:")
            out.append("    iss += len(pf)")
            out.append("else:")
            out.append("    dt[page] = []")
            out.append("    pf = ()")
            out.extend(_prefetch_lines("", cap, clamp))
        upd.append("sc = dg(lp)")
        upd.append("if sc is None:")
        upd.append("    sc = []")
        upd.append("    dt[lp] = sc")
        names: tuple = ("dt",)
    elif layout == "markov_dm2":
        # Direct-mapped two-slot rows packed into parallel flat arrays
        # (count, MRU successor, LRU successor) instead of one heap
        # list per row: no per-row allocations, and the MRU update is
        # three subscript stores. Same observable trajectory as the
        # list form — [v] is (1, v, _) and [a, b] is (2, a, b).
        rows = geom[0]
        out.append(f"r = {_mod('page', rows)}")
        out.append("if tag[r] == page:")
        out.append("    n = cn[r]")
        out.append("    if n:")
        out.append("        iss += n")
        out.append("        tg = ma[r]")
        out.extend(_insert_lines("        ", "tg", cap))
        if second:
            out.append("        if n > 1:")
            out.append("            tg = mb[r]")
            out.extend(_insert_lines("            ", "tg", cap))
        out.append("else:")
        out.append("    tag[r] = page")
        out.append("    cn[r] = 0")
        upd.append(f"pr = {_mod('lp', rows)}")
        upd.append("if tag[pr] != lp:")
        upd.append("    tag[pr] = lp")
        upd.append("    ma[pr] = page")
        upd.append("    cn[pr] = 1")
        upd.append("elif cn[pr] == 0:")
        upd.append("    ma[pr] = page")
        upd.append("    cn[pr] = 1")
        upd.append("elif ma[pr] != page:")
        upd.append("    mb[pr] = ma[pr]")
        upd.append("    ma[pr] = page")
        upd.append("    cn[pr] = 2")
        names = ("tag", "cn", "ma", "mb")
    elif layout == "dm":
        # Direct-mapped: tags start at an unmatchable None sentinel, so
        # no separate occupancy array is consulted in the hot path.
        rows = geom[0]
        out.append(f"r = {_mod('page', rows)}")
        out.append("if tag[r] == page:")
        out.append("    pf = sl[r]")
        out.append("    iss += len(pf)")
        out.append("else:")
        out.append("    tag[r] = page")
        out.append("    sl[r] = []")
        out.append("    pf = ()")
        out.extend(_prefetch_lines("", cap, clamp))
        upd.append(f"pr = {_mod('lp', rows)}")
        upd.append("if tag[pr] == lp:")
        upd.append("    sc = sl[pr]")
        upd.append("else:")
        upd.append("    tag[pr] = lp")
        upd.append("    sc = []")
        upd.append("    sl[pr] = sc")
        names = ("tag", "sl")
    else:
        rows, ways = geom
        num_sets = rows // ways
        _bind_set(num_sets, "page", out, prologue)
        if num_sets == 1:
            ps = "ts"
        else:
            upd.append(f"ps = sets[{_mod('lp', num_sets)}]")
            ps = "ps"
        out.append("pf = ts.pop(page, None)")
        if two:
            out.append("if pf is not None:")
            out.append("    ts[page] = pf")
            out.append("    if pf:")
            out.append("        n = len(pf)")
            out.append("        iss += n")
            out.append("        tg = pf[0]")
            out.extend(_insert_lines("        ", "tg", cap))
            if second:
                out.append("        if n > 1:")
                out.append("            tg = pf[1]")
                out.extend(_insert_lines("            ", "tg", cap))
            out.append("else:")
            out.append(f"    if len(ts) >= {ways}:")
            out.append("        del ts[next(iter(ts))]")
            out.append("    ts[page] = []")
        else:
            out.append("if pf is not None:")
            out.append("    ts[page] = pf")
            out.append("    iss += len(pf)")
            out.append("else:")
            out.append(f"    if len(ts) >= {ways}:")
            out.append("        del ts[next(iter(ts))]")
            out.append("    ts[page] = []")
            out.append("    pf = ()")
            out.extend(_prefetch_lines("", cap, clamp))
        upd.append(f"sc = {ps}.pop(lp, None)")
        upd.append("if sc is not None:")
        upd.append(f"    {ps}[lp] = sc")
        upd.append("else:")
        upd.append(f"    if len({ps}) >= {ways}:")
        upd.append(f"        del {ps}[next(iter({ps}))]")
        upd.append("    sc = []")
        upd.append(f"    {ps}[lp] = sc")
        names = ("sets",)
    if layout != "markov_dm2":
        _render(upd, update, "", {}, cap)
    out.append("if lp is not None and lp != page:")
    out.extend("    " + line for line in upd)
    return names, prologue, out


def _materialize_targets():
    """Targets are materialized before the successor update: when the
    updated key aliases the looked-up row, the update mutates the live
    slot list (the reference engine snapshots values first)."""
    return [
        "pf = []",
        "for pd_ in row:",
        "    t = page + pd_",
        "    if t >= 0:",
        "        pf.append(t)",
        "        iss += 1",
    ]


def _hit_targets(cap, clamp, slots=0):
    """The hit path's target handling for keyed (distance-valued) rows.

    With no clamp, installs fuse into the materialize loop: the live
    row is iterated at lookup time (before the successor update can
    mutate it) and each non-negative target goes straight into the
    buffer — no intermediate list. A clamp needs the full list first
    because ``issued`` counts pre-clamp targets. Two-slot rows (the
    standard geometry) unroll the loop entirely.
    """
    if clamp:
        return ["    " + line for line in _materialize_targets()]
    if slots == 2:
        lines = [
            "    if row:",
            "        t = page + row[0]",
            "        if t >= 0:",
            "            iss += 1",
        ]
        lines.extend(_insert_lines("            ", "t", cap))
        lines += [
            "        if len(row) > 1:",
            "            t = page + row[1]",
            "            if t >= 0:",
            "                iss += 1",
        ]
        lines.extend(_insert_lines("                ", "t", cap))
        return lines
    lines = [
        "    for pd_ in row:",
        "        t = page + pd_",
        "        if t >= 0:",
        "            iss += 1",
    ]
    lines.extend(_insert_lines("            ", "t", cap))
    return lines


#: Per-miss prelude of each DP-family table, run once a previous page
#: exists: ``(lookup key, previous key, lines)``. The key is the
#: distance (DP) or a packed key (DP-PC: PC and distance; DP-2: the
#: last two distances, so DP-2's table body also waits for a previous
#: distance). The successor *value* recorded is always the distance.
_KEYED_PRELUDES: dict[str, tuple[str, str, tuple[str, ...]]] = {
    "distance": ("distance", "pd", ("pd = last_dist", "last_dist = distance")),
    "pcdist": (
        "kpc",
        "pkc",
        ("kpc = pack_pc_distance(pc, distance)", "pkc = last_kpc", "last_kpc = kpc"),
    ),
    "distpair": (
        "dpk",
        "pk2",
        (
            "pd = last_dist",
            "last_dist = distance",
            "if pd is not None:",
            "    dpk = pack_distance_pair(pd, distance)",
            "    pk2 = last_dpk",
            "    last_dpk = dpk",
        ),
    ),
}


def _emit_keyed_table(sig, warmup):
    """DP / DP-PC / DP-2: buffer probe, key prelude, table body.

    Every keyed class probes the buffer on every miss; the table body
    runs under its family's prelude (:data:`_KEYED_PRELUDES`).
    """
    family = sig[0]
    (slots,), geom, cap, clamp = sig[1], sig[2], sig[3], sig[4]
    key_var, prev_var, prelude = _KEYED_PRELUDES[family]
    layout = _layout(sig)
    prologue: list[str] = []
    update = _successor_update(slots).replace("@VALUE@", "distance")
    hit = _hit_targets(cap, clamp, slots)
    out: list[str] = []

    def miss_and_install():
        # With a clamp the hit path materializes pf; the miss path
        # must define it and the shared install block runs afterwards.
        if clamp:
            out.append("    pf = ()")

    if layout == "dict":
        out.append(f"row = dt.get({key_var})")
        out.append("if row is not None:")
        out.extend(hit)
        out.append("else:")
        out.append(f"    dt[{key_var}] = []")
        miss_and_install()
        out.append(f"if {prev_var} is not None:")
        out.append(f"    sc = dt.get({prev_var})")
        out.append("    if sc is None:")
        out.append("        sc = []")
        out.append(f"        dt[{prev_var}] = sc")
        names: tuple = ("dt",)
    elif layout == "dm":
        # DP direct-mapped: flat arrays; tags start at an unmatchable
        # None sentinel (distances may be any integer, so no integer
        # sentinel is safe).
        rows = geom[0]
        out.append(f"r = {_mod('distance', rows)}")
        out.append("if tag[r] == distance:")
        out.append("    row = sl[r]")
        out.extend(hit)
        out.append("else:")
        out.append("    tag[r] = distance")
        out.append("    sl[r] = []")
        miss_and_install()
        out.append(f"if {prev_var} is not None:")
        out.append(f"    pr = {_mod(prev_var, rows)}")
        out.append(f"    if tag[pr] == {prev_var}:")
        out.append("        sc = sl[pr]")
        out.append("    else:")
        out.append(f"        tag[pr] = {prev_var}")
        out.append("        sc = []")
        out.append("        sl[pr] = sc")
        names = ("tag", "sl")
    else:
        rows, ways = geom
        num_sets = rows // ways
        _bind_set(num_sets, key_var, out, prologue)
        ps = "ts" if num_sets == 1 else "ps"
        out.append(f"row = ts.pop({key_var}, None)")
        out.append("if row is not None:")
        out.append(f"    ts[{key_var}] = row")
        out.extend(hit)
        out.append("else:")
        out.append(f"    if len(ts) >= {ways}:")
        out.append("        del ts[next(iter(ts))]")
        out.append(f"    ts[{key_var}] = []")
        miss_and_install()
        out.append(f"if {prev_var} is not None:")
        if num_sets != 1:
            out.append(f"    ps = sets[{_mod(prev_var, num_sets)}]")
        out.append(f"    sc = {ps}.pop({prev_var}, None)")
        out.append("    if sc is not None:")
        out.append(f"        {ps}[{prev_var}] = sc")
        out.append("    else:")
        out.append(f"        if len({ps}) >= {ways}:")
        out.append(f"            del {ps}[next(iter({ps}))]")
        out.append("        sc = []")
        out.append(f"        {ps}[{prev_var}] = sc")
        names = ("sets",)
    _render(out, update, "    ", {}, cap)
    if clamp:
        out.extend(_prefetch_lines("", cap, clamp))
    # DP-2's table body runs under its prelude's previous-distance guard.
    pad = "        " if family == "distpair" else "    "
    body = [*_LAST_PAGE, *_probe_lines("", "page", warmup)]
    body += ["if lp is not None:", "    distance = page - lp"]
    body += ["    " + line for line in prelude]
    body += [pad + line for line in out]
    return names, prologue, body


def _emit_recency(sig, warmup):
    """RP: buffer work over the precomputed stack neighbours."""
    (variant_three,), cap, clamp = sig[1], sig[2], sig[3]
    out = _probe_lines("", "rpage", warmup)
    if not clamp:
        # No clamp: install each stack neighbor directly, in the same
        # above-then-below(-then-third) order the list would have had.
        out.append("if rabove != -1:")
        out.append("    iss += 1")
        out.extend(_insert_lines("    ", "rabove", cap))
        out.append("if rbelow != -1:")
        out.append("    iss += 1")
        out.extend(_insert_lines("    ", "rbelow", cap))
        if variant_three:
            out.append("if rthird != -1:")
            out.append("    iss += 1")
            out.extend(_insert_lines("    ", "rthird", cap))
        return (), [], out
    out.append("pf = []")
    out.append("if rabove != -1:")
    out.append("    pf.append(rabove)")
    out.append("if rbelow != -1:")
    out.append("    pf.append(rbelow)")
    if variant_three:
        out.append("if rthird != -1:")
        out.append("    pf.append(rthird)")
    out.append("if pf:")
    out.append("    iss += len(pf)")
    out.append(f"    if len(pf) > {clamp}:")
    out.append(f"        pf = pf[:{clamp}]")
    out.append("    for tg in pf:")
    out.extend(_insert_lines("        ", "tg", cap))
    return (), [], out


#: Family -> emitter returning ``(state names beyond the buffer's,
#: prologue lines, per-miss body lines)`` for one class.
_EMITTERS = {
    "none": _emit_none,
    "seq": _emit_seq,
    "aseq": _emit_aseq,
    "stride": _emit_stride,
    "markov": _emit_markov,
    "distance": _emit_keyed_table,
    "pcdist": _emit_keyed_table,
    "distpair": _emit_keyed_table,
    "recency": _emit_recency,
}

#: History registers a class keeps in its state dict (all ``None`` in a
#: fresh replay): snapshot field -> register, per family.
_REGISTERS: dict[str, tuple[tuple[str, str], ...]] = {
    "markov": (("prev_page", "last_page"),),
    "distance": (("prev_page", "last_page"), ("prev_distance", "last_dist")),
    "pcdist": (("prev_page", "last_page"), ("prev_key", "last_kpc")),
    "distpair": (
        ("prev_page", "last_page"),
        ("prev_distance", "last_dist"),
        ("prev_key", "last_dpk"),
    ),
}


def _generate(warmup: int, sig: tuple) -> str:
    """Source of the loop for one class.

    The function replays one window: ``pcs``/``pages``/``rp_*`` are the
    window's entries and ``start`` is the global index of its first
    one. The class's buffer, counters, tables and history registers
    come in through ``state`` and go back out the same way, so
    consecutive calls continue one replay.
    """
    family = sig[0]
    names, prologue, body = _EMITTERS[family](sig, warmup)
    names = _BUFFER + names + tuple(reg for _, reg in _REGISTERS.get(family, ()))
    pad = "    "
    lines = [
        # Hot-loop names bound as defaults: LOAD_FAST instead of
        # LOAD_GLOBAL for every builtin/table-helper call per miss.
        "def _loop(state, start, pcs, pages, rp_pages, rp_above, rp_below,",
        "          rp_third, len=len, next=next, iter=iter, min=min,",
        "          max=max, zip=zip, range=range,",
        "          pack_pc_distance=pack_pc_distance,",
        "          pack_distance_pair=pack_distance_pair):",
    ]
    lines.extend(f"{pad}{name} = state[{name!r}]" for name in names)
    # bp pre-binds the buffer's bound ``pop``: the dict object never
    # changes, and probes/installs are the hottest calls in the loop.
    lines.append(pad + "bp = buf.pop")
    lines.extend(pad + line for line in prologue)
    # Zip exactly the arrays the body touches; the global index is only
    # materialized when a warm-up boundary must be compared.
    loop_names, iters = ["page"], ["pages"]
    if warmup:
        loop_names.insert(0, "index")
        iters.insert(0, "range(start, start + len(pages))")
    if family in ("stride", "pcdist"):
        loop_names.append("pc")
        iters.append("pcs")
    if family == "recency":
        loop_names += ["rpage", "rabove", "rbelow"]
        iters += ["rp_pages", "rp_above", "rp_below"]
        if sig[1][0]:
            loop_names.append("rthird")
            iters.append("rp_third")
    if len(iters) == 1:
        lines.append(pad + "for page in pages:")
    else:
        lines.append(
            f"{pad}for {', '.join(loop_names)} in zip({', '.join(iters)}):"
        )
    lines.extend(pad + pad + line for line in body)
    lines.extend(f"{pad}state[{name!r}] = {name}" for name in names)
    lines.append(pad + "return None")
    return "\n".join(lines) + "\n"


#: Compiled loops memoized by (warmup, emission signature) — a sweep's
#: streams share their classes' shapes, so codegen runs once per shape.
_CODE_CACHE: dict[tuple, object] = {}

def _compiled(warmup: int, sig: tuple):
    key = (warmup, sig)
    fn = _CODE_CACHE.get(key)
    if fn is None:
        source = _generate(warmup, sig)
        namespace = {
            "pack_pc_distance": pack_pc_distance,
            "pack_distance_pair": pack_distance_pair,
        }
        exec(compile(source, "<repro.sim.batchpath>", "exec"), namespace)
        fn = namespace["_loop"]
        if len(_CODE_CACHE) >= 256:
            _CODE_CACHE.clear()
        _CODE_CACHE[key] = fn
    return fn


# ---------------------------------------------------------------------------
# Loop state: fresh or seeded from canonical snapshots, and exported back.
# ---------------------------------------------------------------------------


def _slot_state(
    sig: tuple,
    mechanism: MechanismSnapshot | None = None,
    buffer: BufferSnapshot | None = None,
    buffer_keys: list[int] | None = None,
) -> dict:
    """One class's loop state: fresh, or seeded from snapshots.

    History registers start as ``None`` or as the snapshot's fields
    (:data:`_REGISTERS`). ``buffer_keys`` replaces ``buffer.pages`` when the loop keys its
    buffer by something other than page numbers (RP's dense ids).
    """
    state = {"buf": {}, "bn": 0, "pb": 0, "iss": 0, "ins": 0, "rf": 0, "ev": 0}
    if buffer is not None:
        keys = buffer.pages if buffer_keys is None else buffer_keys
        state.update(
            buf=dict.fromkeys(keys),
            bn=len(keys),
            ins=buffer.inserted,
            rf=buffer.refreshed,
            ev=buffer.evicted_unused,
        )
    family = sig[0]
    if family == "aseq":
        if mechanism is None:
            state.update(deg=1, wm=0, wh=0)
        else:
            state.update(
                deg=mechanism.degree,
                wm=mechanism.window_misses,
                wh=mechanism.window_hits,
            )
    elif family in _TABLE_FAMILIES:
        state.update(_table_state(sig, None if mechanism is None else mechanism.table))
    for field, register in _REGISTERS.get(family, ()):
        state[register] = None if mechanism is None else getattr(mechanism, field)
    return state


def _table_state(sig: tuple, table: TableSnapshot | None) -> dict:
    """A table's live structures for its layout, seeded from ``table``."""
    layout = _layout(sig)
    if layout == "dict":
        return {"dt": {}}
    rows, ways = sig[2]
    seeded = table.sets if table is not None else ()
    if layout == "sets":
        sets = [{} for _ in range(rows // ways)]
        for live, pairs in zip(sets, seeded):
            for key, payload in pairs:
                live[key] = list(payload)
        return {"sets": sets}
    tag: list[int | None] = [None] * rows
    occupied = [(row, pairs[-1]) for row, pairs in enumerate(seeded) if pairs]
    for row, (key, _) in occupied:
        tag[row] = key
    if layout == "stride_dm":
        prev_pages, strides, states = [0] * rows, [0] * rows, bytearray(rows)
        for row, (_, (prev_page, stride, state)) in occupied:
            prev_pages[row], strides[row], states[row] = prev_page, stride, state
        return {"tag": tag, "ppg": prev_pages, "str": strides, "sst": states}
    if layout == "markov_dm2":
        counts, first, second = bytearray(rows), [0] * rows, [0] * rows
        for row, (_, payload) in occupied:
            counts[row] = len(payload)
            if payload:
                first[row] = payload[0]
            if len(payload) > 1:
                second[row] = payload[1]
        return {"tag": tag, "cn": counts, "ma": first, "mb": second}
    slot_rows: list[list[int]] = [[] for _ in range(rows)]
    for row, (_, payload) in occupied:
        slot_rows[row] = list(payload)
    return {"tag": tag, "sl": slot_rows}


def _table_sets(sig: tuple, state: dict) -> list:
    """Canonical ``TableSnapshot.sets`` (LRU -> MRU per set) of live state."""
    layout = _layout(sig)
    if layout == "sets":
        return [
            [[key, list(payload)] for key, payload in live.items()]
            for live in state["sets"]
        ]
    tag = state["tag"]
    if layout == "stride_dm":
        prev_pages, strides, states = state["ppg"], state["str"], state["sst"]
        return [
            [[key, [prev_pages[row], strides[row], states[row]]]] if key is not None else []
            for row, key in enumerate(tag)
        ]
    if layout == "markov_dm2":
        counts, first, second = state["cn"], state["ma"], state["mb"]
        return [
            [[key, [first[row], second[row]][: counts[row]]]] if key is not None else []
            for row, key in enumerate(tag)
        ]
    slot_rows = state["sl"]
    return [
        [[key, list(slot_rows[row])]] if key is not None else []
        for row, key in enumerate(tag)
    ]


class _RecencyStack:
    """RP's recency stack over dense page ids, advanced window by window.

    The stack's evolution depends only on the miss stream — never on
    any mechanism config — so :meth:`window` yields the (above, below,
    third) neighbours every miss in the window sees, and each RP class
    then reduces to buffer work over those arrays. ``third`` is
    pre-filtered exactly as the reference engine filters it (absent,
    off-stack, or equal to the missing page -> -1).
    """

    def __init__(self, page_ids: np.ndarray, evicted_ids: np.ndarray, footprint: int):
        # Kept as arrays: a window converts only its own slice to ints.
        self.page_ids = page_ids
        self.evicted_ids = evicted_ids
        self.next = [-1] * footprint
        self.prev = [-1] * footprint
        self.on = bytearray(footprint)
        self.top = -1
        #: Pointer writes so far, and those of the most recent miss
        #: (RP's ``last_overhead_ops``).
        self.overhead = 0
        self.last_overhead = 0

    def window(self, start: int, stop: int) -> tuple[list[int], ...]:
        """Advance over ``[start, stop)``; returns the window's
        ``(page ids, above, below, third)``."""
        pages = self.page_ids[start:stop].tolist()
        rp_next, rp_prev, rp_on = self.next, self.prev, self.on
        rp_top = self.top
        overhead = self.overhead
        above: list[int] = []
        below: list[int] = []
        third: list[int] = []
        unlinked = 0
        revt = -1
        for rpage, revt in zip(pages, self.evicted_ids[start:stop].tolist()):
            if rp_on[rpage]:
                rbelow = rp_next[rpage]
                rabove = rp_prev[rpage]
                if rabove != -1:
                    rp_next[rabove] = rbelow
                else:
                    rp_top = rbelow
                if rbelow != -1:
                    rp_prev[rbelow] = rabove
                rp_prev[rpage] = -1
                rp_next[rpage] = -1
                rp_on[rpage] = 0
                unlinked = 2
            else:
                rbelow = -1
                rabove = -1
                unlinked = 0
            overhead += unlinked
            if revt != -1:
                if rp_on[revt]:
                    # Re-push of a threaded page: silently unlink first
                    # (the reference stack does this inside push_top
                    # without charging extra overhead).
                    ea = rp_prev[revt]
                    eb = rp_next[revt]
                    if ea != -1:
                        rp_next[ea] = eb
                    else:
                        rp_top = eb
                    if eb != -1:
                        rp_prev[eb] = ea
                rp_next[revt] = rp_top
                rp_prev[revt] = -1
                rp_on[revt] = 1
                if rp_top != -1:
                    rp_prev[rp_top] = revt
                rp_top = revt
                overhead += 2
            above.append(rabove)
            below.append(rbelow)
            if rbelow != -1 and rp_on[rbelow]:
                th = rp_next[rbelow]
                if th == rpage:
                    th = -1
            else:
                th = -1
            third.append(th)
        if stop > start:
            self.last_overhead = unlinked + (2 if revt != -1 else 0)
        self.top = rp_top
        self.overhead = overhead
        return pages, above, below, third


def _window(values: list, start: int, stop: int) -> list:
    """``values[start:stop]``, without a copy for the whole list."""
    if start == 0 and stop == len(values):
        return values
    return values[start:stop]


# ---------------------------------------------------------------------------
# Batches: N fresh configs, one loop per equivalence class.
# ---------------------------------------------------------------------------


class _TraceAnalysis:
    """Per-trace batch analysis, computed once and reused across calls."""

    __slots__ = ("keys", "rp", "sigs")

    def __init__(self) -> None:
        self.keys: _StreamKeys | None = None
        # (rp_pages, above, below, third, overhead): the dense page
        # ids plus the recency-stack neighbor streams of a fresh stack.
        self.rp: (
            tuple[list[int], list[int], list[int], list[int], int] | None
        ) = None
        # (family, config, cap, clamp) -> (dedup_sig, emit_sig); the
        # equivalence analysis is a pure function of the trace and
        # those four plan fields, so repeat batches skip it entirely.
        self.sigs: dict[tuple, tuple[tuple, tuple]] = {}


#: Keyed by ``id(miss_trace)``; a weakref finalizer evicts the entry
#: when the trace dies, so a recycled id can never alias a stale entry.
_ANALYSIS_CACHE: dict[int, _TraceAnalysis] = {}


def _analysis_for(miss_trace: MissTrace) -> _TraceAnalysis:
    key = id(miss_trace)
    analysis = _ANALYSIS_CACHE.get(key)
    if analysis is None:
        analysis = _TraceAnalysis()
        _ANALYSIS_CACHE[key] = analysis
        weakref.finalize(miss_trace, _ANALYSIS_CACHE.pop, key, None)
    return analysis


def _dense_ids(miss_trace: MissTrace, *extra: np.ndarray):
    """Dense ids for every page the stream (plus ``extra``) mentions.

    Returns ``(unique, page_ids, evicted_ids)``; ``unique`` is sorted,
    so ids preserve page order. RP's stack and buffer run on these ids:
    the mapping is a bijection, so linkage and hit accounting are
    isomorphic to the reference engine's page-number arithmetic.
    """
    pages, evicted = miss_trace.pages, miss_trace.evicted
    unique = np.unique(np.concatenate([pages, evicted[evicted >= 0], *extra]))
    page_ids = np.searchsorted(unique, pages)
    evicted_ids = np.where(evicted >= 0, np.searchsorted(unique, evicted), -1)
    return unique, page_ids, evicted_ids


def replay_batch(
    miss_trace: MissTrace,
    requests: "list[tuple[Prefetcher, int, int]]",
) -> "list[PrefetchRunStats]":
    """Replay N fresh mechanisms over one miss stream.

    ``requests`` is a list of ``(prefetcher, buffer_entries,
    max_prefetches_per_miss)`` triples; every prefetcher must be a
    freshly built instance of a supported mechanism (raises
    :class:`~repro.errors.ConfigurationError` otherwise). Returns one
    :class:`~repro.sim.stats.PrefetchRunStats` per request, in request
    order, bit-identical to what the reference engine produces. The
    instances are *not* trained — batch replays are for throwaway
    mechanisms built from specs.

    Requests the planner proves equivalent on this stream share one
    loop, whose counters every one of them reports.
    """
    plans = []
    for prefetcher, cap, clamp in requests:
        plan = _plan(prefetcher, cap, clamp)
        if not is_fresh(prefetcher):
            raise ConfigurationError(
                "replay_batch replays freshly built mechanisms only; "
                "trained instances take engine.replay"
            )
        plans.append(plan)
    pcs, pages, _evicted, _ = miss_trace.as_lists()
    analysis = _analysis_for(miss_trace)
    if analysis.keys is None:
        analysis.keys = _StreamKeys(pcs, pages)
    keys = analysis.keys

    class_of: dict[tuple, int] = {}
    emit_sigs: list[tuple] = []
    slot_class: list[int] = []
    for plan in plans:
        cache_key = (plan.family, plan.config, plan.cap, plan.clamp)
        cached = analysis.sigs.get(cache_key)
        if cached is None:
            cached = _sigs(plan, keys)
            analysis.sigs[cache_key] = cached
        dedup_sig, emit_sig = cached
        index = class_of.get(dedup_sig)
        if index is None:
            index = len(emit_sigs)
            class_of[dedup_sig] = index
            emit_sigs.append(emit_sig)
        slot_class.append(index)

    rp: tuple = ((), (), (), ())
    rp_overhead = 0
    if any(sig[0] == "recency" for sig in emit_sigs):
        if analysis.rp is None:
            unique, page_ids, evicted_ids = _dense_ids(miss_trace)
            stack = _RecencyStack(page_ids, evicted_ids, len(unique))
            analysis.rp = (*stack.window(0, len(page_ids)), stack.overhead)
        *rp, rp_overhead = analysis.rp

    rows = []
    for sig in emit_sigs:
        if sig[0] == "zero":
            rows.append((0, 0, 0, 0, 0, 0))
            continue
        state = _slot_state(sig)
        _compiled(miss_trace.warmup_misses, sig)(state, 0, pcs, pages, *rp)
        rows.append((
            state["pb"],
            state["iss"],
            rp_overhead if sig[0] == "recency" else 0,
            state["ins"],
            state["rf"],
            state["ev"],
        ))
    return [
        replay_stats(miss_trace, plan.label, rows[slot_class[i]])
        for i, plan in enumerate(plans)
    ]


# ---------------------------------------------------------------------------
# Kernels: one mechanism, any state, any window.
# ---------------------------------------------------------------------------


class ReplayKernel:
    """One mechanism and prefetch buffer compiled into a resumable loop.

    The loop is seeded from canonical snapshots — ``mechanism``
    (default: a snapshot of ``prefetcher``, which also supplies the
    configuration) and ``buffer`` — and :meth:`run` replays any
    ``[start, stop)`` window of the stream, comparing the *global*
    index with the stream's warm-up boundary. Windows must follow one
    another; tables, buffer, recency stack and counters stay live in
    between, so any chunking adds up to the one-shot replay.
    :meth:`mechanism_snapshot` and :meth:`buffer_snapshot` build the
    canonical snapshots straight from that live state.

    ``pb_hits`` seeds the measured prefetch-buffer hit count (a resumed
    session's tally so far).
    """

    def __init__(
        self,
        miss_trace: MissTrace,
        prefetcher: Prefetcher,
        buffer: BufferSnapshot,
        max_prefetches_per_miss: int = 0,
        pb_hits: int = 0,
        mechanism: MechanismSnapshot | None = None,
    ) -> None:
        plan = _plan(prefetcher, buffer.capacity, max_prefetches_per_miss)
        if mechanism is None:
            mechanism = snapshot_prefetcher(prefetcher)
        self._family = plan.family
        self._sig = _exact_sig(plan)
        self._trace = miss_trace
        self._buffer_seed = buffer
        self._pcs, self._pages, _, _ = miss_trace.as_lists()
        self._begin = self._end = 0
        self._stack: _RecencyStack | None = None
        buffer_keys = None
        if plan.family == "recency":
            buffer_keys = self._seed_recency(mechanism, buffer)
        self._state = _slot_state(self._sig, mechanism, buffer, buffer_keys)
        self._state["pb"] = pb_hits
        # The live state now holds the snapshot's tables and page-table
        # entries; keep only its configuration and counters.
        if plan.family in _TABLE_FAMILIES:
            mechanism = dataclasses.replace(
                mechanism, table=dataclasses.replace(mechanism.table, sets=[])
            )
        elif plan.family == "recency":
            mechanism = dataclasses.replace(mechanism, entries=[])
        self._seed = mechanism

    def _seed_recency(self, mechanism, buffer: BufferSnapshot) -> list[int]:
        """Dense ids over the stream, the seeded PTEs and buffered pages;
        returns the buffer's pages as ids."""
        seeded = np.asarray([entry[0] for entry in mechanism.entries], dtype=np.int64)
        buffered = np.asarray(buffer.pages, dtype=np.int64)
        unique, page_ids, evicted_ids = _dense_ids(self._trace, seeded, buffered)
        self._unique = unique
        self._seeded_ids = np.searchsorted(unique, seeded)
        stack = _RecencyStack(page_ids, evicted_ids, len(unique))
        ids = dict(zip(seeded.tolist(), self._seeded_ids.tolist()))
        for page, below, above, on_stack in mechanism.entries:
            pid = ids[page]
            stack.next[pid] = -1 if below is None else ids[below]
            stack.prev[pid] = -1 if above is None else ids[above]
            stack.on[pid] = 1 if on_stack else 0
        stack.top = -1 if mechanism.top is None else ids[mechanism.top]
        self._stack = stack
        return np.searchsorted(unique, buffered).tolist()

    @property
    def processed(self) -> int:
        """Entries replayed by this kernel so far."""
        return self._end - self._begin

    def run(self, start: int, stop: int) -> None:
        """Replay stream entries ``[start, stop)``."""
        if stop <= start:
            return
        if self.processed and start != self._end:
            raise ValueError(
                f"kernel windows must be contiguous: next window starts at "
                f"{self._end}, not {start}"
            )
        if not self.processed:
            self._begin = start
        warmup = self._trace.warmup_misses
        # A window entirely past the warm-up boundary counts every hit,
        # which is exactly the loop compiled without a boundary.
        fn = _compiled(warmup if start < warmup else 0, self._sig)
        rp: tuple = ((), (), (), ())
        if self._stack is not None:
            rp = self._stack.window(start, stop)
        fn(
            self._state,
            start,
            _window(self._pcs, start, stop),
            _window(self._pages, start, stop),
            *rp,
        )
        self._end = stop

    def counters(self) -> tuple[int, int, int, int, int, int]:
        """``(pb_hits, prefetches_issued, overhead_ops_total, inserted,
        refreshed, evicted_unused)``; mechanism and buffer counters are
        cumulative, as on the live objects."""
        state, seed = self._state, self._seed
        overhead = self._stack.overhead if self._stack is not None else 0
        return (
            state["pb"],
            seed.prefetches_issued + state["iss"],
            seed.overhead_ops_total + overhead,
            state["ins"],
            state["rf"],
            state["ev"],
        )

    def mechanism_snapshot(self) -> MechanismSnapshot:
        """The mechanism's canonical snapshot at the current position."""
        seed, family, state = self._seed, self._family, self._state
        if family == "none":
            # Null never calls ``account()``: nothing about it changes.
            return seed
        _, issued, overhead, _, _, _ = self.counters()
        if not self.processed:
            last_overhead = seed.last_overhead_ops
        else:
            # Every miss ends in ``account()``, which leaves the miss's
            # own overhead behind: 0 on chip, RP's pointer writes.
            last_overhead = self._stack.last_overhead if self._stack else 0
        changes: dict = {
            "prefetches_issued": issued,
            "overhead_ops_total": overhead,
            "last_overhead_ops": last_overhead,
        }
        if family == "aseq":
            changes.update(
                degree=state["deg"], window_misses=state["wm"], window_hits=state["wh"]
            )
        elif family in _TABLE_FAMILIES:
            changes["table"] = dataclasses.replace(
                seed.table, sets=_table_sets(self._sig, state)
            )
            for field, register in _REGISTERS.get(family, ()):
                changes[field] = state[register]
        elif family == "recency":
            changes.update(self._recency_fields())
        return dataclasses.replace(seed, **changes)

    def _recency_fields(self) -> dict:
        """RP's stack top and page-table entries, in canonical order.

        The reference page table holds a PTE for every page a miss
        touched (missing or evicted) plus the seeded ones; ids are in
        page order, so walking them yields the sorted entry list.
        """
        stack = self._stack
        touched = np.zeros(len(self._unique), dtype=bool)
        touched[self._seeded_ids] = True
        touched[stack.page_ids[self._begin:self._end]] = True
        evicted = stack.evicted_ids[self._begin:self._end]
        touched[evicted[evicted >= 0]] = True
        pids = np.flatnonzero(touched)
        unique = self._unique.tolist()
        below, above, on = stack.next, stack.prev, stack.on
        entries = [
            [
                page,
                None if below[pid] == -1 else unique[below[pid]],
                None if above[pid] == -1 else unique[above[pid]],
                bool(on[pid]),
            ]
            for page, pid in zip(self._unique[pids].tolist(), pids.tolist())
        ]
        top = None if stack.top == -1 else unique[stack.top]
        return {"top": top, "entries": entries}

    def buffer_snapshot(self) -> BufferSnapshot:
        """The prefetch buffer's canonical snapshot (pages LRU first)."""
        state, seed = self._state, self._buffer_seed
        pages = list(state["buf"])
        if self._stack is not None:
            pages = self._unique[pages].tolist()
        # Inserts add an entry, evictions and hits remove one, so the
        # population change gives the hits without counting them.
        hits = (
            seed.hits
            + len(seed.pages)
            + (state["ins"] - seed.inserted)
            - (state["ev"] - seed.evicted_unused)
            - state["bn"]
        )
        return BufferSnapshot(
            capacity=seed.capacity,
            hits=hits,
            lookups=seed.lookups + self.processed,
            inserted=state["ins"],
            refreshed=state["rf"],
            evicted_unused=state["ev"],
            pages=pages,
        )

    def write_back(self, prefetcher: Prefetcher) -> None:
        """Train ``prefetcher`` to the kernel's current state."""
        if self.processed:
            restore_prefetcher(self.mechanism_snapshot(), prefetcher)


def replay_compiled(
    miss_trace: MissTrace,
    prefetcher: Prefetcher,
    buffer_entries: int = 16,
    max_prefetches_per_miss: int = 0,
) -> "PrefetchRunStats":
    """Compiled equivalent of :func:`~repro.sim.two_phase.replay_prefetcher`.

    One mechanism, fresh or trained, as a one-class kernel: the
    instance's state seeds the loop and the final state is written back
    into it, so canonical snapshots of the instance agree between
    engines after any sequence of replays. Raises
    :class:`~repro.errors.ConfigurationError` when the mechanism has
    no compiled loop.
    """
    issued_before = prefetcher.prefetches_issued
    overhead_before = prefetcher.overhead_ops_total
    kernel = ReplayKernel(
        miss_trace,
        prefetcher,
        snapshot_buffer(PrefetchBuffer(buffer_entries)),
        max_prefetches_per_miss,
    )
    kernel.run(0, len(miss_trace))
    kernel.write_back(prefetcher)
    return replay_stats(
        miss_trace, prefetcher.label, kernel.counters(), issued_before, overhead_before
    )
