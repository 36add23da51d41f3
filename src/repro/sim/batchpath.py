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
  recency stack and counters kept live between windows, and canonical
  :mod:`repro.ckpt` session blobs written straight from them on
  demand. It is the engine under :class:`~repro.ckpt.ReplaySession`,
  so streaming sessions and checkpointed runs replay at compiled
  speed.

Each generated loop replays one class: one mechanism configuration
and its prefetch buffer. MP, DP, DP-PC and DP-2 share the paper's
r-row, s-slot prediction table, so one emitter
(:func:`_emit_slot_table`) writes all four loops over one of four
table layouts (:func:`_layout`): an unbounded ``dict``, per-set
insertion-ordered dicts (``sets``, first key = LRU), direct-mapped
slot lists (``dm``), or direct-mapped two-slot rows as flat parallel
arrays (``dm2``). The prefetch buffer is an insertion-ordered dict
with a local population counter; the statistics are integer counters.
Every constant (rows, ways, slots, buffer capacity, clamp, warm-up
boundary, degrees) is inlined, and the source is ``compile()``d once
per shape and memoized. A class's state lives in one dict, its
registers under the live-field names its snapshot class declares
(``prev_page``, ``degree``, ...); the loop loads it into locals and
stores it back on exit, so a loop can stop anywhere and continue.

A loop reads precomputed per-miss lists beside the pages and does only
table and buffer work. The slot tables' keys and values come from
:meth:`_StreamKeys.rule`, the engine's one copy of their four key
rules. RP's stack neighbours come from :class:`_RecencyStack` (PTEs
keyed by page number, as in the reference page table), since its
recency stack depends on the miss stream alone. A batch shares one
fresh pass of each, kept in the trace's memo. A kernel applies the
rules to each window from its own registers, which a trained or
resumed kernel may hold for a history other than the stream's, and
seeds, advances and exports its own stack.

The engine keeps no family table of its own. A mechanism's family is
its :class:`~repro.ckpt.snapshots.MechanismSnapshot` class
(:func:`~repro.ckpt.snapshots.family_of`), and that declaration is
read for everything else: a configuration is the table's rows and
ways followed by the declared ``config`` fields, ``row_codec`` says
whether there is a table, and ``live`` names the registers. Per-stream
data — the ``pcs`` and ``pages`` lists and the :class:`_StreamKeys`
analysis — lives in the :class:`~repro.mem.trace.MissTrace` memo.

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
import operator
from itertools import islice

from repro.ckpt.codec import Hole, blob_writer, int_bytes, list_header, value_bytes
from repro.ckpt.session import SessionSnapshot
from repro.ckpt.snapshots import (
    AdaptiveSequentialSnapshot,
    BufferSnapshot,
    DistancePairSnapshot,
    DistanceSnapshot,
    MarkovSnapshot,
    MechanismSnapshot,
    NullSnapshot,
    PCDistanceSnapshot,
    RecencySnapshot,
    SequentialSnapshot,
    StrideSnapshot,
    TableSnapshot,
    family_of,
    restore_prefetcher,
    snapshot_buffer,
    snapshot_prefetcher,
)
from repro.core.distance_pair import pack_distance_pair
from repro.core.pc_distance import pack_pc_distance
from repro.errors import ConfigurationError
from repro.mem.trace import MissTrace
from repro.prefetch.base import Prefetcher
from repro.sim.two_phase import replay_stats
from repro.tlb.prefetch_buffer import PrefetchBuffer


def supports(prefetcher: Prefetcher) -> bool:
    """True when the compiled engine has a loop for this mechanism.

    The family is the snapshot family of the exact class
    (:func:`~repro.ckpt.snapshots.family_of`): user subclasses may
    override behavior the generated loops do not model, so they always
    take the reference engine.
    """
    return family_of(prefetcher) in _EMITTERS


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
    """The family's declared configuration, after a table's geometry."""
    family = family_of(prefetcher)
    if family not in _EMITTERS:
        raise ConfigurationError(
            f"compiled engine has no replay loop for "
            f"{type(prefetcher).__name__}; use engine='reference'"
        )
    config = tuple(getattr(prefetcher, name) for name in family.config)
    if family.row_codec is not None:
        config = (prefetcher.table.rows, prefetcher.table.ways, *config)
    return _SlotPlan(prefetcher.label, family, config, cap, clamp)


def _exact_sig(plan: _SlotPlan) -> tuple:
    """Emission signature of a configuration at its real geometry."""
    if plan.family.row_codec is not None:
        return (plan.family, plan.config[2:], plan.config[:2], plan.cap, plan.clamp)
    if plan.family is NullSnapshot:
        # Null never buffers or issues: cap and clamp cannot matter.
        return (NullSnapshot,)
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
    """The compiled engine's one copy of the key rules (:meth:`rule`),
    and one miss stream's analysis, kept in the trace's memo: each
    family's per-miss lists and key universe, the batch signatures and
    a fresh recency stack's pass.

    Shared by every thread that replays the same trace (the service's
    handler threads do), so each family's universe and key count are
    published together as one ``(unique, length)`` value: a reader can
    never see one without the other.
    """

    def __init__(self, pcs: list[int], pages: list[int]) -> None:
        self._pcs = pcs
        self._pages = pages
        self._streams: dict[type, tuple[list, ...]] = {}
        self._cache: dict[type, tuple[list[int], int]] = {}
        # (above, below, third, overhead): a fresh recency stack's
        # neighbour streams and pointer writes over the whole stream.
        self.rp: tuple[list, list, list, int] | None = None
        # (family, config, cap, clamp) -> (dedup_sig, emit_sig); the
        # equivalence analysis is a pure function of the trace and
        # those four plan fields, so repeat batches skip it entirely.
        self.sigs: dict[tuple, tuple[tuple, tuple]] = {}

    @staticmethod
    def rule(family, pcs, pages, prev_page=None, prev_distance=None) -> tuple[list, ...]:
        """The per-miss lists ``family``'s loop reads beside ``pages``,
        after the registers ``prev_page`` and ``prev_distance``: ASP's
        ``pcs``, or a slot table's ``(keys, values)``, the reference
        engine's ``_keys`` as one list each. MP keys a miss by its page,
        DP by its distance, DP-PC by (PC, distance), DP-2 by the last two
        distances; the value is the page (MP) or the distance. A key is
        ``None`` where the history cannot key the miss yet.
        """
        if family is StrideSnapshot:
            return (pcs,)
        if family not in _SLOT_TABLES:
            return ()
        if family is MarkovSnapshot or not pages:
            return pages, pages
        head = None if prev_page is None else pages[0] - prev_page
        distances = [head, *map(operator.sub, islice(pages, 1, None), pages)]
        if family is DistanceSnapshot:
            return distances, distances
        if family is PCDistanceSnapshot:
            pack, pairs = pack_pc_distance, zip(pcs, distances)
        else:
            # DP-2: a miss without a distance leaves the register as it was.
            before = [prev_distance, prev_distance if head is None else head]
            pack, pairs = pack_distance_pair, zip([*before, *distances[1:-1]], distances)
        keys = [None if a is None or b is None else pack(a, b) for a, b in pairs]
        return keys, distances

    def stream(self, family: type[MechanismSnapshot]) -> tuple[list, ...]:
        """:meth:`rule` over the whole stream, from fresh registers."""
        streams = self._streams.get(family)
        if streams is None:
            streams = self._streams.setdefault(family, self.rule(family, self._pcs, self._pages))
        return streams

    def universe(self, family: type[MechanismSnapshot]) -> tuple[list[int], int]:
        """``family``'s distinct keys in first-occurrence order, and the
        number of misses it keys."""
        cached = self._cache.get(family)
        if cached is not None:
            return cached
        keys = self.stream(family)[0]
        unique = dict.fromkeys(keys)
        unique.pop(None, None)
        cached = (list(unique), len(keys) - keys.count(None))
        self._cache[family] = cached
        return cached

    def never_hits(self, family: type[MechanismSnapshot]) -> bool:
        """True when ``family``'s key stream never repeats a key.

        Every table lookup then tag-misses (a key is only ever in the
        table once a *prior* lookup or successor update allocated it),
        so the mechanism issues zero prefetches for *any* geometry,
        slot count, buffer size, or clamp — all such configurations
        collapse into one all-zero class that runs no loop.
        """
        unique, length = self.universe(family)
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
    if plan.family.row_codec is not None:
        if keys.never_hits(plan.family):
            # No repeated key -> no tag hit -> no prefetch, ever. One
            # zero-cost class regardless of geometry/slots/cap/clamp.
            return ("zero",), ("zero",)
        tclass = _table_class(keys.universe(plan.family)[0], *exact[2])
        emit = exact if tclass != ("inf",) else exact[:2] + (None,) + exact[3:]
        return (plan.family, exact[1], tclass, plan.cap, plan.clamp), emit
    return exact, exact


def _layout(sig: tuple) -> str:
    """How a table class's state is laid out, for codegen and snapshots.

    Chosen from geometry and slot count alone. The slot-list tables
    (MP, DP, DP-PC, DP-2) take one of four layouts:

    - ``dict``: one unbounded dict (collapsed never-overflow geometry);
    - ``sets``: per-set insertion-ordered dicts (first key = LRU);
    - ``dm``: direct-mapped, parallel ``tag``/``sl`` arrays, one slot
      list per row;
    - ``dm2``: direct-mapped two-slot rows as parallel
      ``tag``/``cn``/``ma``/``mb`` arrays (count, MRU slot, LRU slot).

    ASP's stride rows hold no slot count; direct-mapped, they take
    ``stride_dm`` (parallel ``tag``/``ppg``/``str``/``sst`` arrays).
    """
    slots, geom = sig[1], sig[2]
    if geom is None:
        return "dict"
    if geom[1] != 1:
        return "sets"
    if not slots:
        return "stride_dm"
    return "dm2" if slots == (2,) else "dm"


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
window_misses += 1
window_hits += hit
if window_misses >= @WINDOW@:
    hr = window_hits / window_misses
    if hr > @RAISE@:
        degree = min(degree * 2, @MAXD@)
    elif hr < @LOWER@:
        degree = max(degree // 2, 1)
    window_misses = 0
    window_hits = 0
iss += degree
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
if not sc or sc[0] != v:
    if v in sc:
        sc.remove(v)
    sc.insert(0, v)
    if len(sc) > @SLOTS@:
        sc.pop()
"""

# Specialized MRU updates for tiny slot counts (the paper's common
# cases). For 2 slots, "move/insert v to the front and truncate" always
# ends as [v, old_front] when 2 entries exist, whether v was at index 1
# or absent, so the scan/remove/insert/pop sequence is two stores.
_SUCCESSOR_UPDATE_1 = """\
if not sc:
    sc.append(v)
elif sc[0] != v:
    sc[0] = v
"""

_SUCCESSOR_UPDATE_2 = """\
if not sc:
    sc.append(v)
elif sc[0] != v:
    if len(sc) == 2:
        sc[1] = sc[0]
        sc[0] = v
    else:
        sc.insert(0, v)
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


def _emit_none(sig, warmup):
    # Null never installs; it only probes whatever a seeded buffer
    # holds (a fresh one stays empty).
    return (), (), [], _probe_lines("", "page", warmup), []


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
    return (), (), [], out, []


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
            "@EFF@": "degree" if not clamp else f"min(degree, {clamp})",
        },
        cap,
    )
    return (), tuple(sig[0].live), [], out, []


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
        return (("pcs", "pc"),), ("dt",), prologue, out, []
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
        return (("pcs", "pc"),), ("tag", "ppg", "str", "sst"), prologue, out, []
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
    return (("pcs", "pc"),), ("sets",), prologue, out, []


#: Slot-list tables, the paper's r-row, s-slot prediction table (Table
#: 1), compiled from the reference engine's one walk
#: (:class:`~repro.core.prediction_table.SlotTablePrefetcher`): ``(key
#: register, update guard, target base, aliases)``. The loop reads each
#: miss's key ``k`` and value ``v`` (:meth:`_StreamKeys.rule`) and
#: carries the previous key in ``pk``, loaded from and stored to the key
#: register. A slot value ``v`` issues ``v`` (MP) or ``base + v`` when
#: that is non-negative (the DP family, whose slots hold distances). The
#: update guard keeps a page from being its own successor in MP; the DP
#: family only needs a previous key. ``rule`` returns some of these
#: lists as one object (MP's keys and values are its pages, DP's values
#: are its keys), and the loop zips each list once: ``aliases`` is the
#: assignment chain, last name first bound, that names the rest.
_SLOT_TABLES: dict[type, tuple[str, str, str | None, tuple[str, ...]]] = {
    MarkovSnapshot: ("prev_page", "pk is not None and pk != k", None, ("k", "v", "page")),
    DistanceSnapshot: ("prev_distance", "pk is not None", "page", ("v", "k")),
    PCDistanceSnapshot: ("prev_key", "pk is not None", "page", ()),
    DistancePairSnapshot: ("prev_key", "pk is not None", "page", ()),
}


def _slot_targets(count, values, base, cap, clamp) -> list[str]:
    """A hit's prefetches: the slots' targets, counted and installed.

    ``values`` is either the two slot expressions of a two-slot row
    (unrolled, ``count`` its occupancy) or the name of a slot list to
    iterate. Installs run at lookup time, before the successor update
    can mutate the row; buffer inserts never touch the table, so this
    is the reference engine's materialize-at-predict order. A clamp
    collects the targets first, because ``issued`` counts every one.
    """
    take = ["pf.append(tg)"] if clamp else _insert_lines("", "tg", cap)

    def target(value):
        if base is None:
            return [f"tg = {value}", "iss += 1", *take]
        return [
            f"tg = {base} + {value}",
            "if tg >= 0:",
            "    iss += 1",
            *("    " + line for line in take),
        ]

    if isinstance(values, tuple):
        first, second = values
        lines = [f"n = {count}", "if n:"]
        lines += ["    " + line for line in target(first)]
        lines.append("    if n > 1:")
        lines += ["        " + line for line in target(second)]
    else:
        lines = [f"for sv in {values}:"]
        lines += ["    " + line for line in target("sv")]
    if clamp:
        lines = ["pf = []", *lines, f"for tg in pf[:{clamp}]:"]
        lines += _insert_lines("    ", "tg", cap)
    return lines


def _emit_slot_table(sig, warmup):
    """MP / DP / DP-PC / DP-2: the one slot-list table emitter.

    Buffer probe, then, for a keyed miss, the table body in the class's
    layout (:func:`_layout`): look the key up, install a hit's targets
    or allocate an empty row, and record the miss's value in the
    previous key's row (MRU first). :data:`_SLOT_TABLES` holds what
    differs by family.
    """
    family = sig[0]
    (slots,), geom, cap, clamp = sig[1], sig[2], sig[3], sig[4]
    register, guard, base, aliases = _SLOT_TABLES[family]
    layout = _layout(sig)
    if clamp >= slots:
        # A row yields at most ``slots`` targets: the clamp never binds.
        clamp = 0
    if layout == "dm2":
        hit = _slot_targets("cn[r]", ("ma[r]", "mb[r]"), base, cap, clamp)
    else:
        values = ("row[0]", "row[1]") if slots == 2 else "row"
        hit = _slot_targets("len(row)", values, base, cap, clamp)
    prologue: list[str] = []
    out: list[str] = []
    if layout == "dict":
        prologue.append("dg = dt.get")
        out.append("row = dg(k)")
        out.append("if row is None:")
        out.append("    dt[k] = []")
        out.append("else:")
        upd = ["sc = dg(pk)", "if sc is None:", "    sc = []", "    dt[pk] = sc"]
        names: tuple = ("dt",)
    elif layout == "sets":
        rows, ways = geom
        num_sets = rows // ways
        _bind_set(num_sets, "k", out, prologue)
        out.append("row = ts.pop(k, None)")
        out.append("if row is None:")
        out.append(f"    if len(ts) >= {ways}:")
        out.append("        del ts[next(iter(ts))]")
        out.append("    ts[k] = []")
        out.append("else:")
        out.append("    ts[k] = row")
        ps = "ts" if num_sets == 1 else "ps"
        upd = [] if num_sets == 1 else [f"ps = sets[{_mod('pk', num_sets)}]"]
        upd += [
            f"sc = {ps}.pop(pk, None)",
            "if sc is not None:",
            f"    {ps}[pk] = sc",
            "else:",
            f"    if len({ps}) >= {ways}:",
            f"        del {ps}[next(iter({ps}))]",
            "    sc = []",
            f"    {ps}[pk] = sc",
        ]
        names = ("sets",)
    else:
        # Direct-mapped: tags start at an unmatchable None sentinel
        # (distances may be any integer), so no occupancy array is
        # consulted in the hot path.
        rows = geom[0]
        out.append(f"r = {_mod('k', rows)}")
        out.append("if tag[r] != k:")
        out.append("    tag[r] = k")
        if layout == "dm2":
            # Two-slot rows as flat (count, MRU, LRU) arrays: no
            # per-row list, and the MRU update is subscript stores.
            # [v] is (1, v, _) and [a, b] is (2, a, b).
            out.append("    cn[r] = 0")
            out.append("else:")
            upd = [
                f"pr = {_mod('pk', rows)}",
                "if tag[pr] != pk:",
                "    tag[pr] = pk",
                "    ma[pr] = v",
                "    cn[pr] = 1",
                "elif cn[pr] == 0:",
                "    ma[pr] = v",
                "    cn[pr] = 1",
                "elif ma[pr] != v:",
                "    mb[pr] = ma[pr]",
                "    ma[pr] = v",
                "    cn[pr] = 2",
            ]
            names = ("tag", "cn", "ma", "mb")
        else:
            out.append("    sl[r] = []")
            out.append("else:")
            out.append("    row = sl[r]")
            upd = [
                f"pr = {_mod('pk', rows)}",
                "if tag[pr] == pk:",
                "    sc = sl[pr]",
                "else:",
                "    tag[pr] = pk",
                "    sc = []",
                "    sl[pr] = sc",
            ]
            names = ("tag", "sl")
    out.extend("    " + line for line in hit)
    if layout != "dm2":
        upd += _successor_update(slots).splitlines()
    out.append(f"if {guard}:")
    out.extend("    " + line for line in upd)
    out.append("pk = k")
    body = _probe_lines("", "page", warmup)
    if aliases:
        body.append(" = ".join(aliases))
    body.append("if k is not None:")
    body += ["    " + line for line in out]
    prologue.insert(0, f"pk = state[{register!r}]")
    # The other registers follow from the window's last page and value.
    epilogue = [f"state[{register!r}] = pk", "if pages:", "    state['prev_page'] = pages[-1]"]
    if "prev_distance" in family.live:
        epilogue += ["    if values[-1] is not None:", "        state['prev_distance'] = values[-1]"]
    streams = tuple(
        (param, None if name in aliases[:-1] else name)
        for param, name in (("keys", "k"), ("values", "v"))
    )
    return streams, names, prologue, body, epilogue


def _emit_recency(sig, warmup):
    """RP: buffer work over the precomputed stack neighbours."""
    (variant_three,), cap, clamp = sig[1], sig[2], sig[3]
    third = "rthird" if variant_three else None
    streams = (("above", "rabove"), ("below", "rbelow"), ("third", third))
    out = _probe_lines("", "page", warmup)
    if not clamp:
        # No clamp: install each stack neighbor directly, in the same
        # above-then-below(-then-third) order the list would have had.
        out.append("if rabove is not None:")
        out.append("    iss += 1")
        out.extend(_insert_lines("    ", "rabove", cap))
        out.append("if rbelow is not None:")
        out.append("    iss += 1")
        out.extend(_insert_lines("    ", "rbelow", cap))
        if variant_three:
            out.append("if rthird is not None:")
            out.append("    iss += 1")
            out.extend(_insert_lines("    ", "rthird", cap))
        return streams, (), [], out, []
    out.append("pf = []")
    out.append("if rabove is not None:")
    out.append("    pf.append(rabove)")
    out.append("if rbelow is not None:")
    out.append("    pf.append(rbelow)")
    if variant_three:
        out.append("if rthird is not None:")
        out.append("    pf.append(rthird)")
    out.append("if pf:")
    out.append("    iss += len(pf)")
    out.append(f"    if len(pf) > {clamp}:")
    out.append(f"        pf = pf[:{clamp}]")
    out.append("    for tg in pf:")
    out.extend(_insert_lines("        ", "tg", cap))
    return streams, (), [], out, []


#: Family (its snapshot class) -> emitter returning, for one class,
#: ``(streams, names, prologue, body, epilogue)``: the per-miss lists the
#: loop takes after ``pages`` as ``(parameter, loop name)`` pairs (no loop
#: name: taken, not read), the state entries held in locals beyond the
#: buffer's, and the lines run before the loop, per miss and after it.
_EMITTERS = {
    NullSnapshot: _emit_none,
    SequentialSnapshot: _emit_seq,
    AdaptiveSequentialSnapshot: _emit_aseq,
    StrideSnapshot: _emit_stride,
    MarkovSnapshot: _emit_slot_table,
    DistanceSnapshot: _emit_slot_table,
    PCDistanceSnapshot: _emit_slot_table,
    DistancePairSnapshot: _emit_slot_table,
    RecencySnapshot: _emit_recency,
}


def _generate(warmup: int, sig: tuple) -> str:
    """Source of the loop for one class.

    The function replays one window: ``pages`` are its entries,
    ``start`` the global index of the first, and the family's per-miss
    lists follow: ASP's ``pcs``, a slot table's ``keys`` and ``values``
    (:meth:`_StreamKeys.rule`), RP's stack neighbours
    (:meth:`_RecencyStack.window`). Buffer, counters, tables and
    registers come in through ``state`` and go back out the same way,
    so consecutive calls continue one replay.
    """
    streams, names, prologue, body, epilogue = _EMITTERS[sig[0]](sig, warmup)
    names = _BUFFER + names
    pad = "    "
    params = "".join(f" {param}," for param, _ in streams)
    lines = [
        # Hot-loop builtins bound as defaults: LOAD_FAST instead of
        # LOAD_GLOBAL for every call per miss.
        f"def _loop(state, start, pages,{params}",
        "          len=len, next=next, iter=iter, min=min, max=max, zip=zip,",
        "          range=range):",
    ]
    lines.extend(f"{pad}{name} = state[{name!r}]" for name in names)
    # bp pre-binds the buffer's bound ``pop``: the dict object never
    # changes, and probes/installs are the hottest calls in the loop.
    lines.append(pad + "bp = buf.pop")
    lines.extend(pad + line for line in prologue)
    # Zip exactly the lists the body reads; the global index is only
    # materialized when a warm-up boundary must be compared.
    loop_names, iters = ["page"], ["pages"]
    if warmup:
        loop_names.insert(0, "index")
        iters.insert(0, "range(start, start + len(pages))")
    for param, name in streams:
        if name:
            loop_names.append(name)
            iters.append(param)
    if len(iters) == 1:
        lines.append(pad + "for page in pages:")
    else:
        lines.append(
            f"{pad}for {', '.join(loop_names)} in zip({', '.join(iters)}):"
        )
    lines.extend(pad + pad + line for line in body)
    lines.extend(f"{pad}state[{name!r}] = {name}" for name in names)
    lines.extend(pad + line for line in epilogue)
    lines.append(pad + "return None")
    return "\n".join(lines) + "\n"


#: Compiled loops memoized by (warmup, emission signature) — a sweep's
#: streams share their classes' shapes, so codegen runs once per shape.
_CODE_CACHE: dict[tuple, object] = {}

def _compiled(warmup: int, sig: tuple):
    key = (warmup, sig)
    fn = _CODE_CACHE.get(key)
    if fn is None:
        namespace: dict = {}
        exec(compile(_generate(warmup, sig), "<repro.sim.batchpath>", "exec"), namespace)
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
    mechanism: MechanismSnapshot | Prefetcher,
    buffer: BufferSnapshot | None = None,
) -> dict:
    """One class's loop state, seeded from ``mechanism`` and ``buffer``.

    ``mechanism`` is a canonical snapshot, or a fresh instance (a
    batch's class representative, whose tables are empty). Either way
    the registers are the live fields its family's snapshot declares.
    """
    state = {"buf": {}, "bn": 0, "pb": 0, "iss": 0, "ins": 0, "rf": 0, "ev": 0}
    if buffer is not None:
        state.update(
            buf=dict.fromkeys(buffer.pages),
            bn=len(buffer.pages),
            ins=buffer.inserted,
            rf=buffer.refreshed,
            ev=buffer.evicted_unused,
        )
    family = sig[0]
    snapshot = isinstance(mechanism, MechanismSnapshot)
    for field, attribute in family.live.items():
        state[field] = getattr(mechanism, field if snapshot else attribute)
    if family.row_codec is not None:
        state.update(_table_state(sig, mechanism.table if snapshot else None))
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
    if layout == "dm2":
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


# ---------------------------------------------------------------------------
# Session writers: canonical repro.ckpt/v1 session blobs straight from loop
# state, byte-identical to the oracle encoding of the same snapshot.
# ---------------------------------------------------------------------------

#: Session-blob writers memoized like the loops, by the constants their
#: template encodes. Those are keyed with their types: ``variant_three=1``
#: and ``=True`` replay alike (one loop) but encode apart (``i`` vs ``T``).
_WRITERS: dict[tuple, object] = {}


def _session_writer(seed: MechanismSnapshot, capacity: int, clamp: int):
    """The :func:`~repro.ckpt.codec.blob_writer` of one kernel shape.

    Its template is a :class:`~repro.ckpt.session.SessionSnapshot` that
    holds the shape's configuration — the family's declared ``config``
    fields, the table's rows and ways, the buffer capacity and the
    clamp — with every other field a :class:`~repro.ckpt.codec.Hole` of
    the same name (``sets`` for a table's contents).
    """
    constants = [getattr(seed, name) for name in type(seed).config]
    table = getattr(seed, "table", None)
    if table is not None:
        constants += [table.rows, table.ways]
    constants += [capacity, clamp]
    key = (type(seed), *((type(value), value) for value in constants))
    writer = _WRITERS.get(key)
    if writer is not None:
        return writer

    def holes(cls, *keep: str) -> dict:
        return {f.name: Hole(f.name) for f in dataclasses.fields(cls) if f.name not in keep}

    mechanism = holes(type(seed), *type(seed).config)
    if "table" in mechanism:
        mechanism["table"] = dataclasses.replace(seed.table, sets=Hole("sets"))
    skeleton = SessionSnapshot(
        **holes(SessionSnapshot, "max_prefetches_per_miss", "mechanism", "buffer"),
        max_prefetches_per_miss=clamp,
        mechanism=dataclasses.replace(seed, **mechanism),
        buffer=BufferSnapshot(capacity=capacity, **holes(BufferSnapshot, "capacity")),
    )
    writer = blob_writer(skeleton.kind, skeleton.to_payload())
    if len(_WRITERS) >= 256:
        _WRITERS.clear()
    _WRITERS[key] = writer
    return writer


def _table_bytes(sig: tuple, state: dict) -> bytes:
    """``TableSnapshot.sets`` of live loop state (LRU -> MRU per set), encoded."""
    layout = _layout(sig)
    ib = int_bytes
    pair, empty = list_header(2), list_header(0)
    if layout == "sets":
        parts = [list_header(len(state["sets"]))]
        for live in state["sets"]:
            parts.append(list_header(len(live)))
            for key, payload in live.items():
                parts += (pair, ib(key), list_header(len(payload)), *map(ib, payload))
        return b"".join(parts)
    # Direct-mapped: one set per row, holding its one pair or nothing.
    tag = state["tag"]
    row = list_header(1) + pair
    parts = [list_header(len(tag))]
    if layout == "stride_dm":
        triple = list_header(3)
        for key, prev_page, stride, fsm in zip(tag, state["ppg"], state["str"], state["sst"]):
            if key is None:
                parts.append(empty)
            else:
                parts += (row, ib(key), triple, ib(prev_page), ib(stride), ib(fsm))
    elif layout == "dm2":
        one = list_header(1)
        for key, count, first, second in zip(tag, state["cn"], state["ma"], state["mb"]):
            if key is None:
                parts.append(empty)
            elif count == 2:
                parts += (row, ib(key), pair, ib(first), ib(second))
            elif count:
                parts += (row, ib(key), one, ib(first))
            else:
                parts += (row, ib(key), empty)
    else:
        for key, slots in zip(tag, state["sl"]):
            if key is None:
                parts.append(empty)
            else:
                parts += (row, ib(key), list_header(len(slots)), *map(ib, slots))
    return b"".join(parts)


class _RecencyStack:
    """RP's recency stack, threaded through PTEs keyed by page number.

    The one owner of RP's compiled state: built empty for a batch, or
    seeded from a :class:`~repro.ckpt.snapshots.RecencySnapshot` for a
    kernel; advanced window by window; exported as the snapshot's
    ``top`` and ``entries``. ``ptes`` maps a page to its PTE's RP
    fields ``[next, prev, on_stack]``, the reference page table's
    layout and the snapshot's; ``None`` is the no-link value, as there,
    so any page number, ``-1`` included, can be linked.

    The stack's evolution depends only on the miss stream — never on
    any mechanism config — so :meth:`window` yields the (above, below,
    third) neighbours every miss in the window sees, and each RP class
    then reduces to buffer work over those arrays. ``third`` is
    pre-filtered exactly as the reference engine filters it (absent,
    off-stack, or equal to the missing page -> ``None``).
    """

    def __init__(self, miss_trace: MissTrace, seed: RecencySnapshot | None = None):
        self.pages = miss_trace._list("pages")
        # Kept as an array: a window converts only its own slice.
        self.evicted = miss_trace.evicted
        self.ptes: dict[int, list] = {}
        self.top = None
        #: Pointer writes so far, and those of the most recent miss
        #: (RP's ``last_overhead_ops``).
        self.overhead = 0
        self.last_overhead = 0
        if seed is not None:
            self.ptes = {
                page: [below, above, bool(on_stack)]
                for page, below, above, on_stack in seed.entries
            }
            self.top = seed.top

    def window(self, start: int, stop: int) -> tuple[list, list, list]:
        """Advance over ``[start, stop)``; returns the window's
        ``(above, below, third)`` neighbours.

        A link always names a page with a PTE (a pushed page, or a
        seeded one: ``validate`` rejects dangling links), so links are
        followed by subscript.
        """
        ptes = self.ptes
        rp_top = self.top
        overhead = self.overhead
        above: list[int | None] = []
        below: list[int | None] = []
        third: list[int | None] = []
        for rpage, revt in zip(
            _window(self.pages, start, stop), self.evicted[start:stop].tolist()
        ):
            pte = ptes.get(rpage)
            if pte is not None and pte[2]:
                rbelow = pte[0]
                rabove = pte[1]
                if rabove is not None:
                    ptes[rabove][0] = rbelow
                else:
                    rp_top = rbelow
                if rbelow is not None:
                    ptes[rbelow][1] = rabove
                pte[0] = None
                pte[1] = None
                pte[2] = False
                unlinked = 2
            else:
                if pte is None:
                    # The miss creates the page's PTE, as the
                    # reference page table does.
                    ptes[rpage] = [None, None, False]
                rbelow = None
                rabove = None
                unlinked = 0
            overhead += unlinked
            if revt != -1:  # NO_EVICTION
                pushed = ptes.get(revt)
                if pushed is None:
                    ptes[revt] = [rp_top, None, True]
                else:
                    if pushed[2]:
                        # Re-push of a threaded page: silently unlink
                        # first (the reference stack does this inside
                        # push_top without charging extra overhead).
                        eb = pushed[0]
                        ea = pushed[1]
                        if ea is not None:
                            ptes[ea][0] = eb
                        else:
                            rp_top = eb
                        if eb is not None:
                            ptes[eb][1] = ea
                    pushed[0] = rp_top
                    pushed[1] = None
                    pushed[2] = True
                if rp_top is not None:
                    ptes[rp_top][1] = revt
                rp_top = revt
                overhead += 2
            above.append(rabove)
            below.append(rbelow)
            th = None
            if rbelow is not None:
                pte = ptes[rbelow]
                if pte[2]:
                    th = pte[0]
                    if th == rpage:
                        th = None
            third.append(th)
        if stop > start:
            self.last_overhead = unlinked + (2 if revt != -1 else 0)
        self.top = rp_top
        self.overhead = overhead
        return above, below, third

    def export(self) -> dict[str, bytes]:
        """The snapshot's ``top`` and ``entries`` (sorted by page),
        encoded."""
        ptes = self.ptes
        pages = sorted(ptes)
        # Each page encoded once: links name PTE pages, or None.
        encoded = dict(zip(pages, map(int_bytes, pages)))
        encoded[None] = value_bytes(None)
        flags = (value_bytes(False), value_bytes(True))
        head = list_header(4)
        parts = [list_header(len(pages))]
        for page in pages:
            below, above, on_stack = ptes[page]
            parts += (head, encoded[page], encoded[below], encoded[above], flags[on_stack])
        return {"top": encoded[self.top], "entries": b"".join(parts)}


def _window(values: list, start: int, stop: int) -> list:
    """``values[start:stop]``, without a copy for the whole list."""
    if start == 0 and stop == len(values):
        return values
    return values[start:stop]


# ---------------------------------------------------------------------------
# Batches: N fresh configs, one loop per equivalence class.
# ---------------------------------------------------------------------------


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
    pcs, pages = miss_trace._list("pcs"), miss_trace._list("pages")
    keys = miss_trace._derived(_StreamKeys, lambda: _StreamKeys(pcs, pages))

    class_of: dict[tuple, int] = {}
    emit_sigs: list[tuple] = []
    representatives: list[Prefetcher] = []
    slot_class: list[int] = []
    for plan, (prefetcher, _, _) in zip(plans, requests):
        cache_key = (plan.family, plan.config, plan.cap, plan.clamp)
        cached = keys.sigs.get(cache_key)
        if cached is None:
            cached = _sigs(plan, keys)
            keys.sigs[cache_key] = cached
        dedup_sig, emit_sig = cached
        index = class_of.get(dedup_sig)
        if index is None:
            index = len(emit_sigs)
            class_of[dedup_sig] = index
            emit_sigs.append(emit_sig)
            representatives.append(prefetcher)
        slot_class.append(index)

    rows = []
    for sig, representative in zip(emit_sigs, representatives):
        family = sig[0]
        if family == "zero":
            rows.append((0, 0, 0, 0, 0, 0))
            continue
        overhead = 0
        if family is RecencySnapshot:
            if keys.rp is None:
                stack = _RecencyStack(miss_trace)
                keys.rp = (*stack.window(0, len(pages)), stack.overhead)
            *streams, overhead = keys.rp
        else:
            streams = keys.stream(family)
        state = _slot_state(sig, representative)
        _compiled(miss_trace.warmup_misses, sig)(state, 0, pages, *streams)
        rows.append((
            state["pb"],
            state["iss"],
            overhead,
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
    :meth:`snapshot` writes the canonical session blob straight from
    that live state.

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
        # Seeded from a snapshot, or once a window has run, the instance
        # lags the kernel until the next write-back.
        self._instance_behind = mechanism is not None
        if mechanism is None:
            mechanism = snapshot_prefetcher(prefetcher)
        self._family = plan.family
        self._clamp = max_prefetches_per_miss
        self._writer = None
        self._sig = _exact_sig(plan)
        self._trace = miss_trace
        self._buffer_seed = buffer
        self._pcs, self._pages = miss_trace._list("pcs"), miss_trace._list("pages")
        self._begin = self._end = 0
        recency = plan.family is RecencySnapshot
        self._stack = _RecencyStack(miss_trace, mechanism) if recency else None
        self._state = _slot_state(self._sig, mechanism, buffer)
        self._state["pb"] = pb_hits
        # The live state now holds the snapshot's tables and page-table
        # entries; keep only its configuration and counters.
        if plan.family.row_codec is not None:
            mechanism = dataclasses.replace(
                mechanism, table=dataclasses.replace(mechanism.table, sets=[])
            )
        elif plan.family is RecencySnapshot:
            mechanism = dataclasses.replace(mechanism, entries=[])
        self._seed = mechanism

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
        pages = _window(self._pages, start, stop)
        if self._stack is not None:
            streams = self._stack.window(start, stop)
        else:
            # Keyed from the live registers, which a trained or resumed
            # kernel may hold for a history other than the stream's.
            state = self._state
            registers = state.get("prev_page"), state.get("prev_distance")
            pcs = _window(self._pcs, start, stop)
            streams = _StreamKeys.rule(self._family, pcs, pages, *registers)
        fn(self._state, start, pages, *streams)
        self._end = stop
        self._instance_behind = True

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

    def snapshot(
        self, offset: int = 0, issued_before: int = 0, overhead_before: int = 0
    ) -> SessionSnapshot:
        """The canonical session snapshot at the current position.

        Written straight from the live state by the shape's session
        writer: the returned snapshot carries the blob and decodes its
        fields only when one is read. ``offset`` and the counter
        baselines are the session's; the kernel tracks everything else.
        """
        state, seed, buffer = self._state, self._seed, self._buffer_seed
        pb_hits, issued, overhead, inserted, refreshed, evicted = self.counters()
        if not self.processed or self._family is NullSnapshot:
            # Null never calls ``account()``: its counters stay put.
            last_overhead = seed.last_overhead_ops
        else:
            # Every miss ends in ``account()``, which leaves the miss's
            # own overhead behind: 0 on chip, RP's pointer writes.
            last_overhead = self._stack.last_overhead if self._stack else 0
        scalars = {
            "offset": offset,
            "pb_hits_measured": pb_hits,
            "issued_before": issued_before,
            "overhead_before": overhead_before,
            "last_overhead_ops": last_overhead,
            "prefetches_issued": issued,
            "overhead_ops_total": overhead,
            # Inserts add an entry, evictions and hits remove one, so the
            # population change gives the hits without counting them.
            "hits": buffer.hits
            + len(buffer.pages)
            + (inserted - buffer.inserted)
            - (evicted - buffer.evicted_unused)
            - state["bn"],
            "lookups": buffer.lookups + self.processed,
            "inserted": inserted,
            "refreshed": refreshed,
            "evicted_unused": evicted,
        }
        scalars.update((field, state[field]) for field in type(seed).live)
        values = {name: value_bytes(value) for name, value in scalars.items()}
        pages = state["buf"]
        values["pages"] = list_header(len(pages)) + b"".join(map(int_bytes, pages))
        if self._family.row_codec is not None:
            values["sets"] = _table_bytes(self._sig, state)
        elif self._stack is not None:
            values.update(self._stack.export())
        if self._writer is None:
            self._writer = _session_writer(seed, buffer.capacity, self._clamp)
        return SessionSnapshot.written(self._writer(values))

    def write_back(self, prefetcher: Prefetcher) -> None:
        """Train ``prefetcher`` to the kernel's current state."""
        if self._instance_behind:
            restore_prefetcher(self.snapshot().mechanism, prefetcher)
            self._instance_behind = False


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
