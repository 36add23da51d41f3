"""Every metric family has a reader.

Each ``observe``/``set``/``inc`` runs on a path the smoke bench's
telemetry-overhead gate times, so a family nothing reads is pure cost.
This source scan keeps the registry honest: every family that ``src/``
registers through ``REGISTRY.counter/gauge/histogram`` must be named
somewhere that reads it:

- an SLO rule in ``src/repro/obs/rules.py``;
- the ``GET /stats`` digest, ``ExperimentService._metrics_summary``
  (by name, or through the module-level variable it was bound to);
- the CI workflow (``.github/workflows/ci.yml``);
- the smoke benchmark (``benchmarks/smoke.py``);
- a test other than this one.

A registration is found in Python tokens, so a family named only in a
docstring or comment does not count as registered. A reader may name a
histogram by one of the journal's derived series (``<name>_p99`` …).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

#: Readers outside ``tests/``; every test file but this one reads too.
READERS = (
    "src/repro/obs/rules.py",
    ".github/workflows/ci.yml",
    "benchmarks/smoke.py",
)
SUMMARY_MODULE = "src/repro/service/server.py"
SUMMARY_METHOD = "_metrics_summary"

#: Series the metrics journal derives from a histogram family.
DERIVED_SUFFIXES = ("count", "sum", "bucket", "p50", "p90", "p99")

KINDS = frozenset({"counter", "gauge", "histogram"})


def registrations(source: str) -> list[tuple[str | None, str]]:
    """``(bound variable or None, family)`` for each ``REGISTRY.<kind>("name"``."""
    tokens = [
        token
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type in (tokenize.NAME, tokenize.OP, tokenize.STRING)
    ]
    found = []
    for i in range(len(tokens) - 4):
        registry, dot, kind, paren, name = tokens[i : i + 5]
        if (
            registry.string == "REGISTRY"
            and dot.string == "."
            and kind.string in KINDS
            and paren.string == "("
            and name.type == tokenize.STRING
        ):
            bound = None
            if i >= 2 and tokens[i - 1].string == "=":
                bound = tokens[i - 2].string
            found.append((bound, ast.literal_eval(name.string)))
    return found


def names(family: str, text: str) -> bool:
    """True when ``text`` names ``family`` or one of its derived series."""
    suffixes = "|".join(DERIVED_SUFFIXES)
    return re.search(rf"\b{family}(?:_(?:{suffixes}))?\b", text) is not None


def summary_reads(source: str) -> str:
    """The summary method's source, with bound variables spelled out as
    the family names they were registered under."""
    tree = ast.parse(source)
    method = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == SUMMARY_METHOD
    )
    text = ast.get_source_segment(source, method)
    for bound, family in registrations(source):
        if bound is not None:
            text = re.sub(rf"\b{bound}\b", family, text)
    return text


def _reader_texts() -> list[str]:
    this = Path(__file__).resolve()
    texts = [(ROOT / rel).read_text() for rel in READERS]
    texts += [
        path.read_text()
        for path in sorted((ROOT / "tests").rglob("*.py"))
        if path.resolve() != this
    ]
    texts.append(summary_reads((ROOT / SUMMARY_MODULE).read_text()))
    return texts


def _registered() -> dict[str, str]:
    return {
        family: str(path.relative_to(ROOT))
        for path in sorted((ROOT / "src").rglob("*.py"))
        for _, family in registrations(path.read_text())
    }


def test_every_registered_family_has_a_reader():
    registered = _registered()
    assert "repro_http_requests_total" in registered  # the scan sees code
    texts = _reader_texts()
    unread = sorted(
        f"{family} ({where})"
        for family, where in registered.items()
        if not any(names(family, text) for text in texts)
    )
    assert not unread, (
        "metric families nothing reads; delete them or add their reader: "
        + ", ".join(unread)
    )


def test_scan_finds_only_code_registrations():
    source = (
        '"""Docs: REGISTRY.counter("repro_doc_total")."""\n'
        "# REGISTRY.gauge(\"repro_comment\")\n"
        "_OBS_X = REGISTRY.histogram(\n"
        '    "repro_x_seconds",\n'
        '    "help",\n'
        ")\n"
        'REGISTRY.counter("repro_y_total").inc()\n'
    )
    assert registrations(source) == [
        ("_OBS_X", "repro_x_seconds"),
        (None, "repro_y_total"),
    ]


def test_derived_series_name_their_family():
    assert names("repro_x_seconds", 'metric="repro_x_seconds_p99"')
    assert names("repro_x_seconds", "repro_x_seconds")
    assert not names("repro_x_seconds", "repro_x_seconds_total")
    assert not names("repro_x", "repro_x_seconds")


def test_summary_reads_bound_variables():
    source = (
        '_OBS_H = REGISTRY.histogram("repro_h_seconds", "help")\n'
        '_OBS_U = REGISTRY.gauge("repro_unread", "help")\n'
        "class S:\n"
        f"    def {SUMMARY_METHOD}(self):\n"
        "        return _OBS_H.summary()\n"
    )
    text = summary_reads(source)
    assert names("repro_h_seconds", text)
    assert not names("repro_unread", text)
