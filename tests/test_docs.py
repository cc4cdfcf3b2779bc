"""The documentation stays navigable and honest.

Two guarantees, both cheap enough to gate every CI run:

* **no dead links** — every relative markdown link and every
  ``#fragment`` in ``docs/`` and the top-level guides resolves to a
  real file (and, for fragments, a real heading in it);
* **no stale API references** — the reader-facing pages (``docs/``,
  ``README.md`` and ``DESIGN.md``) never point readers at the
  deprecated config derivations that :mod:`repro.edge.deploy`
  superseded. ``ROADMAP.md`` and ``CHANGES.md`` are outside this grep:
  they name the shims to plan and record their removal.

The op tables in ``docs/edge.md`` and ``docs/dtm.md`` follow
``repro.edge.protocol.OPS``: every HTTP-routed op appears with its
route, and every ``admin.*`` / ``dtm.*`` op a table names exists.

The metric-catalogue drift gate lives in ``tests/test_stream.py``
alongside the generator it checks.
"""

import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


def _existing(*names):
    return [REPO / name for name in names if (REPO / name).exists()]


#: The pages a reader learns the API from.
READER_DOCS = sorted(
    [*(REPO / "docs").glob("*.md"), REPO / "README.md", *_existing("DESIGN.md")]
)

#: The markdown that makes promises worth checking: the reader-facing
#: pages plus the work plan, whose links must resolve too.
DOC_FILES = sorted(READER_DOCS + _existing("ROADMAP.md"))

#: Names the API no longer has: config derivations that
#: :mod:`repro.edge.deploy` superseded, and removed classes.
_STALE_APIS = (
    "EdgeConfig.worker_configs",
    "WorkerConfig.serve_config",
    "AsyncFleetClient",
)

_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)\)")
_HEADING = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
_CODE_FENCE = re.compile(r"```.*?```", re.DOTALL)


def _anchor(heading: str) -> str:
    """GitHub's heading -> fragment slug (the flavour our docs use)."""
    text = re.sub(r"[`*_]", "", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def _links(markdown: str):
    return _LINK.findall(_CODE_FENCE.sub("", markdown))


def _doc_ids():
    return [str(path.relative_to(REPO)) for path in DOC_FILES]


@pytest.mark.parametrize("doc", DOC_FILES, ids=_doc_ids())
def test_relative_links_resolve(doc):
    broken = []
    for target in _links(doc.read_text(encoding="utf-8")):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        resolved = (doc.parent / path_part).resolve() if path_part else doc
        if not resolved.exists():
            broken.append(f"{target} -> missing file {path_part}")
            continue
        if fragment and resolved.suffix == ".md":
            headings = _HEADING.findall(resolved.read_text(encoding="utf-8"))
            if fragment not in {_anchor(h) for h in headings}:
                broken.append(f"{target} -> no heading #{fragment}")
    assert not broken, (
        f"{doc.relative_to(REPO)} has dead links:\n  " + "\n  ".join(broken)
    )


def _stale_mentions(paths):
    """``(page, name)`` for every removed or deprecated name a page uses."""
    stale = []
    for doc in paths:
        text = doc.read_text(encoding="utf-8")
        stale += [(doc, needle) for needle in _STALE_APIS if needle in text]
    return stale


def test_docs_never_advertise_deprecated_config_derivations():
    stale = [
        f"{doc.relative_to(REPO)}: {needle}"
        for doc, needle in _stale_mentions(READER_DOCS)
    ]
    assert not stale, (
        "docs reference removed or deprecated names:\n  "
        + "\n  ".join(stale)
    )


def test_stale_api_grep_flags_each_name_and_covers_reader_pages(tmp_path):
    clean = tmp_path / "clean.md"
    clean.write_text("Derive worker configs with `EdgeDeployment`.\n",
                     encoding="utf-8")
    for needle in _STALE_APIS:
        page = tmp_path / "stale.md"
        page.write_text(f"Derive them with `{needle}()`.\n", encoding="utf-8")
        assert _stale_mentions([clean, page]) == [(page, needle)]
    reader_pages = {
        *(REPO / "docs").glob("*.md"), REPO / "README.md",
        *_existing("DESIGN.md"),
    }
    assert REPO / "docs" / "index.md" in reader_pages
    assert reader_pages <= set(READER_DOCS)


def test_every_docs_page_is_reachable_from_the_index():
    index = (REPO / "docs" / "index.md").read_text(encoding="utf-8")
    linked = {target.partition("#")[0] for target in _links(index)}
    missing = [
        page.name
        for page in sorted((REPO / "docs").glob("*.md"))
        if page.name != "index.md" and page.name not in linked
    ]
    assert not missing, f"docs/index.md never links: {missing}"


#: The pages whose tables document the op vocabulary.
_OP_DOCS = (REPO / "docs" / "edge.md", REPO / "docs" / "dtm.md")
_OP_ROW = re.compile(r"^\|\s*`((?:admin|dtm)\.\w+)`", re.MULTILINE)


def test_op_tables_follow_the_protocol_op_table():
    from repro.edge import protocol

    text = "\n".join(doc.read_text(encoding="utf-8") for doc in _OP_DOCS)
    routes = [
        f"{spec.http} {protocol.http_path(op)}"
        for op, spec in protocol.OPS.items()
        if spec.http
    ]
    assert [route for route in routes if route not in text] == []
    named = set(_OP_ROW.findall(text))
    assert named, "no admin.* / dtm.* op table rows found"
    assert sorted(named - set(protocol.OPS)) == []
