"""Executable documentation: every ``python`` snippet in the top-level
docs must actually run.

README.md and EXPERIMENTS.md carry worked examples (build/verify/execute,
fault injection, recovery, tracing, the static check suite, the eq. (8)
model gap). Docs rot silently; this gate extracts each fenced
`````python`` block and executes it, so an API rename or a changed
diagnostic breaks CI instead of the first reader.

Blocks within one document execute cumulatively in a shared namespace —
later snippets may reuse names (``sched``, ``machine``, ``plan``) bound
by earlier ones, exactly as a reader working top-to-bottom would. Each
document runs chdir'ed into a temp directory because some snippets write
files (the README tracing example emits ``trace.json``/``metrics.json``).

The shared namespace is also a hazard: a name bound at paper scale (the
65 536-rank ``sched``/``machine`` of the large-p fence) once leaked into
two later fences that silently simulated it materialized, and cost the
suite five minutes.  Each document therefore runs under a wall-clock
budget, so a leaked large-p name fails loudly instead.
"""

import re
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Documents whose python snippets are part of the contract. Each entry
#: is (file, minimum snippet count) — the floor catches a refactor that
#: silently drops the fences this gate is meant to protect.
DOCUMENTS = [
    ("README.md", 5),
    ("EXPERIMENTS.md", 1),
]

#: Wall-clock budget (seconds) for all of one document's snippets.
DOC_BUDGET_S = 60.0

_FENCE = re.compile(r"^```python[ \t]*\n(.*?)^```", re.DOTALL | re.MULTILINE)


def extract_snippets(path: Path):
    return _FENCE.findall(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("doc,min_snippets", DOCUMENTS,
                         ids=[d for d, _ in DOCUMENTS])
def test_doc_snippets_execute(doc, min_snippets, tmp_path, monkeypatch):
    path = ROOT / doc
    snippets = extract_snippets(path)
    assert len(snippets) >= min_snippets, (
        f"{doc} has {len(snippets)} python snippet(s), expected at least "
        f"{min_snippets} — did a doc edit drop a fenced example?"
    )
    monkeypatch.chdir(tmp_path)  # snippets may write trace/metrics files
    namespace = {"__name__": f"doc::{doc}"}
    started = time.monotonic()
    for index, source in enumerate(snippets):
        code = compile(source, f"{doc} [python snippet #{index}]", "exec")
        try:
            exec(code, namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(
                f"{doc} python snippet #{index} raised "
                f"{type(exc).__name__}: {exc}\n--- snippet ---\n{source}"
            )
    elapsed = time.monotonic() - started
    assert elapsed < DOC_BUDGET_S, (
        f"{doc} snippets took {elapsed:.0f} s (budget {DOC_BUDGET_S:.0f} s) "
        f"— is a later fence re-using a paper-scale name bound earlier?"
    )


@pytest.mark.parametrize("doc", ["README.md", "CONTRIBUTING.md"])
def test_docs_mention_every_console_script(doc):
    """Each installed CLI verb is discoverable from the entry docs.

    Both README.md and CONTRIBUTING.md enumerate the ``repro-*``
    surface; a verb added to pyproject without a mention in either is
    invisible to new users *and* new contributors, so the pin covers
    both documents (this is the gate that caught the enumerations going
    stale at ten verbs when ``repro-serve`` landed as the eleventh).
    """
    import tomllib

    scripts = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    )["project"]["scripts"]
    text = (ROOT / doc).read_text(encoding="utf-8")
    missing = [name for name in scripts if name not in text]
    assert not missing, f"console scripts absent from {doc}: {missing}"
