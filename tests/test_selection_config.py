"""The selection-config document: round trips that must be bit-exact.

The document (:class:`repro.selection.SelectionConfig`) is the paper's
§VI-G deliverable as a file, and its whole value is that it round-trips
**losslessly** in three directions:

* JSON — ``from_json(to_json())`` reproduces the document byte for byte
  (shortest-repr floats survive JSON exactly), including a document an
  earlier build wrote;
* tuner priors — re-tuning warm-started from :meth:`~repro.selection.
  SelectionConfig.sweep_priors` replays recorded timings instead of
  simulating, and the resulting document is bit-identical at any
  ``--jobs`` level and under either simulation engine;
* online selection — :meth:`~repro.selection.SelectionConfig.priors_for`
  warm-starts :class:`repro.adapt.OnlineSelector` /
  :func:`repro.adapt.run_adaptive` with exactly the healthy times the
  loop's own boot sweep would have measured, so the whole adaptive
  trail is unchanged.

Version skew and malformed input must fail loudly: a foreign, future
or malformed document raises :class:`~repro.errors.SelectionError`
naming the offending member, never a silent mis-tune or a bare Python
error.
"""

import json

import pytest

from repro.adapt import OnlineSelector, run_adaptive
from repro.errors import SelectionError
from repro.selection import (
    CONFIG_FORMAT,
    CONFIG_VERSION,
    Choice,
    SelectionConfig,
    tune,
)
from repro.simnet.machines import reference

P = 8
SIZES = [256, 4096]
MACHINE = reference(P)
COLLECTIVES = ("allreduce", "bcast")


#: A document written by an earlier build of the codec (three rules, a
#: fallback, two timing rows), byte for byte.
PINNED = """{
  "format": "repro-selection-config",
  "version": 1,
  "machine": "reference-8",
  "nranks": 8,
  "sizes": [
    256,
    4096
  ],
  "collectives": [
    "allreduce"
  ],
  "table": {
    "name": "pinned-reference-8",
    "rules": [
      {
        "collective": "allreduce",
        "algorithm": "recursive_multiplying",
        "k": 4,
        "min_ranks": 1,
        "max_ranks": null,
        "min_bytes": 0,
        "max_bytes": 4096
      },
      {
        "collective": "allreduce",
        "algorithm": "ring",
        "k": null,
        "min_ranks": 1,
        "max_ranks": null,
        "min_bytes": 4096,
        "max_bytes": null
      },
      {
        "collective": "bcast",
        "algorithm": "knomial",
        "k": 8,
        "min_ranks": 2,
        "max_ranks": 64,
        "min_bytes": 0,
        "max_bytes": null
      }
    ],
    "fallback": {
      "barrier": {
        "algorithm": "dissemination",
        "k": null
      }
    }
  },
  "timings": [
    {
      "collective": "allreduce",
      "algorithm": "recursive_multiplying",
      "k": 4,
      "root": 0,
      "nbytes": 256,
      "time": 1.0340000000000001e-05
    },
    {
      "collective": "allreduce",
      "algorithm": "ring",
      "k": null,
      "root": 0,
      "nbytes": 4096,
      "time": 3.1415926535897935e-05
    }
  ]
}"""


@pytest.fixture(scope="module")
def cfg():
    return tune(MACHINE, SIZES, collectives=COLLECTIVES)


def test_json_round_trip_is_bit_exact(cfg):
    text = cfg.to_json()
    again = SelectionConfig.from_json(text)
    assert again.to_json() == text
    assert again.machine == cfg.machine
    assert again.nranks == P
    assert again.sizes == SIZES
    assert again.collectives == COLLECTIVES
    assert again.timings == cfg.timings
    for coll in COLLECTIVES:
        for nbytes in SIZES:
            assert again.select(coll, P, nbytes) == cfg.select(
                coll, P, nbytes
            )


def test_save_load_round_trip(tmp_path, cfg):
    path = cfg.save(tmp_path / "cfg.json")
    assert SelectionConfig.load(path).to_json() == cfg.to_json()


def test_pinned_document_reserialises_byte_identically():
    again = SelectionConfig.from_json(PINNED)
    assert again.to_json() == PINNED
    assert again.select("bcast", 8, 1 << 20) == Choice("knomial", 8)
    assert again.select("barrier", 8, 0) == Choice("dissemination")


def _set(*path):
    """An edit setting the member at ``path[:-1]`` to ``path[-1]``."""
    *keys, last, value = path

    def edit(doc):
        node = doc
        for key in keys:
            node = node[key]
        node[last] = value
        return doc
    return edit


def _drop(*path):
    """An edit deleting the member at ``path``."""
    *keys, last = path

    def edit(doc):
        node = doc
        for key in keys:
            node = node[key]
        del node[last]
        return doc
    return edit


#: (id, edit of the pinned document, what the error must name).  Each
#: edit makes the document malformed; the parser must refuse it with a
#: SelectionError naming where.
MALFORMED = [
    ("array", lambda doc: [1, 2], "format"),
    ("version-bool", _set("version", True), "version"),
    ("nranks-string", _set("nranks", "abc"), "nranks must be an integer"),
    ("sizes-item", _set("sizes", ["x"]), r"sizes\[0\] must be an integer"),
    ("table-array", _set("table", []), "table must be an object"),
    ("no-rules", _set("table", {"no_rules": []}), "table.rules is missing"),
    ("rules-int", _set("table", "rules", 5), "table.rules must be a list"),
    ("rule-no-collective", _drop("table", "rules", 0, "collective"),
     r"table.rules\[0\].collective is missing"),
    ("rule-k-string", _set("table", "rules", 0, "k", "4"),
     r"table.rules\[0\].k must be an integer or null"),
    ("rule-unknown-algorithm", _set("table", "rules", 0, "algorithm", "nope"),
     r"table.rules\[0\]: .*nope"),
    ("fallback-array", _set("table", "fallback", [1]),
     "table.fallback must be an object"),
    ("fallback-unknown-algorithm",
     _set("table", "fallback", "barrier", "algorithm", "nope"),
     "table.fallback.barrier: .*nope"),
    ("timing-not-object", _set("timings", 0, 7),
     r"timings\[0\] must be an object"),
    ("timing-time-string", _set("timings", 0, "time", "fast"),
     r"timings\[0\].time must be a number"),
]


@pytest.mark.parametrize("edit,field", [(e, f) for _, e, f in MALFORMED],
                         ids=[i for i, _, _ in MALFORMED])
def test_malformed_documents_name_the_field(edit, field):
    text = json.dumps(edit(json.loads(PINNED)))
    with pytest.raises(SelectionError, match=field):
        SelectionConfig.from_json(text)


def test_serve_refuses_an_unreadable_grid(tmp_path, capsys):
    """A missing --grid path is a structured refusal, not a traceback."""
    from repro.cli import main_serve
    from repro.obs import OBS

    try:
        rc = main_serve(["--machine", "reference", "--nodes", "4",
                         "--collectives", "allreduce",
                         "--grid", str(tmp_path / "missing.json")])
    finally:
        OBS.disable()
        OBS.reset()
    assert rc == 2
    assert "missing.json" in capsys.readouterr().err


def test_foreign_documents_refuse_to_load(cfg):
    with pytest.raises(SelectionError, match="malformed"):
        SelectionConfig.from_json("{not json")
    with pytest.raises(SelectionError, match="not a selection-config"):
        SelectionConfig.from_json(json.dumps({"format": "something-else"}))
    payload = json.loads(cfg.to_json())
    payload["version"] = CONFIG_VERSION + 1
    with pytest.raises(SelectionError, match="version"):
        SelectionConfig.from_json(json.dumps(payload))
    payload = json.loads(cfg.to_json())
    del payload["timings"][0]["time"]
    with pytest.raises(SelectionError, match="missing"):
        SelectionConfig.from_json(json.dumps(payload))
    assert CONFIG_FORMAT in cfg.to_json()


@pytest.mark.parametrize("jobs", [0, 2])
@pytest.mark.parametrize("engine", ["materialized", "collapsed"])
def test_prior_warmed_retune_is_bit_identical(cfg, jobs, engine):
    """Export → reimport as priors → winners (and the whole document)
    identical, at any jobs level and under either simulation engine."""
    warm = tune(
        MACHINE, SIZES, collectives=COLLECTIVES,
        priors=cfg.sweep_priors(), jobs=jobs, engine=engine,
    )
    assert warm.to_json() == cfg.to_json()


def test_partial_priors_fill_the_gaps_identically(cfg):
    """Priors covering only some points: the rest simulate, the result
    is still bit-identical — priors never change answers, only cost."""
    priors = cfg.sweep_priors()
    partial = dict(list(priors.items())[::2])  # drop every other point
    assert 0 < len(partial) < len(priors)
    warm = tune(
        MACHINE, SIZES, collectives=COLLECTIVES, priors=partial
    )
    assert warm.to_json() == cfg.to_json()


def test_priors_for_warm_starts_the_online_selector(cfg):
    priors = cfg.priors_for("allreduce", 4096)
    assert priors and all(
        isinstance(c, Choice) and t > 0 for c, t in priors.items()
    )
    selector = OnlineSelector(priors)
    assert selector.current == cfg.select("allreduce", P, 4096)


def test_priors_for_uncovered_point_raises(cfg):
    with pytest.raises(SelectionError, match="no timings"):
        cfg.priors_for("alltoall", 4096)
    with pytest.raises(SelectionError, match="no timings"):
        cfg.priors_for("allreduce", 12345)


def test_adaptive_trail_is_unchanged_by_config_priors(cfg):
    """run_adaptive warm-started from the artifact reproduces the cold
    loop's entire trail — same static winner, same per-round times."""
    cold = run_adaptive("allreduce", MACHINE, 4096, rounds=6)
    warm = run_adaptive(
        "allreduce", MACHINE, 4096, rounds=6,
        priors=cfg.priors_for("allreduce", 4096),
    )
    assert warm.static_algorithm == cold.static_algorithm
    assert warm.static_k == cold.static_k
    assert warm.switches == cold.switches
    assert warm.regret == cold.regret
    assert [r.time for r in warm.records] == [r.time for r in cold.records]
