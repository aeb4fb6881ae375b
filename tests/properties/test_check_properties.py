"""Property-based tests for the static-analysis suite (:mod:`repro.check`).

Two families of guarantees:

* **Registry cleanliness** — every schedule the registry can build passes
  the full check suite with zero error findings, at any radix, process
  count, or root.  This is the property the ``repro-check --all`` CI gate
  pins over a fixed grid; here hypothesis explores the space between the
  grid points.
* **Static/dynamic agreement** — :func:`repro.core.analysis.dependency_rounds`
  (the simulator-free longest-chain walk the model lint uses) equals
  :func:`repro.core.analysis.critical_path_rounds` (the DES-measured
  makespan at α=1, β=0) on every executable schedule.  This is what
  licenses the check suite to reason about timing without the engine.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check import run_checks
from repro.check.interp import interpret
from repro.core.analysis import critical_path_rounds, dependency_rounds
from repro.core.cache import ContentCache
from repro.core.registry import GENERALIZED_ALGORITHMS, build_schedule, info

PS = st.integers(min_value=1, max_value=24)
KS = st.integers(min_value=1, max_value=26)


@st.composite
def generalized_configs(draw):
    coll, alg = draw(st.sampled_from(GENERALIZED_ALGORITHMS))
    p = draw(PS)
    entry = info(coll, alg)
    k = max(entry.min_k, draw(KS))
    root = draw(st.integers(min_value=0, max_value=p - 1))
    return coll, alg, p, k, root if entry.takes_root else 0


# One bounded cache for the whole module keeps repeated hypothesis draws
# of the same configuration from re-analyzing (and keeps the process
# global cache untouched by the test run).
_CACHE = ContentCache("check", 4096)


@settings(max_examples=100, deadline=None)
@given(generalized_configs())
def test_every_generalized_schedule_checks_clean(cfg):
    """No registry schedule deadlocks, races, or contradicts its model."""
    coll, alg, p, k, root = cfg
    sched = build_schedule(coll, alg, p, k=k, root=root)
    report = run_checks(sched, cache=_CACHE)
    assert report.ok, report.describe()


@settings(max_examples=100, deadline=None)
@given(generalized_configs())
def test_registry_schedules_are_rendezvous_safe(cfg):
    """Stronger than deadlock-free: every registry schedule completes
    under fully-rendezvous sends, so it is safe at ANY eager threshold
    (progress is monotone in the threshold)."""
    coll, alg, p, k, root = cfg
    sched = build_schedule(coll, alg, p, k=k, root=root)
    assert not interpret(sched, eager_threshold=0).deadlocked


@settings(max_examples=100, deadline=None)
@given(generalized_configs())
def test_dependency_rounds_matches_simulated_critical_path(cfg):
    """The static longest-chain walk agrees with the DES at α=1, β=0."""
    coll, alg, p, k, root = cfg
    sched = build_schedule(coll, alg, p, k=k, root=root)
    assert dependency_rounds(sched) == critical_path_rounds(sched)
