"""Deterministic Zipf request-trace generation for service load tests.

Real traffic over simulation cells is popularity-skewed: a handful of
(workload, policy, config) combinations — the paper's headline cells —
absorb most queries, with a long tail of one-off sweeps.  pmsim models
object popularity the same way for its transactional workloads.  A
Zipf(``alpha``) law over a ranked universe reproduces that shape;
``alpha`` ≈ 1.16 is the classic web-caching exponent, at which the
80/20 split emerges for universes of thousands of items.  Small
universes need a steeper law for the same split — for a few dozen
items, ``alpha`` ≈ 1.5 puts ~80% of requests on the top ~20%.

Traces are drawn from the transactional workloads' seeded
:class:`~repro.workloads.txn.zipf.ZipfSampler`, so a load test replays
the *identical* request sequence on every run — hit-ratio and dedup
assertions stay exact, not statistical.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, TypeVar

from repro.workloads.txn.zipf import DEFAULT_ALPHA, ZipfSampler

T = TypeVar("T")

#: Exponent giving the 80/20 split on a few-dozen-item universe.
SMALL_UNIVERSE_ALPHA = 1.5


def zipf_trace(universe: Sequence[T], length: int, seed: int = 0,
               alpha: float = DEFAULT_ALPHA) -> List[T]:
    """A deterministic request trace over ``universe``.

    ``universe`` order is popularity rank: index 0 is the hottest item.
    The same (universe length, length, seed, alpha) always produces the
    same trace.
    """
    sampler = ZipfSampler(len(universe), alpha, seed)
    return [universe[sampler.sample()] for _ in range(length)]


def head_fraction(trace: Sequence[T], universe: Sequence[T],
                  head: float = 0.2) -> float:
    """Fraction of requests landing on the top ``head`` of the universe.

    The 80/20 sanity check: at the alpha that suits the universe size
    (see the module docstring), ~0.8 of the requests land on the first
    20% of ranks.
    """
    if not trace:
        return 0.0
    cutoff = max(1, int(len(universe) * head))
    hot = set(universe[:cutoff])
    return sum(1 for item in trace if item in hot) / len(trace)


def popularity(trace: Sequence[T]) -> Dict[T, int]:
    """Request count per item, hottest first (insertion order)."""
    counts: Dict[T, int] = {}
    for item in trace:
        counts[item] = counts.get(item, 0) + 1
    return dict(sorted(counts.items(), key=lambda kv: -kv[1]))
