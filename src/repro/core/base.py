"""Attack interface and crafting helpers shared by all attacks."""

from __future__ import annotations

import abc
from typing import Dict

import numpy as np

from repro.graph.adjacency import Graph
from repro.protocols.base import FakeReport
from repro.core.threat_model import AttackerKnowledge, ThreatModel
from repro.utils.rng import RngLike, ensure_rng


class Attack(abc.ABC):
    """A data poisoning attack: crafts one report per fake user.

    Subclasses implement :meth:`craft`; everything else (running the
    protocol, measuring gain) lives in ``repro.core.gain`` so that every
    attack is a pure report-crafting strategy, exactly as in the paper.
    """

    #: Short name used in experiment tables ("RVA", "RNA", "MGA", ...).
    name: str = "attack"

    #: Whether the attack aims at the threat model's targets.  An untargeted
    #: attack is scored at every node (``repro.core.gain.scored_targets``).
    targeted: bool = True

    @abc.abstractmethod
    def craft(
        self,
        graph: Graph,
        threat: ThreatModel,
        knowledge: AttackerKnowledge,
        rng: RngLike = None,
    ) -> Dict[int, FakeReport]:
        """Return the override report for every fake user.

        ``graph`` is passed because fake users are compromised real devices:
        the attacker can read (and chooses whether to reuse) each fake
        user's organic neighbour list.  Attacks never read other nodes'
        edges.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


def random_new_neighbors(
    node: int,
    existing: np.ndarray,
    count: int,
    num_nodes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sample ``count`` distinct new neighbours for ``node`` uniformly.

    Excludes ``node`` itself and ``existing`` neighbours.  Returns fewer than
    ``count`` only if the graph runs out of candidates.  Rejection sampling
    over boolean masks of the ids; a surplus is thinned by one
    ``rng.choice`` over the sorted chosen ids.
    """
    forbidden = np.zeros(num_nodes, dtype=bool)
    forbidden[np.asarray(existing, dtype=np.int64)] = True
    forbidden[node] = True
    count = min(count, num_nodes - int(np.count_nonzero(forbidden)))
    if count <= 0:
        return np.empty(0, dtype=np.int64)
    chosen = np.zeros(num_nodes, dtype=bool)
    size = 0
    while size < count:
        draws = rng.integers(0, num_nodes, size=int((count - size) * 1.3) + 8)
        chosen[draws[~forbidden[draws]]] = True
        size = int(np.count_nonzero(chosen))
    picked = np.flatnonzero(chosen)
    if size > count:
        picked = np.sort(rng.choice(picked, size=count, replace=False))
    return picked


def ensure_attack_rng(rng: RngLike) -> np.random.Generator:
    """Single place to coerce attack RNGs (keeps call sites short)."""
    return ensure_rng(rng)
