"""String-keyed registries of attacks, protocols and defenses.

Task specs (:class:`repro.engine.tasks.TrialTask`) must be serialisable and
hashable, so they reference scenario components *by name* rather than by
object.  The registries here map those names to factories:

>>> from repro.engine.registry import ATTACKS
>>> ATTACKS.create("degree/mga").name
'MGA'

Every attack and protocol exported from :mod:`repro.core` /
:mod:`repro.protocols` (and every graph defense from :mod:`repro.defenses`)
is registered at import time; user code may register additional components
under new names to make them addressable from configs and the CLI.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar

T = TypeVar("T")


class Registry:
    """A name -> factory mapping.

    Parameters
    ----------
    kind:
        Human-readable component kind ("attack", ...) used in error messages.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self._factories: Dict[str, Callable[..., object]] = {}

    def register(
        self, name: str, factory: Optional[Callable[..., T]] = None
    ) -> Callable[..., T]:
        """Register ``factory`` under ``name``; usable as a decorator.

        Re-registering a name with a *different* factory raises — silent
        replacement would corrupt cache keys that embed the name.
        """

        def _do_register(target: Callable[..., T]) -> Callable[..., T]:
            existing = self._factories.get(name)
            if existing is not None and existing is not target:
                raise ValueError(f"{self.kind} {name!r} is already registered")
            self._factories[name] = target
            return target

        if factory is None:
            return _do_register
        return _do_register(factory)

    def get(self, name: str) -> Callable[..., object]:
        """The factory registered under ``name``; KeyError lists known names."""
        try:
            return self._factories[name]
        except KeyError:
            known = ", ".join(sorted(self._factories)) or "<none>"
            raise KeyError(f"unknown {self.kind} {name!r}; known: {known}") from None

    def create(self, name: str, **kwargs) -> object:
        """Instantiate the component registered under ``name``."""
        return self.get(name)(**kwargs)

    def names(self) -> Tuple[str, ...]:
        """All registered names, sorted."""
        return tuple(sorted(self._factories))

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._factories)


#: Poisoning attacks, keyed "<metric family>/<paper name>".
ATTACKS = Registry("attack")

#: Graph-LDP collection protocols; factories take ``epsilon`` as first arg.
PROTOCOLS = Registry("protocol")

#: Countermeasures (the paper's Detect1/Detect2 and the naive baselines).
DEFENSES = Registry("defense")


def _register_defaults() -> None:
    """Register everything the library ships; deferred to avoid import cycles."""
    from repro.core.clustering_attacks import ClusteringMGA, ClusteringRNA, ClusteringRVA
    from repro.core.degree_attacks import DegreeMGA, DegreeRNA, DegreeRVA
    from repro.core.untargeted_attacks import (
        UntargetedConcentratedAttack,
        UntargetedUniformAttack,
        UntargetedWithdrawalAttack,
    )
    from repro.defenses.degree_consistency import DegreeConsistencyDefense
    from repro.defenses.frequent_itemset import FrequentItemsetDefense
    from repro.defenses.hybrid import HybridDefense
    from repro.defenses.naive import NaiveDegreeTailsDefense, NaiveTopDegreeDefense
    from repro.protocols.ldpgen import LDPGenProtocol
    from repro.protocols.lfgdpr import LFGDPRProtocol

    ATTACKS.register("degree/rva", DegreeRVA)
    ATTACKS.register("degree/rna", DegreeRNA)
    ATTACKS.register("degree/mga", DegreeMGA)
    ATTACKS.register("clustering/rva", ClusteringRVA)
    ATTACKS.register("clustering/rna", ClusteringRNA)
    ATTACKS.register("clustering/mga", ClusteringMGA)
    ATTACKS.register("untargeted/uniform", UntargetedUniformAttack)
    ATTACKS.register("untargeted/concentrated", UntargetedConcentratedAttack)
    ATTACKS.register("untargeted/withdrawal", UntargetedWithdrawalAttack)

    PROTOCOLS.register("lfgdpr", LFGDPRProtocol)
    PROTOCOLS.register("ldpgen", LDPGenProtocol)

    DEFENSES.register("detect1", FrequentItemsetDefense)
    DEFENSES.register("detect2", DegreeConsistencyDefense)
    DEFENSES.register("naive1", NaiveTopDegreeDefense)
    DEFENSES.register("naive2", NaiveDegreeTailsDefense)
    DEFENSES.register("hybrid", HybridDefense)


_register_defaults()
