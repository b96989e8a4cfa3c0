"""Tests for the engine's component registries."""

import inspect

import pytest

import repro.core
import repro.defenses
import repro.protocols
from repro.core.base import Attack
from repro.defenses.base import Defense
from repro.engine.registry import ATTACKS, DEFENSES, PROTOCOLS, Registry
from repro.protocols.base import GraphLDPProtocol


def _exported_subclasses(module, base):
    """Concrete subclasses of ``base`` exported via ``module.__all__``."""
    found = []
    for name in module.__all__:
        member = getattr(module, name)
        if (
            inspect.isclass(member)
            and issubclass(member, base)
            and member is not base
            and not inspect.isabstract(member)
        ):
            found.append(member)
    return found


class TestRegistry:
    def test_register_get_create(self):
        registry = Registry("widget")
        registry.register("w", dict)
        assert registry.get("w") is dict
        assert registry.create("w", a=1) == {"a": 1}
        assert "w" in registry and registry.names() == ("w",)

    def test_decorator_form(self):
        registry = Registry("widget")

        @registry.register("listy")
        class Listy(list):
            pass

        assert registry.get("listy") is Listy

    def test_unknown_name_lists_known(self):
        registry = Registry("widget")
        registry.register("known", dict)
        with pytest.raises(KeyError, match="known"):
            registry.get("nope")

    def test_duplicate_name_rejected(self):
        registry = Registry("widget")
        registry.register("w", dict)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("w", list)
        # Re-registering the same factory is an idempotent no-op.
        registry.register("w", dict)


class TestDefaultRegistrations:
    """Every shipped attack/protocol/defense round-trips through its registry."""

    @pytest.mark.parametrize("cls", _exported_subclasses(repro.core, Attack))
    def test_attack_round_trip(self, cls):
        assert cls in {ATTACKS.get(name) for name in ATTACKS}, (
            f"{cls.__name__} is not registered"
        )

    @pytest.mark.parametrize(
        "cls", _exported_subclasses(repro.protocols, GraphLDPProtocol)
    )
    def test_protocol_round_trip(self, cls):
        assert cls in {PROTOCOLS.get(name) for name in PROTOCOLS}, (
            f"{cls.__name__} is not registered"
        )

    @pytest.mark.parametrize("cls", _exported_subclasses(repro.defenses, Defense))
    def test_defense_round_trip(self, cls):
        assert cls in {DEFENSES.get(name) for name in DEFENSES}, (
            f"{cls.__name__} is not registered"
        )

    def test_paper_names_present(self):
        assert {"degree/mga", "clustering/rva"} <= set(ATTACKS.names())
        assert set(PROTOCOLS.names()) >= {"lfgdpr", "ldpgen"}
        assert {"detect1", "detect2", "naive1", "naive2"} <= set(DEFENSES.names())

    def test_protocol_factories_take_epsilon(self):
        for name in PROTOCOLS:
            protocol = PROTOCOLS.create(name, epsilon=2.0)
            assert protocol.epsilon == 2.0
