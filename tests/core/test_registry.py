"""What is method-specific about the ``METHODS`` registry.

The shared register / look-up / fail-early contract (name rule, duplicate
and reload rule, blurbs, unknown-name errors) is asserted for every kind
in ``tests/utils/test_registry_contract.py``.
"""

import pytest

from repro.core.registry import METHODS, MethodEntry, get_method, register_method
from repro.core.server import FederatedServer, ServerConfig

BUILTINS = {
    "fedhisyn", "fedavg", "tfedavg", "tafedavg", "fedprox", "fedat", "scaffold",
}


class TestLookups:
    def test_builtins_registered(self):
        assert BUILTINS <= set(METHODS)

    def test_get_method_entry(self):
        entry = get_method("fedavg")
        assert isinstance(entry, MethodEntry)
        assert entry.name == "fedavg"
        assert entry.server_cls is entry.factory
        assert entry.server_cls.method == "fedavg"
        assert issubclass(entry.config_cls, ServerConfig)

    def test_unknown_method_raises_with_known_set(self):
        with pytest.raises(ValueError, match="unknown method"):
            get_method("fancyfl")


class TestOneRegistry:
    def test_methods_is_the_same_object_everywhere(self):
        import repro
        import repro.core
        import repro.experiments

        assert repro.METHODS is METHODS
        assert repro.core.METHODS is METHODS
        assert repro.experiments.METHODS is METHODS
        assert METHODS["fedavg"] is get_method("fedavg")

    def test_registry_is_read_only(self):
        with pytest.raises(TypeError):
            METHODS["hack"] = FederatedServer  # Mapping, not dict


class TestRegistration:
    def test_new_method_appears_everywhere(self):
        @register_method("testonly", config=ServerConfig)
        class TestOnlyServer(FederatedServer):
            """A method registered after import."""

            method = "testonly"

        try:
            assert get_method("testonly").server_cls is TestOnlyServer
            assert get_method("testonly").description == "A method registered after import."
            from repro.experiments import METHODS as experiment_methods

            assert "testonly" in experiment_methods
        finally:
            del METHODS._entries["testonly"]

    def test_config_is_required(self):
        with pytest.raises(TypeError):
            register_method("configless")
