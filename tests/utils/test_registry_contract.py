"""One registry contract, seven inputs.

Every named axis is a :class:`repro.utils.registry.Registry`; what holds
for one holds for all, so it is asserted once here, parametrized over the
seven instances.  The per-kind test files keep only what is kind-specific
(bundled name lists, kwargs landing on instances, message wording).
"""

import importlib
from dataclasses import dataclass, fields

import pytest

from repro.compression import CODECS
from repro.core.registry import METHODS
from repro.core.selection import SELECTION_POLICIES
from repro.datasets import DATASETS
from repro.env import ENVIRONMENTS
from repro.faults import FAULT_MODELS
from repro.transport import TRANSPORTS
from repro.utils.registry import Entry, Registry

REGISTRIES = {
    "method": METHODS,
    "dataset": DATASETS,
    "selection policy": SELECTION_POLICIES,
    "environment": ENVIRONMENTS,
    "codec": CODECS,
    "fault model": FAULT_MODELS,
    "transport": TRANSPORTS,
}

each_registry = pytest.mark.parametrize(
    "kind, registry", REGISTRIES.items(), ids=[k.replace(" ", "_") for k in REGISTRIES]
)


def _meta(entry: Entry) -> dict:
    """The kind-specific fields of an entry, as ``register(**meta)`` takes them."""
    base = {f.name for f in fields(Entry)}
    return {f.name: getattr(entry, f.name) for f in fields(entry) if f.name not in base}


def impostor():
    """A factory nobody registered."""


@each_registry
class TestSharedContract:
    def test_kind_is_the_error_noun(self, kind, registry):
        assert registry.kind == kind

    def test_sorted_iteration_names_and_entries_agree(self, kind, registry):
        names = registry.names()
        assert names and names == sorted(names)
        assert list(registry) == names
        assert [e.name for e in registry.entries()] == names
        assert len(registry) == len(names)
        assert all(registry[name] is registry.entry(name) for name in names)

    def test_every_entry_has_a_blurb(self, kind, registry):
        assert all(e.description for e in registry.entries())

    def test_unknown_name_lists_the_known_set(self, kind, registry):
        assert "nope" not in registry
        for lookup in (registry.entry, registry.make):
            with pytest.raises(ValueError, match=f"unknown {kind} 'nope'; known: ") as err:
                lookup("nope")
            assert all(repr(name) in str(err.value) for name in registry.names())

    def test_lookup_is_exact_match(self, kind, registry):
        with pytest.raises(ValueError, match=f"unknown {kind}"):
            registry.entry(registry.names()[0].upper())

    @pytest.mark.parametrize("bad", ["", "Camel", "has-dash", "9lead", "Has Space"])
    def test_bad_names_rejected(self, kind, registry, bad):
        with pytest.raises(ValueError, match=f"{kind} name must be a lowercase identifier"):
            registry.register(bad)

    def test_impostor_rejected(self, kind, registry):
        taken = registry.names()[0]
        before = registry[taken]
        with pytest.raises(ValueError, match=f"{kind} {taken!r} is already registered"):
            registry.register(taken, "impostor")(impostor)
        assert registry[taken] is before

    def test_reregistering_the_same_object_is_idempotent(self, kind, registry):
        for entry in registry.entries():
            returned = registry.register(
                entry.name, entry.description, **_meta(entry)
            )(entry.factory)
            assert returned is entry.factory
            assert registry[entry.name] == entry

    def test_read_only_mapping(self, kind, registry):
        with pytest.raises(TypeError):
            registry["hack"] = impostor
        with pytest.raises(TypeError):
            del registry[registry.names()[0]]


# (module to reload, module that owns the registry, registry attribute,
#  a name the reloaded module registers, the attribute holding its factory)
RELOADS = [
    ("repro.compression.codecs", "repro.compression.registry", "CODECS", "topk", "TopKCodec"),
    ("repro.transport.sim", "repro.transport.registry", "TRANSPORTS", "sim", "SimTransport"),
    ("repro.core.selection", "repro.core.selection", "SELECTION_POLICIES", "fastest", "FastestSelection"),
    ("repro.env.registry", "repro.env.registry", "ENVIRONMENTS", "wan", "_wan"),
    ("repro.faults.registry", "repro.faults.registry", "FAULT_MODELS", "crash", "_crash"),
    ("repro.baselines.fedavg", "repro.core.registry", "METHODS", "fedavg", "FedAvgServer"),
]


@pytest.mark.parametrize("reloaded, owner, attr, name, factory_attr", RELOADS)
def test_module_reload_reregisters_cleanly(reloaded, owner, attr, name, factory_attr):
    module = importlib.import_module(reloaded)
    registry = getattr(importlib.import_module(owner), attr)
    known = registry.names()
    saved_vars = dict(vars(module))
    saved_entries = dict(registry._entries)
    try:
        importlib.reload(module)  # fresh class / function objects
        # A module that owns its registry rebuilds it on reload.
        after = getattr(importlib.import_module(owner), attr)
        assert after.names() == known
        assert after[name].factory is getattr(module, factory_attr)
        assert after[name].factory is not saved_vars[factory_attr]
    finally:
        # Reload leaves every other importer holding the original objects;
        # point the module and the registry back at them so later tests
        # see one consistent set.
        vars(module).update(saved_vars)
        registry._entries.clear()
        registry._entries.update(saved_entries)


class TestRegistryAlone:
    """The rules that need a fresh registry to show."""

    def test_blurb_is_description_else_first_docstring_line_else_empty(self):
        reg = Registry("widget")

        @reg.register("documented")
        def documented():
            """First line.

            Second paragraph."""

        @reg.register("explicit", "said so")
        def explicit():
            """Ignored."""

        reg.register("bare")(lambda: None)
        assert reg["documented"].description == "First line."
        assert reg["explicit"].description == "said so"
        assert reg["bare"].description == ""

    def test_make_forwards_overrides_and_reports_bad_ones(self):
        reg = Registry("widget", kwargs_field="widget_kwargs")
        reg.register("box")(lambda size=1: ("box", size))
        assert reg.make("box", size=3) == ("box", 3)
        with pytest.raises(ValueError, match="bad widget_kwargs for widget 'box': .*colour"):
            reg.make("box", colour="red")

    def test_meta_lands_on_a_typed_entry(self):
        @dataclass(frozen=True, kw_only=True)
        class Sized(Entry):
            size: int

        reg = Registry("widget", entry_cls=Sized)
        reg.register("box", size=4)(impostor)
        assert reg["box"].size == 4
        with pytest.raises(TypeError):
            reg.register("crate")(impostor)  # size is required

    def test_populate_runs_before_reads_not_writes(self):
        calls = []
        reg = Registry("widget", populate=lambda: calls.append(1))
        reg.register("box")(impostor)
        assert not calls
        assert "box" in reg and reg.names() == ["box"]
        assert calls

    def test_same_module_and_qualname_replaces(self):
        reg = Registry("widget")

        def make(version):
            def factory():
                return version

            return factory

        first, second = make(1), make(2)  # what a module reload produces
        reg.register("box")(first)
        reg.register("box")(second)
        assert reg.make("box") == 2
