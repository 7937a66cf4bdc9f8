"""Method registry: a server class registers itself, every consumer reads it.

``METHODS`` is the :class:`~repro.utils.registry.Registry` of federated
methods (see that module for the name / duplicate / blurb rules shared
with every other named axis).  A server class registers itself::

    @register_method("fedavg", config=FedAvgConfig)
    class FedAvgServer(FederatedServer):
        method = "fedavg"
        ...

and every consumer — :func:`repro.experiments.build_experiment`, the CLI's
``list``/``run``/``sweep`` subcommands, the campaign runner — reads the
same registry (``"fedavg" in METHODS``, ``sorted(METHODS)``,
``get_method(name).config_cls``).

The registry is lazily populated: reading it imports the built-in method
modules (whose decorators fill it in), so importing this module alone
stays cheap and cycle-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, TypeVar

from repro.utils.registry import Entry, Registry

__all__ = ["MethodEntry", "METHODS", "register_method", "get_method"]

S = TypeVar("S", bound=type)


@dataclass(frozen=True, kw_only=True)
class MethodEntry(Entry):
    """Everything the experiment layer needs to instantiate one method:
    the server class (``factory``) and the config class built from spec
    fields plus ``method_kwargs``."""

    config_cls: type

    @property
    def server_cls(self) -> type:
        return self.factory


def _import_builtin_methods() -> None:
    """Import the modules whose decorators populate the registry.

    Idempotent and cycle-safe: the built-in method modules import this
    module only for :func:`register_method`, which reads nothing.
    """
    import repro.baselines  # noqa: F401  (registers the baselines)
    import repro.core.fedhisyn  # noqa: F401  (registers fedhisyn)


METHODS = Registry(
    "method",
    kwargs_field="method_kwargs",
    entry_cls=MethodEntry,
    populate=_import_builtin_methods,
)


def register_method(
    name: str, *, config: type, description: str = ""
) -> Callable[[S], S]:
    """Class decorator registering a :class:`FederatedServer` subclass.

    ``name`` is the public method identifier (CLI, ``ExperimentSpec.method``);
    ``config`` is the :class:`~repro.core.server.ServerConfig` subclass the
    experiment builder instantiates from spec fields plus ``method_kwargs``.
    """
    return METHODS.register(name, description, config_cls=config)


get_method = METHODS.entry
