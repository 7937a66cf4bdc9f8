"""One registry contract for every named axis.

The experiment layer is a table of *named* things — methods, datasets,
selection policies, environments, codecs, fault models, transports.  Each
kind is one :class:`Registry` instance, so register / look-up / fail-early
behave identically on every axis:

- **Name rule.**  A name is a lowercase identifier (``"flaky_mobile"``);
  look-ups are exact-match.
- **Duplicate rule.**  Registering the same object again is idempotent,
  and so is the fresh object a module reload creates (same
  ``__module__`` and ``__qualname__`` means "the same thing, possibly
  newer" — the entry is replaced).  Anything else under a taken name is
  an error.
- **Blurb rule.**  An entry's ``description`` (the ``repro list`` text) is
  the explicit one, else the first line of the factory's docstring.
- **Errors.**  :meth:`Registry.entry` and :meth:`Registry.make` raise
  ``ValueError`` naming the known set for an unknown name; ``make`` turns
  a factory's ``TypeError`` (an unknown override key) into ``ValueError``
  too, so :class:`~repro.experiments.ExperimentSpec` validation catches
  both at sweep-expansion time rather than mid-campaign.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Iterator, TypeVar

__all__ = ["Entry", "Registry"]

F = TypeVar("F", bound=Callable[..., Any])


@dataclass(frozen=True)
class Entry:
    """One registered name: its factory plus the ``repro list`` blurb.

    Kinds with more to say subclass this with keyword-only fields
    (``MethodEntry.config_cls``, ``DatasetEntry.model_family``);
    :meth:`Registry.register` forwards its ``**meta`` to them.
    """

    name: str
    factory: Callable[..., Any]
    description: str = ""


class Registry(Mapping):
    """Read-only sorted mapping ``name -> Entry`` for one kind of thing:
    ``"topk" in CODECS``, ``sorted(METHODS)`` and ``len(...)`` work as on a
    dict; writing goes through :meth:`register` only.

    ``kind`` is the noun error messages use (``"codec"``, ``"fault
    model"``); ``kwargs_field`` names where a caller's overrides came from
    (``"codec_kwargs"``) for the bad-override message; ``populate`` is a
    zero-argument callable run before each read, for a registry whose
    built-in entries live in modules that must not be imported eagerly
    (it has to be idempotent — plain ``import`` statements are).
    """

    def __init__(
        self,
        kind: str,
        kwargs_field: str = "kwargs",
        entry_cls: type[Entry] = Entry,
        populate: Callable[[], None] = lambda: None,
    ) -> None:
        self.kind = kind
        self.kwargs_field = kwargs_field
        self._entry_cls = entry_cls
        self._populate = populate
        self._entries: dict[str, Entry] = {}

    # ------------------------------------------------------------- writing

    def register(
        self, name: str, description: str = "", **meta: Any
    ) -> Callable[[F], F]:
        """Decorator registering a factory (usually the class) under ``name``."""
        if not name.isidentifier() or not name.islower():
            raise ValueError(
                f"{self.kind} name must be a lowercase identifier, got {name!r}"
            )

        def decorate(factory: F) -> F:
            existing = self._entries.get(name)
            if existing is not None and not _same_object(existing.factory, factory):
                raise ValueError(
                    f"{self.kind} {name!r} is already registered to "
                    f"{existing.factory!r}; pick a different name"
                )
            blurb = description or _first_docstring_line(factory)
            self._entries[name] = self._entry_cls(name, factory, blurb, **meta)
            return factory

        return decorate

    # ------------------------------------------------------------- reading

    def _read(self) -> dict[str, Entry]:
        self._populate()
        return self._entries

    def __getitem__(self, name: str) -> Entry:
        return self._read()[name]

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._read()))

    def __len__(self) -> int:
        return len(self._read())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind}: {self.names()})"

    def names(self) -> list[str]:
        """Sorted names of everything registered."""
        return sorted(self._read())

    def entries(self) -> list[Entry]:
        """All entries, sorted by name — the ``repro list`` feed."""
        return [self._entries[name] for name in self.names()]

    def entry(self, name: str) -> Entry:
        """Look up one entry; ``ValueError`` with the known set if absent."""
        try:
            return self[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; known: {self.names()}"
            ) from None

    def make(self, name: str, **overrides: Any) -> Any:
        """Instantiate a registered factory, applying keyword overrides."""
        entry = self.entry(name)
        try:
            return entry.factory(**overrides)
        except TypeError as exc:
            raise self.bad_kwargs(name, exc) from None

    def bad_kwargs(self, name: str, why: object) -> ValueError:
        """The one spelling of "these overrides do not fit that name"."""
        return ValueError(
            f"bad {self.kwargs_field} for {self.kind} {name!r}: {why}"
        )


def _same_object(a: Any, b: Any) -> bool:
    """Identity, or the module-reload case: same module and qualname."""
    if a is b:
        return True
    try:
        return (a.__module__, a.__qualname__) == (b.__module__, b.__qualname__)
    except AttributeError:  # e.g. a functools.partial: identity only
        return False


def _first_docstring_line(obj: Any) -> str:
    doc = (getattr(obj, "__doc__", None) or "").strip()
    return doc.splitlines()[0] if doc else ""
