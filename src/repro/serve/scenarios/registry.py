"""Scenario registry: name -> :class:`~repro.serve.scenarios.base.Scenario`.

The CLI resolves ``--scenario NAME`` here and ``repro serve scenarios
list`` renders the table.  Registration is open — downstream code (or a
test) can :func:`register_scenario` its own instances; the built-ins in
:mod:`~repro.serve.scenarios.catalog` self-register on package import.
"""

from __future__ import annotations

from typing import Dict, List

from .base import Scenario
from ...tables import Table

__all__ = ["register_scenario", "get_scenario", "list_scenarios",
           "scenario_table"]

_REGISTRY: Dict[str, Scenario] = {}


def register_scenario(scenario: Scenario, replace: bool = False) -> Scenario:
    """Register a scenario under its name; re-registering an existing
    name requires ``replace=True`` (silent shadowing would make
    ``--scenario`` runs irreproducible across imports)."""
    if not isinstance(scenario, Scenario):
        raise TypeError(f"expected a Scenario, got "
                        f"{type(scenario).__name__}")
    if scenario.name in _REGISTRY and not replace:
        raise ValueError(f"scenario {scenario.name!r} is already "
                         "registered (pass replace=True to override)")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name, failing with the available choices."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; registered: "
            f"{', '.join(list_scenarios()) or '(none)'}") from None


def list_scenarios() -> List[str]:
    """Registered scenario names, sorted."""
    return sorted(_REGISTRY)


def scenario_table() -> str:
    """The ``repro serve scenarios list`` rendering."""
    table = Table(["scenario", "description"],
                  title="registered load scenarios "
                        "(repro serve --scenario NAME)")
    for name in list_scenarios():
        table.add_row(name, _REGISTRY[name].description)
    return table.render()
