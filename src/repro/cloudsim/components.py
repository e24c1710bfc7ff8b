"""Topology model of the simulated email transport service.

The paper's target system (Transport) routes mail through mailbox servers,
hub/front-door proxy servers, and delivery components, organised into
*forests* (the paper's forest scope).  This module models that topology so
fault injectors and the workload generator have concrete machines to act on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional


#: Machine roles present in a forest.
ROLE_MAILBOX = "mailbox"
ROLE_HUB = "hub"
ROLE_FRONTDOOR = "frontdoor"
ROLE_DELIVERY = "delivery"

MACHINE_ROLES = (ROLE_MAILBOX, ROLE_HUB, ROLE_FRONTDOOR, ROLE_DELIVERY)


@dataclass
class Machine:
    """A single machine in a forest.

    Attributes:
        name: Unique machine name (e.g. ``forest-01-hub-02``).
        forest: Owning forest name.
        role: One of :data:`MACHINE_ROLES`.
        capacity: Nominal requests-per-tick capacity.
        disk_gb: Total disk size in GB.
    """

    name: str
    forest: str
    role: str
    capacity: int = 1000
    disk_gb: int = 500
    #: Mutable operational state used by fault injectors.
    state: Dict[str, float] = field(default_factory=dict)


@dataclass
class Forest:
    """A forest: an isolated deployment unit containing machines of each role."""

    name: str
    machines: List[Machine] = field(default_factory=list)

    def by_role(self, role: str) -> List[Machine]:
        """Machines of the forest with the given role."""
        return [m for m in self.machines if m.role == role]

    def machine(self, name: str) -> Optional[Machine]:
        """Look up a machine by name."""
        for machine in self.machines:
            if machine.name == name:
                return machine
        return None


class Topology:
    """The full deployment: a set of forests and their machines."""

    def __init__(self, forests: List[Forest]) -> None:
        self.forests = forests
        self._machines: Dict[str, Machine] = {}
        for forest in forests:
            for machine in forest.machines:
                self._machines[machine.name] = machine

    def __iter__(self) -> Iterator[Forest]:
        return iter(self.forests)

    @property
    def machines(self) -> List[Machine]:
        """Every machine in the deployment."""
        return list(self._machines.values())

    def machine(self, name: str) -> Optional[Machine]:
        """Look up a machine by name across forests."""
        return self._machines.get(name)

    def forest(self, name: str) -> Optional[Forest]:
        """Look up a forest by name."""
        for forest in self.forests:
            if forest.name == name:
                return forest
        return None

    def forest_of(self) -> Dict[str, str]:
        """Mapping machine name -> forest name (used by monitors)."""
        return {m.name: m.forest for m in self.machines}

    def machines_by_role(self, role: str) -> List[Machine]:
        """Every machine with a role across all forests."""
        return [m for m in self.machines if m.role == role]


def build_topology(
    num_forests: int = 3,
    mailbox_per_forest: int = 4,
    hub_per_forest: int = 2,
    frontdoor_per_forest: int = 2,
    delivery_per_forest: int = 2,
) -> Topology:
    """Construct a deterministic topology of the requested shape.

    Machine names are stable across runs so that generated incidents and
    handler outputs are reproducible.
    """
    forests: List[Forest] = []
    for f in range(1, num_forests + 1):
        forest_name = f"forest-{f:02d}"
        machines: List[Machine] = []
        role_counts = {
            ROLE_MAILBOX: mailbox_per_forest,
            ROLE_HUB: hub_per_forest,
            ROLE_FRONTDOOR: frontdoor_per_forest,
            ROLE_DELIVERY: delivery_per_forest,
        }
        for role, count in role_counts.items():
            for i in range(1, count + 1):
                machines.append(
                    Machine(
                        name=f"{forest_name}-{role}-{i:02d}",
                        forest=forest_name,
                        role=role,
                    )
                )
        forests.append(Forest(name=forest_name, machines=machines))
    return Topology(forests)
