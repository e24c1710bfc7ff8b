"""Versioned handler registry and alert-type matching.

"We also maintain the versions of the handlers in the database, which can be
used to track their historical changes" (Section 4.1.1).  The registry stores
every version of every handler, serves the newest enabled version to the
matcher, and records which team owns which handler (used by the Table 4
deployment simulation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .handler import IncidentHandler


class HandlerNotFoundError(KeyError):
    """Raised when no handler exists for an alert type."""


@dataclass
class RegistryEntry:
    """One registered handler version."""

    handler: IncidentHandler
    team: str = "Transport"
    enabled: bool = True
    change_note: str = ""


class HandlerRegistry:
    """Stores handlers with version history, keyed by alert type."""

    def __init__(self) -> None:
        self._versions: Dict[str, List[RegistryEntry]] = {}

    def __len__(self) -> int:
        return len(self._versions)

    def register(
        self,
        handler: IncidentHandler,
        team: str = "Transport",
        enabled: bool = True,
        change_note: str = "",
    ) -> IncidentHandler:
        """Register a handler (as a new version if the alert type exists).

        The handler's ``version`` field is overwritten with the next version
        number for its alert type.
        """
        handler.validate()
        versions = self._versions.setdefault(handler.alert_type, [])
        handler.version = len(versions) + 1
        versions.append(
            RegistryEntry(handler=handler, team=team, enabled=enabled, change_note=change_note)
        )
        return handler

    def alert_types(self) -> List[str]:
        """Alert types with at least one registered handler."""
        return sorted(self._versions)

    def latest(self, alert_type: str, enabled_only: bool = True) -> IncidentHandler:
        """The newest (optionally enabled-only) handler for an alert type.

        Raises:
            HandlerNotFoundError: If there is no (enabled) handler.
        """
        versions = self._versions.get(alert_type, [])
        candidates = [e for e in versions if e.enabled] if enabled_only else list(versions)
        if not candidates:
            raise HandlerNotFoundError(
                f"no {'enabled ' if enabled_only else ''}handler for alert type {alert_type!r}"
            )
        return candidates[-1].handler

    def match(self, alert_type: str) -> Optional[IncidentHandler]:
        """Match an incident's alert type to a handler (None if unmatched).

        The paper notes the handler is activated "with an accuracy rate of
        100%" when a designated handler exists — matching is an exact lookup
        on the alert type.
        """
        try:
            return self.latest(alert_type)
        except HandlerNotFoundError:
            return None

    def history(self, alert_type: str) -> List[RegistryEntry]:
        """Every registered version for an alert type (oldest first)."""
        return list(self._versions.get(alert_type, []))

    def set_enabled(self, alert_type: str, version: int, enabled: bool) -> None:
        """Enable or disable a specific handler version."""
        for entry in self._versions.get(alert_type, []):
            if entry.handler.version == version:
                entry.enabled = enabled
                return
        raise HandlerNotFoundError(
            f"no handler version {version} for alert type {alert_type!r}"
        )

    def teams(self) -> List[str]:
        """Teams owning at least one handler."""
        names = {
            entry.team for versions in self._versions.values() for entry in versions
        }
        return sorted(names)

    def action_reuse_counts(self) -> Dict[str, int]:
        """How many handlers reuse each action name.

        The paper emphasises reusable actions across handlers; this statistic
        surfaces that reuse for the handler-authoring example.  Keys follow
        first appearance, so the order does not depend on string hashing.
        """
        counts: Dict[str, int] = {}
        for versions in self._versions.values():
            entry = versions[-1]
            for name in dict.fromkeys(entry.handler.action_names()):
                counts[name] = counts.get(name, 0) + 1
        return counts
