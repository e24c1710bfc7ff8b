"""JSON (de)serialization of incident handlers.

The production system stores handlers in a database behind a web GUI; here
handlers round-trip through a JSON document so they can be checked into a
repository, diffed between versions, and shared between teams.

Query-action ``classify`` functions cannot be serialized as arbitrary
callables; instead they are referenced by name through a classifier registry
(:data:`CLASSIFIERS`) that handler authors extend.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Optional

from ..core.errors import SerializationError
from ..monitors import AlertScope
from .actions import Action, ActionContext, MitigationAction, QueryAction, ScopeSwitchAction
from .handler import HandlerNode, IncidentHandler

#: Named outcome classifiers referenced from serialized query actions.
CLASSIFIERS: Dict[str, Callable[[ActionContext, Dict[str, str]], str]] = {}


def register_classifier(
    name: str,
) -> Callable[[Callable[[ActionContext, Dict[str, str]], str]], Callable]:
    """Decorator registering a named classifier for serialized handlers."""

    def decorator(func: Callable[[ActionContext, Dict[str, str]], str]) -> Callable:
        CLASSIFIERS[name] = func
        return func

    return decorator


def _action_to_dict(action: Action) -> Dict[str, Any]:
    if isinstance(action, ScopeSwitchAction):
        return {
            "kind": "scope_switch",
            "name": action.name,
            "target_scope": action.target_scope.value,
            "busiest_metric": action.busiest_metric,
        }
    if isinstance(action, QueryAction):
        if action.script is not None:
            raise SerializationError(
                f"query action {action.name!r} wraps a Python script and cannot be serialized"
            )
        classify_name: Optional[str] = None
        if action.classify is not None:
            for name, func in CLASSIFIERS.items():
                if func is action.classify:
                    classify_name = name
                    break
            if classify_name is None:
                raise SerializationError(
                    f"query action {action.name!r} uses an unregistered classifier"
                )
        return {
            "kind": "query",
            "name": action.name,
            "source": action.source,
            "metric_names": list(action.metric_names),
            "pattern": action.pattern,
            "classify": classify_name,
        }
    if isinstance(action, MitigationAction):
        return {
            "kind": "mitigation",
            "name": action.name,
            "suggestion": action.suggestion,
            "engage_team": action.engage_team,
        }
    raise SerializationError(f"unsupported action type: {type(action).__name__}")


def _action_from_dict(payload: Dict[str, Any]) -> Action:
    kind = payload.get("kind")
    if kind == "scope_switch":
        return ScopeSwitchAction(
            name=payload["name"],
            target_scope=AlertScope(payload["target_scope"]),
            busiest_metric=payload.get("busiest_metric", "udp_socket_count"),
        )
    if kind == "query":
        classify = None
        classify_name = payload.get("classify")
        if classify_name:
            classify = CLASSIFIERS.get(classify_name)
            if classify is None:
                raise SerializationError(f"unknown classifier: {classify_name!r}")
        return QueryAction(
            name=payload["name"],
            source=payload["source"],
            metric_names=list(payload.get("metric_names") or []),
            pattern=payload.get("pattern"),
            classify=classify,
        )
    if kind == "mitigation":
        return MitigationAction(
            name=payload["name"],
            suggestion=payload["suggestion"],
            engage_team=payload.get("engage_team", ""),
        )
    raise SerializationError(f"unknown action kind: {kind!r}")


def handler_to_dict(handler: IncidentHandler) -> Dict[str, Any]:
    """Serialize a handler to a JSON-compatible dictionary."""
    return {
        "alert_type": handler.alert_type,
        "name": handler.name,
        "root": handler.root,
        "version": handler.version,
        "author": handler.author,
        "max_steps": handler.max_steps,
        "nodes": {
            node_id: {
                "action": _action_to_dict(node.action),
                "edges": dict(node.edges),
            }
            for node_id, node in handler.nodes.items()
        },
    }


def handler_from_dict(payload: Dict[str, Any]) -> IncidentHandler:
    """Deserialize a handler from a dictionary; validates the graph."""
    try:
        nodes = {
            node_id: HandlerNode(
                node_id=node_id,
                action=_action_from_dict(node_payload["action"]),
                edges=dict(node_payload.get("edges") or {}),
            )
            for node_id, node_payload in payload["nodes"].items()
        }
        handler = IncidentHandler(
            alert_type=payload["alert_type"],
            name=payload["name"],
            root=payload["root"],
            nodes=nodes,
            version=int(payload.get("version", 1)),
            author=payload.get("author", "oce"),
            max_steps=int(payload.get("max_steps", 50)),
        )
    except SerializationError:
        raise
    except KeyError as missing:
        raise SerializationError(f"handler document missing field: {missing}") from missing
    except (AttributeError, TypeError, ValueError) as exc:
        # A field of the wrong type or value (``"nodes": []``, ``"version":
        # "v2"``, ``"max_steps": null``, an unknown scope) is as permanent
        # as a missing one.
        raise SerializationError(f"malformed handler document: {exc}") from exc
    handler.validate()
    return handler


def handler_to_json(handler: IncidentHandler, indent: int = 2) -> str:
    """Serialize a handler to a JSON string."""
    return json.dumps(handler_to_dict(handler), indent=indent, sort_keys=True)


def handler_from_json(document: str) -> IncidentHandler:
    """Deserialize a handler from a JSON string."""
    try:
        payload = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid handler JSON: {exc}") from exc
    return handler_from_dict(payload)
