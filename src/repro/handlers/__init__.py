"""Incident handlers: actions, decision-tree workflows, registry and execution."""

from .actions import (
    DEFAULT_OUTCOME,
    Action,
    ActionContext,
    ActionResult,
    CoalescingScope,
    MitigationAction,
    QueryAction,
    ScopeSwitchAction,
)
from .builtin import default_registry, delivery_backlog_handler
from .execution import (
    ExecutionResult,
    HandlerExecutionError,
    HandlerExecutor,
    StepTrace,
)
from .handler import (
    HandlerBuilder,
    HandlerNode,
    HandlerValidationError,
    IncidentHandler,
    linear_handler,
)
from .registry import HandlerNotFoundError, HandlerRegistry, RegistryEntry
from .serialization import (
    CLASSIFIERS,
    SerializationError,
    handler_from_dict,
    handler_from_json,
    handler_to_dict,
    handler_to_json,
    register_classifier,
)

__all__ = [
    "DEFAULT_OUTCOME",
    "Action",
    "ActionContext",
    "ActionResult",
    "CoalescingScope",
    "MitigationAction",
    "QueryAction",
    "ScopeSwitchAction",
    "default_registry",
    "delivery_backlog_handler",
    "ExecutionResult",
    "HandlerExecutionError",
    "HandlerExecutor",
    "StepTrace",
    "HandlerBuilder",
    "HandlerNode",
    "HandlerValidationError",
    "IncidentHandler",
    "linear_handler",
    "HandlerNotFoundError",
    "HandlerRegistry",
    "RegistryEntry",
    "CLASSIFIERS",
    "SerializationError",
    "handler_from_dict",
    "handler_from_json",
    "handler_to_dict",
    "handler_to_json",
    "register_classifier",
]
