"""The shuttling rules and the search kernel, on the encoding TrapState holds.

A TrapState keeps its chains and locks as the vertex-indexed tuples the
kernel reads, and `TrapGraph.encoded` flattens a trap once per graph, so no
call converts a state; `encode_gates` below flattens a gate list. The
functions are plain Python in `kernel.pure`, and package code calls them
through this module.
"""

from __future__ import annotations

from types import ModuleType

from . import pure
from .pure import (
    EXECUTE,
    MERGE,
    SEPARATE,
    SWAP,
    TRANSLATE,
    positions,
    reachable_gates,
    ready_gates,
    route_search,
    shortest_route,
    successors,
    transition,
)

BACKEND = "pure"


def get_backend() -> ModuleType:
    """The module that implements the kernel functions, for tools that wrap them."""
    return pure


def encode_gates(gates) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Encode gates as (id, operands) pairs, preserving order."""
    return tuple((g.id, g.qubits) for g in gates)
