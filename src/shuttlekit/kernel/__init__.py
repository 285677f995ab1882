"""Compact state encodings and the search kernel behind allowed_ops and the router.

The kernel works on flat vertex-indexed tuples instead of the rich
dataclasses so that states hash cheaply. `TrapGraph.encoded` flattens a
trap once per graph, site tables included, so per-state calls test only
occupancy, locks and capacity; `encode_state` and `encode_gates` below
flatten a state and a gate list. The search functions, the router's
`route_search` among them, are plain Python and live in `kernel.pure`;
package code calls them through this module.
"""

from __future__ import annotations

from types import ModuleType

from ..state import TrapState
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
)

BACKEND = "pure"


def get_backend() -> ModuleType:
    """The module that implements the kernel functions, for tools that wrap them."""
    return pure


def encode_state(
    state: TrapState, n: int
) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """Encode occupancy and junction locks as fixed-length tuples.

    Empty vertices become empty tuples; an unset lock is -1.
    """
    chains = tuple(state.chains.get(v, ()) for v in range(n))
    locks = tuple(state.junction_locks.get(v, -1) for v in range(n))
    return chains, locks


def encode_gates(gates) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Encode gates as (id, operands) pairs, preserving order."""
    return tuple((g.id, g.qubits) for g in gates)
