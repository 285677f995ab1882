"""Legal transitions and route search over encoded states.

The one implementation of the shuttling rules that the router, the oracle
and ops.allowed_ops enumerate with; ops.violation words the same rules per
op, and tests hold the two equal. Operates on the compact encodings: the
trap as `TrapGraph.encoded`, chains as a vertex-indexed tuple of qubit
tuples, locks as a vertex-indexed tuple with -1 for unset. The trap's
static site tables settle every state-independent condition (flags,
lateral pairs, junction sides) once per trap, so a call tests only
occupancy, locks and capacity. Op codes are (kind, a, b) with kinds
0=Translate(src, dst), 1=Separate(v), 2=Merge(v), 3=Swap(v),
4=ExecuteGate(gate); ops.decode_op turns one into a ShuttleOp.
"""

from __future__ import annotations

from collections import deque

TRANSLATE, SEPARATE, MERGE, SWAP, EXECUTE = range(5)


def successors(trap, chains, locks):
    """All legal shuttling transitions from a state, in canonical op order."""
    capacity, is_junction = trap[1], trap[3]
    adjacent, separate_sites, merge_sites, swap_sites = trap[7:11]
    out = []
    for src, chain in enumerate(chains):
        if not chain:
            continue
        for dst, dst_is_junction in adjacent[src]:
            if chains[dst]:
                continue
            if dst_is_junction and locks[dst] == src:
                continue
            new_chains = list(chains)
            new_chains[dst] = chain
            new_chains[src] = ()
            if is_junction[src]:
                new_locks = list(locks)
                new_locks[src] = dst
                out.append(((TRANSLATE, src, dst), tuple(new_chains), tuple(new_locks)))
            else:
                out.append(((TRANSLATE, src, dst), tuple(new_chains), locks))
    for v, left, right in separate_sites:
        chain = chains[v]
        if len(chain) < 2 or chains[left] or chains[right]:
            continue
        head = (len(chain) + 1) // 2
        new_chains = list(chains)
        new_chains[left] = chain[:head]
        new_chains[right] = chain[head:]
        new_chains[v] = ()
        out.append(((SEPARATE, v, -1), tuple(new_chains), locks))
    for v, left, right in merge_sites:
        if chains[v] or not chains[left] or not chains[right]:
            continue
        if len(chains[left]) + len(chains[right]) > capacity:
            continue
        new_chains = list(chains)
        new_chains[v] = chains[left] + chains[right]
        new_chains[left] = ()
        new_chains[right] = ()
        out.append(((MERGE, v, -1), tuple(new_chains), locks))
    for v in swap_sites:
        if len(chains[v]) >= 2:
            new_chains = list(chains)
            new_chains[v] = chains[v][::-1]
            out.append(((SWAP, v, -1), tuple(new_chains), locks))
    return out


def ready_gates(trap, chains, gates):
    """Gate ids whose operands sit alone together in a gate-capable vertex."""
    n = trap[0]
    can_gate = trap[4]
    out = []
    for gate_id, operands in gates:
        first = operands[0]
        vertex = -1
        for v in range(n):
            if first in chains[v]:
                vertex = v
                break
        if vertex < 0 or not can_gate[vertex]:
            continue
        if len(chains[vertex]) != len(operands):
            continue
        if all(q in chains[vertex] for q in operands):
            out.append(gate_id)
    return out


def reachable_gates(trap, chains, locks, gates):
    """Gate ids whose operands could ever meet in one gate-capable vertex.

    A sound over-approximation of what any op sequence can reach, so a gate
    left out can never execute. Occupancy and capacity are ignored, and a
    qubit moves along trap edges. A Translate u -> w into junction w with
    locks[w] == u stays blocked until some chain can reach w; once one can,
    every side of w counts as open, because leaving w rewrites its lock.
    Separate and Merge need no rule of their own: they move qubits between
    a vertex and its lateral neighbours, which are adjacent, and a legal
    split or merge touches no junction, so no lock ever blocks those edges.
    With no lock set every gate is returned at once, since traps are
    connected.
    """
    if max(locks) < 0:
        return [gate_id for gate_id, _ in gates]
    n, neighbors, is_junction, can_gate = trap[0], trap[2], trap[3], trap[4]
    opened: set[int] = set()

    def reach(sources):
        seen = set(sources)
        stack = list(sources)
        while stack:
            u = stack.pop()
            for w in neighbors[u]:
                if w in seen or (is_junction[w] and locks[w] == u and w not in opened):
                    continue
                seen.add(w)
                stack.append(w)
        return seen

    occupied = [v for v in range(n) if chains[v]]
    while True:
        reached = {w for w in reach(occupied) if is_junction[w]}
        if reached <= opened:
            break
        opened |= reached
    vertex_of = {q: v for v in occupied for q in chains[v]}
    targets: dict[int, set[int]] = {}
    out = []
    for gate_id, operands in gates:
        common = None
        for q in operands:
            v = vertex_of[q]
            if v not in targets:
                targets[v] = {w for w in reach([v]) if can_gate[w]}
            common = targets[v] if common is None else common & targets[v]
        if common:
            out.append(gate_id)
    return out


def shortest_route(trap, chains, locks, gates):
    """Shortest op sequence ending in an ExecuteGate, or None if unreachable.

    Breadth-first over successors; ties resolve by canonical op order, so
    the result is deterministic. When reachable_gates already rules every
    gate out, it returns None without searching.
    """
    ready = ready_gates(trap, chains, gates)
    if ready:
        return ((EXECUTE, min(ready), -1),)
    if not reachable_gates(trap, chains, locks, gates):
        return None
    start = (chains, locks)
    parents: dict[tuple, tuple | None] = {start: None}
    queue = deque([start])
    while queue:
        current = queue.popleft()
        for op, next_chains, next_locks in successors(trap, current[0], current[1]):
            nxt = (next_chains, next_locks)
            if nxt in parents:
                continue
            parents[nxt] = (current, op)
            ready = ready_gates(trap, next_chains, gates)
            if ready:
                path = [(EXECUTE, min(ready), -1)]
                node: tuple | None = nxt
                while parents[node] is not None:
                    node, op_code = parents[node]
                    path.append(op_code)
                return tuple(reversed(path))
            queue.append(nxt)
    return None
