"""The shuttling rules and the routing search, on the encoding TrapState holds.

The one module that states when an op is legal and words the rule an
illegal one breaks: `illegal` for a shuttling op and `unready` for an
Execute Gate's operands, each as a template ops.violation fills in.
`transition` applies an op's effect once `illegal` passes it; ops.apply,
which schedule.replay calls for every op, and the router step ops through
it. `successors` and `ready_gates` (which states the readiness rule)
filter candidates by the two checks. `route_search` is the package's one
state-space search; its docstring argues its two-int state.

States come as TrapState holds them, the trap as `TrapGraph.encoded`, and
gates as Circuit.first_layer gives them, of which only `id` and `qubits`
are read. Op codes are (kind, a, b) with kinds 0=Translate(src, dst),
1=Separate(v), 2=Merge(v), 3=Swap(v), 4=ExecuteGate(gate), b = -1 for one
operand; each ops.ShuttleOp is one.
"""

from __future__ import annotations

import heapq
import sys
from bisect import bisect_right
from functools import partial
from types import ModuleType
from typing import NamedTuple

TRANSLATE, SEPARATE, MERGE, SWAP, EXECUTE = range(5)

# The benchmark harness records BACKEND and wraps the kernel functions on
# the module get_backend() returns; both go once it stops reading them.
BACKEND = "pure"


def get_backend() -> ModuleType:
    """This module, for tools that wrap the kernel functions where they are defined."""
    return sys.modules[__name__]


def illegal(trap, chains, locks, code):
    """None if shuttling op `code` is legal in (chains, locks), else the first rule it breaks.

    The rule is a constant str.format template over {a} and {b}, the code's
    operands, {pair}, a Separate or Merge site's lateral pair, {combined},
    the length of the chain a Merge would build, and {capacity}; a vertex
    where no state can do the op gives TrapGraph.site_violation's reason in
    full. Every vertex id is bounds-checked, since op text can come from a
    model. An execute code or an unknown kind is illegal.
    """
    kind, a, b = code
    n = trap[0]
    if kind == TRANSLATE:
        if not (0 <= a < n and 0 <= b < n):
            return "no vertex pair ({a}, {b})"
        if b not in trap[2][a]:
            return "vertices {a} and {b} are not adjacent"
        if not chains[a]:
            return "vertex {a} is empty"
        if chains[b]:
            return "vertex {b} is occupied"
        if locks[b] == a and trap[3][b]:
            return "junction {b} was left toward {a} and cannot be re-entered from there"
        return None
    if not SEPARATE <= kind <= SWAP:
        return "not a shuttling op"
    if not 0 <= a < n:
        return "no vertex {a}"
    reason = trap[6][kind - SEPARATE][a]
    if reason is not None:
        return reason
    chain = chains[a]
    if kind == MERGE:
        left, right = trap[5][a]
        if chain:
            return "vertex {a} is occupied"
        if not chains[left]:
            return "lateral vertex {pair[0]} is empty"
        if not chains[right]:
            return "lateral vertex {pair[1]} is empty"
        if len(chains[left]) + len(chains[right]) > trap[1]:
            return "combined chain of {combined} exceeds capacity {capacity}"
        return None
    if len(chain) < 2:
        return "vertex {a} holds fewer than two qubits"
    if kind == SEPARATE:
        left, right = trap[5][a]
        if chains[left]:
            return "lateral vertex {pair[0]} is occupied"
        if chains[right]:
            return "lateral vertex {pair[1]} is occupied"
    return None


def transition(trap, chains, locks, code):
    """The (chains, locks) that shuttling op `code` leads to, or None if `illegal` rejects it."""
    if illegal(trap, chains, locks, code) is not None:
        return None
    kind, a, b = code
    chain = chains[a]
    new_chains = list(chains)
    if kind == TRANSLATE:
        new_chains[b] = chain
        new_chains[a] = ()
        if trap[3][a]:
            locks = locks[:a] + (b,) + locks[a + 1 :]
    elif kind == SEPARATE:
        left, right = trap[5][a]
        head = (len(chain) + 1) // 2
        new_chains[left], new_chains[right], new_chains[a] = chain[:head], chain[head:], ()
    elif kind == MERGE:
        left, right = trap[5][a]
        new_chains[a] = chains[left] + chains[right]
        new_chains[left] = new_chains[right] = ()
    else:
        new_chains[a] = chain[::-1]
    return tuple(new_chains), locks


def successors(trap, chains, locks):
    """The codes of all legal shuttling ops from a state, in canonical op order.

    Translates from occupied vertices by (src, dst), then Separate, Merge
    and Swap at their sites by vertex. No successor state is built.
    """
    neighbors = trap[2]
    codes = [(TRANSLATE, v, w) for v, chain in enumerate(chains) if chain for w in neighbors[v]]
    codes += [(SEPARATE, v, -1) for v, _, _ in trap[7]] + [(MERGE, v, -1) for v, _, _ in trap[8]]
    codes += [(SWAP, v, -1) for v in trap[9]]
    return [code for code in codes if illegal(trap, chains, locks, code) is None]


def unready(trap, chains, qubits):
    """None if a gate on `qubits` is ready in `chains`, else the first rule it breaks.

    Readiness as `ready_gates` states it. The rule comes as a template like
    `illegal`'s, over {a}, the gate id, {qubits}, the operands, and
    {vertex}, where the first one sits.
    """
    first = qubits[0]
    for vertex, chain in enumerate(chains):
        if first in chain:
            break
    else:
        return "qubit {qubits[0]} is not placed"
    if len(qubits) > 1 and qubits[1] not in chain:
        if any(qubits[1] in other for other in chains):
            return "qubits of gate {a} sit in different vertices"
        return "qubit {qubits[1]} is not placed"
    if not trap[4][vertex]:
        return "vertex {vertex} does not allow gate execution"
    if len(chain) != len(qubits):
        return "vertex {vertex} holds qubits besides those of gate {a}"
    return None


def ready_gates(trap, chains, gates):
    """Ids of the ready gates among `gates`, the ones `unready` passes, in the order given.

    The readiness rule: a gate is ready exactly when its one or two
    operands sit alone together in a gate-capable vertex, that is, when its
    operand tuple, read either way, is the whole chain of one of the trap's
    `gate_sites`. So one pass over those chains answers every gate.
    Precondition: each qubit appears at most once in `chains`, as
    TrapState.from_dicts and every kernel op guarantee, and each gate has
    one or two distinct operands, as Circuit construction checks.
    """
    alone = set()
    for v in trap[10]:
        chain = chains[v]
        alone.add(chain)
        alone.add(chain[::-1])
    return [gate.id for gate in gates if gate.qubits in alone]


def reachable_gates(trap, chains, locks, gates):
    """Gate ids whose operands could ever meet in one gate-capable vertex.

    A sound over-approximation, so a gate left out can never execute.
    Occupancy and capacity are ignored, and a qubit moves along trap edges.
    A Translate u -> w into junction w with locks[w] == u stays blocked
    until some chain can reach w; once one can, every side of w counts as
    open, because leaving w rewrites its lock. Separate and Merge move
    qubits between adjacent vertices and touch no junction, so no lock
    blocks them. With no lock set every gate is returned at once, since
    traps are connected.
    """
    if max(locks) < 0:
        return [gate.id for gate in gates]
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
    for gate in gates:
        common = None
        for q in gate.qubits:
            v = vertex_of[q]
            if v not in targets:
                targets[v] = {w for w in reach([v]) if can_gate[w]}
            common = targets[v] if common is None else common & targets[v]
        if common:
            out.append(gate.id)
    return out


def position_shift(n, qubit):
    """Where qubit's vertex field starts in a `positions` int, on an n-vertex trap."""
    return n + qubit * n.bit_length()


def positions(chains):
    """Qubit positions and occupancy of encoded chains, packed in one int.

    Bit v of the low n bits (n = len(chains)) is set when vertex v holds a
    chain; above them, qubit q's vertex sits in the field of
    n.bit_length() bits at position_shift(n, q). An unplaced qubit reads 0.
    """
    n = len(chains)
    packed = 0
    for v, chain in enumerate(chains):
        if chain:
            packed |= 1 << v
            for q in chain:
                packed |= v << position_shift(n, q)
    return packed




class _Lazy(dict):
    """A dict that computes a missing key's value with `fill` on first lookup and keeps it."""

    __slots__ = ("fill",)

    def __init__(self, fill):
        super().__init__()
        self.fill = fill

    def __missing__(self, key):
        value = self[key] = self.fill(key)
        return value


class KeyLayout(NamedTuple):
    """Where a `route_search` state key holds each vertex's chain code and lock.

    A chain's code is its qubits as base (qubit_count + 1) digits q + 1,
    first qubit most significant, so the empty chain is 0 and a chain of
    two or more ions reads at least `base`. power[k] is base ** k for k up
    to the longest chain, the trap's capacity capped at qubit_count. Vertex
    v's code sits in the bits `field` << shift[v], and its lock + 1 in
    `lock_field` << lock_shift[v], above every chain field. `length` maps a
    chain code to its ion count.
    """

    base: int
    power: list[int]
    field: int
    shift: list[int]
    lock_field: int
    lock_shift: list[int]
    length: dict[int, int]


def key_layout(trap, qubit_count) -> KeyLayout:
    """The `route_search` key layout on `trap` for `qubit_count` qubits, with a fresh `length`."""
    n = trap[0]
    base = qubit_count + 1
    power = [base**k for k in range(min(trap[1], qubit_count) + 1)]
    width = power[-1].bit_length()
    return KeyLayout(
        base,
        power,
        (1 << width) - 1,
        [v * width for v in range(n)],
        (1 << n.bit_length()) - 1,
        [n * width + v * n.bit_length() for v in range(n)],
        _Lazy(partial(bisect_right, power)),
    )


def state_key(layout, chains, locks):
    """The `route_search` key of (chains, locks), laid out by `layout`."""
    base, shift, lock_shift = layout.base, layout.shift, layout.lock_shift
    key = 0
    for v, chain in enumerate(chains):
        code = 0
        for q in chain:
            code = code * base + q + 1
        key |= code << shift[v] | (locks[v] + 1) << lock_shift[v]
    return key


def route_search(
    trap,
    chains,
    locks,
    layout,
    *,
    estimate,
    weight,
    seal_exits,
    seal_penalty,
    goal_mask,
    max_expansions,
):
    """Weighted best-first search from (chains, locks) to a goal state.

    A state is two ints: its exact key, laid out by the caller's `layout`
    (a `key_layout` of the trap and qubit count), which dedups it and holds
    its chains and locks, and its `positions` int, `packed`. A heap entry
    is (g + weight * h, g, insertion count, key, packed), with h =
    estimate(key, packed); no chains tuple is built past the start. A
    child's two ints are its parent's plus the change its op makes to the
    fields it touches. What that reads of a chain comes off its code
    through tables filled on a miss, which hold only the codes the search
    meets: its length (`layout.length`), the sum of its qubits'
    `position_shift` units, and the code of the reversed chain. `best` maps
    a key to one int, which no GC pass tracks: the cost above the parent's
    expansion serial, which indexes `expanded`, above the index of the op
    from the parent in a table of codes built once per call (0 for the
    start).

    A popped state is a goal when h is 1 and no vertex of `goal_mask` is
    occupied. Each op costs 1; a Translate out of junction j to dst costs
    `seal_penalty` more when no vertex of seal_exits[j][dst] is occupied
    (seal_exits[v] is None off junctions). Children come in `successors`
    order, and one that reaches a state already stored at no greater cost
    is dropped by one dict lookup.

    Returns (codes, spent, expansions, stored). `codes` is the tuple of op
    codes from the start to the first goal popped, or None when the search
    failed: `spent` is then True if it stopped with states left on the
    frontier because `max_expansions` expansions were made, and False if
    the frontier ran out.
    """
    n, neighbors, is_junction = trap[0], trap[2], trap[3]
    base, power, field, shift, lock_field, lock_shift, length = layout
    capacity = len(power) - 1
    unit = [1 << s for s in shift]
    lock_unit = [1 << s for s in lock_shift]
    qubit_unit = [1 << position_shift(n, q) for q in range(base - 1)]

    def units_of(code):
        total = 0
        while code:
            code, digit = divmod(code, base)
            total += qubit_unit[digit - 1]
        return total

    def reversed_code(code):
        flipped = 0
        while code:
            code, digit = divmod(code, base)
            flipped = flipped * base + digit
        return flipped

    units, reversal = _Lazy(units_of), _Lazy(reversed_code)
    table = [None]

    def indexed(code):
        table.append(code)
        return len(table) - 1

    # A Translate into junction dst is barred while dst's lock field holds
    # src + 1, which `lock_mask` picks out (0 off junctions).
    moves = [
        [
            (dst, 1 << dst, lock_field << lock_shift[dst] if is_junction[dst] else 0,
             (src + 1) << lock_shift[dst], unit[dst] - unit[src], dst - src,
             (1 << src) | (1 << dst), indexed((TRANSLATE, src, dst)))
            for dst in nbrs
        ]
        for src, nbrs in enumerate(neighbors)
    ]
    # `flip` is the site's and its lateral pair's occupancy bits; a Separate
    # needs only the site occupied among them, a Merge only the pair.
    separate_sites = [
        (v, left, right, left - v, right - v, (1 << v) | (1 << left) | (1 << right), 1 << v,
         indexed((SEPARATE, v, -1)))
        for v, left, right in trap[7]
    ]
    merge_sites = [
        (v, left, right, v - left, v - right, (1 << v) | (1 << left) | (1 << right),
         (1 << left) | (1 << right), indexed((MERGE, v, -1)))
        for v, left, right in trap[8]
    ]
    swap_sites = [(v, indexed((SWAP, v, -1))) for v in trap[9]]
    op_bits = len(table).bit_length()
    op_mask = (1 << op_bits) - 1
    # A serial indexes `expanded`, so it stays below max_expansions and
    # below sys.maxsize, more items than any list holds.
    serial_bits = min(max_expansions, sys.maxsize).bit_length()
    serial_mask = (1 << serial_bits) - 1
    cost_shift = op_bits + serial_bits
    penalty = seal_penalty << cost_shift
    occupancy = (1 << n) - 1
    heappush, heappop = heapq.heappush, heapq.heappop

    key = state_key(layout, chains, locks)
    best = {key: 0}
    expanded = []
    packed = positions(chains)
    heap = [(weight * estimate(key, packed), 0, 0, key, packed)]
    counter = 0
    expansions = 0
    while heap:
        f, g, _, key, packed = heappop(heap)
        if g > best[key] >> cost_shift:
            continue
        if f - g == weight and not packed & goal_mask:
            codes = []
            entry = best[key]
            while entry & op_mask:
                codes.append(table[entry & op_mask])
                entry = best[expanded[entry >> op_bits & serial_mask]]
            return tuple(reversed(codes)), False, expansions, len(best)
        if expansions >= max_expansions:
            return None, True, expansions, len(best)
        step = g + 1
        # A child stored at cost `step` or less reads below `bound`; `stamp`
        # is a child's entry at cost `step` less its op index.
        stamp = step << cost_shift | expansions << op_bits
        bound = (step + 1) << cost_shift
        expanded.append(key)
        expansions += 1
        occupied = packed & occupancy
        rest = occupied
        while rest:
            low = rest & -rest
            rest ^= low
            src = low.bit_length() - 1
            code = key >> shift[src] & field
            exits = seal_exits[src]
            leaves_junction = is_junction[src]
            if leaves_junction:
                lock_code = key >> lock_shift[src] & lock_field
            moved = units[code]
            for dst, dst_bit, lock_mask, barred, move, hop, flip, index in moves[src]:
                if occupied & dst_bit:
                    continue
                if lock_mask and key & lock_mask == barred:
                    continue
                child = key + code * move
                ng, entry, limit = step, stamp, bound
                if exits is not None and not occupied & exits[dst]:
                    ng += seal_penalty
                    entry += penalty
                    limit += penalty
                if leaves_junction:
                    child += (dst + 1 - lock_code) * lock_unit[src]
                if best.get(child, limit) < limit:
                    continue
                best[child] = entry + index
                new_packed = (packed ^ flip) + hop * moved
                counter += 1
                h = estimate(child, new_packed)
                heappush(heap, (ng + weight * h, ng, counter, child, new_packed))
        for v, left, right, to_left, to_right, flip, site, index in separate_sites:
            if occupied & flip != site:
                continue
            code = key >> shift[v] & field
            if code < base:
                continue
            head_code, tail_code = divmod(code, power[length[code] // 2])
            child = key - code * unit[v] + head_code * unit[left] + tail_code * unit[right]
            if best.get(child, bound) < bound:
                continue
            best[child] = stamp + index
            new_packed = (packed ^ flip) + to_left * units[head_code] + to_right * units[tail_code]
            counter += 1
            h = estimate(child, new_packed)
            heappush(heap, (step + weight * h, step, counter, child, new_packed))
        for v, left, right, from_left, from_right, flip, pair, index in merge_sites:
            if occupied & flip != pair:
                continue
            left_code = key >> shift[left] & field
            right_code = key >> shift[right] & field
            right_length = length[right_code]
            if length[left_code] + right_length > capacity:
                continue
            code = left_code * power[right_length] + right_code
            child = key + code * unit[v] - left_code * unit[left] - right_code * unit[right]
            if best.get(child, bound) < bound:
                continue
            best[child] = stamp + index
            new_packed = (
                (packed ^ flip) + from_left * units[left_code] + from_right * units[right_code]
            )
            counter += 1
            h = estimate(child, new_packed)
            heappush(heap, (step + weight * h, step, counter, child, new_packed))
        for v, index in swap_sites:
            code = key >> shift[v] & field
            if code < base:
                continue
            child = key + (reversal[code] - code) * unit[v]
            if best.get(child, bound) < bound:
                continue
            best[child] = stamp + index
            counter += 1
            h = estimate(child, packed)
            heappush(heap, (step + weight * h, step, counter, child, packed))
    return None, False, expansions, len(best)
