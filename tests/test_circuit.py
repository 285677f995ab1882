"""Circuit parsing and the first-layer / next-executable decomposition.

The layering tests check against a brute-force predecessor scan written
from the dependency definition alone, so a regression in the cached
incremental bookkeeping cannot hide.
"""

import random

import pytest

from shuttlekit import baseline, trap
from shuttlekit.circuit import (
    MAX_QUBITS,
    Circuit,
    Gate,
    QASM_HEADER,
    parse_circuit,
    serialize_circuit,
)
from shuttlekit.errors import CircuitError, OrderViolationError
from shuttlekit.schedule import validate


FIG1_STYLE = """OPENQASM 2.0;
include "qelib1.inc";
qreg q[2];
cx q[0], q[1];
h q[0];
cx q[1], q[0];
"""


def scan_first_layer(gates, executed):
    """Oracle: a gate is first-layer iff no smaller pending id shares a qubit."""
    pending = [g for g in gates if g.id not in executed]
    out = []
    for g in pending:
        blocked = any(
            p.id < g.id and set(p.qubits) & set(g.qubits) for p in pending
        )
        if not blocked:
            out.append(g.id)
    return out


def scan_next_executable(gates, executed):
    """Oracle: pending gates promoted by removing one first-layer gate."""
    first = scan_first_layer(gates, executed)
    promoted = set()
    for f in first:
        promoted.update(scan_first_layer(gates, executed | {f}))
    return [g.id for g in gates if g.id in promoted and g.id not in first]


def random_gates(rng, qubit_count, count):
    gates = []
    for gid in range(1, count + 1):
        if qubit_count >= 2 and rng.random() < 0.7:
            a, b = rng.sample(range(qubit_count), 2)
            gates.append(Gate(gid, (a, b)))
        else:
            gates.append(Gate(gid, (rng.randrange(qubit_count),)))
    return tuple(gates)


# -- parsing ---------------------------------------------------------------


def test_parse_three_gate_circuit():
    c = parse_circuit(FIG1_STYLE)
    assert c.qubit_count == 2
    assert len(c.gates) == 3
    assert [g.id for g in c.gates] == [1, 2, 3]
    assert c.gates[0].qubits == (0, 1)
    assert c.gates[1].qubits == (0,)
    assert c.gates[2].qubits == (1, 0)


def test_parse_empty_circuit():
    c = parse_circuit(QASM_HEADER + "qreg q[3];\n")
    assert c.qubit_count == 3
    assert c.gates == ()
    assert c.first_layer == ()
    assert c.is_complete


def test_parse_fourteen_gates():
    rng = random.Random(4)
    body = []
    for _ in range(14):
        if rng.random() < 0.6:
            a, b = rng.sample(range(4), 2)
            body.append(f"cx q[{a}], q[{b}];")
        else:
            body.append(f"t q[{rng.randrange(4)}];")
    c = parse_circuit(QASM_HEADER + "qreg q[4];\n" + "\n".join(body))
    assert len(c.gates) == 14


def test_parse_ignores_noise_statements():
    text = (
        QASM_HEADER
        + "qreg q[2];\n"
        + "creg c[2];\n"
        + "cx q[0], q[1]; // entangle\n"
        + "barrier q;\n"
        + "measure q[0] -> c[0];\n"
    )
    c = parse_circuit(text)
    assert len(c.gates) == 1


def test_parse_statement_split_on_semicolons():
    c = parse_circuit(QASM_HEADER + "qreg q[2]; h q[0]; cx q[0],q[1];")
    assert len(c.gates) == 2


def test_parse_rejects_three_operand_gate():
    with pytest.raises(CircuitError):
        parse_circuit(QASM_HEADER + "qreg q[3];\nccx q[0], q[1], q[2];")


def test_parse_rejects_unknown_qubit():
    with pytest.raises(CircuitError):
        parse_circuit(QASM_HEADER + "qreg q[2];\nh q[5];")


def test_parse_rejects_repeated_operand():
    with pytest.raises(CircuitError):
        parse_circuit(QASM_HEADER + "qreg q[2];\ncx q[1], q[1];")


def test_parse_rejects_second_qreg():
    with pytest.raises(CircuitError):
        parse_circuit(QASM_HEADER + "qreg q[2];\nqreg r[2];\nh q[0];")


def test_parse_requires_qreg_before_gates():
    with pytest.raises(CircuitError):
        parse_circuit(QASM_HEADER + "h q[0];\nqreg q[2];")


def test_serialize_round_trip():
    c = parse_circuit(FIG1_STYLE)
    again = parse_circuit(serialize_circuit(c))
    assert again.qubit_count == c.qubit_count
    assert [(g.id, g.qubits) for g in again.gates] == [
        (g.id, g.qubits) for g in c.gates
    ]


# -- constructor validation --------------------------------------------------


def test_circuit_rejects_gap_in_ids():
    with pytest.raises(CircuitError, match="out of sequence"):
        Circuit(2, (Gate(1, (0,)), Gate(3, (1,))))


def test_circuit_rejects_duplicate_operand():
    with pytest.raises(CircuitError):
        Circuit(2, (Gate(1, (0, 0)),))


def test_circuit_rejects_unknown_qubit():
    with pytest.raises(CircuitError):
        Circuit(2, (Gate(1, (0, 2)),))


def test_huge_register_is_rejected_before_any_per_qubit_allocation():
    message = f"99999999999 qubits exceed the limit of {MAX_QUBITS}"
    with pytest.raises(CircuitError, match=message):
        parse_circuit(QASM_HEADER + "qreg q[99999999999];\nh q[0];\n")
    with pytest.raises(CircuitError, match=message):
        Circuit(99999999999, ())
    with pytest.raises(CircuitError, match=message):
        baseline.random_circuit(99999999999, 1, 0)
    assert Circuit(MAX_QUBITS, ()).qubit_count == MAX_QUBITS


@pytest.mark.parametrize(
    "body,lineno",
    [(f"qreg q[{'9' * 5000}];\n", 3), (f"qreg q[2];\nh q[{'9' * 5000}];\n", 4)],
    ids=["register_size", "operand_index"],
)
def test_parse_rejects_an_integer_past_the_digit_limit(body, lineno):
    with pytest.raises(CircuitError, match=f"^line {lineno}: integer of 5000 digits is too long$"):
        parse_circuit(QASM_HEADER + body)


@pytest.mark.parametrize(
    "body,message",
    [
        ("qreg q[\uff13];\ncx q[0],q[1];\n", "line 3: malformed qreg"),
        ("qreg q[3];\ncx q[\uff10],q[1];\n", "line 4: malformed operand"),
        ("qreg q[3];\ncx q[\u0661],q[0];\n", "line 4: malformed operand"),
    ],
    ids=["register_size", "fullwidth_index", "arabic_indic_index"],
)
def test_parse_reads_ascii_digits_only(body, message):
    with pytest.raises(CircuitError, match=f"^{message}"):
        parse_circuit(QASM_HEADER + body)


# -- layering ---------------------------------------------------------------


def test_chain_layering_by_hand():
    # g1(q0,q1) g2(q1,q2) g3(q0,q2): a strict chain.
    c = Circuit(3, (Gate(1, (0, 1)), Gate(2, (1, 2)), Gate(3, (0, 2))))
    assert [g.id for g in c.first_layer] == [1]
    assert [g.id for g in c.next_executable] == [2]
    c = c.mark_executed(1)
    assert [g.id for g in c.first_layer] == [2]
    assert [g.id for g in c.next_executable] == [3]
    c = c.mark_executed(2)
    assert [g.id for g in c.first_layer] == [3]
    assert c.next_executable == ()


def test_independent_gates_all_first_layer():
    c = Circuit(4, (Gate(1, (0, 1)), Gate(2, (2, 3))))
    assert [g.id for g in c.first_layer] == [1, 2]
    assert c.next_executable == ()


def test_mark_executed_rejects_deeper_gate():
    c = Circuit(3, (Gate(1, (0, 1)), Gate(2, (1, 2))))
    with pytest.raises(OrderViolationError):
        c.mark_executed(2)


def test_mark_executed_rejects_repeat():
    c = Circuit(2, (Gate(1, (0, 1)),)).mark_executed(1)
    with pytest.raises(OrderViolationError):
        c.mark_executed(1)


def test_mark_executed_rejects_unknown_gate():
    c = Circuit(2, (Gate(1, (0, 1)),))
    with pytest.raises(CircuitError):
        c.mark_executed(9)


def test_first_layer_never_empty_while_pending():
    rng = random.Random(7)
    for _ in range(200):
        qn = rng.randrange(2, 6)
        c = Circuit(qn, random_gates(rng, qn, rng.randrange(1, 8)))
        while not c.is_complete:
            assert c.first_layer
            c = c.mark_executed(c.first_layer[0].id)


def test_layering_matches_predecessor_scan():
    rng = random.Random(123)
    for _ in range(300):
        qn = rng.randrange(1, 6)
        gates = random_gates(rng, qn, rng.randrange(0, 7))
        c = Circuit(qn, gates)
        while True:
            assert [g.id for g in c.first_layer] == scan_first_layer(
                gates, c.executed
            )
            assert [g.id for g in c.next_executable] == scan_next_executable(
                gates, c.executed
            )
            if c.is_complete:
                break
            # execute a random first-layer gate, not always the lowest
            pick = rng.choice(c.first_layer)
            c = c.mark_executed(pick.id)


def test_disjoint_gates_commute():
    c = Circuit(4, (Gate(1, (0, 1)), Gate(2, (2, 3)), Gate(3, (1, 2))))
    one = c.mark_executed(1).mark_executed(2)
    other = c.mark_executed(2).mark_executed(1)
    assert one.executed == other.executed
    assert [g.id for g in one.first_layer] == [g.id for g in other.first_layer]


def test_frontier_matches_scan_on_long_circuits():
    """Every query after every step of random legal orders, 300+ gates each."""
    rng = random.Random(2024)
    for qn in (1, 4, 8):
        gates = random_gates(rng, qn, rng.randrange(300, 340))
        c = Circuit(qn, gates)
        executed = set()
        while True:
            first = scan_first_layer(gates, executed)
            assert [g.id for g in c.first_layer] == first
            assert [g.id for g in c.next_executable] == scan_next_executable(gates, executed)
            assert c.executed == executed
            assert c.executed_count == len(executed)
            assert c.is_complete == (len(executed) == len(gates))
            if c.is_complete:
                break
            if executed and rng.random() < 0.1:
                before = c
                with pytest.raises(OrderViolationError, match="already executed"):
                    c.mark_executed(rng.choice(sorted(executed)))
                deeper = [g.id for g in gates if g.id not in executed and g.id not in first]
                if deeper:
                    with pytest.raises(OrderViolationError, match="pending predecessors"):
                        c.mark_executed(rng.choice(deeper))
                with pytest.raises(CircuitError, match="unknown gate"):
                    c.mark_executed(rng.choice((0, len(gates) + 1)))
                assert c == before
            pick = rng.choice(first)
            following = c.mark_executed(pick)
            assert following != c
            c = following
            executed.add(pick)


def test_replay_validates_the_gate_list_only_at_construction(monkeypatch):
    calls = []
    check = Circuit.__post_init__

    def counted(self):
        calls.append(self)
        check(self)

    graph = trap.build_linear(2)
    schedule = baseline.compile(baseline.random_circuit(3, 6, 1), graph)
    monkeypatch.setattr(Circuit, "__post_init__", counted)
    assert validate(schedule).ok
    assert calls == []
    parse_circuit(serialize_circuit(schedule.circuit))
    assert len(calls) == 1
