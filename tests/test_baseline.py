"""The compiler on the evaluation layouts: valid schedules with pinned op counts.

The op counts are the compiler's output when the test was written; a change
to the router that moves one must say so by updating the table.
"""

import pytest

from shuttlekit import baseline, kernel, trap
from shuttlekit.errors import CompileError
from shuttlekit.schedule import validate

# (layout, qubits) -> op counts of random_circuit(qubits, 4, seed) for seeds 0, 1, 2.
EVAL_OPS = {
    ("ring", 3): (38, 21, 43),
    ("ring", 4): (44, 58, 49),
    ("multi_linear", 3): (32, 21, 43),
    ("multi_linear", 4): (33, 58, 58),
    ("four_way", 3): (32, 20, 37),
    ("four_way", 4): (38, 57, 64),
}


@pytest.mark.parametrize(
    "kind,qubits,seed",
    [(kind, qubits, seed) for kind, qubits in EVAL_OPS for seed in range(3)],
)
def test_compile_on_eval_layouts(kind, qubits, seed):
    graph = trap.build_eval_layout(kind, qubits)
    schedule = baseline.compile(baseline.random_circuit(qubits, 4, seed), graph)
    report = validate(schedule)
    assert report.ok, report.reason
    assert len(schedule.ops) == EVAL_OPS[kind, qubits][seed]


def test_sealed_router_fails_before_searching(monkeypatch):
    """Junction locks box the router in at gate 22; it must stop there at once.

    Counted in kernel successor calls, not seconds: searching from the
    sealed state spends its whole budget, over 258,000 calls, for nothing.
    """
    calls = 0
    successors = kernel.successors

    def counted(*args):
        nonlocal calls
        calls += 1
        return successors(*args)

    monkeypatch.setattr(kernel, "successors", counted)
    with pytest.raises(CompileError, match="junction locks seal gate 22's operands"):
        baseline.compile(baseline.random_circuit(6, 6, 1), trap.build_branched(6, 2, 2))
    assert 0 < calls < 10_000
