"""Golden snapshot of the random-circuit dataset the CLI writes."""

import hashlib

from shuttlekit import cli

# sha256 of the files written by
#   gen-dataset --seed 1 --qubits 2-3 --train-per-qubit 4 --eval-per-qubit 1
# A change here changes the training data: regenerate only on purpose.
GOLDEN = {
    "train.jsonl": "4b27017c351c14ea02e2cee2a70881754ba5a60744cdae7f6f64a929994fcb2e",
    "eval.jsonl": "80d5d4b19bb2200686df0b91689b52765d569cd030dc4d64fb1c8499820fde18",
}


def test_gen_dataset_matches_golden_snapshot(tmp_path, capsys):
    argv = [
        "gen-dataset", "--seed", "1", "--qubits", "2-3",
        "--train-per-qubit", "4", "--eval-per-qubit", "1",
        "--out-dir", str(tmp_path),
    ]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == "train entries: 78\neval entries: 18\n"
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN
    }
    assert digests == GOLDEN
