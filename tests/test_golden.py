"""Byte-for-byte output contract: SHA-256s of CLI outputs, frozen from the
scalar trial loop before the offline trace kernel and the columnar trace
replaced it. Any change here is a change to output bytes and must be
justified as one."""

import hashlib

import pytest

from pwlearn import cli

AUDIT_STDOUT = "c51ef2c94942e871208ba57b613650be1812bf5f5c89f2762b62278a90e6b975"
MATCH_STDOUT = "1ee79e31280d509633a136a636d1d025d6580c08bb3ff629aae9565b1fc928d1"
MATCH_TRACE_CSV = "717d1528ab1b49d000808d1600c19e29171056db00e8de89883f0a2a8eb3f719"
# S=13: 8,192 rows, so the trace spans two of the writer's 4,096-row chunks.
# Frozen from the csv.writer trace writer, before the one-template writer.
MATCH_TRACE_CSV_S13 = "2e290483a8436a1d60a5a39397c2e2b2d5e4642639cbb1859ffb55d6b23b71c8"
# Rows inside (0, 0.5) and outside it, whose undefined columns print "nan".
# Frozen from the writer that formatted the two kinds of row separately.
BOUNDS_STDOUT = "f11a4594444be2f7a53b9d7544fffa310056ec3aa6f222ff9b59917d682a1cf6"
# zero's y_hat is one run and every learner's d one run per stage. Frozen
# from the writer that formatted every field of every row.
MATCH_TRACE_CSV_ZERO_S13 = "cdcae030e32f83ab7adb8c7ad6bc7c0f82a0ee6929440e44869af4befb7a9fce"
MATCH_TRACE_CSV_NEAREST_S13 = "c3fd3109266824fc3c9a8957d683c1c2166752233c0c058becd61d1754b707aa"
# The stdouts of sweep --epsilons 0.4,0.1 --stages 8 for zero, nearest and
# linint, hashed in that order.
SWEEP_CSV = "ce8174326dc706e4251f7032455964ecc16dc97b81cdfb3008934cf4483fde57"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_audit_report_bytes(capsys):
    assert cli.main(["audit", "--runs", "20", "--seed", "7", "--stages", "6"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == AUDIT_STDOUT


def test_match_json_and_trace_csv_bytes(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    argv = ["match", "--learner", "linint", "--epsilon", "0.1", "--stages", "10"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == MATCH_STDOUT
    assert _sha256(out.read_bytes()) == MATCH_TRACE_CSV


def test_trace_csv_bytes_across_chunks(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    argv = ["match", "--learner", "linint", "--epsilon", "0.1", "--stages", "13"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == MATCH_TRACE_CSV_S13


@pytest.mark.parametrize(
    "learner, digest",
    [("zero", MATCH_TRACE_CSV_ZERO_S13), ("nearest", MATCH_TRACE_CSV_NEAREST_S13)],
)
def test_trace_csv_bytes_of_the_baselines(tmp_path, capsys, learner, digest):
    out = tmp_path / "trace.csv"
    argv = ["match", "--learner", learner, "--epsilon", "0.1", "--stages", "13"]
    assert cli.main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert _sha256(out.read_bytes()) == digest


def test_sweep_csv_bytes(capsys):
    sha = hashlib.sha256()
    for learner in ("zero", "nearest", "linint"):
        argv = ["sweep", "--learner", learner, "--epsilons", "0.4,0.1", "--stages", "8"]
        assert cli.main(argv) == 0
        sha.update(capsys.readouterr().out.encode())
    assert sha.hexdigest() == SWEEP_CSV


def test_bounds_table_bytes(capsys):
    assert cli.main(["bounds", "--epsilons", "0.01,0.3,0.5,0.7,0.999"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == BOUNDS_STDOUT
