"""Every benchmark op's output, checked byte for byte against perfbench's goldens.

The ops of `perfbench/run.py` are dispatched in this process; each output
must have the sha256 and byte count recorded in `perfbench/goldens.json`.
"""
import hashlib
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from modgraphs.cli import dispatch

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402

OPS = [op for ops in run.WORKLOADS.values() for op in ops]


@pytest.mark.parametrize("op", OPS, ids=[op.id for op in OPS])
def test_benchmark_op_output_matches_its_golden(op):
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert dispatch(list(op.argv)) == 0
    data = buf.getvalue().encode("utf-8")
    assert {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)} == \
        run.load_goldens()[op.id]
