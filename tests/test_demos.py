import io
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from cli_runner import invoke

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(script):
    buf = io.StringIO()
    with redirect_stdout(buf):
        runpy.run_path(str(script), run_name="__main__")
    out = buf.getvalue()
    assert out.strip()
    assert "FAIL" not in out


def test_identity_tour_prints_the_record_verify_prints():
    record = invoke("verify", "odd", "--k", "3", "--n", "2").stdout
    buf = io.StringIO()
    with redirect_stdout(buf):
        runpy.run_path(str(Path(__file__).parent.parent / "demos" / "identity_tour.py"), run_name="__main__")
    assert "odd_k  k=3  n=2  lhs=10  rhs=10  [holds]" in record
    assert record in buf.getvalue()
