"""The README's quick start runs as written and prints what it says."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quick_start_runs_and_confirms_type1():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    namespace = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["report"].type1_confirmed
    # each print line's comment gives the leading digits of what it prints
    claims = re.findall(r"^print\(.*\)\s+# (\S+)$", block, re.M)
    printed = out.getvalue().splitlines()
    assert len(claims) == len(printed) == 4
    for claim, line in zip(claims, printed):
        assert line.startswith(claim.rstrip(".")), (claim, line)


def test_infer_type_snippet_prints_its_candidates():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    block = next(b for b in blocks if "infer_type" in b)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["(3,) 3", "(2,) 2", "(1,) 1"]
