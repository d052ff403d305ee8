"""README's Quickstart runs as written, so its calls and the values it
unpacks cannot drift from the library."""

import re
from pathlib import Path

from blockmm import SampleLog, SamplingPlan, SketchPair

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_quickstart_runs(capsys):
    text = README.read_text(encoding="utf-8")
    code = re.search(r"```python\n(.*?)```", text[text.index("## Quickstart") :], re.S).group(1)
    scope = {}
    exec(compile(code, "README.md (Quickstart)", "exec"), scope)
    assert isinstance(scope["plan"], SamplingPlan)
    pair, estimate, log = scope["pair"], scope["estimate"], scope["log"]
    assert isinstance(pair, SketchPair) and isinstance(log, SampleLog)
    assert estimate.shape == scope["exact"].shape and len(log) == scope["plan"].total
    printed = re.fullmatch(r"relative error: observed (\S+), closed form (\S+)\n", capsys.readouterr().out)
    observed, closed_form = map(float, printed.groups())
    # Heavy-tailed factors are the case the README shows sampling getting close on.
    assert 0.0 < observed < 0.05 and 0.0 < closed_form < 0.05
