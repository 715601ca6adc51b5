"""The README's library example runs as documented, cut to a short run."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    assert code.count("env_step_budget=5000") == 1
    short = code.replace("env_step_budget=5000", "env_step_budget=200")
    exec(compile(short, str(README), "exec"), {})
    # the example prints its last episode scores
    scores = capsys.readouterr().out.strip()
    assert scores.startswith("[") and scores.endswith("]"), scores
