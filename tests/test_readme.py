"""README's Python example runs as written and prints what it says."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    bracket = namespace["bracket"]
    assert bracket.ratio <= 1.1
    assert (round(bracket.lambda_global, 3), round(bracket.lambda_blowup, 3)) == (0.979, 1.035)
