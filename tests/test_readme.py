"""The README's python blocks import only names the package has.

Each import statement of every ```python block runs on its own, so a
rename or deletion in the library that the README still names fails
here instead of in a reader's shell.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    imports = [node for block in blocks for node in ast.parse(block).body
               if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert any(isinstance(n, ast.ImportFrom) and n.module.startswith("lrgnn") for n in imports)
    for node in imports:
        exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), {})
