"""README's `## Library` example runs and prints what its comments say, and its
compact fuzzy partition document is what the library writes for the example.

Run this file as a script (``python tests/test_readme.py``) to check the
example against whichever ``fuzzybisim`` the interpreter imports, such as an
installed package when started outside the checkout.
"""
import contextlib
import io
import json
import os
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_library_example() -> tuple:
    """Run the python block under README's `## Library` heading from the
    repository root; return the lines it printed and the ``# …`` comments
    of its print lines."""
    readme = (REPO_ROOT / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", readme[readme.index("\n## Library\n"):], re.S).group(1)
    expected = re.findall(r"^print\(.*#\s*(.*?)\s*$", code, re.M)
    out, cwd = io.StringIO(), os.getcwd()
    os.chdir(REPO_ROOT)  # the example opens models/ by a relative path
    try:
        with contextlib.redirect_stdout(out):
            exec(compile(code, "README.md", "exec"), {})
    finally:
        os.chdir(cwd)
    return out.getvalue().splitlines(), expected


def test_readme_library_example_prints_its_comments():
    printed, expected = run_library_example()
    assert expected and printed == expected


def test_readme_compact_fuzzy_partition_document_is_to_json_of_the_example():
    from fuzzybisim import fuzzy_partition_system, parse_model

    readme = (REPO_ROOT / "README.md").read_text()
    (document,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    cfp = fuzzy_partition_system(parse_model(REPO_ROOT / "models" / "example.json"))
    assert json.loads(document) == cfp.to_json()


if __name__ == "__main__":
    import fuzzybisim

    printed, expected = run_library_example()
    print(f"{fuzzybisim.__file__}: {printed}")
    if not expected or printed != expected:
        sys.exit(f"README's library example printed {printed}, its comments say {expected}")
