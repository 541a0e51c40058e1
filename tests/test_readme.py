"""README's `## Library` example runs and prints what its comments say, every
dotted name that section puts in backticks resolves and every exported name
is mentioned there, and its compact fuzzy partition document is what the
library writes for the example.

Run this file as a script (``python tests/test_readme.py``) to check the
example and the names against whichever ``fuzzybisim`` the interpreter
imports, such as an installed package when started outside the checkout.
"""
import contextlib
import importlib
import io
import json
import os
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
#: A backticked dotted name, such as `fuzzybisim.generate.draw`.
DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def library_section() -> str:
    """README's `## Library` section, up to the next heading."""
    readme = (REPO_ROOT / "README.md").read_text()
    start = readme.index("\n## Library\n")
    return readme[start:readme.index("\n## ", start + 1)]


def resolve(name: str):
    """The object a dotted name names: the longest prefix that imports as a
    module, then the rest read as attributes."""
    parts = name.split(".")
    for k in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:k]))
        except ImportError:
            continue
        for attr in parts[k:]:
            target = getattr(target, attr)
        return target
    raise ImportError(f"no prefix of {name!r} imports as a module")


def unresolved_library_names() -> list:
    """Each backticked dotted name of the Library section that does not resolve, with why."""
    failed = []
    for name in DOTTED.findall(library_section()):
        try:
            resolve(name)
        except (ImportError, AttributeError) as exc:
            failed.append(f"{name}: {exc}")
    return failed


def run_library_example() -> tuple:
    """Run the python block under README's `## Library` heading from the
    repository root; return the lines it printed and the ``# …`` comments
    of its print lines."""
    code = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
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


def test_readme_library_names_resolve():
    assert DOTTED.findall(library_section()) and unresolved_library_names() == []


def test_readme_library_section_mentions_every_exported_name():
    import fuzzybisim

    mentioned = set(re.findall(r"`(\w+)`", library_section()))
    assert sorted(set(fuzzybisim.__all__) - mentioned) == []


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
    if unresolved := unresolved_library_names():
        sys.exit("README's Library section names what does not resolve: " + "; ".join(unresolved))
