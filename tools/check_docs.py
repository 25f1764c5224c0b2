#!/usr/bin/env python3
"""Documentation checks (run by the `docs` CI job and by tier-1 as the
`docs_check` ctest).

1. Every relative markdown link in README.md, EXPERIMENTS.md and
   docs/*.md must point at a file that exists in the repository.
2. Every fenced ```cpp block in those files must compile
   (syntax-only, wrapped in a function body after tools/docs_prelude.hpp
   so snippets can reference a surrounding simulation).
3. Every docs/*.md page must be linked from the docs/README.md index —
   a page nobody can discover is a page nobody maintains.
4. Every BENCH_*.json artifact named in EXPERIMENTS.md must be produced
   by a CI job (.github/workflows/ci.yml mentions it), so reproduction
   commands never reference artifacts that no longer exist.

Blocks tagged with any other language (```sh, ```c, untagged ASCII
diagrams) are not compiled. The cpp blocks compile concurrently, up to
four at a time. Usage:

    python3 tools/check_docs.py [--repo ROOT] [--compiler c++]
"""
import argparse
import os
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def doc_files(repo: Path):
    files = [repo / "README.md", repo / "EXPERIMENTS.md"]
    files += sorted((repo / "docs").glob("*.md"))
    return [f for f in files if f.is_file()]


def check_links(repo: Path, md: Path) -> list:
    errors = []
    # Strip fenced code blocks: their brackets are not links.
    lines, in_fence = [], False
    for line in md.read_text().splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            lines.append(line)
    for target in LINK_RE.findall("\n".join(lines)):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (md.parent / path).resolve()
        if not resolved.exists():
            errors.append(f"{md.relative_to(repo)}: broken link -> {target}")
    return errors


def cpp_blocks(md: Path):
    block, in_cpp = [], False
    for number, line in enumerate(md.read_text().splitlines(), start=1):
        stripped = line.strip()
        if not in_cpp and stripped == "```cpp":
            block, in_cpp, start = [], True, number + 1
        elif in_cpp and stripped == "```":
            in_cpp = False
            yield start, "\n".join(block)
        elif in_cpp:
            block.append(line)


def check_cpp(repo: Path, compiler: str, md: Path, line: int, index: int,
              body: str):
    """Syntax-checks one cpp block; returns an error message or None."""
    source = (
        '#include "docs_prelude.hpp"\n'
        f"void docs_snippet_{index}(TRIO_DOCS_SNIPPET_PARAMS) "
        f"{{{{\n{body}\n}}}}\n"
    )
    proc = subprocess.run(
        [
            compiler,
            "-fsyntax-only",
            "-std=c++20",
            "-I", str(repo / "src"),
            "-I", str(repo / "tools"),
            "-x", "c++",
            "-",
        ],
        input=source,
        capture_output=True,
        text=True,
    )
    if proc.returncode == 0:
        return None
    return (
        f"{md.relative_to(repo)}:{line}: cpp block does not "
        f"compile:\n{proc.stderr.strip()}"
    )


def check_docs_index(repo: Path) -> list:
    """Every docs/*.md page must be linked from the docs/README.md index."""
    index = repo / "docs" / "README.md"
    if not index.is_file():
        return ["docs/README.md: missing documentation index"]
    linked = {
        target.split("#", 1)[0]
        for target in LINK_RE.findall(index.read_text())
    }
    errors = []
    for page in sorted((repo / "docs").glob("*.md")):
        if page.name == "README.md":
            continue
        if page.name not in linked:
            errors.append(
                f"docs/README.md: index is missing a row for docs/{page.name}"
            )
    return errors


BENCH_RE = re.compile(r"BENCH_[A-Za-z0-9_.-]*\.json")


def check_bench_artifacts(repo: Path) -> list:
    """Every BENCH_*.json named in EXPERIMENTS.md must appear in CI."""
    experiments = repo / "EXPERIMENTS.md"
    if not experiments.is_file():
        return []
    ci = repo / ".github" / "workflows" / "ci.yml"
    produced = set(BENCH_RE.findall(ci.read_text())) if ci.is_file() else set()
    errors = []
    for name in sorted(set(BENCH_RE.findall(experiments.read_text()))):
        if name not in produced:
            errors.append(
                f"EXPERIMENTS.md: names bench artifact {name} but no CI job "
                f"in .github/workflows/ci.yml produces it"
            )
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--repo", default=Path(__file__).resolve().parent.parent,
                        type=Path)
    parser.add_argument("--compiler", default="c++")
    args = parser.parse_args()
    repo = args.repo.resolve()

    errors, blocks = [], []
    files = doc_files(repo)
    for md in files:
        errors += check_links(repo, md)
        blocks += [(md, line, index, body)
                   for index, (line, body) in enumerate(cpp_blocks(md))]
    with ThreadPoolExecutor(max_workers=min(4, os.cpu_count() or 1)) as pool:
        results = pool.map(lambda b: check_cpp(repo, args.compiler, *b),
                           blocks)
        errors += [message for message in results if message]
    errors += check_docs_index(repo)
    errors += check_bench_artifacts(repo)

    for message in errors:
        print(message, file=sys.stderr)
    print(f"checked {len(files)} file(s), {len(blocks)} cpp block(s): "
          f"{len(errors)} error(s)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
