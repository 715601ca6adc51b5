"""Print every line of ``src/ebmplan/`` that no run of the byte-identity corpus reaches.

The corpus is ``scripts/output_digests.py``'s, run the same way, one run at a
time through ``ebmplan.cli.main``, under the stdlib ``trace`` module. Counting
starts before ``ebmplan`` is imported, so module-level lines count too. Each
executable line that no run reached prints as ``<file>:<line> <function>:
<text>``, except the lines of ``raise`` statements and ``except`` clauses: the
corpus holds only runs that succeed. A missed line on the exempt list below
prints with its reason, and an exempt text that matches no missed line prints
as ``stale exemption: <function>: <text>``. The script exits 1 if a run fails,
a line off the exempt list is missed, or an exemption is stale:

    python3 scripts/reach.py
"""

from __future__ import annotations

import ast
import dis
import runpy
import sys
import trace
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ebmplan"

# (function, line texts, reason): the missed lines that may stay missed
EXEMPT = (
    ("_log", ("print(message, flush=True)",), "the progress print: the corpus runs --quiet"),
    ("main", ("print(f\"wrote results to {out_dir}\")",), "the corpus runs --quiet"),
    ("<module>", ("sys.exit(main())",), "the corpus calls main; it never runs a module"),
    ("segment_blocked", ("return True",), "the maze corner crossing: no corpus step "
                                         "enters a wall with both of its ends outside it"),
    ("_segment_enters_rect", ("continue", "return True"), "the maze corner crossing"),
    ("_build", ("continue",), "a null optional field: no corpus config sets one"),
    ("_accepts", ("return kind is bool",), "a bool value: no corpus config sets one"),
    ("__reduce__", ("return MlpParams, (self.flat, self.shapes)",),
     "pickle and deepcopy of a net: no run copies one until a seed pool carries nets "
     "to worker processes; tests/test_nn.py reaches it"),
    ("fixed_goal_scores",
     ("goal = _check_goal(model, goal)", "trajs = np.asarray(trajs, dtype=float)",
      "tail = pack_pairs(trajs[:, -1, :], np.broadcast_to(goal, trajs[:, -1, :].shape))",
      "return trajectory_energies(model, trajs) + transition_energies(model, tail)"),
     "no score mode uses it; it stays while the benchmark's tracer wraps it by name"),
)


def executable_lines(tree: ast.Module, path: Path) -> set[int]:
    """Line numbers that start bytecode, less raise statements and except clauses."""
    lines, codes = set(), [compile(tree, str(path), "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line)
        codes += [const for const in code.co_consts if isinstance(const, types.CodeType)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            lines -= set(range(node.lineno, node.end_lineno + 1))
        elif isinstance(node, ast.ExceptHandler):
            lines -= set(range(node.lineno, node.end_lineno + 1))
    return lines


def enclosing_functions(tree: ast.Module) -> dict[int, str]:
    """Each line's innermost enclosing function, ``<module>`` outside every function."""
    owner = {}
    for node in ast.walk(tree):  # breadth first, so inner functions overwrite outer ones
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update(dict.fromkeys(range(node.lineno, node.end_lineno + 1), node.name))
    return owner


def exempt_reason(function: str, text: str) -> str | None:
    for name, texts, reason in EXEMPT:
        if name == function and text in texts:
            return reason
    return None


def stale_exemptions(missed: set[tuple[str, str]]) -> list[tuple[str, str]]:
    """The exempt (function, text) entries that match no missed line."""
    return [(name, text) for name, texts, _ in EXEMPT for text in texts
            if (name, text) not in missed]


def main() -> int:
    # no ignoredirs: trace caches what it ignores by bare module name, so an ignored
    # package's __init__ (setuptools' _distutils_hack, say) would hide ebmplan's
    tracer = trace.Trace(count=1, trace=0)
    digests = runpy.run_path(str(ROOT / "scripts" / "output_digests.py"))["digests"]
    outputs = tracer.runfunc(lambda: list(digests(str(ROOT / "src"))))
    failed = [line for line in outputs if " exit " in line]  # "<run> exit <code>"
    reached = {(Path(name), line) for name, line in tracer.results().counts}
    blocking, missed = 0, set()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        texts, owner = source.splitlines(), enclosing_functions(tree)
        for line in sorted(executable_lines(tree, path)):
            if (path, line) in reached:
                continue
            function, text = owner.get(line, "<module>"), texts[line - 1].strip()
            missed.add((function, text))
            reason = exempt_reason(function, text)
            blocking += reason is None
            note = "" if reason is None else f"  [exempt: {reason}]"
            print(f"{path.relative_to(ROOT)}:{line} {function}: {text}{note}")
    stale = stale_exemptions(missed)
    for function, text in stale:
        print(f"stale exemption: {function}: {text}")
    for line in failed:
        print(f"failed run: {line}")
    print(f"{blocking} missed lines off the exempt list, {len(stale)} stale exemptions, "
          f"{len(failed)} failed runs, over {len(outputs)} outputs")
    return 1 if blocking or stale or failed else 0


if __name__ == "__main__":
    sys.exit(main())
