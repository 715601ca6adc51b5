"""The exempt-list bookkeeping of scripts/reach.py, on synthetic missed lines (no corpus run)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"
spec = importlib.util.spec_from_file_location("reach", SCRIPT)
reach = importlib.util.module_from_spec(spec)
spec.loader.exec_module(reach)


def every_exempt_line():
    return {(name, text) for name, texts, _ in reach.EXEMPT for text in texts}


def test_no_exemption_is_stale_while_every_exempt_text_is_missed():
    assert reach.stale_exemptions(every_exempt_line()) == []
    assert reach.stale_exemptions(every_exempt_line() | {("plan", "return best")}) == []


def test_an_exempt_text_that_no_missed_line_matches_is_stale():
    name, texts, _ = reach.EXEMPT[0]
    assert reach.stale_exemptions(every_exempt_line() - {(name, texts[0])}) == [(name, texts[0])]
    # a text counts only in the function it is listed under
    moved = every_exempt_line() - {(name, texts[0])} | {("elsewhere", texts[0])}
    assert reach.stale_exemptions(moved) == [(name, texts[0])]
