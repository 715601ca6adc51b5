"""The ledger comparison of scripts/output_digests.py, on synthetic lines (no corpus run)."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "output_digests.py"
spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
output_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(output_digests)
compare = output_digests.compare

LEDGER = [
    "# host: some CPU; numpy 2.0; BLAS scipy-openblas 0.3",
    "tiny/online/metrics.csv " + "a" * 64,
    "tiny/online/model_ebm_seed0.npz " + "b" * 64,
    "shipped/eval_particle/eval.csv " + "c" * 64,
]


def test_identical_lines_have_no_differences():
    assert compare(LEDGER, LEDGER[1:]) == []
    # the host line is a comment: another host's line does not count
    assert compare(LEDGER, ["# host: other", *LEDGER[1:]]) == []


def test_names_a_changed_line():
    lines = [LEDGER[1], "tiny/online/model_ebm_seed0.npz " + "d" * 64, LEDGER[3]]
    assert compare(LEDGER, lines) == [
        f"changed: tiny/online/model_ebm_seed0.npz {'b' * 64} -> {'d' * 64}"]


def test_names_missing_and_extra_lines():
    lines = [LEDGER[1], LEDGER[3], "tiny/online/run.jsonl " + "e" * 64]
    assert compare(LEDGER, lines) == [
        f"missing: tiny/online/model_ebm_seed0.npz {'b' * 64}",
        f"extra: tiny/online/run.jsonl {'e' * 64}",
    ]


def test_a_failed_run_shows_as_its_exit_line_and_its_missing_outputs():
    lines = [LEDGER[1], LEDGER[2], "shipped/eval_particle exit 2"]
    assert compare(LEDGER, lines) == [
        f"missing: shipped/eval_particle/eval.csv {'c' * 64}",
        "extra: shipped/eval_particle exit 2",
    ]


def test_host_line_is_a_comment_naming_cpu_numpy_and_blas():
    line = output_digests.host_line()
    assert line.startswith("# host: ") and "numpy" in line and "BLAS" in line
    assert "\n" not in line
    # last, the OpenBLAS runtime core, which picks the float32 kernels
    core = line.rsplit("; OpenBLAS core ", 1)[1]
    assert core == output_digests.openblas_core() != ""


def test_openblas_core_is_unknown_without_the_library_or_its_symbol(monkeypatch, tmp_path):
    fake_numpy = tmp_path / "site" / "numpy"
    fake_numpy.mkdir(parents=True)
    monkeypatch.setattr(output_digests.np, "__file__", str(fake_numpy / "__init__.py"))
    assert output_digests.openblas_core() == "unknown"  # no numpy.libs directory
    libs = tmp_path / "site" / "numpy.libs"
    libs.mkdir()
    (libs / "libscipy_openblas64_-0.so").write_bytes(b"not a shared library")
    assert output_digests.openblas_core() == "unknown"
    # a library that loads but has no corename symbol
    monkeypatch.setattr(output_digests.ctypes, "CDLL", lambda path: object())
    assert output_digests.openblas_core() == "unknown"
