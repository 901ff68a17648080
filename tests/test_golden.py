"""The CLI contract as a golden corpus: every command on configs/fig1-4 against committed artifacts.

Each config runs ``spectrum``, ``steady``, its sweep (``sweep-gate`` or
``sweep-kappa``, all rows) and, after a kappa sweep, ``fit``, in-process
through ``cli.main`` with OpenBLAS held at one thread, as every solve
holds it.  ``tests/golden/<config>/`` holds what they wrote:

* every CSV, and ``steady_state.json`` and ``esaki_tsu_fit.json`` without
  ``diagnostics.wall_time``;
* ``spdm.npz``: the upper triangle of ``spdm.npy``, row by row (the matrix
  is Hermitian bit for bit, so that fixes every entry), compressed to
  about 80 KB per config where the ``.npy`` takes 250-310 KB;
* ``commands.json``: each command's exit code, stdout without ``wall=``,
  stderr (fig2's ``fit`` fails with an ``input`` error: its sweep spans
  1.48 decades) and the warnings it raised, with the output directory
  written as ``<out>``.

``test_shipped_entry_point`` runs ``spectrum`` and ``steady`` on fig1 the
way a user does, as fresh ``python -m edgesense`` processes with no thread
variable set, and holds them to the same goldens by the same comparison.

Text and integer cells (an integer column is one whose golden cells are
all integers) must match exactly, and numeric cells to RTOL relative.
TOLERANCES names the only looser ones, each with its reason, and the
``spdm.npy`` entries must match to SPDM_TOL times the matrix's largest
entry.  The slack is for another CPU model, which can move the last
printed digit (README); on one machine the corpus is bit-stable.

A change that moves a golden value on purpose regenerates the corpus in the
same commit and states the move in CHANGES.md; a golden is never
regenerated to hide a defect.  To regenerate:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import child_env
from edgesense import cli
from edgesense.master_eq import _one_blas_thread

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
CORPUS = {
    "fig1": ("spectrum", "steady", "sweep-gate"),
    "fig2": ("spectrum", "steady", "sweep-kappa", "fit"),
    "fig3": ("spectrum", "steady", "sweep-gate"),
    "fig4": ("spectrum", "steady", "sweep-kappa", "fit"),
}
RTOL = 1e-10
SPDM_TOL = 1e-12
# A residual of a converged solve is rounding-level (1e-15 to 1e-13 here):
# this allows a thousand times that, still a thousand below residual_tol.
RESIDUAL = (0.0, 1e-12)
# A current or population that is zero up to rounding (1e-15 and below).
ZERO = (RTOL, 1e-14)
# (config or None for every config, artifact, column) -> (rtol, atol): a cell
# passes where |a - b| <= rtol * max(|a|, |b|) + atol.  A JSON column is its
# dotted path, a stdout column the name before its "=".
TOLERANCES = {
    (None, "sweep_gate.csv", "residual"): RESIDUAL,
    (None, "sweep_kappa.csv", "residual"): RESIDUAL,
    (None, "steady_state.json", "diagnostics.residual"): RESIDUAL,
    (None, "steady", "residual"): RESIDUAL,
    (None, "sweep-gate", "residual"): RESIDUAL,
    (None, "sweep-kappa", "residual"): RESIDUAL,
    # the cut spread of a conserved current is rounding-level
    (None, "steady_state.json", "data.max_deviation"): ZERO,
    # eigh fixes each energy to rounding at the hopping scale, so fig1/fig2's
    # edge pair at +-3.5e-10 and the rhombic flat band at 0 carry no relative digits
    (None, "spectrum.csv", "energy"): (RTOL, 1e-13),
    # fig3's cuts sum two bond currents of about +-0.0566 into 1.2e-6, so they
    # carry about eight digits; a 1-ulp change of the blocks moves them by 2e-9
    ("fig3", "profile.csv", "current"): (1e-7, 0.0),
    # at flux pi and kappa 0 the rhombic chain cages its particles: fig4's
    # steady currents, and the populations past its first hubs, are rounding
    ("fig4", "profile.csv", "current"): ZERO,
    ("fig4", "steady_state.json", "data.jbar"): ZERO,
    ("fig4", "steady", "jbar"): ZERO,
    ("fig4", "populations.csv", "population"): ZERO,
    ("fig4", "steady_state.json", "data.populations"): ZERO,
}
_NUMBER = re.compile(r"(-?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def run_corpus(fig: str, out: Path) -> dict:
    """Run fig's commands into out; {command: {"exit", "stdout", "stderr", "warnings"}}."""
    config = str(ROOT / "configs" / f"{fig}.json")
    results = {}
    with _one_blas_thread():
        for command in CORPUS[fig]:
            if command == "fit":
                argv = ["fit", str(out / "sweep_kappa.csv"), "--out", str(out)]
            else:
                argv = [command, "--config", config, "--out", str(out)]
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                code = cli.main(argv)
            raised = [f"{w.category.__name__}: {w.message} ({Path(w.filename).name})" for w in caught]
            results[command] = {
                "exit": code,
                "stdout": normalize(stdout.getvalue(), out),
                "stderr": normalize(stderr.getvalue(), out),
                "warnings": list(dict.fromkeys(raised)),
            }
    return results


def normalize(text: str, out: Path) -> str:
    """A command's stdout or stderr without its wall time, its output directory written as <out>."""
    return re.sub(r",? ?wall=[\d.]+s", "", text).replace(str(out), "<out>")


def tolerance(fig: str, artifact: str, column: str) -> tuple[float, float]:
    return TOLERANCES.get((fig, artifact, column)) or TOLERANCES.get((None, artifact, column), (RTOL, 0.0))


def close(golden: float, got: float, tol: tuple[float, float]) -> bool:
    rtol, atol = tol
    if math.isnan(golden) or math.isnan(got):
        return math.isnan(golden) and math.isnan(got)
    return abs(golden - got) <= rtol * max(abs(golden), abs(got)) + atol


def diff_text(golden: str, got: str, tol) -> list[str]:
    """Where the lines of got differ from golden's; their numbers are compared by tol(name)."""
    a, b = golden.splitlines(), got.splitlines()
    if len(a) != len(b):
        return [f"{len(b)} lines, golden {len(a)}"]
    problems = []
    for line, (x, y) in enumerate(zip(a, b)):
        xs, ys = _NUMBER.split(x), _NUMBER.split(y)
        # even pieces are text, odd ones numbers
        if len(xs) != len(ys) or xs[::2] != ys[::2]:
            problems.append(f"line {line}: {y!r}, golden {x!r}")
            continue
        for k in range(1, len(xs), 2):
            name = re.search(r"([\w|]*)\W*$", xs[k - 1]).group(1)
            integer = re.fullmatch(r"-?\d+", xs[k])
            if xs[k] != ys[k] and (integer or not close(float(xs[k]), float(ys[k]), tol(name))):
                problems.append(f"line {line} {name}: {ys[k]}, golden {xs[k]}")
    return problems


def diff_csv(golden: str, got: str, tol) -> list[str]:
    """Where the CSV got differs from golden: its two header lines exactly, each column by tol(name)."""
    a, b = golden.splitlines(), got.splitlines()
    if a[:2] != b[:2] or len(a) != len(b):
        return [f"header {b[:2]} and {len(b)} lines, golden {a[:2]} and {len(a)}"]
    rows_a = [line.split(",") for line in a[2:]]
    rows_b = [line.split(",") for line in b[2:]]
    problems = []
    for j, name in enumerate(a[1].split(",")):
        col_a, col_b = [r[j] for r in rows_a], [r[j] for r in rows_b]
        integer = all(re.fullmatch(r"-?\d+", c) for c in col_a)
        for row, (x, y) in enumerate(zip(col_a, col_b)):
            if x == y:
                continue
            try:
                ok = not integer and close(float(x), float(y), tol(name))
            except ValueError:
                ok = False
            if not ok:
                problems.append(f"row {row} {name}: {y}, golden {x}")
    return problems


def diff_json(golden, got, tol, path: str = "") -> list[str]:
    """Where the JSON document got differs from golden; floats by tol(dotted path)."""
    if isinstance(golden, dict) and isinstance(got, dict):
        if golden.keys() != got.keys():
            return [f"{path or '.'}: keys {sorted(got)}, golden {sorted(golden)}"]
        return [p for key in golden for p in diff_json(golden[key], got[key], tol, f"{path}.{key}".lstrip("."))]
    if isinstance(golden, list) and isinstance(got, list) and len(golden) == len(got):
        return [p for x, y in zip(golden, got) for p in diff_json(x, y, tol, path)]
    if type(golden) is float and type(got) is float and close(golden, got, tol(path)):
        return []
    return [] if type(golden) is type(got) and golden == got else [f"{path}: {got!r}, golden {golden!r}"]


def load_json(path: Path) -> dict:
    doc = json.loads(path.read_text())
    if path.name == "steady_state.json":
        del doc["diagnostics"]["wall_time"]
    return doc


def regenerate() -> None:
    """Rewrite tests/golden from a fresh run of the corpus."""
    for fig in CORPUS:
        target = GOLDEN / fig
        shutil.rmtree(target, ignore_errors=True)
        target.mkdir(parents=True)
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp)
            results = run_corpus(fig, out)
            for path in sorted(out.iterdir()):
                if path.suffix == ".csv":
                    shutil.copyfile(path, target / path.name)
                elif path.suffix == ".json":
                    (target / path.name).write_text(json.dumps(load_json(path), indent=1, sort_keys=True) + "\n")
                elif path.suffix == ".npy":
                    rho = np.load(path)
                    upper = rho[np.triu_indices(rho.shape[0])]
                    np.savez_compressed(target / "spdm.npz", n=rho.shape[0], upper=upper)
            (target / "commands.json").write_text(json.dumps(results, indent=1) + "\n")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """fig -> (output directory, command results), each config run once per module."""
    runs = {}

    def get(fig):
        if fig not in runs:
            out = tmp_path_factory.mktemp(fig)
            runs[fig] = out, run_corpus(fig, out)
        return runs[fig]

    return get


def golden_files(fig: str) -> list[str]:
    """The artifacts of fig that the goldens hold as files of the same name."""
    names = {p.name for p in (GOLDEN / fig).glob("*")}
    return sorted(names - {"commands.json", "spdm.npz"})


def command_problems(fig: str, command: str, got: dict) -> list[str]:
    """Where one command's results differ from its golden; warnings only where got records them."""
    want = json.loads((GOLDEN / fig / "commands.json").read_text())[command]
    problems = [f"{key}: {got[key]!r}, golden {want[key]!r}" for key in ("exit", "warnings")
                if key in got and got[key] != want[key]]
    for stream in ("stdout", "stderr"):
        problems += [f"{stream} {p}" for p in
                     diff_text(want[stream], got[stream], lambda name: tolerance(fig, command, name))]
    return problems


def artifact_problems(fig: str, artifact: str, out: Path) -> list[str]:
    """Where the artifact written in out differs from its golden."""
    golden, got = GOLDEN / fig / artifact, out / artifact
    tol = lambda name: tolerance(fig, artifact, name)  # noqa: E731
    if golden.suffix == ".csv":
        return diff_csv(golden.read_text(), got.read_text(), tol)
    return diff_json(json.loads(golden.read_text()), load_json(got), tol)


def spdm_problems(fig: str, out: Path) -> list[str]:
    """How the spdm.npy written in out differs from its golden, if it does."""
    got = np.load(out / "spdm.npy")
    with np.load(GOLDEN / fig / "spdm.npz") as golden:
        n, upper = int(golden["n"]), golden["upper"]
    if got.shape != (n, n) or got.dtype != np.complex128:
        return [f"spdm.npy: {got.shape} {got.dtype}, golden {(n, n)} complex128"]
    want = np.zeros((n, n), dtype=complex)
    want[np.triu_indices(n)] = upper
    want += np.triu(want, 1).conj().T
    err = np.abs(got - want).max()
    return [] if err <= SPDM_TOL * np.abs(want).max() else [f"spdm.npy: off by {err:.3g}"]


@pytest.mark.parametrize("fig", list(CORPUS))
def test_commands(fig, corpus):
    _, results = corpus(fig)
    golden = json.loads((GOLDEN / fig / "commands.json").read_text())
    assert list(results) == list(golden)
    for command, got in results.items():
        problems = command_problems(fig, command, got)
        assert not problems, f"{command}: {problems[:5]}"


@pytest.mark.parametrize("fig", list(CORPUS))
def test_every_artifact_has_a_golden(fig, corpus):
    out, _ = corpus(fig)
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(golden_files(fig) + ["spdm.npy"])


@pytest.mark.parametrize(
    "fig, artifact", [(fig, name) for fig in CORPUS for name in golden_files(fig)]
)
def test_artifact(fig, artifact, corpus):
    out, _ = corpus(fig)
    problems = artifact_problems(fig, artifact, out)
    assert not problems, problems[:5]


@pytest.mark.parametrize("fig", list(CORPUS))
def test_spdm(fig, corpus):
    out, _ = corpus(fig)
    problems = spdm_problems(fig, out)
    assert not problems, problems


def test_shipped_entry_point(tmp_path):
    # the command as installed: fresh `python -m edgesense` processes, which
    # start OpenBLAS themselves, with no thread variable from the caller
    problems = []
    for command in ("spectrum", "steady"):
        proc = subprocess.run(
            [sys.executable, "-m", "edgesense", command, "--config", str(ROOT / "configs" / "fig1.json"),
             "--out", str(tmp_path)],
            env=child_env(), capture_output=True, text=True,
        )
        got = {"exit": proc.returncode, "stdout": normalize(proc.stdout, tmp_path),
               "stderr": normalize(proc.stderr, tmp_path)}
        problems += [f"{command} {p}" for p in command_problems("fig1", command, got)]
    artifacts = ["populations.csv", "profile.csv", "spectrum.csv", "steady_state.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(artifacts + ["spdm.npy"])
    for artifact in artifacts:
        problems += artifact_problems("fig1", artifact, tmp_path)
    problems += spdm_problems("fig1", tmp_path)
    assert not problems, problems[:5]


def test_readme_csv_example_is_in_the_fig1_golden():
    # the sweep CSV example in "Outputs and reproducibility" is fig1's table, verbatim
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"Sweep CSVs start with.*?```text\n(.*?)```", readme, re.S).group(1)
    lines = block.splitlines()
    golden = (GOLDEN / "fig1" / "sweep_gate.csv").read_text().splitlines()
    assert len(lines) == 3 and lines[:2] == golden[:2]
    assert lines[2] in golden[2:]


if __name__ == "__main__":
    regenerate()
