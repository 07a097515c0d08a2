"""Committed mutants of chernkit, each with the test that must catch it.

Run from anywhere with the package's test extra installed:

    python tests/mutants.py

A mutant replaces one piece of text in one module of src/chernkit.  For each
mutant the runner copies src/, tests/ and pyproject.toml into a temporary
directory, applies the edit there and runs only the mutant's test, with the
copy's src first on the import path.  The mutant is killed when that test
fails.  Before any mutant runs, each named test must pass on the unedited
copy, and each old text must occur exactly once in its module, so a stale
entry is an error rather than a quiet kill.

An equivalent mutant changes no behaviour a test can see; it is listed with
the reason, checked to still apply, and reported without a run.  A survivor
is a missing test; an equivalent mutant marks code to question.

The exit status is 0 when every mutant to be killed is killed, and 1
otherwise.  pytest does not collect this file: it is not a test module.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    """One edit: module (a file under src/chernkit), old text, new text, and the pytest id that must kill it.

    For an equivalent mutant, test is None and reason says why no test can kill it.
    """

    name: str
    module: str
    old: str
    new: str
    test: str | None
    reason: str = ""


MUTANTS = [
    Mutant(
        "eta with its sign flipped",
        "geometry.py",
        'eta = np.einsum("...ikk->...i", T)',
        'eta = np.einsum("...kik->...i", T)',
        "tests/test_geometry.py::test_hopf_torsion_closed_form",
    ),
    Mutant(
        "rho4 with g^-1 transposed",
        "geometry.py",
        'rho4 = np.einsum("...li,...ijkl->...kj", gi, R)',
        'rho4 = np.einsum("...il,...ijkl->...kj", gi, R)',
        "tests/test_acceptance.py::test_criterion_04_space_forms",
    ),
    Mutant(
        "HERMITIAN_TOL raised from 1e-10 to 1e-4",
        "jets.py",
        "HERMITIAN_TOL = 1e-10",
        "HERMITIAN_TOL = 1e-4",
        "tests/test_jets.py::test_hermitian_tolerance_is_relative_to_metric_size",
    ),
    Mutant(
        "the certification tolerance raised from 1e-13 to 1e-6",
        "mixed.py",
        "_CERTIFY = 1e-13",
        "_CERTIFY = 1e-6",
        "tests/test_mixed.py::test_a_rounding_that_misses_the_bounds_by_1e_10_takes_the_fallback",
    ),
    Mutant(
        "kahler_like_defect without its second term",
        "geometry.py",
        "return np.maximum(swap_holo, swap_anti)",
        "return swap_holo",
        None,
        "by Hermitian symmetry the second maximum equals the first up to the round-off of that symmetry "
        "in the computed R; dropping it moves verify's kahler-like lines at round-off only",
    ),
    Mutant(
        "the stacked run marks the points of logs but not of guards",
        "expr.py",
        'if kind == "guard" or kind == "log":\n                    for (s, _, _), bad',
        'if kind == "log":\n                    for (s, _, _), bad',
        "tests/test_expr.py::test_the_scheduled_run_is_the_instruction_at_a_time_run",
    ),
    Mutant(
        "the positive-definite check before the check that every eigenvalue is finite",
        "jets.py",
        "    _reject(reasons, ok, ~np.isfinite(eig).all(axis=1), "
        'lambda k: f"metric eigenvalues are not finite at {pts[k]}")\n'
        "    _reject(reasons, ok, eig[:, 0] <= 0, lambda k: why.format(pts[k], eig[k, 0]))\n",
        "    _reject(reasons, ok, eig[:, 0] <= 0, lambda k: why.format(pts[k], eig[k, 0]))\n"
        "    _reject(reasons, ok, ~np.isfinite(eig).all(axis=1), "
        'lambda k: f"metric eigenvalues are not finite at {pts[k]}")\n',
        "tests/test_properties.py::test_a_point_whose_outputs_overflow_exits_2[eigenvalue-sign]",
    ),
    Mutant(
        "no check that g^-1 is finite",
        "jets.py",
        "    _reject(reasons, ok, ~np.isfinite(g_inv).all(axis=(1, 2)), "
        'lambda k: f"inverse metric is not finite at {pts[k]}")\n',
        "",
        "tests/test_cli.py::test_metrics_at_the_ends_of_the_float_range_warn_nothing",
    ),
    Mutant(
        "g^-1 transposed in g^-1 dg",
        "geometry.py",
        "gi_dg = jet.dg.reshape(*batch, n * n, n) @ jet.g_inv",
        "gi_dg = jet.dg.reshape(*batch, n * n, n) @ np.swapaxes(jet.g_inv, -1, -2)",
        "tests/test_geometry.py::test_first_ricci_is_log_det_hessian",
    ),
    Mutant(
        "E and Ebar swapped in the frame loop",
        "geometry.py",
        "for F in (E, Ebar, E, Ebar):",
        "for F in (Ebar, E, Ebar, E):",
        "tests/test_geometry.py::test_invariant_scalars_under_frame_change",
    ),
    Mutant(
        "each planned sample takes the rows of its metric's call one row late",
        "checks.py",
        "rows = jets[end - c : end]",
        "rows = jets[end - c + 1 : end + 1]",
        "tests/test_acceptance.py::test_a_run_gives_the_outcomes_of_its_criteria_run_on_their_own[core]",
    ),
    Mutant(
        "the surface scalar relations' base bundle read from the jets of e^{2F} g",
        "conformal.py",
        "base = ricci_bundle(chern_curvature(jet))",
        "base = ricci_bundle(chern_curvature(tilde_jet))",
        "tests/test_conformal.py::test_surface_scalar_relations",
    ),
    Mutant(
        "the surface scalar relations' same-points check inverted",
        "conformal.py",
        "if not (np.array_equal(jet.point, f_jet.point) and np.array_equal(jet.point, tilde_jet.point)):",
        "if np.array_equal(jet.point, f_jet.point) and np.array_equal(jet.point, tilde_jet.point):",
        "tests/test_conformal.py::test_surface_scalar_relations",
    ),
    Mutant(
        "the surface scalar relations' same-points check without the jets of e^{2F} g",
        "conformal.py",
        "np.array_equal(jet.point, f_jet.point) and np.array_equal(jet.point, tilde_jet.point)",
        "np.array_equal(jet.point, f_jet.point)",
        "tests/test_conformal.py::test_surface_scalar_relations",
    ),
    Mutant(
        "the metric-file memo keyed by the file's path, not its text",
        "cli.py",
        "return _metric_file(path.read_text(), path.stem)",
        "return _metric_file.__dict__.setdefault(str(path), _metric_file(path.read_text(), path.stem))",
        "tests/test_cli.py::test_an_edited_metric_file_takes_effect_in_the_same_process",
    ),
    Mutant(
        "the conformal-spec memo keyed by the base metric's dimension, not the metric",
        "conformal.py",
        "return conformal_metric(spec, parse_expression(factor_text, spec.n))",
        "return _conformal_spec.__dict__.setdefault(\n"
        "        (spec.n, factor_text), conformal_metric(spec, parse_expression(factor_text, spec.n))\n"
        "    )",
        "tests/test_cli.py::test_one_factor_text_on_two_base_metrics_gives_two_specs",
    ),
]


def _copy(dest: Path) -> None:
    """src/, tests/ and pyproject.toml of the checkout, without caches."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _env(copy: Path) -> dict:
    """The environment that imports chernkit from copy/src."""
    return dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")


def _pytest(copy: Path, test: str) -> int:
    """pytest's exit status for one test id, run in copy against copy/src."""
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", test]
    return subprocess.run(argv, cwd=copy, env=_env(copy), stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def _apply(copy: Path, mutant: Mutant) -> None:
    path = copy / "src" / "chernkit" / mutant.module
    text = path.read_text()
    path.write_text(text.replace(mutant.old, mutant.new))


def stale() -> list:
    """A fault for each mutant whose old text does not occur exactly once in its module."""
    faults = []
    for mutant in MUTANTS:
        count = (ROOT / "src" / "chernkit" / mutant.module).read_text().count(mutant.old)
        if count != 1:
            faults.append(f"{mutant.name}: its old text occurs {count} times in {mutant.module}")
    return faults


def main() -> int:
    faults = stale()
    if faults:
        print("\n".join(faults))
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        clean = Path(tmp) / "clean"
        _copy(clean)
        where = subprocess.run(
            [sys.executable, "-c", "import chernkit; print(chernkit.__file__)"],
            cwd=clean, env=_env(clean), capture_output=True, text=True,
        ).stdout.strip()
        if not where.startswith(str(clean)):
            print(f"the copy's package is not the one imported: {where or 'no chernkit'}")
            return 1
        for test in dict.fromkeys(m.test for m in MUTANTS if m.test):
            if _pytest(clean, test) != 0:
                faults.append(f"{test} fails on the unedited copy")
        if faults:
            print("\n".join(faults))
            return 1
        for k, mutant in enumerate(MUTANTS):
            if mutant.test is None:
                print(f"equivalent  {mutant.name}: {mutant.reason}")
                continue
            copy = Path(tmp) / f"mutant{k}"
            _copy(copy)
            _apply(copy, mutant)
            status = _pytest(copy, mutant.test)
            shutil.rmtree(copy)
            if status == 1:
                print(f"killed      {mutant.name}, by {mutant.test}")
            else:  # 0 is a survivor; any other status is an error, not a kill
                faults.append(mutant.name)
                print(f"{'survived' if status == 0 else f'error {status}':<11} {mutant.name}, under {mutant.test}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
