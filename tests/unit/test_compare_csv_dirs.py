"""Unit tests of ``scripts/compare_csv_dirs.py``, the hash-seed determinism gate's diff.

The gate is only as strong as its mask: these tests pin that exactly the
wall-clock cells are ignored and that every other difference fails it.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[2] / "scripts" / "compare_csv_dirs.py"
_spec = importlib.util.spec_from_file_location("compare_csv_dirs", SCRIPT)
compare_csv_dirs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_csv_dirs)

HEADER = "figure,scheme,communication_MB,convergence_time_s,converged,wall_seconds\n"


def write(directory: Path, name: str, *rows: str) -> None:
    directory.mkdir(exist_ok=True)
    (directory / name).write_text(HEADER + "".join(f"{row}\n" for row in rows))


def compare(tmp_path, capsys):
    code = compare_csv_dirs.main([str(tmp_path / "a"), str(tmp_path / "b")])
    return code, capsys.readouterr().out


def test_identical_directories_pass(tmp_path, capsys):
    for side in "ab":
        write(tmp_path / side, "figure7.csv", "7,DRed,0.5,0.02,True,1.0")
    code, out = compare(tmp_path, capsys)
    assert code == 0
    assert out.strip() == "1 CSVs compared, 0 difference(s)"


def test_wall_seconds_is_masked(tmp_path, capsys):
    write(tmp_path / "a", "batch-throughput.csv", "x,DRed,0.5,0.02,True,1.25")
    write(tmp_path / "b", "batch-throughput.csv", "x,DRed,0.5,0.02,True,9.75")
    assert compare(tmp_path, capsys)[0] == 0


def test_metric_cells_of_a_censored_row_are_masked(tmp_path, capsys):
    write(tmp_path / "a", "figure7.csv", "7,Relative Eager,22110.0,3.1,False,")
    write(tmp_path / "b", "figure7.csv", "7,Relative Eager,20810.0,2.9,False,")
    assert compare(tmp_path, capsys)[0] == 0


def test_a_censored_row_still_compares_its_other_cells(tmp_path, capsys):
    write(tmp_path / "a", "figure7.csv", "7,Relative Eager,1.0,3.1,False,")
    write(tmp_path / "b", "figure7.csv", "7,Relative Lazy,1.0,3.1,False,")
    code, out = compare(tmp_path, capsys)
    assert code == 1
    assert "figure7.csv row 1 scheme: Relative Eager != Relative Lazy" in out


def test_a_converged_metric_difference_fails(tmp_path, capsys):
    write(tmp_path / "a", "figure8.csv", "8,DRed,0.08148,0.02032,True,", "8,DRed,0.1,0.03,True,")
    write(tmp_path / "b", "figure8.csv", "8,DRed,0.08148,0.02034,True,", "8,DRed,0.1,0.03,True,")
    code, out = compare(tmp_path, capsys)
    assert code == 1
    assert "figure8.csv row 1 convergence_time_s: 0.02032 != 0.02034" in out
    assert "1 difference(s)" in out


def test_a_csv_on_one_side_only_fails(tmp_path, capsys):
    write(tmp_path / "a", "figure7.csv", "7,DRed,0.5,0.02,True,")
    write(tmp_path / "b", "figure7.csv", "7,DRed,0.5,0.02,True,")
    write(tmp_path / "b", "churn.csv", "churn,DRed,0.5,0.02,True,")
    code, out = compare(tmp_path, capsys)
    assert code == 1
    assert f"churn.csv: only in {tmp_path / 'b'}" in out


@pytest.mark.parametrize(
    "right_rows",
    [("7,DRed,0.5,0.02,True,", "7,DRed,0.5,0.02,True,"), ()],
    ids=["extra-row", "header-only"],
)
def test_a_row_count_difference_fails(tmp_path, capsys, right_rows):
    write(tmp_path / "a", "figure7.csv", "7,DRed,0.5,0.02,True,")
    write(tmp_path / "b", "figure7.csv", *right_rows)
    code, out = compare(tmp_path, capsys)
    assert code == 1
    assert "figure7.csv: shape differs" in out


def test_load_blanks_only_the_wall_clock_cells(tmp_path):
    write(tmp_path / "a", "x.csv", "7,DRed,0.5,0.02,True,1.5", "7,DRed,0.7,0.04,False,2.5")
    rows = compare_csv_dirs.load(tmp_path / "a" / "x.csv")
    assert rows == [
        HEADER.strip().split(","),
        ["7", "DRed", "0.5", "0.02", "True", ""],
        ["7", "DRed", "", "", "False", ""],
    ]
