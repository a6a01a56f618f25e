import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ted_ladder.py"


def test_smallest_ladder_prints_both_tables():
    # the script reaches into ted's internals (_solve, _Annotated, _forest_table,
    # _leaf_column), so a refactor of ted can break it
    run = subprocess.run([sys.executable, str(SCRIPT), "--sizes", "25", "--repeat", "1"],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    tables = run.stdout.strip().split("\n\n")
    assert len(tables) == 2
    for table, last_column in zip(tables, ("far", "float equiv")):
        head, *rows = table.splitlines()
        assert head.split()[0] == "nodes" and head.endswith(last_column)
        assert len(rows) == 1 and rows[0].split()[0].isdigit()
