"""JSON/CSV export of experiment results."""

import csv
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.harness.export import result_to_dict, slugify, table_to_rows, write_results
from repro.harness.report import ExperimentResult, Table


@pytest.fixture
def result():
    r = ExperimentResult("demo", "Demo experiment")
    table = r.add_table(Table("A table: title!", ("name", "value")))
    table.add_row("x", 1.5)
    table.add_row("y", 2)
    r.note("a note")
    return r


def test_slugify():
    assert slugify("Fig 2a: V100 GPU (normalized)") == "fig-2a-v100-gpu-normalized"
    assert slugify("!!!") == "table"


def test_table_to_rows(result):
    rows = table_to_rows(result.tables[0])
    assert rows == [{"name": "x", "value": 1.5}, {"name": "y", "value": 2}]


def test_result_to_dict_round_trips_json(result):
    payload = json.dumps(result_to_dict(result))
    parsed = json.loads(payload)
    assert parsed["experiment_id"] == "demo"
    assert parsed["tables"][0]["rows"] == [["x", 1.5], ["y", 2]]
    assert parsed["notes"] == ["a note"]


def test_write_results(result, tmp_path):
    paths = write_results([result], tmp_path)
    names = {p.name for p in paths}
    assert "demo.json" in names
    csv_files = [p for p in paths if p.suffix == ".csv"]
    assert len(csv_files) == 1
    with csv_files[0].open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["name", "value"]
    assert rows[1] == ["x", "1.5"]


def test_runner_export_flag(tmp_path, capsys):
    from repro.harness.runner import main

    assert main(["table2", "--export-dir", str(tmp_path)]) == 0
    assert (tmp_path / "table2.json").exists()
    exported = json.loads((tmp_path / "table2.json").read_text())
    assert exported["experiment_id"] == "table2"


def test_real_experiment_exports_cleanly(tmp_path):
    from repro.harness.experiments import table1

    paths = write_results([table1.run()], tmp_path)
    assert any(p.suffix == ".json" for p in paths)
    assert any(p.suffix == ".csv" for p in paths)


def test_write_results_json_round_trips(result, tmp_path):
    write_results([result], tmp_path)
    loaded = json.loads((tmp_path / "demo.json").read_text())
    assert loaded == json.loads(json.dumps(result_to_dict(result), default=str))


@given(st.text(max_size=80))
def test_slugify_always_filesystem_safe(title):
    slug = slugify(title)
    assert re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", slug)


@given(st.lists(st.text(max_size=30), min_size=2, max_size=6))
def test_colliding_slugs_never_share_a_csv(titles):
    """However the titles collide, every table lands in its own CSV."""
    import tempfile

    result = ExperimentResult("demo", "Demo")
    for index, title in enumerate(titles):
        result.add_table(Table(title, ("k",))).add_row(f"row-{index}")
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_results([result], tmp)
        csv_paths = [p for p in paths if p.suffix == ".csv"]
        assert len(csv_paths) == len(titles)
        assert len(set(csv_paths)) == len(titles)
        for index, path in enumerate(csv_paths):
            assert f"row-{index}" in path.read_text()


def test_duplicate_titles_write_both_csvs(tmp_path):
    result = ExperimentResult("demo", "Demo")
    first = result.add_table(Table("Same: title", ("k",)))
    first.add_row("from-first")
    second = result.add_table(Table("same TITLE?!", ("k",)))  # same slug
    second.add_row("from-second")
    paths = write_results([result], tmp_path)
    csv_paths = sorted(p for p in paths if p.suffix == ".csv")
    assert [p.name for p in csv_paths] == [
        "demo.same-title-2.csv",
        "demo.same-title.csv",
    ]
    assert "from-first" in (tmp_path / "demo.same-title.csv").read_text()
    assert "from-second" in (tmp_path / "demo.same-title-2.csv").read_text()


def test_unique_titles_keep_unsuffixed_names(tmp_path):
    result = ExperimentResult("demo", "Demo")
    result.add_table(Table("Alpha", ("k",))).add_row(1)
    result.add_table(Table("Beta", ("k",))).add_row(2)
    names = {p.name for p in write_results([result], tmp_path)}
    assert {"demo.alpha.csv", "demo.beta.csv"} <= names


def test_cold_reproduction_matches_committed_results(tmp_path):
    """A fresh ``python -m repro.harness.runner --export-dir`` re-creates the
    committed ``results/`` byte for byte (``README.md`` aside)."""
    root = pathlib.Path(__file__).resolve().parents[2]
    export_dir = tmp_path / "results"
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro.harness.runner", "--export-dir", str(export_dir)],
        cwd=tmp_path, env=env, check=True, stdout=subprocess.DEVNULL,
    )
    committed = {
        path.name: path.read_bytes()
        for path in (root / "results").iterdir()
        if path.is_file() and path.name != "README.md"
    }
    exported = {path.name: path.read_bytes() for path in export_dir.iterdir()}
    assert sorted(exported) == sorted(committed)
    for name, data in committed.items():
        assert exported[name] == data, f"results/{name} differs from a fresh export"
