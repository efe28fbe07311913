"""``benchmarks/_bench.py``: the one merge-writer for the ``BENCH_*.json`` files."""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("_bench", REPO_ROOT / "benchmarks" / "_bench.py")
bench = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench)


def read(path):
    return json.loads(path.read_text("utf-8"))


def test_a_new_file_gets_schema_config_and_sections(tmp_path):
    path = tmp_path / "BENCH_x.json"
    bench.write_sections(path, bench.SERVING_SCHEMA, {"alpha": {"p50_ms": 1.5}})
    assert read(path) == {
        "schema": bench.SERVING_SCHEMA,
        "config": {},
        "results": {"alpha": {"p50_ms": 1.5}},
    }
    assert path.read_text("utf-8").endswith("}\n")
    assert [entry.name for entry in tmp_path.iterdir()] == ["BENCH_x.json"]  # no temp litter


def test_other_sections_and_the_config_are_kept(tmp_path):
    path = tmp_path / "BENCH_x.json"
    bench.write_sections(path, bench.SERVING_SCHEMA, {"alpha": 1, "beta": 2}, config={"users": 10})
    bench.write_sections(path, bench.SERVING_SCHEMA, {"beta": 3, "gamma": 4})
    assert read(path) == {
        "schema": bench.SERVING_SCHEMA,
        "config": {"users": 10},
        "results": {"alpha": 1, "beta": 3, "gamma": 4},
    }


def test_config_is_replaced_only_when_given(tmp_path):
    path = tmp_path / "BENCH_x.json"
    bench.write_sections(path, bench.TRAINING_SCHEMA, {"alpha": 1}, config={"users": 10, "items": 5})
    bench.write_sections(path, bench.TRAINING_SCHEMA, {"alpha": 2}, config={"users": 20})
    assert read(path)["config"] == {"users": 20}
    bench.write_sections(path, bench.TRAINING_SCHEMA, {"alpha": 3})
    assert read(path)["config"] == {"users": 20}


@pytest.mark.parametrize("content", [b'{"schema": "repro-serving-bench/v6", "resu', b"\xff\xfe"])
def test_an_unreadable_existing_file_raises_and_is_left_alone(tmp_path, content):
    path = tmp_path / "BENCH_x.json"
    path.write_bytes(content)
    with pytest.raises(RuntimeError, match="cannot be read"):
        bench.write_sections(path, bench.SERVING_SCHEMA, {"alpha": 1})
    assert path.read_bytes() == content


@pytest.mark.parametrize(
    "name,schema",
    [("BENCH_serving.json", bench.SERVING_SCHEMA), ("BENCH_training.json", bench.TRAINING_SCHEMA)],
)
def test_rewriting_a_committed_file_with_its_own_sections_is_byte_identical(tmp_path, name, schema):
    committed = (REPO_ROOT / name).read_bytes()
    payload = json.loads(committed)
    assert payload["schema"] == schema
    copy = tmp_path / name
    copy.write_bytes(committed)
    bench.write_sections(copy, schema, payload["results"], config=payload["config"])
    assert copy.read_bytes() == committed


def test_host_block_carries_perfbench_host_fields():
    host = bench.host_block()
    assert {"nproc", "python", "numpy", "scipy", "git_sha", "git_dirty"} == set(host)
    assert host["nproc"] >= 1
    assert host["git_dirty"] in (True, False, None)
