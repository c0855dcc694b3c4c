"""BENCHMARK.json and the metrics the benchmark prints must agree."""

import json
from pathlib import Path

import layers
from spans import Recorder

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def test_per_layer_names_and_units_match_the_traced_output():
    recorder = Recorder()
    with recorder.span("bench.timed") as root:
        pass
    run = {"reads": [], "writes": []}
    names = set(layers.per_layer(recorder, root, run, 1.0, 1.0, 0, 0))
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert set(declared) == names
    assert all(layers.unit_of(name) == unit for name, unit in declared.items())


def test_end_to_end_names_match_the_untraced_output():
    import run

    record = {"change_s": [0.01] * 100, "update_s": [0.01] * 100,
              "change_ref_s": [0.01] * 100, "update_ref_s": [0.01] * 100,
              "committed": 5, "updates": 5, "reads": []}
    metrics, _ = run._end_to_end("evolve", record, [1.0], 10.0)
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == declared
