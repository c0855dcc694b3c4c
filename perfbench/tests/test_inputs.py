import ast
from pathlib import Path

import pytest

import inputs
from small import SMALL


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_gives_byte_identical_inputs(workload):
    make = SMALL[workload]
    assert inputs.digest(make(7)) == inputs.digest(make(7))


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_different_seeds_give_different_inputs(workload):
    make = SMALL[workload]
    assert inputs.digest(make(7)) != inputs.digest(make(8))


def test_generator_does_not_use_the_library_scenario_builders():
    tree = ast.parse(Path(inputs.__file__).read_text())
    imported = {
        node.module for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
    } | {
        alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
    }
    assert not any("workloadgen" in (name or "") for name in imported)


def test_update_streams_only_delete_live_rows():
    for spec in (SMALL["maintain"](3), SMALL["serve_mixed"](3)):
        live = {r.name: list(r.rows) for r in spec.relations}
        for kind, batch in spec.ops:
            if kind != "updates":
                continue
            for relation, op, row in batch:
                if op == "insert":
                    live[relation].append(row)
                else:
                    live[relation].remove(row)  # raises if not live
