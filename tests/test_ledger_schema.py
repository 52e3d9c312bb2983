import json
import shutil
from importlib import resources

import jsonschema
import pytest

from evogen.history import read_ledger, validate_history
from evogen.minilang import MinilangAdapter
from evogen.runner import RunConfig, run

from conftest import write_donor, write_initial_system


@pytest.fixture(scope="module")
def schema():
    text = resources.files("evogen").joinpath(
        "schemas/ledger.schema.json").read_text()
    data = json.loads(text)
    jsonschema.Draft7Validator.check_schema(data)
    return data


@pytest.fixture(scope="module")
def history(tmp_path_factory):
    """A history whose ledger holds every operation kind."""
    base = tmp_path_factory.mktemp("schema")
    system = write_initial_system(base / "in")
    donor = write_donor(base / "donors", "widget")
    out = base / "out"
    run(RunConfig(max_iterations=25, seed=11), system, [donor], out)
    return out


def test_generated_ledger_conforms(history, schema):
    records = read_ledger(history)
    validator = jsonschema.Draft7Validator(schema)
    for record in records:
        validator.validate(record)
    # the schema is checked on every kind the draw can commit
    assert {r["kind"] for r in records} == {
        "MutateAsset", "CloneVariant", "TransplantFeature", "RemoveFeature", "CloneFeature"}


def test_op_id_off_the_pattern_is_refused(history, schema, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(history, out)
    ledger = out / "ledger.ndjson"
    lines = ledger.read_text().splitlines()
    record = json.loads(lines[0])
    record["op_id"] = "5"
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.Draft7Validator(schema).validate(record)
    lines[0] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    ledger.write_text("\n".join(lines) + "\n")
    assert validate_history(out, MinilangAdapter()).violations == [
        {"kind": "replay", "where": "ledger.ndjson",
         "message": "replay diverged at record 0: record differs from its replay in op_id"}]


def test_truncation_marker_conforms(schema):
    jsonschema.Draft7Validator(schema).validate(
        {"schema": 1, "kind": "Truncated", "reason": "disk full"})


def test_garbage_rejected(schema):
    validator = jsonschema.Draft7Validator(schema)
    for bad in ({}, {"schema": 1, "kind": "Nope"},
                {"schema": 2, "kind": "Truncated", "reason": "x"}):
        with pytest.raises(jsonschema.ValidationError):
            validator.validate(bad)
