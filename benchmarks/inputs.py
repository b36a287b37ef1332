"""Input documents on disk, and reading them back through the program."""

import json

from bundlechoice import ValidationReport, validate_instance, validate_rols
from bundlechoice import io as bcio


def write_market(workdir, stem, instance_doc, rols_doc):
    """Write an instance and a ROL document; returns their two paths."""
    paths = []
    for part, doc in (("instance", instance_doc), ("rols", rols_doc)):
        path = workdir / f"{stem}_{part}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(path)
    return paths


def parse_market(tr, paths):
    """(Instance, ROLs) through `io.parse_instance` and `io.parse_rols`."""
    instance_path, rols_path = paths
    with tr.span("io.parse"):
        instance = bcio.parse_instance(str(instance_path))
        rols = (instance if isinstance(instance, ValidationReport)
                else bcio.parse_rols(str(rols_path), instance))
    if isinstance(rols, ValidationReport):
        raise RuntimeError(f"benchmark input rejected: {rols}")
    return instance, rols


def validate_market(tr, paths):
    """Time `model.validate_instance` and `validate_rols` called directly."""
    instance_path, rols_path = paths
    raw = json.loads(instance_path.read_text(encoding="utf-8"))
    rols = json.loads(rols_path.read_text(encoding="utf-8"))["rols"]
    with tr.span("model.validate"):
        instance = validate_instance(raw)
        validate_rols(instance, rols)
