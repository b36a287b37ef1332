"""File formats, canonical serialization, and CSV emission.

Instances, ROLs, matchings, and strategy profiles all travel as JSON
documents with string keys.  Canonical serialization sorts every key,
flattens sets into sorted lists, and prints with fixed separators, so equal
inputs always produce byte-identical output; a sha256 digest of the
canonical inputs ties each result document to what produced it.
"""

import hashlib
import json
from fractions import Fraction

import numpy as np

from .experiments import StrategyProfile
from .model import ValidationReport, _is_ids, validate_instance, validate_rols


def _plain(obj):
    """JSON form of the non-JSON values a document may carry."""
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"cannot canonicalize {type(obj).__name__}")


def canonical_document(obj):
    """One JSON line with sorted keys and fixed separators, in one pass."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_plain
    ) + "\n"


def content_digest(obj):
    return hashlib.sha256(canonical_document(obj).encode("utf-8")).hexdigest()


def _load_document(path):
    """Parsed JSON or a ValidationReport with the failure position."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        problem = err.strerror or err
    except UnicodeDecodeError as err:
        problem = f"not UTF-8 text: {err.reason} at byte {err.start}"
    else:
        try:
            return json.loads(text)
        except json.JSONDecodeError as err:
            problem = f"line {err.lineno} column {err.colno}: {err.msg}"
        except ValueError:  # an integer literal past the interpreter's digit limit
            problem = "a number too long to read"
        except RecursionError:
            problem = "arrays or objects nested too deeply to read"
    return ValidationReport([f"{path}: {problem}"])


def _located(report, path):
    out = ValidationReport([])
    for problem in report.problems:
        out.add(f"{path}: {problem}")
    return out


def parse_instance(path):
    """Validated Instance, or a ValidationReport with file positions."""
    raw = _load_document(path)
    if isinstance(raw, ValidationReport):
        return raw
    if not isinstance(raw, dict):
        report = ValidationReport([])
        report.add(f"{path}: top-level document must be an object")
        return report
    result = validate_instance(raw)
    if isinstance(result, ValidationReport):
        return _located(result, path)
    return result


def parse_rols(path, instance):
    """ROL mapping from a {"rols": {student: [...]}} document."""
    raw = _load_document(path)
    if isinstance(raw, ValidationReport):
        return raw
    if not isinstance(raw, dict) or not isinstance(raw.get("rols"), dict):
        report = ValidationReport([])
        report.add(
            f'{path}: expected an object with a "rols" field mapping each '
            "student to a list of bundle ids"
        )
        return report
    rols = raw["rols"]
    report = validate_rols(instance, rols)
    if report.problems:
        return _located(report, path)
    return rols


def parse_matching(path, instance):
    """(kind, assignment) from a matching document.

    A {"matching": {student: bundle|null}} document is bundle-level; a
    {"seats": {student: school|null}} document is seat-level.
    """
    raw = _load_document(path)
    if isinstance(raw, ValidationReport):
        return raw
    report = ValidationReport([])
    for field, kind, entry in (("matching", "bundle", "a bundle id"),
                               ("seats", "standard", "a school id")):
        if isinstance(raw, dict) and isinstance(raw.get(field), dict):
            for student, value in raw[field].items():
                if value is not None and not isinstance(value, str):
                    report.add(f"{path}: {field}.{student}: expected {entry} or null")
            return report if report.problems else (kind, dict(raw[field]))
    report.add(f'{path}: expected an object with a "matching" or "seats" field')
    return report


def _per_student(path, instance, what, entry_problems):
    """A {student: value} side document, or a report naming file and field.

    `entry_problems(student, value)` lists what is wrong with one student's
    value, each problem led by the field it is about.
    """
    raw = _load_document(path)
    if isinstance(raw, ValidationReport):
        return raw
    report = ValidationReport([])
    if not isinstance(raw, dict):
        report.add(f"{path}: expected an object mapping each student to {what}")
        return report
    students = set(instance.students)
    for student, value in raw.items():
        if student not in students:
            report.add(f"{path}: unknown student {student}")
        for problem in entry_problems(student, value):
            report.add(f"{path}: {problem}")
    return report if report.problems else raw


def _school_list_problems(instance, field, value):
    if not _is_ids(value):
        return [f"{field}: expected a list of school ids"]
    problems = [f"{field}: unknown school {s}" for s in value
                if s not in instance.schools]
    if len(set(value)) != len(value):
        problems.append(f"{field}: repeated school")
    return problems


def parse_stage_prefs(path, instance):
    """{student: [school ids]} from a --stage-prefs document."""
    return _per_student(
        path, instance, "a list of school ids",
        lambda i, ranking: _school_list_problems(instance, i, ranking),
    )


def parse_classes(path, instance):
    """{student: [set of school ids]} from a --classes document."""
    def problems(i, groups):
        if not isinstance(groups, list):
            return [f"{i}: expected a list of indifference classes"]
        return [p for k, group in enumerate(groups)
                for p in _school_list_problems(instance, f"{i}[{k}]", group)]

    raw = _per_student(path, instance, "a list of indifference classes", problems)
    if isinstance(raw, ValidationReport):
        return raw
    return {i: [set(group) for group in groups] for i, groups in raw.items()}


def _is_branch_table(value):
    """Each branch a [probability, ROL] pair, the probability a JSON number."""
    return isinstance(value, dict) and all(
        isinstance(branches, list) and all(
            isinstance(b, list) and len(b) == 2 and type(b[0]) in (int, float)
            and _is_ids(b[1]) for b in branches
        )
        for branches in value.values()
    )


# Each profile kind: its field, the shape test, and what the message says.
_PROFILE_FIELDS = {
    "per-type": ("strategies", _is_branch_table,
                 "an object mapping each payoff type to [probability, ROL] pairs"),
    "by-rank": ("rols", lambda v: isinstance(v, list) and all(map(_is_ids, v)),
                "a list of ROLs, one per score rank"),
}


def parse_profile(path):
    """StrategyProfile from a {"kind": ..., ...} document."""
    raw = _load_document(path)
    if isinstance(raw, ValidationReport):
        return raw
    report = ValidationReport([])
    kind = raw.get("kind") if isinstance(raw, dict) else None
    if kind not in _PROFILE_FIELDS:
        report.add(f'{path}: profile "kind" must be "per-type" or "by-rank"')
        return report
    field, well_formed, expected = _PROFILE_FIELDS[kind]
    if field not in raw:
        report.add(f'{path}: missing field "{field}"')
    elif not well_formed(raw[field]):
        report.add(f"{path}: {field}: expected {expected}")
    else:
        try:
            return StrategyProfile(kind, raw[field])
        except ValueError as err:
            report.add(f"{path}: {err}")
    return report


def serialize_instance(instance):
    """Round-trippable raw document for a validated instance."""
    students = set(instance.students)
    bundles = []
    for bid in instance.bundle_order:
        bundle = instance.bundles[bid]
        if bundle.trivial:
            continue
        bundles.append({
            "id": bid,
            "schools": sorted(bundle.schools),
            "targets": "all" if bundle.targets == students
            else sorted(bundle.targets),
        })
    return {
        "students": list(instance.students),
        "schools": [
            {
                "id": s,
                "quota": instance.schools[s].quota,
                "priority": list(instance.schools[s].priority),
            }
            for s in instance.school_order
        ],
        "bundles": bundles,
        "rol_length": instance.rol_length,
    }


def verdict_summary(verdict):
    return {
        "stable": verdict.stable,
        "violations": [list(v) for v in verdict.violations],
    }


def metrics_block(metrics):
    block = {name: value for name, value in metrics.rows()}
    block["rounds"] = metrics.rounds
    if metrics.exact:
        block["exact"] = {k: str(v) for k, v in metrics.exact.items()}
    if metrics.components:
        block["components"] = dict(metrics.components)
    return block


def canonical_result(command, inputs, **blocks):
    """One canonical result document: digest of inputs plus payload blocks."""
    doc = {"command": command, "digest": content_digest(inputs)}
    doc.update(blocks)
    return canonical_document(doc)


def trace_csv(trace):
    """One row per engine decision: round, event, student, option."""
    lines = ["round,event,student,option"]
    lines += [",".join(map(str, event)) for event in trace.events()]
    return "\n".join(lines) + "\n"


def metrics_csv(treatment, metrics):
    """Metric rows: treatment, metric, value."""
    lines = ["treatment,metric,value"]
    for name, value in metrics.rows():
        lines.append(f"{treatment},{name},{value}")
    return "\n".join(lines) + "\n"
