"""The CLI's JSON writer matches json.dumps(sort_keys=True, indent=2) byte for byte."""

import json

import numpy as np
import pytest

from psrplan import cli


def reference(obj):
    """What the writer must produce: the stdlib encoder on plain lists."""

    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, list):
            return [plain(v) for v in x]
        if isinstance(x, np.ndarray):
            return x.tolist()
        return x

    return json.dumps(plain(obj), sort_keys=True, indent=2)


def mixed_finite_floats(count=10_000):
    """Finite floats of every scale: normals near 1e-300 to 1e300, subnormals
    and negative zeros."""
    rng = np.random.default_rng(24)
    values = rng.standard_normal(count) * 10.0 ** rng.integers(-300, 301, count)
    values[3::11] = rng.integers(1, 2**52, values[3::11].size) * 5e-324
    values[::7] = -0.0
    return values


ARRAYS = {
    "empty vector": np.zeros(0),
    "empty rows": np.zeros((0, 3), dtype=np.int64),
    "empty columns": np.zeros((4, 0), dtype=np.int64),
    "rank-1 coordinates": np.array([[-3], [0], [7]], dtype=np.int64),
    "one row": np.array([[1, -2, 3]], dtype=np.int64),
    "one element": np.array([0.25]),
    "one-by-one": np.array([[5]], dtype=np.int64),
    "int32 policy": np.array([0, 2, 1, 1], dtype=np.int32),
    "float edge values": np.array(
        [np.nan, -0.0, 0.0, 1e-300, 5e-324, 1e16, -1e16, np.inf, -np.inf, 0.1 + 0.2]
    ),
    "ints near 2**63": np.array([2**63 - 1, -(2**63), -(2**63) + 1], dtype=np.int64),
    "uint64 near 2**64": np.array([2**64 - 1, 0], dtype=np.uint64),
    "float rows": np.array([[1.5, -0.0], [np.nan, 1e-300], [5e-324, 1e16]]),
    "bools": np.array([True, False]),
    "bool rows": np.array([[True, False], [False, False]]),
    "int8 extremes": np.array([-128, -1, 0, 127], dtype=np.int8),
    "int8 rows": np.array([[-128, 127, 0], [5, -5, 1]], dtype=np.int8),
    "int32 extremes": np.array([[-(2**31), 2**31 - 1], [-7, 0]], dtype=np.int32),
    "int64 rows at the extremes": np.array(
        [[2**63 - 1, -(2**63)], [-1, 1]], dtype=np.int64
    ),
    "uint8 extremes": np.array([[0, 255], [128, 1]], dtype=np.uint8),
    "one int": np.array([-4], dtype=np.int64),
    "one uint8": np.array([[255]], dtype=np.uint8),
    "empty int rows": np.zeros((0, 2), dtype=np.int32),
    "empty uint8 columns": np.zeros((3, 0), dtype=np.uint8),
    "strings holding separators": np.array(["x, y", "], [", "z"]),
    "rank 3": np.arange(8, dtype=np.int64).reshape(2, 2, 2),
    "float32 vector": np.array([0.1, -0.0, 1e-45, 3.4e38, -2.5], dtype=np.float32),
    "float32 rows": np.array([[0.1, 1e-40], [-7.0, 65504.0]], dtype=np.float32),
    "float16 vector": np.array([0.1, -0.0, 6e-8, 65504.0, 1 / 3], dtype=np.float16),
    "float16 rows": np.array([[0.1, -0.0], [6e-5, -65504.0]], dtype=np.float16),
    "float rows holding inf": np.array([[0.5, np.inf], [-1.0, 2.0]]),
    "10,000 finite floats of every scale": mixed_finite_floats(),
}


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_array_alone_and_in_a_payload(name):
    arr = ARRAYS[name]
    assert cli._dumps(arr) == reference(arr)
    payload = {"states": arr, "mesh": 0.05, "initialState": 0}
    assert cli._dumps(payload) == reference(payload)


def test_floats_wider_than_float64_are_written_as_json_writes_their_list():
    arr = np.array([1.5, -0.0], dtype=np.longdouble)
    try:
        want = reference(arr)
    except TypeError:  # wider than float64, where json has no form for them
        with pytest.raises(TypeError):
            cli._dumps(arr)
    else:
        assert cli._dumps(arr) == want


def test_policy_payload_mixing_arrays_and_scalars():
    payload = {
        "mesh": 1 / 30,
        "states": np.array([[0, 30, -30], [1, 29, -30], [2, 28, -30]], dtype=np.int64),
        "values": np.array([10.000000000000002, -3.5, float("nan")]),
        "policy": np.array([1, 0, 2], dtype=np.int32),
        "initialState": 0,
        "residual": 7.1e-05,
        "iterations": 93,
        "metadata": {"gridMode": "reachable", "stageSeconds": {"solve": 0.01}},
        "schemaVersion": 4,
        "nested": {"inner": np.array([1.0, 2.0]), "label": "a, b], [c\n"},
    }
    assert cli._dumps(payload) == reference(payload)


def test_arrays_nested_at_depth():
    payload = {
        "states": np.array([[1, -1], [0, 2]], dtype=np.int64),
        "down": {
            "policy": np.array([3, 0], dtype=np.uint8),
            "label": "a, b",
            "down": {
                "codes": np.array([[-128, 127]], dtype=np.int8),
                "flags": np.array([True, False]),
                "values": np.array([0.5, -0.0]),
                "list": [1, 2],
                "empty": np.zeros((2, 0), dtype=np.int32),
            },
        },
    }
    assert cli._dumps(payload) == reference(payload)
    assert cli._dumps(payload, "    ") == reference(payload).replace("\n", "\n    ")


DEEP = {
    "only under a dict": {"a": {"b": np.array([1])}},
    "only under a list": {"rows": [np.array([0.5, -0.0]), {"c": np.zeros((2, 0))}]},
    "deep in lists and dicts": {
        "x": [[{"y": [np.array([[1, 2]], dtype=np.int8), [], {}]}], 3.5, "a, b"],
        "z": {"w": [{"v": {"u": np.array([True])}}, None]},
    },
    "a list of arrays alone": [np.array([1.0]), [np.array([2], dtype=np.uint8)]],
}


@pytest.mark.parametrize("name", sorted(DEEP))
def test_arrays_deep_under_dicts_and_lists(name):
    """An ndarray under any number of dicts and lists is written as its list."""

    def plain(x):
        if isinstance(x, dict):
            return {k: plain(v) for k, v in x.items()}
        if isinstance(x, list):
            return [plain(v) for v in x]
        return x.tolist() if isinstance(x, np.ndarray) else x

    want = json.dumps(plain(DEEP[name]), sort_keys=True, indent=2)
    assert cli._dumps(DEEP[name]) == want
    assert cli._dumps(DEEP[name], "  ") == want.replace("\n", "\n  ")


REPORTS = {
    "sweep rows": {
        "sweep": [
            {"epsilon": 0.1, "mesh": 0.0333, "gridStates": 120, "value": 1.25},
            {"epsilon": 0.05, "mesh": 0.0166, "gridStates": 400, "value": 1.5},
        ]
    },
    "core tests and NaN maxCoefficient": {
        "basis": {
            "coreTests": [[], [["listen", "hear-left"]], [["a", "o1"], ["b", "o2"]]],
            "maxCoefficient": float("nan"),
            "M": [[1.0, 0.5], [0.0, -0.0]],
            "detLogLedger": [],
        },
        "empty": {},
    },
    "scalars and strings": {"command": "plan", "pass": True, "gap": None, "x": "é\t\"q\""},
}


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_reports_without_arrays(name):
    report = REPORTS[name]
    assert cli._dumps(report) == json.dumps(report, sort_keys=True, indent=2)


def test_write_json_ends_with_a_newline(tmp_path):
    payload = {"values": np.array([1.0, 2.0]), "mesh": 0.5}
    cli._write_json(tmp_path / "p.json", payload)
    assert (tmp_path / "p.json").read_text(encoding="utf-8") == reference(payload) + "\n"
    assert [p.name for p in tmp_path.iterdir()] == ["p.json"]


def test_strip_timings_passes_arrays_through():
    states = np.array([[1, 2], [3, 4]], dtype=np.int64)
    values = np.array([0.5, 1.5])
    stripped = cli._strip_timings(
        {"states": states, "values": values, "metadata": {"stageSeconds": {"a": 1.0}}}
    )
    assert stripped["states"] is states
    assert stripped["values"] is values
    assert stripped["metadata"] == {}
