import json

import pytest

from nucnz.cli import _oracle_sep, main
from nucnz.games import brute_lsa_min_excess
from helpers import dump_allocation
from nucnz.serialize import (
    load_allocation_dict,
    load_game_dict,
    load_subspace_dict,
)


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def unanimity_file(tmp_path):
    return write(
        tmp_path,
        "unanimity3.json",
        {
            "kind": "value",
            "players": ["a", "b", "c"],
            "game": {"type": "table", "values": ["0"] * 7 + ["1"]},
        },
    )


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_unanimity(capsys, unanimity_file):
    code, out, _ = run(capsys, ["solve", unanimity_file])
    assert code == 0
    d = json.loads(out)
    assert d["allocation"] == ["1/3", "1/3", "1/3"]


def test_solve_modes_agree(capsys, unanimity_file):
    code1, out1, _ = run(capsys, ["solve", unanimity_file])
    code2, out2, _ = run(capsys, ["solve", unanimity_file, "--mode", "oracle"])
    assert code1 == code2 == 0
    assert json.loads(out1)["allocation"] == json.loads(out2)["allocation"]


def test_solve_trace_file(capsys, tmp_path, unanimity_file):
    trace = tmp_path / "trace.json"
    code, _, _ = run(capsys, ["solve", unanimity_file, "--trace", str(trace)])
    assert code == 0
    d = json.loads(trace.read_text())
    assert d["allocation"] == ["1/3", "1/3", "1/3"]
    assert d["trace"]


def test_solve_unwritable_trace_fails_with_json(capsys, tmp_path, unanimity_file):
    trace = tmp_path / "no" / "such" / "dir" / "trace.json"
    code, out, err = run(capsys, ["solve", unanimity_file, "--trace", str(trace)])
    assert code == 1
    assert out == ""
    d = json.loads(err)
    assert d["error"].startswith("cannot write trace file")
    assert d["cause"]


def test_least_core(capsys, unanimity_file):
    code, out, _ = run(capsys, ["least-core", unanimity_file])
    assert code == 0
    assert json.loads(out)["xi"] == "1/3"


def test_min_excess_variants(capsys, tmp_path, unanimity_file):
    y = write(tmp_path, "y.json", {"y": ["1/3", "1/3", "1/3"]})
    code, out, _ = run(capsys, ["min-excess", unanimity_file, "--y", y])
    assert code == 0 and json.loads(out)["excess"] == "0"
    code, out, _ = run(capsys, ["min-excess", unanimity_file, "--y", y, "--a", "1,1,1"])
    assert code == 0
    d = json.loads(out)
    assert d["excess"] == "0" and d["coalition_mask"] == 7
    sub = write(tmp_path, "sub.json", {"basis": [[1, 1, 0]]})
    code, out, _ = run(
        capsys, ["min-excess", unanimity_file, "--y", y, "--subspace", sub]
    )
    assert code == 0 and json.loads(out)["subspace_dim"] == 1


def test_reduce_chain(capsys, tmp_path):
    bm = write(
        tmp_path,
        "bm.json",
        {
            "graph": {"n": 2, "edges": [[0, 1]]},
            "w": ["3"],
            "b": [1, 1],
            "y": ["1", "2"],
            "a": [1, 0],
        },
    )
    code, out, _ = run(capsys, ["reduce", "a2m", bm])
    assert code == 0
    d = json.loads(out)
    assert d["instance"]["graph"]["n"] == 10
    assert d["gadget_map"]["kind"] == "node-edge-gadget"

    m = write(
        tmp_path,
        "m.json",
        {"graph": {"n": 4, "edges": [[0, 1], [2, 3]]}, "w": ["3", "3"], "a": [1, -1]},
    )
    code, out, _ = run(capsys, ["reduce", "m2c", m])
    assert code == 0
    d = json.loads(out)
    assert "instance" in d and d["gadget_map"]["kind"] == "matching-to-cycle"

    c = write(
        tmp_path,
        "c.json",
        {"graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0]]}, "c": ["1", "1", "1"], "a": [1, 0, 0]},
    )
    code, out, _ = run(capsys, ["reduce", "c2b", c])
    assert code == 0
    d = json.loads(out)
    assert d["instance"]["b"] == [2] * 6
    assert d["gadget_map"]["kind"] == "subdivision"


def test_approx_command(capsys, tmp_path, unanimity_file):
    y = write(tmp_path, "y.json", {"y": ["1/3", "1/3", "1/3"]})
    code, out, _ = run(capsys, ["approx", unanimity_file, "--eps", "1/4", "--y", y])
    assert code == 0
    d = json.loads(out)
    assert d["coalition_mask"] != 0


def test_experiment_hardness(capsys):
    code, out, _ = run(capsys, ["experiment", "hardness", "--k", "2"])
    assert code == 0
    assert json.loads(out)["ok"]


def test_error_exit_codes(capsys, tmp_path):
    code, _, err = run(capsys, ["solve", str(tmp_path / "missing.json")])
    assert code == 1
    assert "error" in json.loads(err)
    bad = write(tmp_path, "bad.json", {"kind": "value"})
    code, _, err = run(capsys, ["solve", bad])
    assert code == 1


GRAPH = {"n": 2, "edges": [[0, 1]]}
MALFORMED_GAMES = {
    "bmatching without graph": ("value", 2, {"type": "bmatching", "w": ["1"], "b": [1, 1]}),
    "bmatching without w": ("value", 2, {"type": "bmatching", "graph": GRAPH, "b": [1, 1]}),
    "bmatching without b": ("value", 2, {"type": "bmatching", "graph": GRAPH, "w": ["1"]}),
    "bmatching graph without edges": (
        "value", 2, {"type": "bmatching", "graph": {"n": 2}, "w": ["1"], "b": [1, 1]},
    ),
    "arboricity without graph": ("cost", 1, {"type": "arboricity"}),
    "network_strength without graph": ("value", 1, {"type": "network_strength"}),
    "packing set without members": ("value", 2, {"type": "packing", "sets": [{"weight": "1"}]}),
    "packing set without weight": ("value", 2, {"type": "packing", "sets": [{"members": [0]}]}),
    "packing set not an object": ("value", 2, {"type": "packing", "sets": [[0, 1]]}),
    "packing members not a list": (
        "value", 2, {"type": "packing", "sets": [{"members": 5, "weight": "1"}]},
    ),
    "graph edges not a list": ("cost", 1, {"type": "arboricity", "graph": {"n": 2, "edges": 7}}),
    "graph edge not a pair": ("cost", 1, {"type": "arboricity", "graph": {"n": 2, "edges": [5]}}),
    "bmatching w not a list": ("value", 2, {"type": "bmatching", "graph": GRAPH, "w": 5, "b": [1, 1]}),
    "bmatching b with null": (
        "value", 2, {"type": "bmatching", "graph": GRAPH, "w": ["1"], "b": [None, 1]},
    ),
    "bmatching w shorter than the edges": (
        "value", 2, {"type": "bmatching", "graph": GRAPH, "w": [], "b": [1, 1]},
    ),
    "bmatching w longer than the edges": (
        "value", 2, {"type": "bmatching", "graph": GRAPH, "w": ["1", "2"], "b": [1, 1]},
    ),
    "bmatching b shorter than the vertices": (
        "value", 2, {"type": "bmatching", "graph": GRAPH, "w": ["1"], "b": [1]},
    ),
    "table value with a zero denominator": ("value", 1, {"type": "table", "values": ["0", "1/0"]}),
}


@pytest.mark.parametrize("case", list(MALFORMED_GAMES))
def test_malformed_game_files_fail_with_json(capsys, tmp_path, case):
    kind, n, spec = MALFORMED_GAMES[case]
    players = [f"p{i}" for i in range(n)]
    path = write(tmp_path, "game.json", {"kind": kind, "players": players, "game": spec})
    code, out, err = run(capsys, ["solve", path])
    assert code == 1 and out == ""
    assert isinstance(json.loads(err), dict)


MALFORMED_REDUCTIONS = {
    "a2m w not a list": (
        "a2m", {"graph": GRAPH, "w": 5, "b": [1, 1], "y": ["1", "2"], "a": [1, 0]},
    ),
    "m2c a not a list": ("m2c", {"graph": GRAPH, "w": ["3"], "a": 7}),
    "c2b edge not a pair": ("c2b", {"graph": {"n": 2, "edges": [5]}, "c": ["1"], "a": [1]}),
}


@pytest.mark.parametrize("case", list(MALFORMED_REDUCTIONS))
def test_malformed_reduction_inputs_fail_with_json(capsys, tmp_path, case):
    step, payload = MALFORMED_REDUCTIONS[case]
    code, out, err = run(capsys, ["reduce", step, write(tmp_path, "in.json", payload)])
    assert code == 1 and out == ""
    assert isinstance(json.loads(err), dict)


@pytest.mark.parametrize(
    "basis", [5, [5], [["1/0", 0, 0]]], ids=["number", "row not a list", "zero denominator"]
)
def test_malformed_subspace_fails_with_json(capsys, tmp_path, unanimity_file, basis):
    y = write(tmp_path, "y.json", {"y": ["1/3", "1/3", "1/3"]})
    sub = write(tmp_path, "sub.json", {"basis": basis})
    code, out, err = run(capsys, ["min-excess", unanimity_file, "--y", y, "--subspace", sub])
    assert code == 1 and out == ""
    assert isinstance(json.loads(err), dict)


ZERO_DENOMINATOR_ARGS = {
    "allocation entry": ["min-excess", "GAME", "--y", "Y"],
    "approx eps": ["approx", "GAME", "--y", "Y", "--eps", "1/0"],
    "instability eps": ["experiment", "instability", "--n", "1", "--eps", "1/0", "--K", "2"],
    "instability K": ["experiment", "instability", "--n", "1", "--eps", "1/4", "--K", "1/0"],
}


@pytest.mark.parametrize("case", list(ZERO_DENOMINATOR_ARGS))
def test_zero_denominator_fails_with_json(capsys, tmp_path, unanimity_file, case):
    second = "1/0" if case == "allocation entry" else "1/3"
    y = write(tmp_path, "y.json", {"y": ["1/3", second, "1/3"]})
    argv = [{"GAME": unanimity_file, "Y": y}.get(a, a) for a in ZERO_DENOMINATOR_ARGS[case]]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    assert isinstance(json.loads(err), dict)


def test_serialize_round_trips(tmp_path):
    d = {
        "kind": "value",
        "players": ["a", "b"],
        "game": {"type": "table", "values": ["0", "1/2", "1/3", "2"]},
    }
    loaded = load_game_dict(d)
    assert loaded.game.player_count == 2
    y = load_allocation_dict({"y": ["1/2", "-3"]}, 2)
    assert dump_allocation(y) == {"y": ["1/2", "-3"]}
    L = load_subspace_dict({"basis": [[1, 1]]}, 2)
    assert L.dim == 1


def test_serialize_rejects_mismatches():
    from nucnz.serialize import GameFileError

    with pytest.raises(GameFileError):
        load_game_dict(
            {
                "kind": "cost",
                "players": ["a", "b"],
                "game": {"type": "bmatching", "graph": {"n": 2, "edges": [[0, 1]]}, "w": ["1"], "b": [1, 1]},
            }
        )
    with pytest.raises(GameFileError):
        load_game_dict(
            {
                "kind": "value",
                "players": ["a"],
                "game": {"type": "table", "values": ["0", "1", "2"]},
            }
        )


def test_selftest(capsys):
    code, out, _ = run(capsys, ["selftest", "--seed", "3"])
    assert code == 0
    d = json.loads(out)
    assert d["ok"]
    assert "forced-vs-cycle-route" in {c["name"] for c in d["checks"]}


GRAPH_GAMES = {
    "bmatching": {
        "kind": "value",
        "players": ["a", "b", "c", "d"],
        "game": {
            "type": "bmatching",
            "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2]]},
            "w": ["3", "2", "5/2", "1", "4"],
            "b": [2, 1, 1, 2],
        },
    },
    "arboricity": {
        "kind": "cost",
        "players": ["e0", "e1", "e2", "e3", "e4"],
        "game": {
            "type": "arboricity",
            "graph": {"n": 4, "edges": [[0, 1], [1, 2], [2, 0], [2, 3], [0, 1]]},
        },
    },
    "network_strength": {
        "kind": "value",
        "players": ["e0", "e1", "e2", "e3", "e4"],
        "game": {
            "type": "network_strength",
            "graph": {"n": 3, "edges": [[0, 1], [1, 2], [2, 0], [0, 1], [1, 2]]},
        },
    },
}


@pytest.mark.parametrize("gtype", list(GRAPH_GAMES))
def test_solve_oracle_mode_matches_enumerate_on_graph_games(capsys, tmp_path, gtype):
    path = write(tmp_path, f"{gtype}.json", GRAPH_GAMES[gtype])
    code1, out1, _ = run(capsys, ["solve", path, "--mode", "enumerate"])
    code2, out2, _ = run(capsys, ["solve", path, "--mode", "oracle"])
    assert code1 == code2 == 0
    assert json.loads(out1)["allocation"] == json.loads(out2)["allocation"]
    assert _oracle_sep(load_game_dict(GRAPH_GAMES[gtype]).game) is not brute_lsa_min_excess


# An 8-vertex, 11-edge game with two capacity-2 vertices (weights 1..9).
BMATCH8 = {
    "kind": "value",
    "players": [f"v{i}" for i in range(8)],
    "game": {
        "type": "bmatching",
        "graph": {
            "n": 8,
            "edges": [[0, 1], [1, 2], [1, 3], [1, 4], [1, 6], [2, 3],
                      [2, 4], [2, 5], [4, 5], [4, 6], [5, 7]],
        },
        "w": ["4", "1", "5", "5", "6", "3", "5", "1", "4", "5", "1"],
        "b": [1, 1, 2, 1, 1, 1, 2, 1],
    },
}


def test_oracle_mode_solves_past_the_enumeration_cap(capsys, tmp_path, monkeypatch):
    path = write(tmp_path, "bmatch8.json", BMATCH8)
    code, out, _ = run(capsys, ["solve", path, "--mode", "enumerate"])
    assert code == 0
    want = json.loads(out)["allocation"]
    assert want == ["0", "5", "3/2", "3/2", "5", "1", "1", "0"]

    monkeypatch.setenv("NUCNZ_ENUM_CAP", "7")
    code, out, _ = run(capsys, ["solve", path, "--mode", "oracle"])
    assert code == 0
    assert json.loads(out)["allocation"] == want
    code, out, err = run(capsys, ["solve", path, "--mode", "enumerate"])
    assert code == 1 and out == ""
    assert "enumeration cap 7" in json.loads(err)["error"]
