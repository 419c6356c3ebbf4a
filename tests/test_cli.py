"""End-to-end command tests driving main() with in-process argv."""

import json
from fractions import Fraction

import pytest

from percop.cli import main
from percop.core import SymMat, mat_dumps
from percop.families import fixtures, q_an


def _write(tmp_path, name, q):
    path = tmp_path / name
    path.write_text(mat_dumps(q))
    return str(path)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_copmin(tmp_path, capsys):
    path = _write(tmp_path, "a3.json", q_an(3))
    code, body = _run(capsys, ["copmin", path])
    assert code == 0
    assert body["min"] == "2"
    assert len(body["vectors"]) == 6


def test_copmin_not_copositive_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.json",
                  SymMat.from_rows([[2, -3], [-3, 2]]))
    code, body = _run(capsys, ["copmin", path])
    assert code == 2
    assert body["error"] == "not-copositive"
    assert len(body["witness"]) == 2


def test_perfect_true(tmp_path, capsys):
    path = _write(tmp_path, "a2.json", q_an(2))
    code, body = _run(capsys, ["perfect", path])
    assert code == 0
    assert body["perfect"] is True
    assert body["certificate"]["min"] == "2"
    assert body["certificate"]["span_rank"] == 3


def test_perfect_false_still_exits_0(tmp_path, capsys):
    path = _write(tmp_path, "i2.json",
                  SymMat.from_rows([[1, 0], [0, 1]]))
    code, body = _run(capsys, ["perfect", path])
    assert code == 0
    assert body["perfect"] is False
    assert body["reason"] == "span-deficient"
    assert body["span_rank"] == 2


def test_neighbors_half_a2(tmp_path, capsys):
    path = _write(tmp_path, "half.json", q_an(2).scale(Fraction(1, 2)))
    code, body = _run(capsys, ["neighbors", path])
    assert code == 0
    kinds = [s["kind"] for s in body["steps"]]
    assert kinds.count("neighbor") == 2
    assert kinds.count("ray") == 1


def test_neighbors_requires_normalization(tmp_path, capsys):
    path = _write(tmp_path, "a2.json", q_an(2))
    code, body = _run(capsys, ["neighbors", path])
    assert code == 2
    assert body["error"] == "precondition-violation"
    assert body["reason"] == "not-normalized"


def test_walk_with_dot_export(tmp_path, capsys):
    path = _write(tmp_path, "half.json", q_an(2).scale(Fraction(1, 2)))
    dot_path = tmp_path / "graph.dot"
    code, body = _run(capsys, ["walk", path, "--budget", "2",
                               "--dot", str(dot_path)])
    assert code == 0
    assert len(body["nodes"]) == 2
    text = dot_path.read_text()
    assert text.startswith("digraph")
    assert "ray" in text


def test_walk_dot_export_to_a_directory_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "half.json", q_an(2).scale(Fraction(1, 2)))
    code, body = _run(capsys, ["walk", path, "--budget", "1",
                               "--dot", str(tmp_path)])
    assert code == 1
    assert body["error"] == "malformed-input"
    assert "cannot write" in body["detail"]


def test_walk_budget_flag_is_required(tmp_path, capsys):
    path = _write(tmp_path, "half.json", q_an(2).scale(Fraction(1, 2)))
    assert main(["walk", path]) == 1
    capsys.readouterr()


def test_lift(tmp_path, capsys):
    path = _write(tmp_path, "base.json",
                  SymMat.from_rows([[6, -3], [-3, 2]]))
    code, body = _run(capsys, ["lift", path, "--witness", "1,2"])
    assert code == 0
    assert body["n"] == 3
    assert body["entries"][2] == body["entries"][1]


def test_lift_witness_validation_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "base.json",
                  SymMat.from_rows([[6, -3], [-3, 2]]))
    code, body = _run(capsys, ["lift", path, "--witness", "1,1"])
    assert code == 2
    assert body["error"] == "precondition-violation"
    assert body["reason"] == "witness-last-entry"


def test_lift_malformed_witness_exits_1(tmp_path, capsys):
    path = _write(tmp_path, "base.json",
                  SymMat.from_rows([[6, -3], [-3, 2]]))
    code, body = _run(capsys, ["lift", path, "--witness", "1,x"])
    assert code == 1
    assert body["error"] == "malformed-input"


def test_embed(tmp_path, capsys):
    path = _write(tmp_path, "pd.json", SymMat.from_rows([[2, 1], [1, 2]]))
    code, body = _run(capsys, ["embed", path])
    assert code == 0
    assert body["q_bound"] == 2
    assert body["u_inv"] == [[1, 0], [2, 1]]
    assert body["transformed"]["entries"] == [["6", "-3"], ["-3", "2"]]


def test_certify_cp_exits_0(tmp_path, capsys):
    path = _write(tmp_path, "cp.json", SymMat.from_rows([[2, 1], [1, 2]]))
    code, body = _run(capsys, ["certify", path])
    assert code == 0
    assert body["verdict"] == "cp"


def test_certify_not_cp_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "notcp.json",
                  SymMat.from_rows([[1, 2], [2, 1]]))
    code, body = _run(capsys, ["certify", path])
    assert code == 3
    assert body["verdict"] == "not-cp"
    assert Fraction(body["value"]) < 0


def test_certify_budget_zero_exits_4(tmp_path, capsys):
    path = _write(tmp_path, "notcp.json",
                  SymMat.from_rows([[1, 2], [2, 1]]))
    code, body = _run(capsys, ["certify", path, "--budget", "0"])
    assert code == 4
    assert body["verdict"] == "inconclusive"


def test_classify_with_witness(tmp_path, capsys):
    epath = _write(tmp_path, "e.json", fixtures().E)
    wpath = _write(tmp_path, "w.json", fixtures().Q_dnn)
    code, body = _run(capsys, ["classify", epath, "--witness", wpath])
    assert code == 0
    assert body["definiteness"] == "indefinite"
    assert body["exceptional_certified"] is not None
    assert body["witness_rejected"] is None


def test_fixtures_lookup(capsys):
    code, body = _run(capsys, ["fixtures", "--name", "QA:2"])
    assert code == 0
    assert body["entries"] == [["2", "-1"], ["-1", "2"]]


def test_canon(tmp_path, capsys):
    diag = SymMat.from_rows([[3, 0, 0], [0, 1, 0], [0, 0, 2]])
    path = _write(tmp_path, "diag.json", diag)
    code, body = _run(capsys, ["canon", path])
    assert code == 0
    assert body["entries"][0][0] == "1"
    assert body["entries"][2][2] == "3"


def test_stdin_matrix(tmp_path, capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(mat_dumps(q_an(2))))
    code, body = _run(capsys, ["copmin", "-"])
    assert code == 0
    assert body["min"] == "2"


def test_malformed_json_exits_1(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, body = _run(capsys, ["copmin", str(path)])
    assert code == 1
    assert body["error"] == "malformed-input"


def test_asymmetric_matrix_exits_1(tmp_path, capsys):
    path = tmp_path / "asym.json"
    path.write_text(json.dumps(
        {"n": 2, "entries": [["1", "2"], ["3", "1"]]}))
    code, body = _run(capsys, ["copmin", str(path)])
    assert code == 1


def test_missing_file_exits_1(tmp_path, capsys):
    code, body = _run(capsys, ["copmin", str(tmp_path / "absent.json")])
    assert code == 1


def test_output_is_byte_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "a3.json", q_an(3))
    main(["copmin", path])
    first = capsys.readouterr().out
    main(["copmin", path])
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


# (command, matrix, exit code, stdout in compact JSON): two witnesses, each
# the least-support minimiser on the simplex, the neighbourhood of Q_A3/2,
# and a copositive matrix with a zero.  stdout must be exactly the indent-2,
# key-sorted rendering of the compact form, newline-terminated.
_PINNED_STDOUT = [
    ("copmin", SymMat.from_rows([[2, -3], [-3, 2]]), 2,
     '{"error":"not-copositive","witness":["1/2","1/2"]}'),
    ("perfect", SymMat.from_rows([[7, 0, -4], [0, 1, -2], [-4, -2, 4]]), 0,
     '{"perfect":false,"reason":"not-strictly-copositive",'
     '"witness":["12/71","34/71","25/71"]}'),
    ("neighbors", q_an(3).scale(Fraction(1, 2)), 0,
     '{"steps":['
     '{"kind":"neighbor","lambda":"1/2","matrix":{"entries":'
     '[["1","-1/2","-1/2"],["-1/2","1","0"],["-1/2","0","1"]],"n":3},'
     '"new_vectors":[[1,0,1]]},'
     '{"direction":{"entries":'
     '[["0","0","1"],["0","0","0"],["1","0","0"]],"n":3},"kind":"ray"},'
     '{"kind":"neighbor","lambda":"1/2","matrix":{"entries":'
     '[["1","0","-1/2"],["0","1","-1/2"],["-1/2","-1/2","1"]],"n":3},'
     '"new_vectors":[[1,0,1]]},'
     '{"kind":"neighbor","lambda":"1/2","matrix":{"entries":'
     '[["1","-1/2","0"],["-1/2","1","-1"],["0","-1","2"]],"n":3},'
     '"new_vectors":[[1,2,1]]},'
     '{"kind":"neighbor","lambda":"1","matrix":{"entries":'
     '[["1","-3/2","1"],["-3/2","3","-3/2"],["1","-3/2","1"]],"n":3},'
     '"new_vectors":[[0,1,2],[2,1,0]]},'
     '{"kind":"neighbor","lambda":"1/2","matrix":{"entries":'
     '[["2","-1","0"],["-1","1","-1/2"],["0","-1/2","1"]],"n":3},'
     '"new_vectors":[[1,2,1]]}]}'),
    # copositive with a zero on the simplex: decided, not undecided
    ("copmin", SymMat.from_rows([[0, 1], [1, 0]]), 2,
     '{"detail":"the copositive minimum needs a strictly copositive '
     'matrix; this one is 0 on the simplex","error":"precondition-violation",'
     '"reason":"not-strictly-copositive","zero":["0","1"]}'),
    ("perfect", SymMat.from_rows([[0, 1], [1, 0]]), 0,
     '{"perfect":false,"reason":"not-strictly-copositive"}'),
]


@pytest.mark.parametrize("command,m,code,compact", _PINNED_STDOUT)
def test_pinned_stdout_bytes(tmp_path, capsys, command, m, code, compact):
    path = _write(tmp_path, "m.json", m)
    assert main([command, path]) == code
    expected = json.dumps(json.loads(compact), indent=2, sort_keys=True)
    assert capsys.readouterr().out == expected + "\n"


def test_zero_denominator_entry_exits_1(tmp_path, capsys):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": 1, "entries": [["1/0"]]}))
    code, body = _run(capsys, ["copmin", str(path)])
    assert code == 1
    assert body["error"] == "malformed-input"


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_unknown_command_exits_1(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()
