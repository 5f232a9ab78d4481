import json
import random
import subprocess
import sys

import pytest

from stablepairs.cli import SchemaError, instance_from_dict, main, random_instance_dict

FIX_B = {
    "mode": "free",
    "rank": "2",
    "q": "1",
    "identity_polytope": [["1", "0"], ["0", "1"], ["-1", "-1"]],
    "frames": [
        {"v_support": [["0", "0"]],
         "w_support": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]}
    ],
}

FIX_C = {
    "mode": "free",
    "rank": "2",
    "q": "1",
    "identity_polytope": [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"]],
    "frames": [
        {"v_support": [["-1", "0"], ["1", "0"]],
         "w_support": [["-1", "0"], ["1", "0"]]}
    ],
}

FIX_D = {
    "mode": "free",
    "rank": "2",
    "q": "1",
    "identity_polytope": [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"]],
    "frames": [
        {"v_support": [["1", "0"]], "w_support": [["0", "0"]]}
    ],
}


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_check_exit_codes_and_json(tmp_path, capsys):
    path = write(tmp_path, "b.json", FIX_B)
    assert main(["check", path, "--format", "json"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == '{"semistable":true,"stable":true,"uniform_m":2}'

    path = write(tmp_path, "c.json", FIX_C)
    assert main(["check", path, "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["semistable"] is True and payload["stable"] is False
    assert payload["witness"] in ([0, 1], [0, -1])

    path = write(tmp_path, "d.json", FIX_D)
    assert main(["check", path]) == 4
    text = capsys.readouterr().out
    assert "witness: [-1, 0]" in text


def test_schema_violations_exit_2(tmp_path, capsys):
    bad = dict(FIX_B, frames=[{"v_support": [], "w_support": [["0", "0"]]}])
    path = write(tmp_path, "bad.json", bad)
    assert main(["check", path]) == 2
    assert "v_support" in capsys.readouterr().err

    assert main(["check", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()

    path = tmp_path / "nojson.json"
    path.write_text("{", encoding="utf-8")
    assert main(["check", str(path)]) == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("mangle,field", [
    (lambda d: d.pop("mode"), "mode"),
    (lambda d: d.update(mode="torus"), "mode"),
    (lambda d: d.pop("rank"), "rank"),
    (lambda d: d.update(matrix_size="2"), "matrix_size"),
    (lambda d: d.pop("q"), "q"),
    (lambda d: d.update(q="0"), "q"),
    (lambda d: d.pop("identity_polytope"), "identity_polytope"),
    (lambda d: d.update(rep_weights=[["1", "0"]]), "rep_weights"),
    (lambda d: d.update(extra=1), "extra"),
    (lambda d: d["frames"][0].update(v_support=[["1", "0", "0"]]), "v_support"),
    (lambda d: d["frames"][0].update(v_coeffs=["1.0", "2.0"]), "v_coeffs"),
    (lambda d: d["frames"][0].update(v_coeffs=["-1.0"]), "v_coeffs"),
])
def test_field_diagnostics(mangle, field):
    data = json.loads(json.dumps(FIX_B))
    mangle(data)
    with pytest.raises(SchemaError) as err:
        instance_from_dict(data)
    assert field in str(err.value)


def test_sl_instance_with_rep_weights():
    data = {
        "mode": "sl",
        "matrix_size": "2",
        "rep_weights": [["2", "0"], ["0", "2"], ["1", "1"]],
        "frames": [
            {"v_support": [["1", "1"]], "w_support": [["2", "0"], ["0", "2"]]}
        ],
    }
    inst = instance_from_dict(data)
    assert inst.q == 2
    both = dict(data, q="2")
    with pytest.raises(SchemaError):
        instance_from_dict(both)
    neither = dict(data)
    del neither["rep_weights"]
    with pytest.raises(SchemaError):
        instance_from_dict(neither)
    with pytest.raises(SchemaError):
        instance_from_dict(dict(data, identity_polytope=[["1", "0"]]))


def test_min_m_and_witness_commands(tmp_path, capsys):
    path_b = write(tmp_path, "b.json", FIX_B)
    path_c = write(tmp_path, "c.json", FIX_C)

    assert main(["min-m", path_b]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["min-m", path_c]) == 0
    assert capsys.readouterr().out.strip() == "none"

    assert main(["witness", path_b]) == 0
    assert capsys.readouterr().out.strip() == "none"
    assert main(["witness", path_c, "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clause"] == "stability"
    assert payload["witness"] in ([0, 1], [0, -1])


def test_degenerate_command(tmp_path, capsys):
    data = json.loads(json.dumps(FIX_C))
    data["frames"][0]["v_support"] = [["1", "0"], ["0", "1"], ["0", "0"]]
    path = write(tmp_path, "deg.json", data)

    assert main(["degenerate", path, "--keep", "3"]) == 0
    assert capsys.readouterr().out.strip() == "[1, 1]"

    assert main(["degenerate", path, "--keep", "1,2,3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["direction"] is None  # interior origin cannot survive alone

    assert main(["degenerate", path, "--keep", "9"]) == 2
    capsys.readouterr()


def test_slope_command(tmp_path, capsys):
    path = write(tmp_path, "b.json", FIX_B)
    assert main(["slope", path, "--lambda", "0,1"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "slope ≈ -1.000000; exact -1"
    assert main(["slope", path, "--lambda", "0,0"]) == 2
    capsys.readouterr()


def test_corpus_round_trip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        assert main(["corpus", "--dim", "2", "--max-coord", "3",
                     "--count", "6", "--seed", "11", "--out", str(out)]) == 0
        capsys.readouterr()
    files1 = sorted(out1.iterdir())
    files2 = sorted(out2.iterdir())
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()
    # every emitted file parses and validates
    for f in files1:
        inst = instance_from_dict(json.loads(f.read_text()))
        assert inst.family.frames


def test_random_instances_round_trip_both_modes():
    rng = random.Random(4)
    for _ in range(30):
        data = random_instance_dict(rng, rng.choice((2, 3)), 2)
        inst = instance_from_dict(data)
        assert inst.context.ambient_dim in (2, 3)


def test_check_determinism_through_real_process(tmp_path):
    path = write(tmp_path, "c.json", FIX_C)
    runs = [
        subprocess.run(
            [sys.executable, "-m", "stablepairs.cli", "check", path,
             "--format", "json"],
            capture_output=True,
        )
        for _ in range(2)
    ]
    assert runs[0].returncode == runs[1].returncode == 3
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.strip()


def test_import_does_not_load_numpy():
    # numpy is the optional [oracle] extra; only the oracle module needs it
    code = "import sys, stablepairs, stablepairs.cli; print('numpy' in sys.modules)"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_multi_frame_verdict(tmp_path, capsys):
    data = json.loads(json.dumps(FIX_C))
    data["frames"] = [
        {"v_support": [["0", "0"]],
         "w_support": [["1", "0"], ["-1", "0"], ["0", "1"], ["0", "-1"]]},
        dict(FIX_C["frames"][0]),
    ]
    path = write(tmp_path, "family.json", data)
    assert main(["check", path, "--format", "json"]) == 3
    payload = json.loads(capsys.readouterr().out)
    assert payload["frame_index"] == 1
