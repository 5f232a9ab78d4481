import copy
import hashlib
import json
import random
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from stablepairs import cli, stability
from stablepairs.cli import SchemaError, instance_from_dict, main
from stablepairs.generate import instance_dict

from conftest import build_corpus

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


BIG = "1" + "0" * 400  # past the float range

# FIX_C with the w-weight (10^400, 0): exact, but no float holds it
FIX_BIG_W = dict(FIX_C, frames=[
    {"v_support": [["-1", "0"], ["1", "0"]], "w_support": [["-1", "0"], [BIG, "0"]]}
])

# FIX_B with v listing the origin twice; 1.5e308 squared twice overflows
FIX_REPEATED_OVERFLOW = dict(FIX_B, frames=[
    dict(FIX_B["frames"][0], v_support=[["0", "0"], ["0", "0"]],
         v_coeffs=["1.5e308", "1.5e308"])
])


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

    # not UTF-8, nested past the recursion limit, an over-long integer literal
    for name, content in [("utf16.json", b"\xff\xfe{\x00}\x00"),
                          ("deep.json", b"[" * 100_000),
                          ("bigint.json", b'{"rank": ' + b"1" * 5000 + b"}")]:
        path = tmp_path / name
        path.write_bytes(content)
        assert main(["check", str(path)]) == 2
        assert "unreadable JSON" in capsys.readouterr().err


@pytest.mark.parametrize("command,extra", [("check", []), ("slope", ["--lambda=0,1"])])
def test_huge_integer_coefficient_exits_2(tmp_path, capsys, command, extra):
    # a JSON integer too large for a float; the message keeps its digits out
    frame = dict(FIX_B["frames"][0], v_coeffs=[10 ** 400])
    path = write(tmp_path, "huge.json", dict(FIX_B, frames=[frame]))
    assert main([command, path, *extra]) == 2
    err = capsys.readouterr().err
    assert "frames[0].v_coeffs[0]: " in err and BIG not in err, err


LONG = "7" * 5001  # past int()'s default limit of 4300 digits


@pytest.mark.parametrize("field,what,data", [
    ("frames[0].w_support[0][0]", "an integer", dict(FIX_B, frames=[
        dict(FIX_B["frames"][0], w_support=[[LONG, "0"], ["-1", "0"]])])),
    ("identity_polytope[0][1]", "a rational", dict(FIX_B, identity_polytope=[
        ["1", f"{LONG}/3"], ["0", "1"], ["-1", "-1"]])),
], ids=["integer", "rational"])
def test_over_long_numeral_string_exits_2(tmp_path, capsys, field, what, data):
    # the message gives the digit count and the limit, not the digits
    if sys.get_int_max_str_digits() != 4300:
        pytest.skip("the interpreter's integer string limit is not the default")
    path = write(tmp_path, "long.json", data)
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert f"{field}: {what} of 5001 digits, over the limit of 4300 digits" in err, err
    assert "7" * 50 not in err


@pytest.mark.parametrize("data,lam,field", [
    (FIX_B, f"{BIG},0", "--lambda"),
    (FIX_BIG_W, "0,1", "frames[0]"),
    (FIX_REPEATED_OVERFLOW, "0,1", "frames[0]"),
], ids=["lambda", "weight", "repeated-weight"])
def test_slope_float_overflow_exits_2(tmp_path, capsys, data, lam, field):
    path = write(tmp_path, "overflow.json", data)
    assert main(["slope", path, f"--lambda={lam}"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {field}: ")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_slope_that_overflows_exits_2(tmp_path, capsys, fmt):
    # 10^307 converts to a float, but the sampled log-norms along it
    # overflow; 10^306 still gives a finite slope
    path = write(tmp_path, "fix_b.json", FIX_B)
    huge = "1" + "0" * 307
    assert main(["slope", path, f"--lambda={huge},-1", "--format", fmt]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: --lambda: "), (out, err)
    assert main(["slope", path, f"--lambda={huge[:-1]},-1", "--format", fmt]) == 0


def test_exact_commands_decide_past_the_float_range(tmp_path, capsys):
    # check, witness, min-m and degenerate build no float, so a coordinate
    # no float holds decides as in-process; their child loads no numeric
    v = stability.verdict(instance_from_dict(FIX_BIG_W).family)
    assert (v.semistable, v.stable, v.witness) == (True, False, (0, 1))
    path = write(tmp_path, "big.json", FIX_BIG_W)
    commands = [["check", path, "--format", "json"], ["witness", path],
                ["min-m", path], ["degenerate", path, "--keep=1"]]
    assert [main(args) for args in commands] == [3, 0, 0, 0]
    assert json.loads(capsys.readouterr().out.split("\n")[0])["witness"] == [0, 1]
    code = ("import sys\nfrom stablepairs.cli import main\n"
            f"codes = [main(args) for args in {commands!r}]\n"
            "print(codes, 'stablepairs.numeric' in sys.modules)\n")
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert child.stdout.splitlines()[-1] == "[3, 0, 0, 0] False", child.stderr


def test_repeated_weight_past_the_float_range_decides(tmp_path, capsys):
    # coefficients never affect a verdict; only slope turns them into floats
    path = write(tmp_path, "repeated.json", FIX_REPEATED_OVERFLOW)
    assert main(["check", path, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["stable"] is True


def test_boolean_coefficient_exits_2(tmp_path, capsys):
    # JSON true would otherwise read as the coefficient 1.0
    frame = dict(FIX_B["frames"][0], v_coeffs=[True])
    path = write(tmp_path, "bool.json", dict(FIX_B, frames=[frame]))
    assert main(["check", path]) == 2
    assert "frames[0].v_coeffs[0]: expected a real number, got a boolean" \
        in capsys.readouterr().err


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
    (lambda d: d["frames"][0].update(v_coeffs=["inf"]), "v_coeffs[0]"),
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


def test_debug_prints_the_traceback_of_an_internal_error(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "c.json", FIX_C)
    assert main(["witness", path]) == 0
    plain = capsys.readouterr()
    assert main(["--debug", "witness", path]) == 0
    assert capsys.readouterr() == plain

    def broken(args):
        print("partial")
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_witness", broken)
    assert main(["witness", path]) == 1
    plain = capsys.readouterr()
    assert plain == ("partial\n", "internal error: boom\n")
    assert main(["--debug", "witness", path]) == 1
    debug = capsys.readouterr()
    assert debug.out == plain.out
    assert debug.err.startswith("Traceback (most recent call last):\n")
    assert "in broken\n" in debug.err
    assert debug.err.endswith("RuntimeError: boom\ninternal error: boom\n")


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
    # a leading minus needs the --lambda=... form (see --help)
    assert main(["slope", path, "--lambda=-1,1"]) == 0
    assert capsys.readouterr().out.strip() == "slope ≈ -1.000000; exact -1"


def test_extreme_coefficients_do_not_change_the_verdict(tmp_path, capsys):
    plain = json.loads(json.dumps(FIX_C))
    plain["frames"][0]["w_support"].append(["-1", "0"])  # one weight listed twice
    weighted = json.loads(json.dumps(plain))
    weighted["frames"][0].update(v_coeffs=["1e200", "1e-200"],
                                 w_coeffs=["1e-300", "1e300", "1e300"])
    runs = []
    for name, data in (("plain.json", plain), ("weighted.json", weighted)):
        path = write(tmp_path, name, data)
        runs.append((main(["check", path, "--format", "json"]),
                     capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 3


# sha256 over the files of ``stablepairs corpus``, in name order, each file's
# name and then its bytes, by (dim, max_coord, count, seed); and over the
# instances of ``build_corpus(seed)``.  The generator draws as it always did.
CORPUS_DIGESTS = {(2, 3, 50, 20260810): "1afb8e1cbc3aae33", (2, 3, 50, 11): "05f8cbdd8ecb7cb0",
                  (3, 2, 20, 11): "4c16a5189ad27c4a", (4, 2, 10, 7): "94cbeb3e2b8c09e0",
                  (1, 3, 10, 5): "71bc75b0da9e3319"}
BUILD_CORPUS_DIGESTS = {20260810: "f3b3c7e7f6ffd9fc", 11: "5b0abe72bf2c4fac"}


def test_corpus_round_trip_and_determinism(tmp_path, capsys):
    # Criterion 8 compares two runs in fresh processes; these compare with
    # the pins.  Every file of dimension 1 to 4, free or sl, parses.
    for (dim, max_coord, count, seed), want in CORPUS_DIGESTS.items():
        out = tmp_path / f"{dim}-{seed}"
        assert main(["corpus", "--dim", str(dim), "--max-coord", str(max_coord),
                     "--count", str(count), "--seed", str(seed), "--out", str(out)]) == 0
        capsys.readouterr()
        digest = hashlib.sha256()
        for f in sorted(out.iterdir()):
            digest.update(f.name.encode("utf-8"))
            digest.update(f.read_bytes())
            assert instance_from_dict(json.loads(f.read_text())).family.frames
        assert digest.hexdigest()[:16] == want, (dim, max_coord, count, seed)
    for seed, want in BUILD_CORPUS_DIGESTS.items():
        digest = hashlib.sha256()
        for p in build_corpus(seed):
            digest.update(repr((p.context, p.Av.weights, p.Aw.weights, p.q,
                                p.identity.vertices if p.identity else None)).encode())
        assert digest.hexdigest()[:16] == want, seed


def test_corpus_dim_past_16_exits_2_before_writing(tmp_path, capsys):
    # A box identity has 2^dim points: --dim 24 would need tens of GB.
    for dim in ("0", "17", "24"):
        assert main(["corpus", "--dim", dim, "--max-coord", "1", "--count", "1",
                     "--seed", "1", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: --dim must be between 1 and 16")
    assert list(tmp_path.iterdir()) == []


def test_corpus_out_that_cannot_be_written_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    blocked = tmp_path / "blocked"
    (blocked / "corpus-11-000.json").mkdir(parents=True)
    for out, message in ((taken, "cannot create --out directory"),
                         (taken / "below", "cannot create --out directory"),
                         (blocked, "cannot write")):
        assert main(["corpus", "--dim", "2", "--max-coord", "3", "--count", "1",
                     "--seed", "11", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}"), err


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


def test_import_does_not_load_numpy(tmp_path):
    # numpy is the optional [oracle] extra; only the oracle module needs it.
    # dataclasses, degeneration and numeric stay off the command line's import
    # path too: every CLI call is a fresh interpreter that pays for each import.
    # Modules the interpreter loaded before (site, say) are not counted.
    # The geometry needs no LP solver, so polytope does not import it, and
    # neither do the command line nor a dimension-2 check, which solves no
    # program; only the corpus command loads the generator.
    path = write(tmp_path, "b.json", FIX_B)
    code = (
        "import contextlib, io, sys; before = set(sys.modules)\n"
        "import stablepairs.polytope\n"
        "print('stablepairs.lp' in sys.modules)\n"
        "import stablepairs.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    stablepairs.cli.main(['check', {path!r}])\n"
        "loaded = set(sys.modules) - before\n"
        "print(sorted(loaded & {'numpy', 'dataclasses', 'stablepairs.degeneration',\n"
        "                       'stablepairs.numeric', 'stablepairs.lp',\n"
        "                       'stablepairs.generate'}))\n"
        "import stablepairs\n"
        "print(sorted(set(stablepairs.__all__) - set(dir(stablepairs))))\n"
        "print(all(getattr(stablepairs, name) is not None for name in stablepairs.__all__))\n"
        "print('numpy' in sys.modules)\n"
    )
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    # the last line covers the whole public surface, degeneration included
    assert run.stdout.split("\n")[:5] == ["False", "[]", "[]", "True", "False"]


def test_every_command_in_a_fresh_process(tmp_path, capsys):
    # Lazy imports only show up in a cold interpreter; each command must
    # print the same bytes and exit with the same code as in-process.
    deg = json.loads(json.dumps(FIX_C))
    deg["frames"][0]["v_support"] = [["1", "0"], ["0", "1"], ["0", "0"]]
    path_b = write(tmp_path, "b.json", FIX_B)
    path_c = write(tmp_path, "c.json", FIX_C)
    path_deg = write(tmp_path, "deg.json", deg)
    # free rank 3: the witness program is an LP, and lp loads on first use
    axes = [[str(s * (i == j)) for j in range(3)] for i in range(3) for s in (1, -1)]
    path_3 = write(tmp_path, "rank3.json", {
        "mode": "free", "rank": "3", "q": "1", "identity_polytope": axes,
        "frames": [{"v_support": [["1", "0", "0"]], "w_support": [["0", "0", "1"]]}]})
    commands = [
        ["check", path_c, "--format", "json"],
        ["witness", path_c],
        ["witness", path_3, "--format", "json"],
        ["min-m", path_b, "--format", "json"],
        ["degenerate", path_deg, "--keep", "3"],
        ["slope", path_b, "--lambda=-1,1"],
        ["corpus", "--dim", "2", "--max-coord", "2", "--count", "2", "--seed", "3",
         "--out", str(tmp_path / "corpus")],
    ]
    for args in commands:
        code = main(args)
        out = capsys.readouterr().out.encode("utf-8")
        child = subprocess.run([sys.executable, "-m", "stablepairs.cli", *args],
                               capture_output=True)
        assert (child.returncode, child.stdout) == (code, out), args
        assert out


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


# Mutated instance files.  A random schema-valid file gets one to three
# mutations at random places: a value swapped for one of another type, a
# huge or malformed numeral, a boolean, or a float that overflows or is not
# finite; a key or list entry dropped; a key or list entry added.

NUMERALS = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(str),
    st.sampled_from([10 ** 400, -(10 ** 400), BIG, "-" + BIG, LONG, "1/2", "1/0", " 3",
                     "0x10", "1e999", "1.5e308", "inf", "nan", "", "x", "\u0663"]),
    st.sampled_from([0.5, -0.0, 1.5e308, float("inf"), float("-inf"), float("nan")]),
)
JUNK = st.one_of(NUMERALS, st.none(), st.booleans(),
                 st.sampled_from([[], {}, [[]], [["1", "0"]], [{"v_support": []}]]).map(
                     copy.deepcopy))

KEYS = ["mode", "rank", "matrix_size", "q", "rep_weights", "identity_polytope", "frames",
        "v_support", "w_support", "v_coeffs", "w_coeffs", "extra"]


def _paths(node, path=()):
    """The path of every value in parsed JSON, the root's first."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _paths(child, path + (key,))


@st.composite
def mutated_instances(draw):
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    data = instance_dict(rng, draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        parent, node = None, data
        for key in path:
            parent, node = node, node[key]
        kind = draw(st.sampled_from(("swap", "drop", "add")))
        if not isinstance(node, (dict, list)):
            kind = "swap"
        if kind == "drop" and node:
            del node[draw(st.sampled_from(list(node) if isinstance(node, dict)
                                          else range(len(node))))]
        elif kind == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = draw(JUNK)
        elif kind == "add":
            entry = draw(st.sampled_from(node) if node and draw(st.booleans()) else JUNK)
            node.insert(draw(st.integers(0, len(node))), copy.deepcopy(entry))
        elif path:
            parent[path[-1]] = draw(JUNK)
        else:
            data = draw(JUNK)
    return data


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=mutated_instances())
def test_mutated_instance_files_never_exit_1(tmp_path, capsys, data):
    # Malformed input exits 2 with a diagnostic; a well-formed file decides.
    # No command ends in an internal error (exit 1) or raises.
    path = write(tmp_path, "mutated.json", data)
    for command in (["check"], ["witness"], ["min-m"], ["degenerate", "--keep=1"],
                    ["degenerate", "--keep=0,1"], ["slope", "--lambda=1,-1"]):
        code = main([command[0], path, *command[1:]])
        err = capsys.readouterr().err
        assert code in (0, 2, 3, 4), (command, data, err)
