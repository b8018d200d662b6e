"""Command line behavior: exit codes, output shapes, determinism, certificates."""

import json
import os
import subprocess
import sys

import pytest

import gradedmat.embeddings
import gradedmat.gradings
from gradedmat.cli import main
from gradedmat.cyclotomic import parse_scalar
from gradedmat.embeddings import DecompositionPair
from gradedmat.gradings import GradedAlgebra, GradedMap, elementary_grading, induced_tensor_grading
from gradedmat.groups import FiniteAbelianGroup
from gradedmat.matrices import Matrix
from gradedmat.specio import grading_to_json, map_to_json, matrix_to_json

EPS3 = '{"kind": "epsilon", "n": 3}'
Z2_GROUP = '{"factors": [2]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_passes_fine_grading(capsys):
    code, out, err = run_cli(capsys, "verify", "--spec", EPS3)
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["kind"] == "grading"
    assert payload["verdict"] == "pass"
    assert payload["n"] == 3


def test_verify_text_format(capsys):
    code, out, _ = run_cli(capsys, "verify", "--spec", EPS3, "--format", "text")
    assert code == 0
    assert out.strip() == "pass"


def test_verify_fails_mislabeled_grading(capsys):
    spec = {
        "kind": "explicit",
        "group": {"factors": [2]},
        "components": {
            "0": [matrix_to_json(Matrix.unit(2, 0, 1)), matrix_to_json(Matrix.unit(2, 1, 0))],
            "1": [matrix_to_json(Matrix.unit(2, 0, 0)), matrix_to_json(Matrix.unit(2, 1, 1))],
        },
    }
    code, out, _ = run_cli(capsys, "verify", "--spec", json.dumps(spec))
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["closure_failures"]


def test_verify_reads_spec_from_file(tmp_path, capsys):
    path = tmp_path / "eps.json"
    path.write_text(EPS3)
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path))
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_checks_maps(capsys):
    Z2 = FiniteAbelianGroup((2,))
    alg = elementary_grading(Z2, (Z2.identity(), Z2.element((1,))))
    pairs = tuple((m, m) for mats in alg.components.values() for m in mats)
    spec = map_to_json(GradedMap(alg, alg, pairs))
    code, out, _ = run_cli(capsys, "verify", "--spec", json.dumps(spec))
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "map"
    assert payload["injective"] is True


def test_equiv_positive_with_certificate(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--group", Z2_GROUP,
                           "--tau", "[[0], [1]]", "--tau-prime", "[[1], [0]]")
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    assert payload["shift"] == [0]
    assert payload["beta"] == [1, 0]
    # the certificate is itself a verifiable map spec
    code2, out2, _ = run_cli(capsys, "verify", "--spec",
                             json.dumps(payload["certificate"]))
    assert code2 == 0
    assert json.loads(out2)["verdict"] == "pass"


def test_equiv_negative(capsys):
    code, out, _ = run_cli(capsys, "equiv", "--group", Z2_GROUP,
                           "--tau", "[[0], [1]]", "--tau-prime", "[[0], [0]]")
    assert code == 1
    assert json.loads(out)["equivalent"] is False


def test_embed_accepts_and_certifies(capsys):
    spec = {"group": {"factors": [2]}, "source": [[0], [1]],
            "m": 2, "r": 1, "target": [[0], [1], [0], [1], [0]]}
    code, out, _ = run_cli(capsys, "embed", "--spec", json.dumps(spec))
    assert code == 0
    payload = json.loads(out)
    assert payload["accepted"] is True and payload["verified"] is True
    code2, out2, _ = run_cli(capsys, "verify", "--spec",
                             json.dumps(payload["certificate"]))
    assert code2 == 0
    assert json.loads(out2)["verdict"] == "pass"


@pytest.mark.parametrize("fmt, expected", [
    ("json", {"accepted": False,
              "reason": "target prefix is not a translate of the source tuple at index 1"}),
    ("text", "rejected: target prefix is not a translate of the source tuple at index 1\n"),
])
def test_embed_rejects_a_target_prefix_that_is_not_a_translate(capsys, fmt, expected):
    spec = {"group": {"factors": [2]}, "source": [[0], [1]], "m": 1, "r": 0, "target": [[0], [0]]}
    code, out, err = run_cli(capsys, "embed", "--spec", json.dumps(spec), "--format", fmt)
    assert (code, err) == (1, "")
    assert (json.loads(out) if fmt == "json" else out) == expected


def test_embed_rejects_with_violated_index(capsys):
    spec = {"group": {"factors": [2]}, "source": [[0], [1]],
            "m": 2, "r": 0, "target": [[0], [1], [0], [0]]}
    code, out, _ = run_cli(capsys, "embed", "--spec", json.dumps(spec))
    assert code == 1
    payload = json.loads(out)
    assert payload["accepted"] is False
    assert payload["violated_index"] == 0


def _regularize_spec():
    G = FiniteAbelianGroup((2, 2, 2))
    from gradedmat.cyclotomic import CycNumber
    minus = CycNumber.rational(-1)
    x_a = Matrix.diagonal([minus, CycNumber.one()])
    x_b = Matrix([[CycNumber.zero(), CycNumber.one()],
                  [CycNumber.one(), CycNumber.zero()]])
    units = {}
    for i in range(2):
        for j in range(2):
            units[G.element((i, j, 0))] = (x_a ** i) * (x_b ** j)
    small = GradedAlgebra(G, 2, {t: [m] for t, m in units.items()})
    big = induced_tensor_grading(
        elementary_grading(G, (G.identity(), G.element((0, 0, 1)))), small)
    i2 = Matrix.identity(2)
    e11 = Matrix.unit(2, 0, 0)
    sign = lambda t: CycNumber.rational(-1 if t.exponents[0] else 1)
    phi = GradedMap(small, big,
                    tuple((x, e11.kron(x).scale(sign(t))) for t, x in units.items()))

    def pair_json(pair):
        return {
            "c_basis": [matrix_to_json(c) for c in pair.c_basis],
            "d_units": {",".join(map(str, t.exponents)): matrix_to_json(x)
                        for t, x in sorted(pair.d_units.items(),
                                           key=lambda kv: kv[0].exponents)},
            "identity": matrix_to_json(pair.identity),
        }

    source = DecompositionPair(small, (Matrix.identity(2),), units, Matrix.identity(2))
    target = DecompositionPair(
        big,
        tuple(Matrix.unit(2, i, j).kron(i2) for i in range(2) for j in range(2)),
        {t: i2.kron(x) for t, x in units.items()},
        Matrix.identity(4))
    return {"map": map_to_json(phi),
            "source": pair_json(source), "target": pair_json(target)}


def test_regularize_full_run(tmp_path, capsys):
    path = tmp_path / "reg.json"
    path.write_text(json.dumps(_regularize_spec()))
    code, out, _ = run_cli(capsys, "regularize", "--spec", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["corner_equal"] is True
    assert payload["centralizer_dimension"] == 4
    assert payload["centralizer_units"] == 2
    assert payload["problems"] == []
    assert set(payload["adjusted_units"]) == {"0,0,0", "0,1,0", "1,0,0", "1,1,0"}


@pytest.mark.parametrize("spec, message", [
    ("[]", "spec: expected an object"),
    ("{}", "spec.map: missing field"),
])
def test_regularize_rejects_a_spec_without_a_map(capsys, spec, message):
    assert run_cli(capsys, "regularize", "--spec", spec) == (2, "", f"error: {message}\n")


def test_regularize_fails_fine_factors_whose_cocycles_differ(capsys):
    # a D-unit scaled by 2 changes the target cocycle by a coboundary
    spec = _regularize_spec()
    unit = spec["target"]["d_units"]["0,1,0"]
    unit["entries"] = [[str(2 * int(x)) for x in row] for row in unit["entries"]]
    code, out, err = run_cli(capsys, "regularize", "--spec", json.dumps(spec), "--format", "text")
    assert (code, out, err) == (1, "fail\nfine factors have different cocycles\n", "")


def test_regularize_passes_pairs_whose_identity_unit_is_a_multiple_of_one(capsys):
    # X_e = 2 I in both pairs: the cocycle has alpha(e, e) = 2 and the adjusted X_e is 2 I
    spec = _regularize_spec()
    for pair in ("source", "target"):
        unit = spec[pair]["d_units"]["0,0,0"]
        unit["entries"] = [[str(2 * int(x)) for x in row] for row in unit["entries"]]
    code, out, _ = run_cli(capsys, "regularize", "--spec", json.dumps(spec))
    payload = json.loads(out)
    assert (code, payload["verdict"], payload["problems"]) == (0, "pass", [])
    assert payload["adjusted_units"]["0,0,0"] == spec["target"]["d_units"]["0,0,0"]


def test_two_keys_that_name_one_degree_are_an_input_error(capsys):
    spec = {"kind": "explicit", "group": {"factors": [2]},
            "components": {"0": [{"n": 1, "entries": [["1"]]}], "00": [{"n": 1, "entries": [["2"]]}]}}
    assert run_cli(capsys, "verify", "--spec", json.dumps(spec)) == (
        2, "", "error: spec.components.00: names degree (0), as key '0' does\n")
    spec = _regularize_spec()
    units = spec["source"]["d_units"]
    units["2,3,2"] = units["0,1,0"]  # (0,1,0) in Z2^3 again
    assert run_cli(capsys, "regularize", "--spec", json.dumps(spec)) == (
        2, "", "error: spec.source.d_units.2,3,2: names degree (0,1,0), as key '0,1,0' does\n")


def test_regularize_reports_structural_problems(capsys):
    spec = _regularize_spec()
    spec["source"]["d_units"].pop("1,1,0")
    code, out, _ = run_cli(capsys, "regularize", "--spec", json.dumps(spec))
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["problems"]


def test_bratteli_json_and_dot(capsys):
    chain = {"group": {"factors": [2]}, "base": [[0], [1]],
             "steps": [{"kind": "double"}]}
    code, out, _ = run_cli(capsys, "bratteli", "--spec", json.dumps(chain),
                           "--depth", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["depth"] == 3
    assert len(payload["diagram"]["levels"]) == 3
    assert payload["diagram"]["levels"][2] == [{"degree": [0], "dimension": 4},
                                               {"degree": [1], "dimension": 4}]
    code, out, _ = run_cli(capsys, "bratteli", "--spec", json.dumps(chain),
                           "--depth", "3", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")


def test_bratteli_rejects_bad_depth(capsys):
    chain = {"group": {"factors": [2]}, "base": [[0]], "steps": [{"kind": "double"}]}
    code, _, err = run_cli(capsys, "bratteli", "--spec", json.dumps(chain),
                           "--depth", "0")
    assert code == 2
    assert "depth" in err


def test_demo_remark1_reproduces_the_counterexample(capsys):
    code, out, _ = run_cli(capsys, "demo-remark1", "--depth", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagrams_equal"] is False
    assert payload["steinitz_equal"] is True
    assert payload["steinitz"] == [{"degree": [0], "count": "omega"},
                                   {"degree": [1], "count": "omega"}]
    code, out, _ = run_cli(capsys, "demo-remark1", "--depth", "3", "--format", "dot")
    assert code == 0
    assert out.count("digraph") == 2


def test_demo_remark1_needs_depth_two(capsys):
    code, _, err = run_cli(capsys, "demo-remark1", "--depth", "1")
    assert code == 2
    assert "depth" in err


def test_cocycle_of_fine_grading(capsys):
    code, out, _ = run_cli(capsys, "cocycle", "--spec", '{"kind": "epsilon", "n": 2}')
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["cocycle_identity"] is True
    table = {(tuple(v["t"]), tuple(v["s"])): v["value"] for v in payload["values"]}
    assert table[((0, 1), (1, 0))] == "-1"  # alpha((i,j),(k,l)) = (-1)^(-jk)
    assert table[((1, 0), (0, 1))] == "1"


def _epsilon_tensor(n):
    """eps_n (x) eps_n over Z_n^4: the left factor graded by the first two coordinates,
    the right by the last two; neither carries an elementary tuple."""
    group = {"factors": [n] * 4}
    left = {"kind": "epsilon", "n": n, "group": group, "a": [1, 0, 0, 0], "b": [0, 1, 0, 0]}
    right = {"kind": "epsilon", "n": n, "group": group, "a": [0, 0, 1, 0], "b": [0, 0, 0, 1]}
    return {"kind": "tensor", "left": left, "right": right}


@pytest.mark.parametrize("n", [2, 3])
def test_verify_passes_a_tensor_with_an_epsilon_left_factor(capsys, n):
    code, out, err = run_cli(capsys, "verify", "--spec", json.dumps(_epsilon_tensor(n)),
                             "--format", "text")
    assert (code, out, err) == (0, "pass\n", "")


def test_cocycle_of_a_tensor_of_epsilon_gradings(capsys):
    code, out, _ = run_cli(capsys, "cocycle", "--spec", json.dumps(_epsilon_tensor(2)))
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass" and payload["cocycle_identity"] is True
    table = {(tuple(v["t"]), tuple(v["s"])): v["value"] for v in payload["values"]}
    assert len(table) == 16 * 16
    # alpha((i,j,k,l),(i',j',k',l')) = (-1)^(j i' + l k'), the product of the factors' cocycles
    for t in table:
        (i, j, k, l), (i2, j2, k2, l2) = t
        assert table[t] == ("-1" if (j * i2 + l * k2) % 2 else "1")


def test_cocycle_rejects_non_fine_grading(capsys):
    spec = {"kind": "elementary", "group": {"factors": [2]}, "tuple": [[0], [1]]}
    code, out, _ = run_cli(capsys, "cocycle", "--spec", json.dumps(spec))
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_cocycle_fails_a_closed_dependent_family(capsys):
    # I, diag(-1, 1), diag(1, -1), -I: closed under products, spanning only the diagonal
    spec = json.dumps({"kind": "explicit", "group": {"factors": [2, 2]}, "components": {
        f"{a},{b}": [matrix_to_json(Matrix.diagonal([(-1) ** a, (-1) ** b]))]
        for a in range(2) for b in range(2)}})
    problem = "the basis of the fine grading is not linearly independent"
    code, out, _ = run_cli(capsys, "cocycle", "--spec", spec)
    assert code == 1 and json.loads(out) == {"verdict": "fail", "problems": [problem]}
    code, out, _ = run_cli(capsys, "cocycle", "--spec", spec, "--format", "text")
    assert code == 1 and out.splitlines() == ["fail", problem]
    code, out, _ = run_cli(capsys, "verify", "--spec", spec)
    payload = json.loads(out)
    assert code == 1 and payload["independent"] is False and payload["closure_failures"] == []


@pytest.mark.parametrize("spec, fragments", [
    ('{"kind": "epsilon", ', ["spec: invalid JSON at line 1, column"]),
    ("/nonexistent/spec.json", ["cannot read spec file '/nonexistent/spec.json'"]),
    (b'{"kind": "\xff"}', ["cannot read spec file", "'utf-8' codec can't decode byte 0xff"]),
    ("[" * 200000, ["spec: JSON nested too deeply"]),
], ids=["malformed-json", "missing-file", "not-utf-8", "nested-too-deeply"])
def test_unloadable_spec_is_an_input_error(capsys, tmp_path, spec, fragments):
    if isinstance(spec, bytes):  # file contents
        path = tmp_path / "spec.json"
        path.write_bytes(spec)
        spec = str(path)
    code, out, err = run_cli(capsys, "verify", "--spec", spec)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert all(fragment in err for fragment in fragments)


def test_semantic_error_names_the_field(capsys):
    spec = {"kind": "elementary", "group": {"factors": [2]}, "tuple": [[0], [1, 1]]}
    code, _, err = run_cli(capsys, "verify", "--spec", json.dumps(spec))
    assert code == 2
    assert "tuple" in err


def test_dimension_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("GMK_MAX_DIM", "4")
    code, _, err = run_cli(capsys, "demo-remark1", "--depth", "4")
    assert code == 2
    assert "GMK_MAX_DIM" in err
    monkeypatch.setenv("GMK_MAX_DIM", "banana")
    code, _, err = run_cli(capsys, "verify", "--spec", EPS3)
    assert code == 2
    assert "GMK_MAX_DIM" in err


def test_dimension_cap_must_be_positive(capsys, monkeypatch):
    monkeypatch.setenv("GMK_MAX_DIM", "0")
    assert run_cli(capsys, "verify", "--spec", EPS3) == (
        2, "", "error: GMK_MAX_DIM must be positive, got 0\n")


def _refuse_to_build(*args, **kwargs):
    raise AssertionError("a grading above the cap was built")


_HUGE_EPS = {"kind": "epsilon", "n": 100000}
_HUGE_MAP = {"kind": "map", "domain": {"kind": "epsilon", "n": 2}, "codomain": _HUGE_EPS,
             "pairs": [[matrix_to_json(Matrix.identity(2)), matrix_to_json(Matrix.identity(2))]]}
_HUGE_DOMAIN_MAP = dict(_HUGE_MAP, domain=_HUGE_EPS, codomain={"kind": "epsilon", "n": 2})


@pytest.mark.parametrize("argv, what", [
    (["cocycle", "--spec", json.dumps(_HUGE_EPS)], "the algebra has dimension 100000"),
    (["verify", "--spec", json.dumps(
        {"kind": "tensor", "right": {"kind": "epsilon", "n": 50},
         "left": {"kind": "elementary", "group": {"factors": [2]}, "tuple": [[0], [1], [0]]}})],
     "the algebra has dimension 150"),
    (["verify", "--spec", json.dumps(
        {"kind": "explicit", "group": {"factors": [2]},
         "components": {"0": [], "1": [matrix_to_json(Matrix.identity(5))]}})],
     "the algebra has dimension 5"),
    (["verify", "--spec", json.dumps(_HUGE_MAP)], "the codomain has dimension 100000"),
    (["regularize", "--spec", json.dumps({"map": _HUGE_MAP})], "the codomain has dimension 100000"),
    (["verify", "--spec", json.dumps(_HUGE_DOMAIN_MAP)], "the domain has dimension 100000"),
    (["regularize", "--spec", json.dumps({"map": _HUGE_DOMAIN_MAP})],
     "the domain has dimension 100000"),
    (["embed", "--spec", json.dumps({"group": {"factors": [2]}, "source": [[0]] * 5,
                                     "m": 1, "r": 0, "target": [[0], [1]]})],
     "the source algebra has dimension 5"),
])
def test_dimension_cap_is_checked_before_anything_is_built(capsys, monkeypatch, argv, what):
    # the parsers and the commands import the builders from gradings when they run
    for name in ("GradedAlgebra", "elementary_grading", "epsilon_grading",
                 "induced_tensor_grading"):
        monkeypatch.setattr(gradedmat.gradings, name, _refuse_to_build)
    monkeypatch.setenv("GMK_MAX_DIM", "4")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {what}, above the GMK_MAX_DIM cap 4\n"


def _limit_address_space():
    # a build that ignores the cap then fails with MemoryError instead of filling the host
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_dimension_cap_rejects_a_huge_grading_in_a_child_process_at_once():
    env = dict(os.environ, GMK_MAX_DIM="4")
    result = subprocess.run([sys.executable, "-m", "gradedmat", "cocycle", "--spec",
                             '{"kind": "epsilon", "n": 100000}'],
                            capture_output=True, text=True, env=env, timeout=30,
                            preexec_fn=_limit_address_space)
    assert result.returncode == 2
    assert result.stderr == \
        "error: the algebra has dimension 100000, above the GMK_MAX_DIM cap 4\n"
    assert result.stdout == ""


@pytest.mark.parametrize("argv", [
    ["demo-remark1", "--depth", "3000000"],
    ["bratteli", "--depth", "3000000", "--spec",
     json.dumps({"group": {"factors": [2]}, "base": [[0], [1]], "steps": [{"kind": "double"}]})],
], ids=["demo-remark1", "bratteli"])
def test_depth_cap_refuses_a_doubling_chain_at_its_first_level_above_the_cap(argv):
    # levels of length 2, 4, ..., 64 pass the cap; walking all the levels would not end in time
    result = subprocess.run([sys.executable, "-m", "gradedmat", *argv], capture_output=True,
                            text=True, env=dict(os.environ, GMK_MAX_DIM="64"), timeout=10,
                            preexec_fn=_limit_address_space)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: level 7 has dimension 128, above the GMK_MAX_DIM cap 64\n"


def _plateau_chain(depth):
    # a block step with m = 1 and r = 0: every level has length 2, under any dimension cap
    spec = {"group": {"factors": [2]}, "base": [[0], [1]],
            "steps": [{"kind": "block", "k": 2, "m": 1, "r": 0, "tuple": [[0], [1]]}]}
    return subprocess.run([sys.executable, "-m", "gradedmat", "bratteli", "--depth", str(depth),
                           "--spec", json.dumps(spec)], capture_output=True, text=True,
                          env=dict(os.environ, GMK_MAX_DIM="64"), timeout=10,
                          preexec_fn=_limit_address_space)


def test_depth_cap_refuses_a_chain_whose_levels_stop_growing():
    result = _plateau_chain(3000000)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: levels 1 to 2049 hold 4098 entries in all, above GMK_MAX_DIM^2 = 4096\n"


def test_depth_cap_passes_levels_that_sum_to_the_squared_cap():
    result = _plateau_chain(2048)
    assert (result.returncode, result.stderr) == (0, "")
    assert len(json.loads(result.stdout)["diagram"]["levels"]) == 2048


def _one_by_one(*entries):
    return {"kind": "explicit", "group": {"factors": [len(entries)]},
            "components": {str(k): [{"n": 1, "entries": [[x]]}] for k, x in enumerate(entries)}}


def _regularize_spec_with_roots(c_entry, identity_entry):
    spec = _regularize_spec()
    spec["source"]["c_basis"][0]["entries"][0][0] = c_entry
    spec["source"]["identity"]["entries"][0][0] = identity_entry
    return spec


def _one_by_one_pair(d_unit):
    one = matrix_to_json(Matrix.identity(1))
    return {"c_basis": [one], "d_units": {"0": {"n": 1, "entries": [[d_unit]]}}, "identity": one}


def _conjugated_unit_grading(p, corner):
    """The M_2 grading by Z_p with E_01 of degree 1 and E_10 of degree p - 1, carried by
    P = [[1, corner], [0, 1]] (m -> P m P^-1) into an explicit spec: verifying it
    evaluates a character of Z_p against the entries."""
    c = parse_scalar(corner)
    p_mat, p_inv = Matrix([[1, c], [0, 1]]), Matrix([[1, -c], [0, 1]])
    components = {}
    for (i, j), d in {(0, 0): 0, (1, 1): 0, (0, 1): 1, (1, 0): p - 1}.items():
        components.setdefault(str(d), []).append(matrix_to_json(p_mat * Matrix.unit(2, i, j) * p_inv))
    return {"kind": "explicit", "group": {"factors": [p]}, "components": components}


@pytest.mark.parametrize("command, spec, message", [
    ("verify", _one_by_one("z1000003^1"), "spec.components.0[0].entries[0][0]: root level of "
                                          "term 'z1000003^1' must be between 1 and the cap 1000"),
    ("verify", _one_by_one("z997^1", "z991^1"),
     "spec.components: entries use root levels with lcm 988027, above the cap 1000"),
    ("verify", {"kind": "map", "domain": _one_by_one("z997^1"),
                "codomain": _one_by_one("z991^1"),
                "pairs": [[matrix_to_json(Matrix.identity(1))] * 2]},
     "spec: entries use root levels with lcm 988027, above the cap 1000"),
    ("regularize", _regularize_spec_with_roots("z997^1", "z991^1"),
     "spec.source: entries use root levels with lcm 988027, above the cap 1000"),
    # each part passes on its own; the lcm across the map and both pairs does not
    ("regularize", {"map": {"kind": "map", "domain": _one_by_one("1"), "codomain": _one_by_one("1"),
                            "pairs": [[matrix_to_json(Matrix.identity(1))] * 2]},
                    "source": _one_by_one_pair("z997^1"), "target": _one_by_one_pair("z991^1")},
     "spec: entries use root levels with lcm 988027, above the cap 1000"),
    # rational entries, but verifying evaluates a character at level 1009
    ("verify", _conjugated_unit_grading(1009, "1"),
     "spec.components: entries and the group exponent 1009 use root levels with lcm 1009, "
     "above the cap 1000"),
    # entries at level 1000, within the cap on their own, and a group of exponent 997
    ("verify", _conjugated_unit_grading(997, "z1000^1"),
     "spec.components: entries and the group exponent 997 use root levels with lcm 997000, "
     "above the cap 1000"),
    # neither factor is capped on its own; their tensor is verified by characters
    ("verify", {"kind": "tensor",
                "left": {"kind": "epsilon", "n": 2, "group": {"factors": [2, 2, 1009]},
                         "a": [1, 0, 0], "b": [0, 1, 0]},
                "right": {"kind": "elementary", "group": {"factors": [2, 2, 1009]},
                          "tuple": [[0, 0, 0], [0, 0, 1]]}},
     "spec: entries and the group exponent 2018 use root levels with lcm 2018, above the cap 1000"),
])
def test_root_level_cap_rejects_a_spec_in_a_child_process_at_once(command, spec, message):
    result = subprocess.run([sys.executable, "-m", "gradedmat", command, "--spec", json.dumps(spec)],
                            capture_output=True, text=True, timeout=10,
                            preexec_fn=_limit_address_space)
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("spec", [
    _conjugated_unit_grading(8, "z125^1"),  # lcm(125, 8) = 1000, the cap itself
    {"kind": "tensor", "left": _conjugated_unit_grading(8, "z125^1"),
     "right": {"kind": "elementary", "group": {"factors": [8]}, "tuple": [[0], [3]]}},
], ids=["explicit", "tensor"])
def test_root_level_cap_passes_a_group_exponent_at_the_cap(spec):
    result = subprocess.run([sys.executable, "-m", "gradedmat", "verify", "--spec", json.dumps(spec),
                             "--format", "text"], capture_output=True, text=True, timeout=10,
                            preexec_fn=_limit_address_space)
    assert (result.returncode, result.stdout, result.stderr) == (0, "pass\n", "")


@pytest.mark.parametrize("pair", ["source", "target"])
def test_regularize_reports_a_zero_c_basis_element_in_a_child_process(pair):
    spec = _regularize_spec()
    spec[pair]["c_basis"][0] = matrix_to_json(Matrix.zeros(spec[pair]["c_basis"][0]["n"]))
    result = subprocess.run([sys.executable, "-m", "gradedmat", "regularize", "--spec",
                             json.dumps(spec)], capture_output=True, text=True, timeout=10,
                            preexec_fn=_limit_address_space)
    assert (result.returncode, result.stderr) == (1, "")
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "fail"
    assert f"{pair}: C-basis element 0 is zero" in payload["problems"]


@pytest.mark.parametrize("pair", ["source", "target"])
def test_regularize_reports_an_identity_that_is_not_the_unit(capsys, pair):
    spec = _regularize_spec()
    spec[pair]["identity"] = matrix_to_json(Matrix.zeros(spec[pair]["identity"]["n"]))
    code, out, _ = run_cli(capsys, "regularize", "--spec", json.dumps(spec))
    assert code == 1
    payload = json.loads(out)
    assert payload["verdict"] == "fail"
    assert payload["problems"] == [f"{pair}: identity is not the unit of the factors"]


def _swap_d_units(spec):
    for pair in ("source", "target"):
        units = spec[pair]["d_units"]
        units["0,1,0"], units["1,0,0"] = units["1,0,0"], units["0,1,0"]


@pytest.mark.parametrize("mutate, problems", [
    (_swap_d_units, [f"{pair}: the D-unit at degree {t} is not homogeneous of degree {t}"
                     for pair in ("source", "target") for t in ("(0,1,0)", "(1,0,0)")]),
    (lambda spec: spec["map"]["domain"]["components"].pop("1,1,0"),
     ["source: the D-unit at degree (1,1,0) is not homogeneous of degree (1,1,0)"]),
    (lambda spec: spec["map"]["codomain"]["components"].pop("0,0,1"),
     [f"target: C-basis element {i} is not in the span of the components" for i in (1, 2)]),
], ids=["swapped-d-units", "domain-component-dropped", "codomain-component-dropped"])
def test_regularize_reports_a_factor_outside_its_component_in_a_child_process(mutate, problems):
    spec = _regularize_spec()
    mutate(spec)
    result = subprocess.run([sys.executable, "-m", "gradedmat", "regularize", "--spec",
                             json.dumps(spec), "--format", "text"], capture_output=True, text=True,
                            timeout=30, preexec_fn=_limit_address_space)
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    lines = result.stdout.splitlines()
    # each problem names its pair and element, so no two lines are the same
    assert lines[0] == "fail" and set(lines[1:]) == set(problems) and len(lines) == len(set(lines))


def test_regularize_names_each_c_basis_element_that_does_not_commute(capsys):
    spec = _regularize_spec()
    # E_11 commutes with the C-basis elements E_11 (x) I and E_22 (x) I, not with the other two
    spec["target"]["d_units"]["0,1,0"] = matrix_to_json(Matrix.unit(4, 0, 0))
    code, out, _ = run_cli(capsys, "regularize", "--spec", json.dumps(spec))
    assert code == 1
    problems = json.loads(out)["problems"]
    assert len(problems) == len(set(problems))
    assert [p for p in problems if p.startswith("target: factor bases do not commute")] == [
        "target: factor bases do not commute: C-basis element 1 at degree (0,1,0)",
        "target: factor bases do not commute: C-basis element 2 at degree (0,1,0)"]
    assert all(p.startswith("target: ") for p in problems)


def test_regularize_extracts_each_pairs_cocycle_once(capsys, monkeypatch):
    calls = []
    extract = gradedmat.embeddings.cocycle_from_units

    def counting(*args):
        calls.append(args)
        return extract(*args)

    monkeypatch.setattr(gradedmat.embeddings, "cocycle_from_units", counting)
    code, _, _ = run_cli(capsys, "regularize", "--spec", json.dumps(_regularize_spec()))
    # source and target once each, then the regularized pair as the check on the output
    assert code == 0 and len(calls) == 3


def test_unknown_command_exits_via_argparse(capsys):
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def _run_subprocess(argv, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run([sys.executable, "-m", "gradedmat", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_output_is_deterministic_across_processes():
    cases = [
        ["demo-remark1", "--depth", "4"],
        ["equiv", "--group", Z2_GROUP, "--tau", "[[0], [1], [1]]",
         "--tau-prime", "[[1], [0], [0]]"],
        ["cocycle", "--spec", '{"kind": "epsilon", "n": 4}'],
    ]
    for argv in cases:
        first = _run_subprocess(argv, "0")
        second = _run_subprocess(argv, "42")
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.strip()


def test_zero_denominator_entry_is_an_input_error():
    spec = {"kind": "explicit", "group": {"factors": [2]},
            "components": {"0": [{"n": 1, "entries": [["1/0"]]}]}}
    result = _run_subprocess(["verify", "--spec", json.dumps(spec)], "0")
    assert result.returncode == 2
    assert "spec.components.0[0].entries[0][0]" in result.stderr
    assert "Traceback" not in result.stderr


def test_regularize_rejects_pair_matrices_of_the_wrong_size():
    spec = _regularize_spec()
    spec["source"]["c_basis"] = [matrix_to_json(Matrix.identity(3))]
    result = _run_subprocess(["regularize", "--spec", json.dumps(spec)], "0")
    assert result.returncode == 2
    assert "spec.source.c_basis[0]" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("field, value", [("m", 0), ("m", -2), ("r", -1)])
def test_embed_rejects_block_counts_out_of_range(field, value):
    spec = {"group": {"factors": [2]}, "source": [[0], [1]],
            "m": 2, "r": 0, "target": [[0], [1], [0], [1]]}
    spec[field] = value
    result = _run_subprocess(["embed", "--spec", json.dumps(spec)], "0")
    assert result.returncode == 2
    assert f"spec.{field}" in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_embed_rejects_a_target_of_the_wrong_length():
    spec = {"group": {"factors": [2]}, "source": [[0], [1]],
            "m": 2, "r": 0, "target": [[0], [1], [0]]}
    result = _run_subprocess(["embed", "--spec", json.dumps(spec)], "0")
    assert result.returncode == 2
    assert result.stderr == "error: spec.target: expected k*m + r = 4 entries, got 3\n"
    assert result.stdout == ""



def _block_chain(**step):
    block = {"kind": "block", "k": 2, "m": 2, "r": 0, "tuple": [[0], [1], [0], [1]]}
    block.update(step)
    return {"group": {"factors": [2]}, "base": [[0], [1]], "steps": [block]}


@pytest.mark.parametrize("step, depth, field", [
    ({"m": 0}, 2, "spec.steps[0].m"),
    ({"k": 0, "m": 1, "r": 1, "tuple": [[0]]}, 2, "spec.steps[0].k"),
    ({"r": -1, "tuple": [[0], [1], [0]]}, 2, "spec.steps[0].r"),
    ({"tuple": [[0], [1], [0]]}, 2, "spec.steps[0].tuple"),
    ({"k": 3, "m": 1, "tuple": [[0], [1], [0]]}, 2, "spec.steps[0].k"),
    ({}, 3, "spec.steps[0].k"),  # the step repeats on a level of length 4
])
def test_bratteli_rejects_malformed_block_steps(step, depth, field):
    argv = ["bratteli", "--spec", json.dumps(_block_chain(**step)), "--depth", str(depth)]
    result = _run_subprocess(argv, "0")
    assert result.returncode == 2
    assert field in result.stderr
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_bratteli_block_step_failing_the_ratio_condition_is_a_verdict(capsys):
    chain = _block_chain(tuple=[[0], [1], [0], [0]])
    code, out, _ = run_cli(capsys, "bratteli", "--spec", json.dumps(chain), "--depth", "2")
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"

# Stdout of every subcommand on the fixtures above, compared byte for byte with
# the files under tests/golden/.  Rewrite them with
# `PYTHONPATH=src python tests/test_cli.py` only when a change of output is meant.
GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _golden_cases():
    Z2 = FiniteAbelianGroup((2,))
    alg = elementary_grading(Z2, (Z2.identity(), Z2.element((1,))))
    identity_map = map_to_json(GradedMap(alg, alg, tuple(
        (m, m) for mats in alg.components.values() for m in mats)))
    # degree-preserving but not multiplicative: E_00 goes to 2 E_00
    nonmultiplicative_map = map_to_json(GradedMap(alg, alg, tuple(
        (m, m.scale(2) if m == Matrix.unit(2, 0, 0) else m)
        for mats in alg.components.values() for m in mats)))
    mislabeled = {
        "kind": "explicit",
        "group": {"factors": [2]},
        "components": {
            "0": [matrix_to_json(Matrix.unit(2, 0, 1)), matrix_to_json(Matrix.unit(2, 1, 0))],
            "1": [matrix_to_json(Matrix.unit(2, 0, 0)), matrix_to_json(Matrix.unit(2, 1, 1))],
        },
    }
    broken_pair = _regularize_spec()
    broken_pair["source"]["d_units"].pop("1,1,0")
    double_chain = {"group": {"factors": [2]}, "base": [[0], [1]],
                    "steps": [{"kind": "double"}]}
    base = {
        "verify-epsilon3": ["verify", "--spec", EPS3],
        "verify-mislabeled": ["verify", "--spec", json.dumps(mislabeled)],
        "verify-map": ["verify", "--spec", json.dumps(identity_map)],
        "verify-map-nonmultiplicative": ["verify", "--spec", json.dumps(nonmultiplicative_map)],
        "equiv-positive": ["equiv", "--group", Z2_GROUP, "--tau", "[[0], [1], [1]]",
                           "--tau-prime", "[[1], [0], [0]]"],
        "equiv-negative": ["equiv", "--group", Z2_GROUP, "--tau", "[[0], [1]]",
                           "--tau-prime", "[[0], [0]]"],
        "embed-accepted": ["embed", "--spec", json.dumps(
            {"group": {"factors": [2]}, "source": [[0], [1]],
             "m": 2, "r": 1, "target": [[0], [1], [0], [1], [0]]})],
        "embed-rejected": ["embed", "--spec", json.dumps(
            {"group": {"factors": [2]}, "source": [[0], [1]],
             "m": 2, "r": 0, "target": [[0], [1], [0], [0]]})],
        "regularize-pass": ["regularize", "--spec", json.dumps(_regularize_spec())],
        "regularize-problems": ["regularize", "--spec", json.dumps(broken_pair)],
        "bratteli-double": ["bratteli", "--spec", json.dumps(double_chain), "--depth", "3"],
        "demo-remark1": ["demo-remark1", "--depth", "4"],
        "cocycle-epsilon2": ["cocycle", "--spec", '{"kind": "epsilon", "n": 2}'],
        "cocycle-epsilon3": ["cocycle", "--spec", EPS3],
        "cocycle-epsilon4-ambient": ["cocycle", "--spec", json.dumps(
            {"kind": "epsilon", "n": 4, "group": {"factors": [4, 4]},
             "a": [1, 1], "b": [0, 1]})],
        "cocycle-epsilon5": ["cocycle", "--spec", '{"kind": "epsilon", "n": 5}'],
        "cocycle-elementary": ["cocycle", "--spec", json.dumps(
            {"kind": "elementary", "group": {"factors": [2]}, "tuple": [[0], [1]]})],
    }
    cases = {}
    for name, argv in base.items():
        formats = ("json", "text", "dot") if argv[0] in ("bratteli", "demo-remark1") \
            else ("json", "text")
        for fmt in formats:
            cases[f"{name}.{fmt}"] = argv + ["--format", fmt]
    return cases


GOLDEN_CASES = _golden_cases()


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_stdout_matches_golden_file(capsys, name):
    _, out, _ = run_cli(capsys, *GOLDEN_CASES[name])
    with open(os.path.join(GOLDEN_DIR, name + ".out"), encoding="utf-8", newline="") as handle:
        assert out == handle.read()


if __name__ == "__main__":
    import contextlib
    import io

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for case, case_argv in sorted(GOLDEN_CASES.items()):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            main(case_argv)
        with open(os.path.join(GOLDEN_DIR, case + ".out"), "w", encoding="utf-8",
                  newline="") as handle:
            handle.write(buffer.getvalue())
