import contextlib
import copy
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import dshuffle
from dshuffle import anatomy, gens
from dshuffle.cli import emit, run
from dshuffle.rationals import QQ
from dshuffle.ratfun import MAX_ARITY, RationalFunction
from dshuffle.gens import psi_odd
from dshuffle.series import DepthSeries, ihara_bracket_component

from textform import parse


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_psi_text(self, capsys):
        code, out, _ = invoke(capsys, "gen", "psi", "--weight", "3",
                              "--depth", "2")
        assert code == 0
        assert "depth 1: (1*x1^2)" in out

    def test_psi_json_round_trip(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "gen", "psi",
                              "--weight", "-1", "--depth", "3")
        assert code == 0
        from dshuffle.series import DepthSeries
        series = DepthSeries.from_json_dict(json.loads(out))
        from dshuffle.gens import psi_minus_one
        assert series.equals(psi_minus_one(3))

    def test_vines(self, capsys):
        code, out, _ = invoke(capsys, "gen", "vine", "--n", "3")
        assert code == 0
        assert "g111" in out and "g3" in out

    def test_determinism(self, capsys):
        _, out1, _ = invoke(capsys, "gen", "sd", "--d", "3")
        _, out2, _ = invoke(capsys, "gen", "sd", "--d", "3")
        assert out1 == out2


class TestVerify:
    def test_psi3_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--gen", "psi3",
                              "--max-depth", "3")
        assert code == 0
        assert "all 4 checks passed" in out

    def test_json_reports(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "verify",
                              "--gen", "psi0", "--max-depth", "3")
        assert code == 0
        reports = json.loads(out.splitlines()[0])
        assert all(r["passed"] for r in reports)
        assert {tuple(r["indices"]) for r in reports} == {(1, 1), (1, 2)}

    def test_failing_element_exit_code(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--gen", "mono:3",
                              "--max-depth", "2")
        assert code == 1
        assert "FAIL" in out


class TestBracketRes:
    def test_bracket(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "bracket",
                              "--f", "sd:1", "--g", "sd:2",
                              "--max-depth", "3")
        assert code == 0
        from dshuffle.series import DepthSeries
        series = DepthSeries.from_json_dict(json.loads(out))
        from dshuffle.gens import s_d
        assert series.component(3).equals(s_d(3))

    def test_res(self, capsys, tmp_path):
        path = tmp_path / "element.json"
        path.write_text(json.dumps(psi_odd(3, 3).to_json_dict()))
        code, out, _ = invoke(capsys, "res", "--element", str(path),
                              "--depth", "3", "--iterate", "1")
        assert code == 0
        assert out.strip()

    def test_res_missing_file(self, capsys):
        code, _, err = invoke(capsys, "res", "--element", "/nonexistent",
                              "--depth", "2")
        assert code == 2
        assert "error" in err


    def test_res_without_components(self, capsys, tmp_path):
        path = tmp_path / "element.json"
        path.write_text(json.dumps({"max_depth": 3}))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", "3")
        assert_usage_error(code, out, err)

    def test_res_zero_denominator(self, capsys, tmp_path):
        path = tmp_path / "z.json"
        path.write_text(json.dumps({"max_depth": 1, "components": {
            "1": {"arity": 1, "num": [[1, 0, [1]]], "den": []}}}))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", "1")
        assert_usage_error(code, out, err)

    def test_res_repeated_exponents(self, capsys, tmp_path):
        # two terms on x1 would otherwise read as 5*x1
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"max_depth": 1, "components": {
            "1": {"arity": 1, "num": [[1, 1, [1]], [5, 1, [1]]],
                  "den": []}}}))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", "1")
        assert_usage_error(code, out, err)

    def test_res_float_denominator_index(self, capsys, tmp_path):
        # the message names the pair as written, not a truncated a=1 b=0
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"max_depth": 1, "components": {
            "1": {"arity": 1, "num": [[1, 1, [0]]], "den": [[1.5, 0]]}}}))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", "1")
        assert_usage_error(code, out, err)
        assert "[1.5, 0]" in err and "a=1" not in err

    def test_res_bool_denominator_index(self, capsys, tmp_path):
        # true is not read as x1
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({"max_depth": 1, "components": {
            "1": {"arity": 1, "num": [[1, 1, [0]]], "den": [[True, 0]]}}}))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", "1")
        assert_usage_error(code, out, err)


    def test_res_short_numerator_term(self, capsys, tmp_path):
        # the message names the term, not a failed tuple unpacking
        path = tmp_path / "short.json"
        path.write_text(json.dumps({"max_depth": 1, "components": {
            "1": {"arity": 1, "num": [[1, 1]], "den": []}}}))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", "1")
        assert_usage_error(code, out, err)
        assert "[1, 1]" in err and "unpack" not in err

    @pytest.mark.parametrize("key", ["x", "-1", "0", "1.0", " 1"])
    def test_res_bad_component_key(self, capsys, tmp_path, key):
        path = tmp_path / "key.json"
        path.write_text(json.dumps({"max_depth": 1, "components": {
            key: {"arity": 1, "num": [[1, 1, [0]]], "den": []}}}))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", "1")
        assert_usage_error(code, out, err)
        assert repr(key) in err and "int()" not in err

    def test_res_component_beyond_max_depth(self, capsys, tmp_path):
        # a component past the truncation order is not dropped silently
        path = tmp_path / "deep.json"
        path.write_text(json.dumps({"max_depth": 1, "components": {
            "1": {"arity": 1, "num": [[1, 1, [0]]], "den": []},
            "2": {"arity": 2, "num": [[1, 1, [0, 0]]], "den": []}}}))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", "1")
        assert_usage_error(code, out, err)
        assert "'2'" in err and "max_depth" in err

    def test_res_nested_too_deeply(self, capsys, tmp_path):
        # the JSON reader recurses once per level of nesting
        path = tmp_path / "nested.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", "1")
        assert_usage_error(code, out, err)
        assert str(path) in err

    @pytest.mark.parametrize("data, depth, key", [
        ({"max_depth": 1, "components": {"1": {
            "arity": 2 ** 70, "num": [], "den": [[1, 0]]}}}, 1, "arity"),
        ({"max_depth": 2 ** 70, "components": {}}, 2 ** 70, "max_depth"),
        ({"max_depth": 10 ** 7, "components": {}}, 10 ** 7, "max_depth"),
        ({"max_depth": MAX_ARITY + 1, "components": {}}, 1, "max_depth")])
    def test_res_size_past_the_bound(self, capsys, tmp_path, data, depth,
                                     key):
        # a dense form has arity + 1 entries: a huge arity is refused
        # before any form is built
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", str(depth))
        assert_usage_error(code, out, err)
        assert key in err

    def test_res_size_at_the_bound(self, capsys, tmp_path):
        path = tmp_path / "wide.json"
        path.write_text(json.dumps({"max_depth": MAX_ARITY, "components": {
            str(MAX_ARITY): {"arity": MAX_ARITY, "num": [
                [1, 1, [0] * MAX_ARITY]], "den": [[MAX_ARITY, 0]]}}}))
        code, out, _ = invoke(capsys, "res", "--element", str(path),
                              "--depth", str(MAX_ARITY))
        assert (code, out) == (0, "(1)\n")

    @pytest.mark.parametrize("depth", ["0", "-1", "-5"])
    def test_res_depth_below_one(self, capsys, tmp_path, depth):
        # a depth below 1 names no component
        path = tmp_path / "psi3.json"
        path.write_text(json.dumps(psi_odd(3, 3).to_json_dict()))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", depth)
        assert_usage_error(code, out, err)

    @pytest.mark.parametrize("field, value", [
        ("const", "1/0"), ("const", "2/00"), ("const", "1.5"),
        ("const", " 1"), ("const", "x"), ("const", 3), ("weight", 3.5),
        ("weight", True), ("weight", "3"), ("max_depth", -1),
        ("max_depth", 1.0), ("max_depth", False), ("complete", "yes"),
        ("complete", 1)])
    def test_res_bad_scalar_field(self, capsys, tmp_path, field, value):
        data = {"max_depth": 1, "weight": 3, "components": {
            "1": {"arity": 1, "num": [[1, 1, [2]]], "den": []}}}
        data[field] = value
        path = tmp_path / "field.json"
        path.write_text(json.dumps(data))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", "1")
        assert_usage_error(code, out, err)
        assert field in err and repr(value) in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_res_iterate_past_the_arity(self, capsys, tmp_path, fmt):
        # after arity + 1 passes the value is zero(0), which R fixes
        path = tmp_path / "element.json"
        path.write_text(json.dumps(psi_odd(3, 3).to_json_dict()))
        outs = []
        for m in ("4", str(10 ** 9)):
            code, out, _ = invoke(capsys, "--format", fmt, "res",
                                  "--element", str(path), "--depth", "3",
                                  "--iterate", m)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]


def assert_usage_error(code, out, err):
    """Exit 2, nothing on stdout, one error line on stderr."""
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


def _nodes(value, path=()):
    """Every (path, node) of a JSON tree, the root first."""
    yield path, value
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _nodes(v, path + (k,))
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _nodes(v, path + (i,))


ODD_VALUES = st.one_of(
    st.sampled_from([2 ** 70, -2 ** 70, 10 ** 6, -10 ** 6]),
    st.sampled_from([0, -1, True, False, None, 0.5, ""]),
    st.floats(allow_nan=False), st.text(max_size=3), st.builds(list),
    st.builds(dict), st.builds(lambda: [[1, 0]]))


@st.composite
def mutated_series(draw):
    """The JSON of psi3, psi-1 or z3 to depth 3 after one to three edits:
    a node replaced by a value of another type, a key deleted or added, a
    list shortened or lengthened."""
    data = json.loads(json.dumps(gens.generator(
        draw(st.sampled_from(["psi3", "psi-1", "z3"])), 3).to_json_dict()))
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(data))
        if draw(st.integers(0, 3)):
            # the fields: nodes reached through dict keys only
            nodes = [(path, node) for path, node in nodes
                     if all(type(key) is str for key in path)]
        path, node = draw(st.sampled_from(nodes))
        if isinstance(node, dict) and draw(st.booleans()):
            if node and draw(st.booleans()):
                del node[draw(st.sampled_from(sorted(node)))]
            else:
                node[draw(st.text(max_size=4))] = draw(ODD_VALUES)
        elif isinstance(node, list) and node and draw(st.booleans()):
            if draw(st.booleans()):
                del node[draw(st.integers(0, len(node) - 1)):]
            else:
                node.append(copy.deepcopy(draw(st.one_of(
                    st.sampled_from(node), ODD_VALUES))))
        elif path:
            parent = data
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = draw(ODD_VALUES)
        else:
            data = draw(ODD_VALUES)
    return data


class TestResFuzz:
    """A mutated element file either is a usage error or loads a series
    whose JSON round-trips byte for byte."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=mutated_series(), depth=st.integers(1, 3),
           iterate=st.integers(0, 4))
    def test_res_element_boundary(self, tmp_path_factory, data, depth,
                                  iterate):
        path = tmp_path_factory.mktemp("fuzz") / "element.json"
        path.write_text(json.dumps(data))
        # each file is read at a drawn depth and at the top depth it declares
        top = data.get("max_depth") if isinstance(data, dict) else None
        for d in {depth, top if type(top) is int else depth}:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = run(["res", "--element", str(path), "--depth",
                            str(d), "--iterate", str(iterate)])
            if code == 2:
                assert_usage_error(code, out.getvalue(), err.getvalue())
                continue
            assert code == 0 and out.getvalue() and not err.getvalue()
            text = json.dumps(
                DepthSeries.from_json_dict(data).to_json_dict(),
                sort_keys=True)
            again = DepthSeries.from_json_dict(json.loads(text))
            assert json.dumps(again.to_json_dict(), sort_keys=True) == text


class TestContract:
    def test_verify_without_checks(self, capsys):
        for depth in ("0", "1"):
            code, out, err = invoke(capsys, "verify", "--gen", "psi3",
                                    "--max-depth", depth)
            assert_usage_error(code, out, err)

    def test_gen_negative_depth(self, capsys):
        for kind in ("psi", "chi"):
            code, out, err = invoke(capsys, "gen", kind, "--weight", "3",
                                    "--depth", "-2")
            assert_usage_error(code, out, err)

    def test_gen_sd_without_components(self, capsys):
        for d in ("0", "-1"):
            code, out, err = invoke(capsys, "gen", "sd", "--d", d)
            assert_usage_error(code, out, err)

    def test_bracket_without_components(self, capsys):
        # the bracket of two generators starts in depth 2
        for depth in ("0", "1"):
            code, out, err = invoke(capsys, "bracket", "--f", "sd:1",
                                    "--g", "sd:2", "--max-depth", depth)
            assert_usage_error(code, out, err)

    def test_zero_bracket_prints_zero(self, capsys):
        # a zero series prints 0, like a zero component and expression
        code, out, err = invoke(capsys, "bracket", "--f", "psi3", "--g",
                                "psi3", "--max-depth", "2")
        assert (code, out, err) == (0, "0\n", "")

    def test_dims_empty_weight_range(self, capsys):
        code, out, err = invoke(capsys, "dims", "--space", "ls2",
                                "--min-weight", "5", "--max-weight", "3")
        assert_usage_error(code, out, err)

    def test_sd_generator_without_components(self, capsys):
        for name in ("sd:0", "sd:-1"):
            code, out, err = invoke(capsys, "verify", "--gen", name,
                                    "--max-depth", "2")
            assert_usage_error(code, out, err)
            code, out, err = invoke(capsys, "bracket", "--f", name,
                                    "--g", name, "--max-depth", "2")
            assert_usage_error(code, out, err)

    def test_sd_above_the_bound(self, capsys):
        # s_d has d! numerator terms; d > 8 is refused before any is built
        for argv in (("gen", "sd", "--d", "9"),
                     ("gen", "sd", "--d", str(10 ** 9)),
                     ("verify", "--gen", "sd:9"),
                     ("bracket", "--f", "sd:9", "--g", "sd:1")):
            start = time.perf_counter()
            code, out, err = invoke(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert_usage_error(code, out, err)
            assert "s_d needs d <= 8" in err

    def test_psi_and_vines_above_the_bound(self, capsys):
        # psi_(2n+1) and psi_-1 past depth 8 and vines past 8 grapes are
        # refused at the s_d bound, before any component is built
        for argv, family in (
                (("gen", "psi", "--weight", "3", "--depth", "9"), "psi_3"),
                (("verify", "--gen", "psi3", "--max-depth", "9"), "psi_3"),
                (("bracket", "--f", "psi-1", "--g", "psi3",
                  "--max-depth", "9"), "psi_-1"),
                (("gen", "vine", "--n", "9"), "a vine list")):
            start = time.perf_counter()
            code, out, err = invoke(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert_usage_error(code, out, err)
            assert "%s needs" % family in err and "<= 8" in err

    def test_chi_above_the_bound(self, capsys):
        # the twist past depth 7 is refused before any bracket is built
        for argv in (("gen", "chi", "--weight", "3", "--depth", "8"),
                     ("verify", "--gen", "chi3", "--max-depth", "8"),
                     ("bracket", "--f", "chi3", "--g", "psi3",
                      "--max-depth", "8")):
            start = time.perf_counter()
            code, out, err = invoke(capsys, *argv)
            assert time.perf_counter() - start < 1
            assert_usage_error(code, out, err)
            assert "needs max_depth <= 7, got 8" in err

    def test_cn_generator_without_components(self, capsys):
        for name in ("cn:0", "cn:-2"):
            code, out, err = invoke(capsys, "verify", "--gen", name,
                                    "--max-depth", "2")
            assert_usage_error(code, out, err)
            assert "cn:N needs N >= 1" in err

    def test_gen_vine_without_grapes(self, capsys):
        for n in ("0", "-2"):
            code, out, err = invoke(capsys, "gen", "vine", "--n", n)
            assert_usage_error(code, out, err)

    def test_res_negative_iterate(self, capsys, tmp_path):
        path = tmp_path / "element.json"
        path.write_text(json.dumps(psi_odd(1, 2).to_json_dict()))
        code, out, err = invoke(capsys, "res", "--element", str(path),
                                "--depth", "2", "--iterate", "-1")
        assert_usage_error(code, out, err)

    def test_solve_below_depth_two(self, capsys):
        # the first residue conditions sit in depth 2
        for depth in ("1", "-3"):
            code, out, err = invoke(capsys, "decompose", "--weight", "9",
                                    "--max-depth", depth)
            assert_usage_error(code, out, err)
        code, out, err = invoke(capsys, "coeff", "--weight", "9",
                                "--word", "5,2,2", "--max-depth", "0")
        assert_usage_error(code, out, err)


class TestDecompose:
    def test_sigma5(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "decompose",
                              "--weight", "5", "--max-depth", "4")
        assert code == 0
        data = json.loads(out)
        assert {"word": [3, 3, -1], "coeff": "-1/5"} in data["terms"]
        assert {"word": [-1, -1, 7], "coeff": "-1/60"} in data["terms"]

    def test_sigma11_constrained(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "decompose",
                              "--weight", "11", "--max-depth", "4")
        assert code == 0
        data = json.loads(out)
        assert data["kernel_dim"] == 1
        assert {"word": [9, 3, -1], "coeff": "-241/2112"} in data["terms"]

    def test_sigma5_text(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "--weight", "5",
                              "--max-depth", "4")
        assert code == 0
        assert out == ("1 * psi[5] + -1/60 * psi[{-1,-1,7}]"
                       " + -1/5 * psi[{3,3,-1}]\n")

    def test_sigma11_text_names_the_kernel(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "--weight", "11",
                              "--max-depth", "3")
        assert code == 0
        assert out == ("1 * psi[11] + -1/264 * psi[{-1,-1,13}]"
                       " + -2053/6336 * psi[{5,7,-1}]"
                       " + 479/2112 * psi[{7,5,-1}]"
                       " + -241/2112 * psi[{9,3,-1}]\n"
                       "kernel dimension: 1 (free coefficients pinned to "
                       "zero)\n")


class TestDims:
    def test_pe_table(self, capsys):
        code, out, _ = invoke(capsys, "--format", "json", "dims", "--space",
                              "Pe", "--max-weight", "16",
                              "--min-weight", "8")
        assert code == 0
        dims = json.loads(out)["dims"]
        assert dims["12"] == 1 and dims["14"] == 0 and dims["16"] == 1

    def test_ls4_weight12(self, capsys):
        code, out, _ = invoke(capsys, "dims", "--space", "ls4",
                              "--min-weight", "12", "--max-weight", "12",
                              "--format", "json")
        assert code == 0
        assert json.loads(out) == {"space": "ls4", "dims": {"12": 1}}

    def test_c2_table(self, capsys):
        code, out, _ = invoke(capsys, "dims", "--space", "C2",
                              "--max-weight", "5")
        assert code == 0
        assert "weight  dim(C2)" in out


class TestCoeff:
    def test_sigma9_word(self, capsys):
        code, out, _ = invoke(capsys, "coeff", "--weight", "9",
                              "--word", "5,2,2")
        assert code == 0
        assert out.strip() == "-3319/72"


class TestParsing:
    def test_usage_error_exit_2(self, capsys):
        assert run(["bogus"]) == 2

    def test_module_runs_the_command_line(self, capsys):
        src = pathlib.Path(dshuffle.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))

        def module(*argv):
            return subprocess.run([sys.executable, "-m", "dshuffle.cli",
                                   *argv], capture_output=True, text=True,
                                  env=env)
        argv = ["gen", "psi", "--weight", "3", "--depth", "2"]
        done = module(*argv)
        assert done.returncode == run(argv) == 0
        assert done.stdout == capsys.readouterr().out != ""
        assert module("gen", "psi", "--weight", "x", "--depth",
                      "2").returncode == 2

    def test_emit_rational_function(self):
        f = parse("1/(x1*(x2-x1))")
        assert emit(f, "text") == f.text()
        blob = emit(f, "json")
        assert RationalFunction.from_json_dict(json.loads(blob)).equals(f)


def golden_corpus():
    """Named replay checks for the headline exact values.

    Returns a list of (name, callable) pairs; each callable returns True
    exactly when the recorded value is reproduced.
    """
    def mono(n):
        return RationalFunction.power_of_var(1, 1, n)

    checks = []

    def add(name, fn):
        checks.append((name, fn))

    add("ihara relation weight 12",
        lambda: (ihara_bracket_component(mono(2), mono(8))
                 - ihara_bracket_component(mono(4), mono(6)).scale(3))
        .is_zero())
    add("witt s1 s2",
        lambda: ihara_bracket_component(gens.s_d(1), gens.s_d(2))
        .equals(gens.s_d(3).scale(1)))
    add("Q4 residue",
        lambda: gens.Q4().residue(3).equals(
            RationalFunction.from_json_dict(
                {"arity": 3, "num": [[1, 1, [0, 0, 0]]],
                 "den": [[1, 0], [2, 0], [3, 0]]})))
    add("psi0 depth 2",
        lambda: gens.psi_zero_component(2).equals(
            parse("2/(x1*x2)", arity=2).scale(QQ(1, 3))
            + parse("1/(x1*(x1-x2))", arity=2).scale(QQ(1, 3))))
    add("psi-1 depth 2",
        lambda: gens.psi_minus_one_component(2).equals(
            parse("1/(x1*x2*x2)", arity=2)
            - parse("1/(x1*(x2-x1)*x2)", arity=2).scale(QQ(1, 2))))
    add("sigma5 coefficients",
        lambda: anatomy.solve_sigma(5, 4).terms
        == {(5,): QQ(1), (-1, -1, 7): QQ(-1, 60), (3, 3, -1): QQ(-1, 5)})
    add("sigma9 word (5,2,2)",
        lambda: anatomy.coefficient_of_word(
            anatomy.evaluate(anatomy.solve_sigma(9, 4), 3), (5, 2, 2))
        == QQ(-3319, 72))
    return checks


class TestGoldenCorpus:
    def test_all_replay(self):
        results = [(name, fn()) for name, fn in golden_corpus()]
        failed = [name for name, ok in results if not ok]
        assert failed == []
