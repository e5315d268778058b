import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from skewex.algebra import poly_quotient
from skewex.cli import main
from skewex.errors import SkewexError
from skewex.idempotents import enumerate_idempotents
from skewex.linalg import Poly
from skewex.maps import inner_automorphism, inner_derivation
from skewex.serialize import algebra_from_json, algebra_to_json, map_to_json
from skewex.suites import SUITE_REGISTRY
from test_extension_fuzz import U0, V0


def run_cli(*args, env=None):
    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "skewex.cli", *args],
        capture_output=True, text=True, env=merged,
    )


@pytest.fixture
def files(tmp_path, q_times_q, swap, dual_numbers, euler):
    paths = {}
    paths["qxq"] = tmp_path / "qxq.json"
    paths["qxq"].write_text(json.dumps(algebra_to_json(q_times_q)))
    paths["swap"] = tmp_path / "swap.json"
    paths["swap"].write_text(json.dumps(map_to_json(swap, "endomorphism")))
    paths["dual"] = tmp_path / "dual.json"
    paths["dual"].write_text(json.dumps(algebra_to_json(dual_numbers)))
    paths["euler"] = tmp_path / "euler.json"
    paths["euler"].write_text(json.dumps(map_to_json(euler, "derivation")))
    split = poly_quotient(Poly.of([0, -1, 1]))
    paths["split"] = tmp_path / "split.json"
    paths["split"].write_text(json.dumps(algebra_to_json(split)))
    gauss = poly_quotient(Poly.of([1, 0, 1]))
    paths["gauss"] = tmp_path / "gauss.json"
    paths["gauss"].write_text(json.dumps(algebra_to_json(gauss)))
    return paths


def test_validate(files):
    result = run_cli("validate", str(files["qxq"]))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["dim"] == 2 and payload["valid"]


def test_validate_broken_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"dim": 1, "labels": ["1"], "unit": ["2"],
                               "sc": [[0, 0, 0, "1"]]}))
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert "error" in result.stderr


@pytest.mark.parametrize("labels", [5, "ab", [["x"], ["y"]]])
def test_validate_rejects_bad_labels(tmp_path, q_times_q, labels):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**algebra_to_json(q_times_q), "labels": labels}))
    result = run_cli("validate", str(bad))
    assert result.returncode == 2
    assert result.stderr.startswith("error: 'labels' must be a list of strings")
    assert "Traceback" not in result.stderr


def test_validate_missing_file():
    result = run_cli("validate", "/nonexistent/nope.json")
    assert result.returncode == 2


@pytest.mark.parametrize("kind, message", [("directory", "cannot read the file ("),
                                           ("utf16", "not UTF-8 text at byte 0")])
def test_validate_unreadable_input(tmp_path, capsys, kind, message):
    # a path that cannot be read as UTF-8 text is a usage error, not a traceback
    path = tmp_path
    if kind == "utf16":
        path = tmp_path / "utf16.json"
        path.write_bytes(json.dumps({"dim": 1}).encode("utf-16"))
        assert path.read_bytes().startswith(b"\xff\xfe")
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: {message}")


def test_suite_command(files, tmp_path):
    out = tmp_path / "report.jsonl"
    result = run_cli(
        "suite", "--algebra", str(files["qxq"]),
        "--map", f"{files['swap']}:endomorphism",
        "--suites", "thm19_automorphism,thm16_audit,ms_oracle",
        "--seed", "5", "--json", str(out),
    )
    assert result.returncode == 0, result.stderr
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert all(r["status"] == "pass" for r in records)
    suites = {r["suite"] for r in records}
    assert suites == {"thm19_automorphism", "thm16_audit", "ms_oracle"}


def test_suite_unknown_name(files):
    result = run_cli("suite", "--algebra", str(files["qxq"]),
                     "--suites", "wat")
    assert result.returncode == 2


def test_suite_inconclusive_exit(files):
    result = run_cli("suite", "--algebra", str(files["gauss"]),
                     "--suites", "ms_oracle")
    assert result.returncode == 3


def test_idempotents_command(files):
    result = run_cli("idempotents", str(files["split"]))
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["complete"] and len(payload["items"]) == 4


def test_idempotents_cap_env(files):
    result = run_cli("idempotents", str(files["split"]),
                     env={"SKEWEX_IDEMPOTENT_CAP": "2"})
    assert result.returncode == 1
    assert "cap" in result.stderr


@pytest.mark.parametrize("cap", ["abc", "0", "-4", "2.5"])
def test_idempotents_bad_cap_env(files, cap):
    result = run_cli("idempotents", str(files["split"]),
                     env={"SKEWEX_IDEMPOTENT_CAP": cap})
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("error: SKEWEX_IDEMPOTENT_CAP must be a positive integer")
    assert "Traceback" not in result.stderr and result.stdout == ""


def test_unwritable_json_path(files, tmp_path):
    runs = [("suite", "--algebra", str(files["qxq"]), "--suites", "ms_oracle"),
            ("explore", "--trials", "1", "--max-dim", "2"),
            ("idempotents", str(files["split"])),
            ("extend", "--mode", "derivation", "--algebra", str(files["dual"]),
             "--map", str(files["euler"]))]
    for target in (tmp_path, tmp_path / "missing" / "out.json"):
        for args in runs:
            result = run_cli(*args, "--json", str(target))
            assert result.returncode == 2, (args, result.stderr)
            assert result.stderr.startswith(f"error: cannot write {target}: "), args
            assert "Traceback" not in result.stderr, args


def without_elapsed(text):
    return re.sub(r'"elapsed_ms": [^,]*, ', "", text)


def test_json_file_matches_stdout(files, tmp_path):
    runs = [("suite", "--algebra", str(files["qxq"]), "--suites", "ms_oracle,thm16_audit"),
            ("idempotents", str(files["split"])),
            ("extend", "--mode", "automorphism", "--algebra", str(files["qxq"]),
             "--map", str(files["swap"]))]
    for args in runs:
        out = tmp_path / f"{args[0]}.json"
        printed = run_cli(*args)
        written = run_cli(*args, "--json", str(out))
        assert printed.returncode == written.returncode == 0, args
        assert written.stdout == ""
        assert without_elapsed(out.read_text()) == without_elapsed(printed.stdout), args
        assert printed.stdout.endswith("}\n") and not printed.stdout.endswith("\n\n"), args


def test_extend_derivation(files, tmp_path):
    out = tmp_path / "ext.json"
    result = run_cli("extend", "--mode", "derivation",
                     "--algebra", str(files["dual"]), "--map", str(files["euler"]),
                     "--json", str(out))
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["mode"] == "derivation"
    assert payload["dim"] == 3
    assert payload["p"] == ["0", "-1", "1"]


# sha256 of json.dumps(value, sort_keys=True) for the extensions of M_3 by
# ad_U0 and conj_V0, on the basis of the low powers e_a X^i (21 and 27 KB)
M3_EXTENSION_SHA256 = {
    "derivation": "25ede68a8b722d7a2c5a49b57af46938a612a3cd2211ef7038d1c272031315f4",
    "automorphism": "ff4102476da67c5af36c52528a1606bb2b51863191ddc6c13d2ad42a2e0df7f6",
}


def test_extend_m3_writes_the_pinned_value_compactly(tmp_path, m3):
    def flat(m):
        return m3.element([m[i][j] for i in range(3) for j in range(3)])

    algebra_path = tmp_path / "m3.json"
    algebra_path.write_text(json.dumps(algebra_to_json(m3)))
    twists = {"derivation": (inner_derivation(m3, flat(U0)), "derivation"),
              "automorphism": (inner_automorphism(m3, flat(V0)), "endomorphism")}
    for mode, (twist, role) in twists.items():
        map_path, out = tmp_path / f"{mode}-map.json", tmp_path / f"{mode}-ext.json"
        map_path.write_text(json.dumps(map_to_json(twist, role)))
        result = run_cli("extend", "--mode", mode, "--algebra", str(algebra_path),
                         "--map", str(map_path), "--json", str(out))
        assert result.returncode == 0, result.stderr
        text = out.read_text()
        canonical = json.dumps(json.loads(text), sort_keys=True)
        assert text == canonical + "\n", mode
        assert hashlib.sha256(canonical.encode()).hexdigest() == M3_EXTENSION_SHA256[mode], mode


def test_extend_with_explicit_poly(files):
    result = run_cli("extend", "--mode", "automorphism",
                     "--algebra", str(files["qxq"]), "--map", str(files["swap"]),
                     "--poly=-1,0,1")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["dim"] == 4
    assert payload["u_inverse"] == payload["u"]


def test_extend_reads_a_negative_first_coefficient_after_equals(files, tmp_path, capsys):
    # t -> -t on Q[t]/(t^2) has minimal polynomial X^2 - 1
    negate = tmp_path / "negate.json"
    negate.write_text(json.dumps({"matrix": [["1", "0"], ["0", "-1"]], "role": "endomorphism"}))
    args = ["extend", "--mode", "automorphism", "--algebra", str(files["dual"]),
            "--map", str(negate)]
    assert main(args + ["--poly=-1,0,1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["p"] == ["-1", "0", "1"]
    assert (payload["dim"], payload["defect_dim"], payload["free_module"]) == (4, 0, True)
    assert payload["u_inverse"] == payload["u"]
    # with a space the parser takes -1,0,1 for an option
    assert main(args + ["--poly", "-1,0,1"]) == 2
    assert "expected one argument" in capsys.readouterr().err


def test_extend_rejects_a_singular_endomorphism_in_automorphism_mode(files, tmp_path, capsys):
    # t -> 0 on Q[t]/(t^2) is a unital endomorphism with no inverse
    collapse = tmp_path / "collapse.json"
    collapse.write_text(json.dumps({"matrix": [["1", "0"], ["0", "0"]], "role": "endomorphism"}))
    code = main(["extend", "--mode", "automorphism", "--algebra", str(files["dual"]),
                 "--map", str(collapse)])
    assert code == 2
    assert capsys.readouterr().err == "error: automorphism mode needs an invertible endomorphism\n"


@pytest.mark.parametrize("role, message", [
    ("endomorphism", "the map does not send 1 to 1"),
    ("ederivation", "difference-map identity fails: I - m does not send 1 to 1"),
])
def test_suite_names_a_map_that_misses_the_unit(files, tmp_path, capsys, role, message):
    # (a, b) -> (a, 0) on Q x Q is multiplicative but sends 1 = (1, 1) to
    # (1, 0); as an E-derivation, m = I - phi, the same phi is (a, b) -> (0, b)
    matrix = [["1", "0"], ["0", "0"]] if role == "endomorphism" else [["0", "0"], ["0", "1"]]
    proj = tmp_path / "proj.json"
    proj.write_text(json.dumps({"matrix": matrix, "role": role}))
    code = main(["suite", "--algebra", str(files["qxq"]), "--map", f"{proj}:{role}",
                 "--suites", "thm16_audit"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {proj}: {message}\n"


def test_extend_rejects_bad_poly(files):
    result = run_cli("extend", "--mode", "derivation",
                     "--algebra", str(files["dual"]), "--map", str(files["euler"]),
                     "--poly", "0,1")
    assert result.returncode == 1
    assert "annihilate" in result.stderr


def test_extend_annihilator_witness_reads_as_rationals(tmp_path, m2):
    # ad_u for u = [[1, 2], [0, 3]] has minimal polynomial t^3 - 4t, and
    # X^2 + 2 sends E11 to 2 E11 + 4 E12
    paths = {"m2": tmp_path / "m2.json", "ad": tmp_path / "ad.json"}
    paths["m2"].write_text(json.dumps(algebra_to_json(m2)))
    ad = inner_derivation(m2, m2.element([1, 2, 0, 3]))
    paths["ad"].write_text(json.dumps(map_to_json(ad, "derivation")))
    result = run_cli("extend", "--mode", "derivation",
                     "--algebra", str(paths["m2"]), "--map", str(paths["ad"]), "--poly", "2,0,1")
    assert result.returncode == 1
    assert result.stderr == ("error: polynomial does not annihilate the map: "
                             "basis vector 0 maps to (2, 4, 0, 0)\n")


@pytest.mark.parametrize("poly", ["0,x,1", "1/0"])
def test_extend_rejects_unparsable_poly(files, poly):
    result = run_cli("extend", "--mode", "derivation",
                     "--algebra", str(files["dual"]), "--map", str(files["euler"]),
                     "--poly", poly)
    assert result.returncode == 2
    assert "error: bad rational" in result.stderr and "--poly" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("bound", [("--max-dim", "0"), ("--trials", "-3")])
def test_explore_rejects_out_of_range_bounds(bound):
    result = run_cli("explore", "--seed", "1", "--trials", "2", "--max-dim", "2", *bound)
    assert result.returncode == 2
    assert "error: explore needs --trials >= 0 and --max-dim >= 1" in result.stderr
    assert result.stdout == ""


def test_explore_accepts_the_least_bounds():
    result = run_cli("explore", "--seed", "1", "--trials", "1", "--max-dim", "1")
    assert result.returncode in (0, 3), result.stderr
    assert result.stdout
    assert run_cli("explore", "--trials", "0", "--max-dim", "1").returncode == 0


def test_explore_deterministic(tmp_path):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    r1 = run_cli("explore", "--seed", "7", "--trials", "6", "--max-dim", "4",
                 "--json", str(out1))
    r2 = run_cli("explore", "--seed", "7", "--trials", "6", "--max-dim", "4",
                 "--json", str(out2))
    assert r1.returncode in (0, 3)
    assert r1.returncode == r2.returncode

    def strip(path):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in records:
            rec.pop("elapsed_ms", None)
        return records

    first, second = strip(out1), strip(out2)
    assert first == second
    assert all(r["status"] != "fail" for r in first)


def test_explore_seed_changes_stream(tmp_path):
    out1, out2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
    run_cli("explore", "--seed", "1", "--trials", "4", "--max-dim", "4",
            "--json", str(out1))
    run_cli("explore", "--seed", "2", "--trials", "4", "--max-dim", "4",
            "--json", str(out2))
    assert out1.read_text() != out2.read_text()


def test_replay_reproduces_suite_records(files, tmp_path):
    args = ("suite", "--algebra", str(files["dual"]),
            "--map", f"{files['euler']}:derivation",
            "--suites", "thm19_derivation,cor34", "--seed", "9")
    out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    run_cli(*args, "--json", str(out1))
    run_cli(*args, "--json", str(out2))

    def strip(path):
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for rec in records:
            rec.pop("elapsed_ms", None)
        return records

    assert strip(out1) == strip(out2)


def test_usage_error():
    result = run_cli("suite")
    assert result.returncode == 2


def test_consecutive_calls_do_not_share_the_map_list(monkeypatch):
    """The parser is built once; each call still gets its own --map list."""
    from skewex import cli
    from skewex.errors import ParseError

    seen = []

    def record(algebra, maps):
        seen.append(maps)
        raise ParseError("recorded")

    monkeypatch.setattr(cli, "parse_definitions", record)
    for maps in (["a.json:derivation"], ["b.json", "c.json"], []):
        argv = ["suite", "--algebra", "x.json", "--suites", "ms_oracle"]
        argv += [arg for m in maps for arg in ("--map", m)]
        assert cli.main(argv) == 2
    assert seen == [["a.json:derivation"], ["b.json", "c.json"], []]
    assert cli.build_parser() is cli.build_parser()


def stripped_records(path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        rec.pop("elapsed_ms")
    return records


def capped_run(argv, tmp_path, monkeypatch, code):
    """The records of argv with the default cap, then with the cap 2, which
    makes every listing of 2^k > 2 idempotents raise CapExceeded; the capped
    run exits 1 with each raising set-up as one failed "setup" record, and
    the records before the first one are the default run's.  Returns the
    index of the first setup record and the setup records."""
    assert main(argv + ["--json", str(tmp_path / "default.jsonl")]) == code
    monkeypatch.setenv("SKEWEX_IDEMPOTENT_CAP", "2")
    assert main(argv + ["--json", str(tmp_path / "capped.jsonl")]) == 1
    default, capped = stripped_records(tmp_path / "default.jsonl"), \
        stripped_records(tmp_path / "capped.jsonl")
    first = next(i for i, r in enumerate(capped) if r["check"] == "setup")
    assert capped[:first] == default[:first]
    setups = [r for r in capped if r["check"] == "setup"]
    for r in setups:
        assert r["status"] == "fail" and r["witness"]["error"].endswith("exceed the cap 2"), r
    return first, setups


@pytest.mark.parametrize("seed, trials, first", [(7, 50, 0), (11, 8, 12)])
def test_a_raising_explorer_set_up_is_one_failed_record(tmp_path, monkeypatch, capsys,
                                                         seed, trials, first):
    argv = ["explore", "--seed", str(seed), "--trials", str(trials), "--max-dim", "4"]
    found, setups = capped_run(argv, tmp_path, monkeypatch, 3)
    assert found == first
    for r in setups:
        # the witness replays: its algebra's idempotents exceed the cap again
        with pytest.raises(SkewexError, match="exceed the cap 2"):
            enumerate_idempotents(algebra_from_json(r["witness"]["algebra"]))
    assert len({r["suite"] for r in setups}) == len(setups) > 1


def test_a_raising_suite_is_one_failed_record(files, tmp_path, monkeypatch, capsys):
    argv = ["suite", "--algebra", str(files["qxq"]), "--suites", ",".join(SUITE_REGISTRY),
            "--seed", "0"]
    first, setups = capped_run(argv, tmp_path, monkeypatch, 0)
    # the two thm19 suites wrote their 3 records; each suite that lists
    # idempotents failed, and the two after them that do not still ran
    assert first == 3
    assert [r["suite"] for r in setups] == ["thm16_audit", "prop22", "prop24", "cor25",
                                            "ms_oracle"]
    assert all(set(r["witness"]) == {"error"} for r in setups)
    records = stripped_records(tmp_path / "capped.jsonl")
    assert {r["suite"] for r in records[first:] if r["check"] != "setup"} == {
        "cor34", "lemma_suite"}


@pytest.mark.parametrize("command", ["explore", "suite"])
def test_an_invalid_cap_still_ends_the_run(files, monkeypatch, capsys, command):
    argv = {"explore": ["explore", "--seed", "7", "--trials", "2", "--max-dim", "4"],
            "suite": ["suite", "--algebra", str(files["qxq"]), "--suites", "prop22"]}[command]
    monkeypatch.setenv("SKEWEX_IDEMPOTENT_CAP", "abc")
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(
        "error: SKEWEX_IDEMPOTENT_CAP must be a positive integer")
