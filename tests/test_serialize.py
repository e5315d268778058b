import json
from fractions import Fraction

import pytest

from skewex.algebra import make_algebra
from skewex.errors import ParseError, ValidationError
from skewex.laurent import laurent_quotient
from skewex.linalg import Mat
from skewex.maps import AlgebraEndo, Derivation, EDerivation
from skewex.ore import ore_quotient
from skewex.serialize import (
    algebra_from_json,
    algebra_to_json,
    certified_map_from_json,
    extension_to_json,
    format_fraction,
    idempotent_set_to_json,
    load_algebra,
    map_to_json,
    parse_definitions,
    parse_fraction,
)

F = Fraction


def test_fraction_round_trip():
    assert format_fraction(F(3, 4)) == "3/4"
    assert format_fraction(F(5)) == "5"
    assert parse_fraction("3/4") == F(3, 4)
    assert parse_fraction("-2") == F(-2)
    with pytest.raises(ParseError):
        parse_fraction("x")


@pytest.mark.parametrize("value", [True, False, 0.5, float("inf"), float("nan"), None, [1]])
def test_parse_fraction_takes_only_exact_values(value):
    # Fraction(True) is 1, Fraction(0.1) a binary approximation, and
    # Fraction(inf) raises OverflowError
    with pytest.raises(ParseError, match="bad rational"):
        parse_fraction(value, "here")
    assert parse_fraction(F(1, 10)) == parse_fraction("0.1") == F(1, 10)
    assert parse_fraction(7) == F(7)


def test_json_decimals_are_read_exactly(tmp_path):
    # the unit 0.1 of the constant 10 holds only if 0.1 is read as 1/10
    path = tmp_path / "a.json"
    path.write_text('{"dim": 1, "unit": [0.1], "sc": [[0, 0, 0, 1e1]]}')
    algebra = load_algebra(str(path))
    assert algebra.unit == (F(1, 10),)
    assert algebra.labels == ("e0",)
    path.write_text('{"dim": 1, "unit": [Infinity], "sc": [[0, 0, 0, "1"]]}')
    with pytest.raises(ParseError, match="bad rational"):
        load_algebra(str(path))


@pytest.mark.parametrize("labels", [5, "ab", [["x"], ["y"]], ["a", 1], ["a"], None, {}])
def test_algebra_labels_must_be_dim_strings(q_times_q, labels):
    data = {**algebra_to_json(q_times_q), "labels": labels}
    with pytest.raises(ParseError, match="'labels'"):
        algebra_from_json(data)
    assert algebra_from_json({**data, "labels": ["a", "b"]}).labels == ("a", "b")


def test_algebra_round_trip(m2):
    data = algebra_to_json(m2)
    back = algebra_from_json(data)
    assert back.sc == m2.sc
    assert back.unit == m2.unit
    assert back.labels == m2.labels


def dense_table(data):
    n = data["dim"]
    sc = [[[F(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, value in data["sc"]:
        sc[i][j][k] = parse_fraction(value)
    return sc


def test_loaded_integer_table_is_the_one_make_algebra_builds(corpus):
    # Q[t]/(t^2 + 3/4 t - 1/6): constants over 6 and 4, integer cells over 12
    mixed = {"dim": 2, "labels": ["1", "t"], "unit": ["1", "0"],
             "sc": [[0, 0, 0, "1"], [0, 1, 1, "1"], [1, 0, 1, "1"], [1, 1, 0, "1/6"],
                    [1, 1, 1, "-3/4"]]}
    files = [algebra_to_json(algebra) for algebra in corpus.values()] + [mixed]
    assert files[list(corpus).index("m3")]["dim"] == 9
    for data in files:
        loaded = algebra_from_json(data)
        built = make_algebra(data["dim"], dense_table(data),
                             [parse_fraction(x) for x in data["unit"]], data["labels"])
        assert loaded.integer_sc == built.integer_sc
        assert (loaded.unit, loaded.labels) == (built.unit, built.labels)
    assert loaded.integer_sc == (12, ((((0, 12),), ((1, 12),)), (((1, 12),), ((0, 2), (1, -9)))))
    assert loaded.multiply((F(0), F(1)), (F(0), F(1))) == (F(1, 6), F(-3, 4))


def test_algebra_sparse_entries_default_zero():
    data = {"dim": 1, "labels": ["1"], "unit": ["1"], "sc": [[0, 0, 0, "1"]]}
    a = algebra_from_json(data)
    assert a.multiply((F(2),), (F(3),)) == (F(6),)


def test_algebra_validation_fails_with_location():
    data = {"dim": 1, "labels": ["1"], "unit": ["2"], "sc": [[0, 0, 0, "1"]]}
    with pytest.raises(ValidationError):
        algebra_from_json(data, where="bad.json")


def test_algebra_bad_index_reports_position():
    data = {"dim": 1, "labels": ["1"], "unit": ["1"], "sc": [[0, 0, 5, "1"]]}
    with pytest.raises(ParseError) as info:
        algebra_from_json(data)
    assert "out of range" in str(info.value)


def test_algebra_repeated_entry_reports_both_positions(dual_numbers):
    # read with the last value kept, the first file would load as Q
    data = {"dim": 1, "labels": ["1"], "unit": ["1"], "sc": [[0, 0, 0, "5"], [0, 0, 0, "1"]]}
    with pytest.raises(ParseError, match=r"'sc' entries 0 and 1 both set \(0, 0, 0\)"):
        algebra_from_json(data)
    data = algebra_to_json(dual_numbers)
    repeated = data["sc"] + [data["sc"][0]]
    with pytest.raises(ParseError, match=rf"entries 0 and {len(data['sc'])} both set"):
        algebra_from_json({**data, "sc": repeated})


@pytest.mark.parametrize("dim", [1.7, 1.0, "1", True, None])
def test_algebra_dim_must_be_an_integer(dim):
    # int() would read 1.7, 1.0, "1" and true as dimension 1
    data = {"dim": dim, "labels": ["1"], "unit": ["1"], "sc": [[0, 0, 0, "1"]]}
    with pytest.raises(ParseError, match="bad 'dim'"):
        algebra_from_json(data)
    with pytest.raises(ParseError, match="bad 'dim'"):
        algebra_from_json({k: v for k, v in data.items() if k != "dim"})
    assert algebra_from_json({**data, "dim": 1}).dim == 1


def test_algebra_index_must_not_be_a_bool(dual_numbers):
    data = algebra_to_json(dual_numbers)
    assert algebra_from_json(data).sc == dual_numbers.sc
    for pos, entry in enumerate(data["sc"]):
        for slot in range(3):
            if entry[slot] == 1:
                changed = [list(e) for e in data["sc"]]
                changed[pos][slot] = True
                with pytest.raises(ParseError, match="out of range"):
                    algebra_from_json({**data, "sc": changed})


def test_map_round_trip(dual_numbers, euler):
    data = map_to_json(euler, "derivation")
    back = certified_map_from_json(dual_numbers, data, None, "euler")
    assert isinstance(back, Derivation)
    assert back.matrix == euler.matrix


def test_map_role_validation(dual_numbers):
    broken = {"matrix": [["0", "1"], ["0", "0"]], "role": "derivation"}
    with pytest.raises(ValidationError):
        certified_map_from_json(dual_numbers, broken, None, "broken")
    with pytest.raises(ParseError):
        certified_map_from_json(dual_numbers, {"matrix": [["1", "0"], ["0", "1"]]},
                                "sorcery", "role")


def test_map_role_kinds(q_times_q, swap):
    endo = certified_map_from_json(q_times_q, map_to_json(swap, "endomorphism"),
                                   None, "swap")
    assert isinstance(endo, AlgebraEndo)
    delta_matrix = Mat.identity(2) - swap.matrix
    delta = certified_map_from_json(
        q_times_q, {"matrix": [["1", "-1"], ["-1", "1"]], "role": "ederivation"},
        None, "delta")
    assert isinstance(delta, EDerivation)
    assert delta.matrix == delta_matrix


def test_parse_definitions(tmp_path, q_times_q, swap):
    algebra_file = tmp_path / "a.json"
    algebra_file.write_text(json.dumps(algebra_to_json(q_times_q)))
    map_file = tmp_path / "m.json"
    map_file.write_text(json.dumps(map_to_json(swap, "endomorphism")))
    algebra, maps = parse_definitions(str(algebra_file), [f"{map_file}:endomorphism"])
    assert algebra.dim == 2
    assert len(maps) == 1 and isinstance(maps[0], AlgebraEndo)


def test_parse_definitions_missing_file(tmp_path):
    with pytest.raises(ParseError):
        parse_definitions(str(tmp_path / "nope.json"), [])


def test_extension_serialization(dual_numbers, euler, q_times_q, swap):
    ore_payload = extension_to_json(ore_quotient(dual_numbers, euler))
    assert ore_payload["mode"] == "derivation"
    assert ore_payload["u_inverse"] is None
    assert ore_payload["dim"] == 3
    assert ore_payload["p"] == ["0", "-1", "1"]
    laurent_payload = extension_to_json(laurent_quotient(q_times_q, swap))
    assert laurent_payload["mode"] == "automorphism"
    assert laurent_payload["u_inverse"] is not None
    # the embedded algebra block itself parses back
    algebra_from_json({k: laurent_payload[k] for k in ("dim", "labels", "unit", "sc")})


def test_idempotent_set_serialization(split_pair):
    from skewex.idempotents import enumerate_idempotents

    payload = idempotent_set_to_json(enumerate_idempotents(split_pair))
    assert payload["complete"] is True
    assert len(payload["items"]) == 4
    assert {item["provenance"] for item in payload["items"]} == {"primitive", "sum"}
