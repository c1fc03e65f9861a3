"""Expression grammar and scenario-file parsing."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohstab.errors import ParseError, ValidationError
from cohstab.scenario import (
    MAX_SCENARIO_BYTES,
    MAX_TERMS,
    parse_coefficient_expr,
    parse_scenario,
    serialize_coefficient_expr,
    serialize_scenario,
)

MINIMAL_FERMION = """\
[system]
kind = fermion

[hamiltonian]
omega = 1

[integration]
t_end = 1
"""


# -- coefficient expressions -----------------------------------------------------


def test_parse_constant():
    assert parse_coefficient_expr("1")(0.7) == 1.0


def test_parse_omega_example():
    fn = parse_coefficient_expr("1 + 0.5*sin(1*t)")
    assert abs(fn(np.pi / 2) - 1.5) < 1e-15


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse_coefficient_expr("cos(")
    assert err.value.offset == 4


@pytest.mark.parametrize(
    "text,t,value",
    [
        ("-0.5", 1.0, -0.5),
        ("2*t", 1.5, 3.0),
        ("1*t^2", 3.0, 9.0),
        ("0.5*t^3", 2.0, 4.0),
        ("2*cos(3*t + 0.5)", 0.4, 2 * np.cos(1.7)),
        ("sin(1*t)", 0.3, np.sin(0.3)),
        ("1 + -0.5*t", 2.0, 0.0),
        ("1e-3", 0.0, 1e-3),
    ],
)
def test_grammar_cases(text, t, value):
    assert abs(parse_coefficient_expr(text)(t) - value) < 1e-14


@pytest.mark.parametrize(
    "text,offset",
    [
        ("", 0),
        ("t", 0),            # bare t needs a coefficient
        ("1 *", 3),
        ("1 + ", 4),
        ("2*t^4", 4),
        ("1 2", 2),
        ("sin(t)", 4),       # frequency is mandatory
        ("cos(2*t", 7),
        ("1e999", 0),        # overflows to inf
        ("1 + 2e400*t", 4),
    ],
)
def test_parse_errors(text, offset):
    with pytest.raises(ParseError) as err:
        parse_coefficient_expr(text)
    assert err.value.offset == offset


def test_terms_are_counted_as_they_are_parsed():
    at_bound = " + ".join(["1"] * MAX_TERMS)
    assert parse_coefficient_expr(at_bound)(0.0) == MAX_TERMS
    with pytest.raises(ParseError, match=f"at most {MAX_TERMS} terms") as err:
        parse_coefficient_expr(at_bound + " + 1 + cos(")  # refused before the bad term
    assert err.value.offset == len(at_bound) + 1


def test_scenario_text_over_the_bound_is_refused():
    assert parse_scenario(MINIMAL_FERMION + "#" * (MAX_SCENARIO_BYTES - 100) + "\n")
    with pytest.raises(ValidationError, match=f"more than {MAX_SCENARIO_BYTES} bytes"):
        parse_scenario(MINIMAL_FERMION + "#" * MAX_SCENARIO_BYTES + "\n")


#: tracemalloc peak over the bytes read that refusing an oversized file may
#: reach, as tests/test_dynamics.py's REFUSAL_PEAK bounds its refusals
READ_SLACK = 12 * 1024


def test_an_oversized_file_is_refused_reading_one_byte_past_the_bound(tmp_path):
    path = tmp_path / "oversized.ini"
    path.write_text(MINIMAL_FERMION + "# padding\n" * (16 * MAX_SCENARIO_BYTES // 10))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match=f"more than {MAX_SCENARIO_BYTES} bytes"):
            parse_scenario(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < MAX_SCENARIO_BYTES + READ_SLACK  # the file holds 16 times the bound


def test_expression_serialize_round_trip():
    for text in ("1", "1 + 0.5*sin(1*t)", "2*t^2 + -1*t", "0.5*cos(2*t + 0.1)"):
        fn = parse_coefficient_expr(text)
        again = parse_coefficient_expr(serialize_coefficient_expr(fn))
        assert fn == again


def test_serialize_keeps_a_negative_zero_phase():
    fn = parse_coefficient_expr("1*sin(-1*t + -0.0)")
    again = parse_coefficient_expr(serialize_coefficient_expr(fn))
    # equality cannot see a zero's sign, so compare raw bits: sin(-0.0) at t = 0
    at0 = np.array([fn(0.0), again(0.0)]).view(np.uint64)
    assert at0[0] == at0[2] and at0[1] == at0[3]
    assert np.signbit(fn(0.0).real)


# -- scenario files ---------------------------------------------------------------


def test_minimal_fermion_defaults():
    s = parse_scenario(MINIMAL_FERMION)
    assert s.kind == "fermion"
    assert s.generator_labels == ("zeta",)
    assert s.config.dt == 1e-3
    assert s.config.stride == 10
    assert s.zeta0_combo == ((1.0, "zeta"),)
    assert s.expect == "preserving"
    assert s.initial_zeta().isclose(s.generator_set().gen("zeta"), 0.0)


def test_duplicate_key_names_the_key():
    text = MINIMAL_FERMION.replace("omega = 1", "omega = 1\nomega = 2")
    with pytest.raises(ValidationError, match="omega"):
        parse_scenario(text)


def test_unknown_key_rejected():
    text = MINIMAL_FERMION.replace("omega = 1", "omega = 1\nbogus = 2")
    with pytest.raises(ValidationError, match="bogus"):
        parse_scenario(text)


def test_unknown_section_rejected():
    with pytest.raises(ValidationError, match="extra"):
        parse_scenario(MINIMAL_FERMION + "\n[extra]\nx = 1\n")


def test_missing_omega_rejected():
    text = MINIMAL_FERMION.replace("omega = 1\n", "")
    with pytest.raises(ValidationError, match="omega"):
        parse_scenario(text)


def test_missing_t_end_rejected():
    text = MINIMAL_FERMION.replace("\n[integration]\nt_end = 1\n", "")
    with pytest.raises(ValidationError, match="t_end"):
        parse_scenario(text)


def test_bad_kind_rejected():
    with pytest.raises(ValidationError, match="kind"):
        parse_scenario(MINIMAL_FERMION.replace("fermion", "anyon"))


def test_kind_key_mismatch_rejected():
    text = MINIMAL_FERMION.replace("omega = 1", "omega = 1\neta_re = 0.1")
    with pytest.raises(ValidationError, match="eta_re"):
        parse_scenario(text)


def test_grassmann_requires_eta_generator():
    text = """\
[system]
kind = grassmann
generators = zeta, eta

[hamiltonian]
omega = 1
eta_re = 0.4

[integration]
t_end = 1
"""
    with pytest.raises(ValidationError, match="eta_generator"):
        parse_scenario(text)


def test_eta_generator_must_be_declared():
    text = """\
[system]
kind = grassmann
generators = zeta

[hamiltonian]
omega = 1
eta_re = 0.4
eta_generator = eta

[integration]
t_end = 1
"""
    with pytest.raises(ValidationError, match="eta"):
        parse_scenario(text)


def test_grassmann_needs_a_second_pair():
    text = """\
[system]
kind = grassmann
generators = eta

[hamiltonian]
omega = 1
eta_re = 0.4
eta_generator = eta

[integration]
t_end = 1
"""
    with pytest.raises(ValidationError, match="pair"):
        parse_scenario(text)


@pytest.mark.parametrize("kind,generators", [
    ("fermion", "zeta, zeta"),
    ("fermion", "zeta, zeta*"),
    ("fermion", "a, b, c, d, e"),
    ("grassmann", "zeta, eta, zeta"),
])
def test_malformed_generator_list_rejected(kind, generators):
    text = f"""\
[system]
kind = {kind}
generators = {generators}

[hamiltonian]
omega = 1
{"eta_generator = eta" if kind == "grassmann" else ""}

[integration]
t_end = 1
"""
    with pytest.raises(ValidationError, match="generator"):
        parse_scenario(text)


@pytest.mark.parametrize("value", ["not_a_number", "nan", "inf", "1e999", "1e200"])
def test_bad_initial_value_rejected(value):
    text = f"""\
[system]
kind = boson

[hamiltonian]
omega = 1

[initial]
z0_re = {value}

[integration]
t_end = 1
"""
    with pytest.raises(ValidationError, match="initial"):
        parse_scenario(text)


def test_zeta0_references_declared_generators():
    text = MINIMAL_FERMION + "\n[initial]\nzeta0 = 0.5*eta\n"
    with pytest.raises(ValidationError, match="eta"):
        parse_scenario(text)


def test_zeta0_combination():
    text = """\
[system]
kind = fermion
generators = zeta, chi

[hamiltonian]
omega = 1

[initial]
zeta0 = 0.5*zeta + -0.25*chi

[integration]
t_end = 1
"""
    s = parse_scenario(text)
    gens = s.generator_set()
    want = 0.5 * gens.gen("zeta") - 0.25 * gens.gen("chi")
    assert s.initial_zeta().isclose(want, 0.0)


def test_forced_fermion_parses_then_classifies_non_preserving():
    from cohstab.coherence import classify_hamiltonian
    from cohstab.dynamics import IntegrationConfig

    text = MINIMAL_FERMION.replace("omega = 1", "omega = 1\nf_re = 0.3")
    s = parse_scenario(text)
    result = classify_hamiltonian(s.hamiltonian_spec(),
                                  IntegrationConfig(1.0, 2e-3))
    assert result.verdict == "non_preserving"
    assert result.agrees


@pytest.mark.parametrize(
    "path",
    ["scenarios/free_fermion.ini", "scenarios/forced_fermion.ini",
     "scenarios/grassmann_forced.ini", "scenarios/boson_forced.ini"],
)
def test_scenario_serialize_round_trip(path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    s = parse_scenario(root / path)
    again = parse_scenario(serialize_scenario(s))
    again = type(again)(**{**again.__dict__, "name": s.name})
    assert again == s


def test_boson_scenario_round_trip():
    text = """\
[system]
kind = boson

[hamiltonian]
omega = 1
f_re = 0.2

[initial]
z0_re = 0.5

[integration]
t_end = 3.141

[output]
path = out.csv
"""
    s = parse_scenario(text)
    assert s.z0 == 0.5 + 0j
    again = parse_scenario(serialize_scenario(s))
    again = type(again)(**{**again.__dict__, "name": s.name})
    assert again == s


# -- drawn whole scenarios ---------------------------------------------------------

# finite numbers, spelled as repr, in exponent form or to 3 digits (which
# would round values near the float64 limit to inf, so none are drawn)
_NUM = st.builds(lambda spell, x: spell(x),
                 st.sampled_from((repr, "{:e}".format, "{:.3g}".format)), st.floats(-1e300, 1e300))
_PHASE = st.one_of(_NUM, st.sampled_from(("0.0", "-0.0", "-0")))  # signed zeros too
_TRIG = st.builds("{}({}*t{})".format, st.sampled_from(("cos", "sin")), _NUM,
                  st.one_of(st.just(""), _PHASE.map(" + {}".format)))
_TERM = st.one_of(_NUM, st.builds("{}*t{}".format, _NUM, st.sampled_from(("", "^1", "^2", "^3"))),
                  _TRIG, st.builds("{}*{}".format, _NUM, _TRIG))
_EXPR = st.lists(_TERM, min_size=1, max_size=3).map(" + ".join)
_LABEL = st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True)
_OPTIONAL = {"boson": ("f_re", "f_im", "g"), "fermion": ("f_re", "f_im", "g"),
             "grassmann": ("eta_re", "eta_im", "delta")}


@st.composite
def _scenario_text(draw, kind: str) -> str:
    """A valid scenario of `kind`: drawn expressions for omega and any of
    its kind's optional coefficients, generators, start, grid and output,
    each optional key present or left to its default."""
    def some(key, strategy):
        return [f"{key} = {draw(strategy)}"] if draw(st.booleans()) else []

    system, hamiltonian, initial = [f"kind = {kind}"], [f"omega = {draw(_EXPR)}"], []
    for key in _OPTIONAL[kind]:
        hamiltonian += some(key, _EXPR)
    if kind == "boson":
        initial += some("z0_re", st.floats(-1e100, 1e100).map(repr))
        initial += some("z0_im", st.floats(-1e100, 1e100).map(repr))
    else:
        labels = draw(st.lists(_LABEL, min_size=2 if kind == "grassmann" else 1, max_size=3,
                               unique=True))
        system.append(f"generators = {', '.join(labels)}")
        if kind == "grassmann":
            hamiltonian.append(f"eta_generator = {draw(st.sampled_from(labels))}")
        one = st.one_of(st.sampled_from(labels),
                        st.builds("{}*{}".format, _NUM, st.sampled_from(labels)))
        initial += some("zeta0", st.lists(one, min_size=1, max_size=3).map(" + ".join))
    # dt <= t_end and t_end / dt <= 5e6, within MAX_STEPS; the default dt is 1e-3
    t_end = draw(st.floats(1e-3, 1e3))
    integration = [f"t_end = {t_end!r}"] + some("dt", st.floats(2e-7, 1.0).map(
        lambda frac: repr(t_end * frac))) + some("stride", st.integers(1, 10**6).map(str))
    output = some("path", st.from_regex(r"[a-z][a-z0-9_]{0,8}\.csv", fullmatch=True))
    output += some("expect", st.sampled_from(("preserving", "non_preserving")))
    sections = (("system", system), ("hamiltonian", hamiltonian), ("initial", initial),
                ("integration", integration), ("output", output))
    return "".join(f"[{name}]\n" + "".join(f"{line}\n" for line in lines) + "\n"
                   for name, lines in sections if lines)


@pytest.mark.parametrize("kind", ["boson", "fermion", "grassmann"])
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(data=st.data())
def test_parse_serialize_parse_is_a_fixpoint(kind, data):
    s = parse_scenario(data.draw(_scenario_text(kind), label="scenario"))
    again = parse_scenario(serialize_scenario(s))
    assert again == s
    assert serialize_scenario(again) == serialize_scenario(s)
    # == cannot see a zero's sign; repr shows every term's, trig phases included
    assert {k: repr(fn) for k, fn in again.expressions.items()} == \
        {k: repr(fn) for k, fn in s.expressions.items()}
