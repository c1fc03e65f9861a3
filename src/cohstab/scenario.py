"""Scenario files: coefficient expressions and the INI layout.

Expression grammar (whitespace-insensitive):

    expr := term ('+' term)*
    term := NUM ['*' tail] | trig
    tail := 't' ['^' (1|2|3)] | trig
    trig := ('cos'|'sin') '(' NUM '*' 't' ['+' NUM] ')'
    NUM  := finite decimal with optional sign (exponent notation accepted)

Scenario layout: sections [system], [hamiltonian], [initial], [integration],
[output]; unknown sections/keys and duplicates are hard errors.
"""

from __future__ import annotations

import configparser
import io
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .coeffs import (
    CoefficientFn,
    ConstTerm,
    PolyTerm,
    TrigTerm,
    complex_pair,
    zero_fn,
)
from .dynamics import HamiltonianSpec, IntegrationConfig
from .errors import ParseError, ValidationError
from .grassmann import GeneratorSet, Multivector

#: Largest scenario text, in bytes: a file is read only up to one byte more.
MAX_SCENARIO_BYTES = 64 * 1024

#: Most terms one coefficient expression may hold; each is evaluated at
#: every stage time of a run.
MAX_TERMS = 64

_NUM_RE = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def accept(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.accept(literal):
            self.fail(f"expected {literal!r}")

    def number(self) -> float:
        self.skip_ws()
        m = _NUM_RE.match(self.text, self.pos)
        if m is None:
            self.fail("expected NUM")
        value = float(m.group())
        if not math.isfinite(value):
            self.fail("expected a finite NUM")
        self.pos = m.end()
        return value

    def fail(self, expected: str):
        raise ParseError(expected, offset=self.pos)


def _parse_trig(sc: _Scanner, amp: float) -> TrigTerm:
    if sc.accept("cos"):
        fn = "cos"
    elif sc.accept("sin"):
        fn = "sin"
    else:
        sc.fail("expected 'cos' or 'sin'")
    sc.expect("(")
    freq = sc.number()
    sc.expect("*")
    sc.expect("t")
    phase = 0.0
    if sc.accept("+"):
        phase = sc.number()
    sc.expect(")")
    return TrigTerm(complex(amp), fn, freq, phase)


def _parse_term(sc: _Scanner):
    if sc.peek("cos") or sc.peek("sin"):
        return _parse_trig(sc, 1.0)
    value = sc.number()
    if not sc.accept("*"):
        return ConstTerm(complex(value))
    if sc.peek("cos") or sc.peek("sin"):
        return _parse_trig(sc, value)
    sc.expect("t")
    power = 1
    if sc.accept("^"):
        sc.skip_ws()
        ch = sc.text[sc.pos] if sc.pos < len(sc.text) else ""
        if ch not in ("1", "2", "3"):
            sc.fail("expected power 1, 2 or 3")
        power = int(ch)
        sc.pos += 1
    return PolyTerm(complex(value), power)


def parse_coefficient_expr(text: str) -> CoefficientFn:
    """Parse one coefficient expression; ParseError carries the byte offset."""
    sc = _Scanner(text)
    terms = [_parse_term(sc)]
    while not sc.at_end():
        if len(terms) == MAX_TERMS:
            sc.fail(f"at most {MAX_TERMS} terms per expression")
        sc.expect("+")
        terms.append(_parse_term(sc))
    return CoefficientFn(tuple(terms))


def _fmt_num(x: float) -> str:
    return repr(float(x))


def serialize_coefficient_expr(fn: CoefficientFn) -> str:
    """Canonical text that re-parses to an equal CoefficientFn."""
    if not fn.terms:
        return "0"
    parts = []
    for term in fn.terms:
        if isinstance(term, ConstTerm):
            parts.append(_fmt_num(term.value.real))
        elif isinstance(term, PolyTerm):
            base = f"{_fmt_num(term.coef.real)}*t"
            parts.append(base if term.power == 1 else f"{base}^{term.power}")
        else:
            inner = f"{_fmt_num(term.freq)}*t"
            if term.phase != 0.0 or math.copysign(1.0, term.phase) < 0.0:  # -0.0 too
                inner += f" + {_fmt_num(term.phase)}"
            parts.append(f"{_fmt_num(term.amp.real)}*{term.fn}({inner})")
    return " + ".join(parts)


# -- scenario files -------------------------------------------------------------

_SECTION_KEYS = {
    "system": {"kind", "generators"},
    "hamiltonian": {"omega", "f_re", "f_im", "g", "eta_re", "eta_im",
                    "eta_generator", "delta"},
    "initial": {"zeta0", "z0_re", "z0_im"},
    "integration": {"t_end", "dt", "stride"},
    "output": {"path", "expect"},
}

_KIND_FORBIDDEN = {
    "boson": {"eta_re", "eta_im", "eta_generator", "delta", "zeta0", "generators"},
    "fermion": {"eta_re", "eta_im", "eta_generator", "delta", "z0_re", "z0_im"},
    "grassmann": {"f_re", "f_im", "g", "z0_re", "z0_im"},
}

_EXPECTS = ("preserving", "non_preserving")

#: Largest |z0| a boson scenario may start from: |z0|**2, the coherent
#: state's mean number, must stay well inside the float64 range.
MAX_Z0 = 1e150


@dataclass(frozen=True)
class Scenario:
    """Parsed, validated scenario ready to run."""

    name: str
    kind: str
    generator_labels: tuple[str, ...]
    expressions: dict[str, CoefficientFn]
    eta_generator: str | None
    zeta0_combo: tuple[tuple[float, str], ...] | None
    z0: complex | None
    config: IntegrationConfig
    out_path: str
    expect: str

    def generator_set(self) -> GeneratorSet | None:
        if self.kind == "boson":
            return None
        return GeneratorSet.from_pairs(self.generator_labels)

    def hamiltonian_spec(self) -> HamiltonianSpec:
        omega = self.expressions["omega"]
        scalar = self.expressions.get("g") or self.expressions.get("delta") or zero_fn()
        if self.kind == "grassmann":
            forcing = complex_pair(
                self.expressions.get("eta_re", zero_fn()),
                self.expressions.get("eta_im", zero_fn()),
            )
            return HamiltonianSpec("grassmann", omega, forcing, scalar,
                                   gens=self.generator_set(),
                                   eta_generator=self.eta_generator)
        forcing = complex_pair(
            self.expressions.get("f_re", zero_fn()),
            self.expressions.get("f_im", zero_fn()),
        )
        return HamiltonianSpec(self.kind, omega, forcing, scalar)

    def initial_zeta(self) -> Multivector:
        gens = self.generator_set()
        out = gens.zero()
        for coef, label in self.zeta0_combo:
            out = out + coef * gens.gen(label)
        return out


def _parse_zeta_combo(text: str, labels: tuple[str, ...]):
    sc = _Scanner(text)
    combo = []

    def one():
        sc.skip_ws()
        m = _NAME_RE.match(sc.text, sc.pos)
        if m is not None:
            sc.pos = m.end()
            return (1.0, m.group())
        coef = sc.number()
        sc.expect("*")
        sc.skip_ws()
        m = _NAME_RE.match(sc.text, sc.pos)
        if m is None:
            sc.fail("expected generator name")
        sc.pos = m.end()
        return (coef, m.group())

    combo.append(one())
    while not sc.at_end():
        sc.expect("+")
        combo.append(one())
    for _, label in combo:
        if label not in labels:
            raise ValidationError(f"zeta0 references undeclared generator {label!r}")
    return tuple(combo)


def parse_scenario(source: str | Path) -> Scenario:
    """Parse a scenario file (path) or scenario text (str with newlines);
    either is refused (ValidationError) over MAX_SCENARIO_BYTES."""
    is_path = isinstance(source, Path) or "\n" not in str(source)
    if is_path:
        path = Path(source)
        with path.open("rb") as f:
            data = f.read(MAX_SCENARIO_BYTES + 1)
    else:
        data = str(source).encode("utf-8")
    if len(data) > MAX_SCENARIO_BYTES:
        raise ValidationError(f"scenario of more than {MAX_SCENARIO_BYTES} bytes")
    if is_path:  # decoded with universal newlines, as Path.read_text does
        text, name = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read(), path.stem
    else:
        text, name = str(source), "scenario"

    cp = configparser.ConfigParser(interpolation=None, strict=True)
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.DuplicateOptionError as exc:
        raise ValidationError(f"duplicate key {exc.option!r} in [{exc.section}]") from exc
    except configparser.DuplicateSectionError as exc:
        raise ValidationError(f"duplicate section [{exc.section}]") from exc
    except configparser.Error as exc:
        raise ParseError(str(exc)) from exc

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ValidationError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTION_KEYS[section]:
                raise ValidationError(f"unknown key {key!r} in [{section}]")

    def get(section, key, default=None):
        if cp.has_section(section) and key in cp[section]:
            return cp[section][key]
        return default

    kind = get("system", "kind")
    if kind not in _KIND_FORBIDDEN:
        raise ValidationError(
            f"kind must be one of {sorted(_KIND_FORBIDDEN)}, got {kind!r}"
        )
    for section in ("system", "hamiltonian", "initial"):
        if not cp.has_section(section):
            continue
        for key in cp[section]:
            if key in _KIND_FORBIDDEN[kind]:
                raise ValidationError(f"key {key!r} does not apply to kind {kind!r}")

    labels = tuple(
        lbl.strip() for lbl in get("system", "generators", "zeta").split(",")
        if lbl.strip()
    )
    if kind != "boson":
        if not labels:
            raise ValidationError("at least one generator pair must be declared")
        try:
            GeneratorSet.from_pairs(labels)
        except ValueError as exc:
            raise ValidationError(f"bad generators: {exc}") from exc

    expressions: dict[str, CoefficientFn] = {}
    omega_text = get("hamiltonian", "omega")
    if omega_text is None:
        raise ValidationError("missing required key 'omega' in [hamiltonian]")
    for key in ("omega", "f_re", "f_im", "g", "eta_re", "eta_im", "delta"):
        text_val = get("hamiltonian", key)
        if text_val is not None:
            expressions[key] = parse_coefficient_expr(text_val)

    eta_generator = get("hamiltonian", "eta_generator")
    if kind == "grassmann":
        if eta_generator is None:
            raise ValidationError("grassmann kind requires 'eta_generator'")
        if eta_generator not in labels:
            raise ValidationError(
                f"eta_generator {eta_generator!r} is not a declared generator"
            )
        if len(labels) < 2:
            raise ValidationError(
                "grassmann kind needs a generator pair besides the forcing one"
            )

    zeta0_combo = None
    z0 = None
    if kind == "boson":
        try:
            z0 = complex(float(get("initial", "z0_re", "0")),
                         float(get("initial", "z0_im", "0")))
        except ValueError as exc:
            raise ValidationError(f"bad initial value: {exc}") from exc
        if not math.isfinite(z0.real) or not math.isfinite(z0.imag):
            raise ValidationError(f"bad initial value: z0 = {z0} is not finite")
        size = math.hypot(z0.real, z0.imag)
        if size > MAX_Z0:
            raise ValidationError(f"bad initial value: |z0| = {size:.3g} exceeds {MAX_Z0:g}")
    else:
        default_zeta = next(
            (lbl for lbl in labels if lbl != eta_generator), labels[0]
        )
        zeta0_combo = _parse_zeta_combo(get("initial", "zeta0", default_zeta), labels)

    t_end_text = get("integration", "t_end")
    if t_end_text is None:
        raise ValidationError("missing required key 't_end' in [integration]")
    try:
        config = IntegrationConfig(
            t_end=float(t_end_text),
            dt=float(get("integration", "dt", "1e-3")),
            stride=int(get("integration", "stride", "10")),
        )
    except ValueError as exc:
        raise ValidationError(f"bad integration values: {exc}") from exc

    expect = get("output", "expect", "preserving")
    if expect not in _EXPECTS:
        raise ValidationError(f"expect must be one of {_EXPECTS}, got {expect!r}")

    return Scenario(
        name=name,
        kind=kind,
        generator_labels=labels if kind != "boson" else (),
        expressions=expressions,
        eta_generator=eta_generator,
        zeta0_combo=zeta0_combo,
        z0=z0,
        config=config,
        out_path=get("output", "path", f"{name}.csv"),
        expect=expect,
    )


def serialize_scenario(s: Scenario) -> str:
    """Scenario text that re-parses to an equal Scenario."""
    buf = io.StringIO()
    buf.write("[system]\n")
    buf.write(f"kind = {s.kind}\n")
    if s.generator_labels:
        buf.write(f"generators = {', '.join(s.generator_labels)}\n")
    buf.write("\n[hamiltonian]\n")
    for key in ("omega", "f_re", "f_im", "g", "eta_re", "eta_im", "delta"):
        if key in s.expressions:
            buf.write(f"{key} = {serialize_coefficient_expr(s.expressions[key])}\n")
    if s.eta_generator is not None:
        buf.write(f"eta_generator = {s.eta_generator}\n")
    buf.write("\n[initial]\n")
    if s.kind == "boson":
        buf.write(f"z0_re = {_fmt_num(s.z0.real)}\n")
        buf.write(f"z0_im = {_fmt_num(s.z0.imag)}\n")
    else:
        combo = " + ".join(
            label if coef == 1.0 else f"{_fmt_num(coef)}*{label}"
            for coef, label in s.zeta0_combo
        )
        buf.write(f"zeta0 = {combo}\n")
    buf.write("\n[integration]\n")
    buf.write(f"t_end = {_fmt_num(s.config.t_end)}\n")
    buf.write(f"dt = {_fmt_num(s.config.dt)}\n")
    buf.write(f"stride = {s.config.stride}\n")
    buf.write("\n[output]\n")
    buf.write(f"path = {s.out_path}\n")
    buf.write(f"expect = {s.expect}\n")
    return buf.getvalue()
