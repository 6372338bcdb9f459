"""Sparse multivariate polynomial arithmetic with exact rational coefficients.

A polynomial in n variables is a map from exponent tuples (one non-negative
integer per variable) to ``Fraction`` coefficients:

    x0^2*x1 + 3  ->  {(2, 1): Fraction(1), (0, 0): Fraction(3)}

Zero coefficients are never stored; the zero polynomial is the empty map and
its degree is -1 by convention.  All term streams (iteration, printing) use
graded lexicographic order, so formatted output is deterministic.

Coefficients stay exact through every operation.  ``Polynomial.evaluate``
accepts any arguments supporting ``+`` and ``*`` together with an explicit
multiplicative unit, which is how polynomials are pushed through quotient
algebras and symbolic chart coordinates elsewhere in the package.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Exponents = tuple[int, ...]

Scalar = Fraction | int


def grlex_key(exponents: Exponents) -> tuple:
    """Sort key for graded lexicographic order: degree first, then x0 > x1 > ..."""
    return (sum(exponents), tuple(-e for e in exponents))


QUOTE_LIMIT = 40


def quoted(value) -> str:
    """``repr(value)`` for an error message, cut to QUOTE_LIMIT characters
    ending in "…", so that a message about a long input stays short."""
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[: QUOTE_LIMIT - 1] + "…"


class PolynomialParseError(ValueError):
    """Malformed polynomial text; ``position`` is the 0-based offset of the error."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Polynomial:
    """Immutable sparse polynomial over Fraction coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Scalar] | None = None):
        if nvars < 0:
            raise ValueError("variable count must be non-negative")
        clean: dict[Exponents, Fraction] = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise ValueError(
                    f"term has {len(exp)} exponents, expected {nvars}"
                )
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent")
            coeff = Fraction(coeff)
            if coeff:
                clean[exp] = coeff
        self.nvars = nvars
        self._terms = clean  # never mutated after construction

    @classmethod
    def _from_terms(cls, nvars: int, terms: Mapping[Exponents, Scalar]) -> "Polynomial":
        """A polynomial from terms already known to be well formed: exponent
        tuples of length ``nvars`` with non-negative ints, and non-zero int
        or Fraction coefficients."""
        p = object.__new__(cls)
        p.nvars = nvars
        p._terms = {e: c if type(c) is Fraction else Fraction(c) for e, c in terms.items()}
        return p

    # ---------------------------------------------------------------- factories

    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, value: Scalar) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: Fraction(value)})

    @classmethod
    def variable(cls, nvars: int, index: int) -> "Polynomial":
        if not 0 <= index < nvars:
            raise ValueError(f"variable index {index} out of range for {nvars} variables")
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, nvars: int, exponents: Iterable[int], coeff: Scalar = 1) -> "Polynomial":
        return cls(nvars, {tuple(exponents): Fraction(coeff)})

    # ------------------------------------------------------------------ queries

    def terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in ascending graded lexicographic order."""
        return sorted(self._terms.items(), key=lambda item: grlex_key(item[0]))

    def coefficient(self, exponents: Iterable[int]) -> Fraction:
        return self._terms.get(tuple(exponents), Fraction(0))

    def is_zero(self) -> bool:
        return not self._terms

    @property
    def degree(self) -> int:
        if not self._terms:
            return -1
        return max(sum(e) for e in self._terms)

    def __iter__(self) -> Iterator[tuple[Exponents, Fraction]]:
        return iter(self.terms())

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Polynomial):
            return self.nvars == other.nvars and self._terms == other._terms
        if isinstance(other, (int, Fraction)):
            return self == Polynomial.constant(self.nvars, other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nvars, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    # --------------------------------------------------------------- arithmetic

    def _coerce(self, other) -> "Polynomial | None":
        if isinstance(other, Polynomial):
            if other.nvars != self.nvars:
                raise ValueError(
                    f"variable-count mismatch: {self.nvars} vs {other.nvars}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self.nvars, other)
        return None

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        _add_terms(out, other._terms, 1)
        return Polynomial._from_terms(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        out: dict = {}
        _add_terms(out, self._terms, -1)
        return Polynomial._from_terms(self.nvars, out)

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return Polynomial._from_terms(self.nvars, _product(self._terms, other._terms))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative power")
        return Polynomial._from_terms(self.nvars, _power(self._terms, n, self.nvars))

    def partial(self, var: int) -> "Polynomial":
        """Formal partial derivative with respect to variable ``var``."""
        if not 0 <= var < self.nvars:
            raise ValueError(f"variable index {var} out of range for {self.nvars} variables")
        out: dict[Exponents, Fraction] = {}
        for exp, coeff in self._terms.items():
            e = exp[var]
            if e == 0:
                continue
            new = list(exp)
            new[var] = e - 1
            out[tuple(new)] = coeff * e
        return Polynomial._from_terms(self.nvars, out)

    def evaluate(self, args: Sequence, one=Fraction(1)):
        """Value under the ring homomorphism sending variable i to args[i].

        ``one`` must be the multiplicative unit of the target ring; constants
        are embedded as ``coeff * one``.  With the default unit and scalar
        arguments this is ordinary evaluation.
        """
        if len(args) != self.nvars:
            raise ValueError(f"expected {self.nvars} arguments, got {len(args)}")
        # powers[i][e - 1] is args[i]^e, each the one below times args[i],
        # filled on demand from the largest exponent formed so far.
        powers = [[x] for x in args]

        def power(i: int, e: int):
            row = powers[i]
            while len(row) < e:
                row.append(row[-1] * args[i])
            return row[e - 1]

        total = None
        for exp, coeff in self.terms():
            term = coeff * one
            for i, e in enumerate(exp):
                if e:
                    term = term * power(i, e)
            total = term if total is None else total + term
        if total is None:
            return Fraction(0) * one
        return total

    def __repr__(self) -> str:
        names = [f"x{i + 1}" for i in range(self.nvars)]
        return f"Polynomial({self.to_str(names)!r})"

    # ---------------------------------------------------------------- formatting

    def to_str(self, variables: Sequence[str]) -> str:
        """Render in the same syntax ``parse_polynomial`` accepts."""
        if len(variables) != self.nvars:
            raise ValueError("variable-name count mismatch")
        terms = []
        for exp, coeff in reversed(self.terms()):
            mono = monomial_str(exp, variables)
            terms.append((coeff, None if mono == "1" else mono))
        return signed_sum(terms)


def monomial_str(exponents: Exponents, variables: Sequence[str]) -> str:
    parts = []
    for name, e in zip(variables, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def format_scalar(x) -> str:
    """Display form of a coefficient: ``4`` or ``-1/2`` for a Fraction, 12
    significant digits for a float.  The JSON wire format is
    ``jsonio.fraction_to_str``, which always prints the denominator."""
    if isinstance(x, Fraction):
        return str(x)
    return f"{float(x):.12g}"


def signed_sum(terms: Iterable[tuple], sep: str = " ") -> str:
    """Render the sum of c*name over (c, name) pairs, skipping zero c: a
    leading ``-`` on a negative first term, then ``+`` or ``-`` before each
    following term, with ``sep`` on both sides of the sign (``3 + 2*x - y``,
    or ``3+2*x-y`` for ``sep=""``).  ``name`` None marks a constant term;
    a unit magnitude prints as the bare name.  The empty sum is ``0``."""
    pieces: list[str] = []
    for c, name in terms:
        if c == 0:
            continue
        mag = abs(c)
        if name is None:
            body = format_scalar(mag)
        elif mag == 1:
            body = name
        else:
            body = f"{format_scalar(mag)}*{name}"
        if not pieces:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{'+' if c > 0 else '-'}{sep}{body}")
    return sep.join(pieces) if pieces else "0"


# ------------------------------------------------------------------- parsing

_OPERATORS = set("+-*^()/")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens: list[tuple[str, str, int]] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _OPERATORS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        start = i
        if ch.isdecimal():  # the digits int() reads, unlike isdigit()'s superscripts
            while i < len(text) and text[i].isdecimal():
                i += 1
            tokens.append(("int", text[start:i], start))
            continue
        while i < len(text) and not text[i].isspace() and text[i] not in _OPERATORS:
            i += 1
        tokens.append(("name", text[start:i], start))
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variables: Sequence[str]):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.nvars = len(variables)
        self.index = {name: i for i, name in enumerate(variables)}

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        terms = self.expr()
        kind, value, pos = self.peek()
        if kind != "end":
            raise PolynomialParseError(f"unexpected {quoted(value)}", pos)
        return Polynomial._from_terms(self.nvars, terms)

    # Each rule returns its value as terms: a dict from exponent tuples to
    # non-zero int or Fraction coefficients, which skips the validation of
    # a Polynomial for every intermediate result.

    def expr(self) -> dict:
        sign = 1
        if self.peek()[0] in "+-":
            sign = -1 if self.advance()[0] == "-" else 1
        total: dict = {}
        _add_terms(total, self.term(), sign)
        while self.peek()[0] in "+-":
            sign = -1 if self.advance()[0] == "-" else 1
            _add_terms(total, self.term(), sign)
        return total

    def term(self) -> dict:
        """A product of factors.  The numbers, variable powers and
        parenthesised single terms among them multiply into one
        coefficient and one exponent vector; only the parenthesised sums
        are multiplied as terms, by :func:`_product`.  The factors are read
        in order, so every error is the one a factor-by-factor product
        meets first."""
        coefficient, exponents, groups = 1, [0] * self.nvars, []
        while True:
            kind, value, pos = self.peek()
            if kind == "name":
                self.advance()
                if value not in self.index:
                    raise PolynomialParseError(f"unknown variable {quoted(value)}", pos)
                exponents[self.index[value]] += self.exponent()
            elif kind == "int":
                self.advance()
                coefficient *= self.number(value, pos) ** self.exponent()
            else:
                group = self.group()
                if len(group) == 1:  # one term, such as a parenthesised coefficient
                    ((exps, c),) = group.items()
                    coefficient *= c
                    exponents = [x + e for x, e in zip(exponents, exps)]
                else:
                    groups.append(group)
            if self.peek()[0] != "*":
                break
            self.advance()
        total = {tuple(exponents): coefficient} if coefficient else {}
        for group in groups:
            total = _product(total, group)
        return total

    def exponent(self) -> int:
        """The exponent after a '^', or 1 where none follows."""
        if self.peek()[0] != "^":
            return 1
        self.advance()
        kind, value, pos = self.peek()
        if kind != "int":
            raise PolynomialParseError("exponent must be a non-negative integer", pos)
        self.advance()
        return _integer(value, pos)

    def number(self, digits: str, pos: int) -> int | Fraction:
        """The integer literal ``digits``, or the fraction it starts."""
        numerator = _integer(digits, pos)
        if self.peek()[0] != "/":
            return numerator
        self.advance()
        kind, value, dpos = self.peek()
        if kind != "int":
            raise PolynomialParseError("expected integer denominator", dpos)
        self.advance()
        denominator = _integer(value, dpos)
        if denominator == 0:
            raise PolynomialParseError("zero denominator", dpos)
        return Fraction(numerator, denominator)

    def group(self) -> dict:
        """A parenthesised expression and its power."""
        kind, _, pos = self.peek()
        if kind != "(":
            raise PolynomialParseError(
                "expected a number, variable or '('" if kind != "end" else "unexpected end of input",
                pos,
            )
        self.advance()
        inner = self.expr()
        kind, _, pos = self.peek()
        if kind != ")":
            raise PolynomialParseError("expected ')'", pos)
        self.advance()
        power = self.exponent()
        return inner if power == 1 else _power(inner, power, self.nvars)


def _add_terms(total: dict, terms: dict, sign: int) -> None:
    """total += sign * terms, in place, dropping cancelled terms."""
    for exp, coeff in terms.items():
        value = total.get(exp, 0) + sign * coeff
        if value:
            total[exp] = value
        else:
            del total[exp]


def _product(a: dict, b: dict) -> dict:
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            out[exp] = out.get(exp, 0) + ca * cb
    return {exp: c for exp, c in out.items() if c}


def _power(base: dict, n: int, nvars: int) -> dict:
    """base^n; a single term has its exponents multiplied, and any other
    base is raised by repeated squaring."""
    if len(base) == 1:
        ((exp, coeff),) = base.items()
        return {tuple(e * n for e in exp): coeff**n}
    result = {(0,) * nvars: 1}
    while n:
        if n & 1:
            result = _product(result, base)
        n >>= 1
        if n:
            base = _product(base, base)
    return result


def parse_polynomial(text: str, variables: Sequence[str]) -> Polynomial:
    """Parse ``text`` over the named variables.

    Syntax: ``+ - * ^`` with integer or rational (``p/q``) literals, e.g.
    ``x1^2*x2 - 3/2*x1``.  Raises :class:`PolynomialParseError` with the
    offending position on bad input.
    """
    return _Parser(text, variables).parse()


def parse_monomial(text: str, variables: Sequence[str]) -> Exponents | None:
    """Exponents of a product of variable powers, e.g. ``x^2*y`` -> (2, 1).

    Integer factors may appear if each is 1.  The text is read
    token by token and nothing is expanded, so its cost is linear in its
    length.  Returns None when the text is anything else, and raises
    :class:`PolynomialParseError` for an unknown variable or a malformed
    exponent, with the messages of :func:`parse_polynomial`.
    """
    parser = _Parser(text, variables)
    exponents = [0] * parser.nvars
    unit_factors = True  # every integer factor so far is 1
    while True:
        kind, value, pos = parser.advance()
        if kind == "int":
            unit_factors = _integer(value, pos) == 1 and unit_factors
        elif kind == "name":
            if value not in parser.index:
                raise PolynomialParseError(f"unknown variable {quoted(value)}", pos)
            exponents[parser.index[value]] += parser.exponent()
        else:
            return None
        kind = parser.advance()[0]
        if kind == "end":
            return tuple(exponents) if unit_factors else None
        if kind != "*":
            return None


def _integer(digits: str, position: int) -> int:
    try:
        return int(digits)
    except ValueError:  # beyond the digit limit of int()
        raise PolynomialParseError(f"integer of {len(digits)} digits is too long", position) from None
