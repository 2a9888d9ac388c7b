"""Unit tests for the pretty-printer, including parse/print round-trips."""

import itertools

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.prolog.reader.parser import parse_term, parse_terms
from repro.prolog.terms import Atom, Struct, Var, make_list, structural_eq
from repro.prolog.writer import (
    clause_key,
    clause_to_string,
    program_to_string,
    term_to_string,
)


class TestAtoms:
    def test_plain(self):
        assert term_to_string(Atom("foo")) == "foo"

    def test_needs_quotes(self):
        assert term_to_string(Atom("hello world")) == "'hello world'"

    def test_symbolic_unquoted(self):
        assert term_to_string(Atom(":-")) == ":-"

    def test_empty_list(self):
        assert term_to_string(Atom("[]")) == "[]"

    def test_uppercase_start_quoted(self):
        assert term_to_string(Atom("Foo")) == "'Foo'"

    def test_quote_escaping(self):
        assert term_to_string(Atom("it's")) == r"'it\'s'"


class TestNumbers:
    def test_int(self):
        assert term_to_string(42) == "42"

    def test_negative(self):
        assert term_to_string(-3) == "-3"

    def test_float(self):
        assert term_to_string(2.5) == "2.5"


class TestVariables:
    def test_named(self):
        assert term_to_string(Var("X")) == "X"

    def test_two_distinct_same_name(self):
        term = Struct("f", (Var("X"), Var("X")))
        text = term_to_string(term)
        assert text == "f(X, X1)"


class TestStructs:
    def test_canonical(self):
        assert term_to_string(Struct("f", (Atom("a"), 1))) == "f(a, 1)"

    def test_infix_operator(self):
        term = parse_term("1 + 2 * 3")
        assert term_to_string(term) == "1 + 2 * 3"

    def test_parenthesises_lower_precedence(self):
        term = parse_term("(1 + 2) * 3")
        assert term_to_string(term) == "(1 + 2) * 3"

    def test_clause_neck(self):
        term = parse_term("a :- b, c")
        assert term_to_string(term) == "a :- b, c"

    def test_prefix_operator(self):
        assert term_to_string(parse_term("\\+ a")) == "\\+ a"

    def test_lists(self):
        assert term_to_string(make_list([1, 2, 3])) == "[1, 2, 3]"

    def test_open_list(self):
        term = parse_term("[a | T]")
        assert term_to_string(term) == "[a | T]"

    def test_braces(self):
        assert term_to_string(parse_term("{a, b}")) == "{a, b}"


class TestRoundTrip:
    CASES = [
        "f(a, B, [1, 2 | T])",
        "a :- b, c, d",
        "X is Y * 2 + 1",
        "(a ; b)",
        "(c -> t ; e)",
        "\\+ g(X)",
        "foo('quoted atom', 3.5)",
        "[[], [a], [a, b | C]]",
        "f(-1, - 1, -(X))",
        "setof(X, Y ^ p(X, Y), S)",
        "a = b",
        "t((X, Y, Z))",
    ]

    @pytest.mark.parametrize("text", CASES)
    def test_roundtrip(self, text):
        term = parse_term(text)
        reparsed = parse_term(term_to_string(term))
        # Round-trips up to variable renaming: compare via canonical copy.
        assert term_to_string(reparsed) == term_to_string(term)


class TestClauseLayout:
    def test_fact(self):
        assert clause_to_string(parse_term("foo(a, b)")) == "foo(a, b)."

    def test_rule_layout(self):
        text = clause_to_string(parse_term("a :- b, c"))
        assert text == "a :-\n    b,\n    c."

    def test_directive(self):
        assert clause_to_string(parse_term(":- mode(f(+))")) == ":- mode(f(+))."

    def test_program_reparses(self):
        source = """
        female(X) :- girl(X).
        female(X) :- wife(_, X).
        grandmother(GC, GM) :- grandparent(GC, GM), female(GM).
        girl(jan).
        """
        clauses = parse_terms(source)
        text = program_to_string(clauses)
        reparsed = parse_terms(text)
        assert len(reparsed) == len(clauses)
        assert program_to_string(reparsed) == text


class TestSharedOperatorTable:
    def test_op_directive_leaves_default_writer_alone(self):
        from repro.prolog import Database

        term = Struct("likes", (Atom("mary"), Atom("wine")))
        assert term_to_string(term) == "likes(mary, wine)"
        database = Database.from_source(":- op(700, xfx, likes). mary likes wine.")
        assert database.operators.infix("likes") is not None
        assert term_to_string(term) == "likes(mary, wine)"
        assert clause_to_string(term) == "likes(mary, wine)."
        assert term_to_string(term, database.operators) == "mary likes wine"

    def test_rendering_builds_no_table(self, monkeypatch):
        from repro.prolog.reader.operators import OperatorTable

        built = []
        original = OperatorTable.__init__

        def counting(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(OperatorTable, "__init__", counting)
        clause = parse_term("f(X) :- g(X, [1, 2 | T]), \\+ h(T), X = a + b")
        assert built  # the parser still builds its own, mutable table
        built.clear()
        term_to_string(clause)
        clause_to_string(clause)
        program_to_string([clause])
        assert built == []


# Leaves drawn from small pools, so that equal renderings are common:
# 1 beside 1.0, two distinct variables named X (the second prints as
# X1) beside one actually named X1, anonymous variables, and atoms that
# need quotes, and bare operator atoms, which print in parentheses as
# operands.
_VARIABLES = [Var("X"), Var("X"), Var("X1"), Var("_"), Var("_"), Var("Y")]
_OPERATOR_ATOMS = [Atom("-"), Atom("+"), Atom("mod"), Atom(";"), Atom("\\+")]
_LEAVES = st.sampled_from(
    [Atom("a"), Atom("[]"), Atom("hello world"), Atom("A"), Atom("it's"),
     1, 1.0, -1, 2.5, -0.0, 0.0] + _OPERATOR_ATOMS + _VARIABLES
)
_FUNCTORS = [
    ("f", 1), ("f", 2), ("g", 2), ("+", 2), ("-", 1), ("-", 2), (",", 2),
    (";", 2), ("->", 2), ("\\+", 1), (".", 2), ("{}", 1), ("=", 2), ("**", 2),
]
_TERMS = st.recursive(
    _LEAVES,
    lambda inner: st.sampled_from(_FUNCTORS).flatmap(
        lambda functor: st.tuples(*[inner] * functor[1]).map(
            lambda args: Struct(functor[0], args)
        )
    ),
    max_leaves=6,
)
_CLAUSES = st.one_of(
    _TERMS.map(lambda head: Struct("$head", (head,))),
    st.tuples(_TERMS, _TERMS).map(
        lambda pair: Struct(":-", (Struct("$head", (pair[0],)), pair[1]))
    ),
)


def _near_misses(nodes):
    """Every term of exactly ``nodes`` nodes over a universe small enough
    that distinct terms often share a rendering or miss one by a single
    token (f/1 against f/2 over the same names, 0.0 against -0.0, two
    distinct variables named X against X and X1, two anonymous
    variables against one used twice, ...)."""
    if nodes == 1:
        return [Atom("a"), Atom("-"), 1, 1.0, 0.0, -0.0] + _VARIABLES[:5]
    terms = [
        Struct(name, (inner,))
        for name in ("f", "-")
        for inner in _near_misses(nodes - 1)
    ]
    for left_nodes in range(1, nodes - 1):
        for left in _near_misses(left_nodes):
            for right in _near_misses(nodes - 1 - left_nodes):
                terms.extend(Struct(name, (left, right)) for name in ("f", "-"))
    return terms


class TestClauseKey:
    def test_near_misses_partition_alike(self):
        by_key, by_text = {}, {}
        for nodes in range(1, 5):
            for body in _near_misses(nodes):
                clause = Struct(":-", (Atom("$head"), body))
                key, text = clause_key(clause), clause_to_string(clause)
                by_key.setdefault(key, set()).add(text)
                by_text.setdefault(text, set()).add(key)
        assert len(by_key) == len(by_text) > 1000
        assert all(len(texts) == 1 for texts in by_key.values())
        assert all(len(keys) == 1 for keys in by_text.values())

    @given(st.lists(_CLAUSES, min_size=2, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_key_equality_is_text_equality(self, clauses):
        rendered = [(clause_key(c), clause_to_string(c)) for c in clauses]
        for (first_key, first_text), (second_key, second_text) in (
            itertools.combinations(rendered, 2)
        ):
            assert (first_key == second_key) == (first_text == second_text)

    @given(_CLAUSES)
    @settings(max_examples=100, deadline=None)
    def test_renamed_copy_has_the_same_key(self, clause):
        fresh = {}

        def copy(term):
            if isinstance(term, Var):
                return fresh.setdefault(id(term), Var(term.name))
            if isinstance(term, Struct):
                return Struct(term.name, tuple(copy(arg) for arg in term.args))
            return term

        renamed = copy(clause)
        assert clause_to_string(renamed) == clause_to_string(clause)
        assert clause_key(renamed) == clause_key(clause)

    @pytest.mark.parametrize(
        "first, second, same",
        [
            (Struct("p", (1,)), Struct("p", (1.0,)), False),
            (Struct("p", (0.0,)), Struct("p", (-0.0,)), False),
            (Struct("p", (Atom("a b"),)), Struct("p", (Atom("a b"),)), True),
            (Struct("p", (Atom("A"),)), Struct("p", (Var("A"),)), False),
        ],
    )
    def test_numbers_and_quoted_atoms(self, first, second, same):
        assert (clause_key(first) == clause_key(second)) is same
        assert (clause_to_string(first) == clause_to_string(second)) is same

    def test_operator_atom_operands(self):
        # Bracketed operator atoms keep these two terms apart in the
        # text as in the key.
        minus = Atom("-")
        infix = Struct("-", (minus, minus))
        prefix = Struct("-", (Struct("-", (minus,)),))
        assert clause_to_string(infix) == "(-) - (-)."
        assert clause_to_string(prefix) == "- - (-)."
        assert clause_key(infix) != clause_key(prefix)


_ATOM_TERMS = st.recursive(
    st.sampled_from(
        [Atom("a"), Atom("it's"), 1, 1.5, -1, 0, -2.5]
        + _OPERATOR_ATOMS + _VARIABLES
    ),
    lambda inner: st.sampled_from(_FUNCTORS).flatmap(
        lambda functor: st.tuples(*[inner] * functor[1]).map(
            lambda args: Struct(functor[0], args)
        )
    ),
    max_leaves=6,
)


class TestOperatorAtomOperands:
    MINUS = Atom("-")

    @pytest.mark.parametrize(
        "term, text",
        [
            (Struct("-", (MINUS, MINUS)), "(-) - (-)"),
            (Struct("-", (Struct("-", (MINUS,)),)), "- - (-)"),
            (Struct("-", (MINUS,)), "- (-)"),
            (Struct("=", (Var("X"), Atom("+"))), "X = (+)"),
            (Struct("+", (Atom("a"), Atom("mod"))), "a + (mod)"),
            (Struct(";", (Atom(";"), Atom("\\+"))), "(;) ; (\\+)"),
            (Struct("f", (MINUS, Atom("+"))), "f(-, +)"),
            (make_list([MINUS]), "[-]"),
            (Struct("-", (1,)), "-(1)"),
            (Struct("-", (1.5,)), "-(1.5)"),
            (Struct("-", (Struct("-", (1,)),)), "- -(1)"),
        ],
    )
    def test_round_trip(self, term, text):
        assert term_to_string(term) == text
        reparsed = parse_term(text)
        assert clause_key(reparsed) == clause_key(term)

    @given(_ATOM_TERMS)
    @settings(max_examples=200, deadline=None)
    def test_generated_terms_read_back(self, term):
        reparsed = parse_term(term_to_string(term))
        assert clause_key(reparsed) == clause_key(term)
