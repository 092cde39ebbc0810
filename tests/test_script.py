import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_lexer import reference_lex

from subsetid import Script, parse, serialize
from subsetid.acceptance import _FUZZ_TOKENS
from subsetid.errors import ScriptError
from subsetid.script import (
    KEYWORDS,
    BasisFamily,
    CertifyDecl,
    CutSpec,
    SetDecl,
    SimulateDecl,
    StatesFamily,
    TaskDecl,
    _lex,
    _Parser,
)

WELL_FORMED = """\
set pairs = bell_basis(2)   # the four pair states
set g = ghz4_basis
set trio = states[B1, B2, B3]
task t = subset(trio, k=2)
task u = subset(g, k=2)
simulate t protocol bell32
certify t cut auto
certify u cut AB:CD
certify u cut all
"""


def test_parse_well_formed():
    script = parse(WELL_FORMED)
    kinds = [type(s).__name__ for s in script.statements]
    assert kinds == [
        "SetDecl", "SetDecl", "SetDecl", "TaskDecl", "TaskDecl",
        "SimulateDecl", "CertifyDecl", "CertifyDecl", "CertifyDecl",
    ]
    assert script.statements[0].family == BasisFamily("bell_basis", 2)
    assert script.statements[2].family == StatesFamily(("B1", "B2", "B3"))
    assert script.statements[3] == TaskDecl("t", "trio", 2)
    assert script.statements[7].cut == CutSpec("AB", "CD")
    assert str(script.statements[7].cut) == "AB:CD"
    assert script.statements[8].cut == "all"


def test_positions_do_not_affect_equality():
    spaced = "\n\n   set x = ghz3_basis   # comment\n"
    assert parse(spaced) == parse("set x = ghz3_basis")


def test_statement_positions_recorded():
    script = parse("\nset x = ghz3_basis\n  task t = subset(x, k=2)\n")
    assert (script.statements[0].line, script.statements[0].column) == (2, 1)
    assert (script.statements[1].line, script.statements[1].column) == (3, 3)


def test_empty_script():
    assert parse("") == Script(())
    assert parse("  # only a comment\n") == Script(())
    assert serialize(Script(())) == ""


@pytest.mark.parametrize(
    "source,line,column,fragment",
    [
        ("bogus", 1, 1, "unexpected 'bogus'"),
        ("set", 1, 4, "unexpected 'end of input'"),
        ("set x = fancy_basis", 1, 9, "unexpected 'fancy_basis'"),
        ("set x = bell_basis(two)", 1, 20, "an integer"),
        ("set x = bell_basis(2", 1, 21, "expected )"),
        ("set x = states[]", 1, 16, "a state name"),
        ("set x = bell_basis(2)\nset x = ghz3_basis", 2, 5, "already bound"),
        ("task t = subset(nowhere, k=2)", 1, 17, "unknown name"),
        ("set x = bell_basis(2)\nsimulate x protocol p", 2, 10, "names a set"),
        ("set x = bell_basis(2)\ntask t = subset(x, k=2)\ncertify t cut", 3, 14, "a party list"),
        ("set x = bell_basis(2)\ntask t = subset(x, k=2)\ncertify t cut A", 2 + 1, 16, "expected :"),
        ("set x @ y", 1, 7, "unexpected character '@'"),
        # every character is checked before the grammar reports anything
        ("bogus @", 1, 7, "unexpected character '@'"),
        # a trailing comment takes no columns
        ("set # note", 1, 5, "unexpected 'end of input'"),
        # only ASCII digits start an integer
        ("set x = bell_basis(\u0663)", 1, 20, "unexpected character '\u0663'"),
        ("\v", 1, 1, "unexpected character '\\x0b'"),
        ("set x = bell_basis(2)\r\nset x = ghz3_basis\r\n", 2, 5, "already bound"),
    ],
)
def test_located_diagnostics(source, line, column, fragment):
    with pytest.raises(ScriptError) as exc:
        parse(source)
    e = exc.value
    assert (e.line, e.column) == (line, column)
    assert fragment in str(e)


@pytest.mark.parametrize("word", ["set", "cut", "states", "auto", "k"])
def test_keywords_cannot_name_declarations(word):
    with pytest.raises(ScriptError, match="keyword"):
        parse(f"set {word} = ghz3_basis")


def test_expected_tokens_surface():
    with pytest.raises(ScriptError) as exc:
        parse("set x = ")
    assert "bell_basis" in exc.value.expected
    assert "states" in exc.value.expected
    assert exc.value.reason.startswith("unexpected")


def test_serialize_canonical_form():
    script = parse("set  x=states[B1 ,B4]\ntask  y = subset( x , k = 2 )\n")
    assert serialize(script) == "set x = states[B1,B4]\ntask y = subset(x, k=2)\n"


@pytest.mark.parametrize(
    "stmt", [SetDecl("s", "bell_basis"), "set s = ghz3_basis", None], ids=["family", "str", "none"]
)
def test_serialize_refuses_parts_the_parser_never_builds(stmt):
    with pytest.raises(TypeError, match="unknown (family|statement) type"):
        serialize(Script((stmt,)))


# --- generated scripts ---

_FAMILIES = ("bell_basis(2)", "ges_basis(3)", "ghz3_basis", "ghz4_basis", "states[B1,B3,B4]")
_CUTS = ("auto", "all", "A:B", "AB:CD", "B:ACD")


@st.composite
def scripts(draw):
    lines = []
    n_sets = draw(st.integers(min_value=1, max_value=3))
    for i in range(n_sets):
        lines.append(f"set s{i} = {draw(st.sampled_from(_FAMILIES))}")
    n_tasks = draw(st.integers(min_value=1, max_value=3))
    for j in range(n_tasks):
        src = draw(st.integers(min_value=0, max_value=n_sets - 1))
        k = draw(st.integers(min_value=1, max_value=9))
        lines.append(f"task t{j} = subset(s{src}, k={k})")
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        t = draw(st.integers(min_value=0, max_value=n_tasks - 1))
        if draw(st.booleans()):
            lines.append(f"simulate t{t} protocol {draw(st.sampled_from(('bell32', 'bell43')))}")
        else:
            lines.append(f"certify t{t} cut {draw(st.sampled_from(_CUTS))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=80, deadline=None)
@given(scripts())
def test_round_trip_law(source):
    once = parse(source)
    assert parse(serialize(once)) == once
    assert serialize(parse(serialize(once))) == serialize(once)


@settings(max_examples=80, deadline=None)
@given(scripts(), st.randoms())
def test_parse_is_whitespace_insensitive(source, rng):
    tokens = source.split()
    # reflow the same token stream onto random line breaks; statements are
    # keyword-delimited so the grammar must not care
    out = []
    for tok in tokens:
        out.append(tok)
        out.append(rng.choice([" ", "  ", " \n", " \n\t "]))
    assert parse("".join(out)) == parse(source)


# --- the lexer against its character-loop reference ---

_LEXER_PIECES = _FUZZ_TOKENS + (
    " ", "\t", "\r", "\r\n", "\v", "\f", "#", "\u00e9", "\u00df", "\u0663",
)


def _lexed(lex, text):
    try:
        return [tuple(token) for token in lex(text)]
    except ScriptError as e:
        return str(e), e.line, e.column, e.expected


def _parsed(parser, text):
    try:
        script = parser(text)
    except ScriptError as e:
        return str(e), e.line, e.column, e.expected
    return script, [(s.line, s.column) for s in script.statements]


def _reference_parse(text):
    return _Parser(iter(reference_lex(text))).script()


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(_LEXER_PIECES), max_size=16).map("".join))
def test_lexer_matches_the_character_loop(text):
    assert _lexed(_lex, text) == _lexed(reference_lex, text)
    assert _parsed(parse, text) == _parsed(_reference_parse, text)


def test_keyword_set_is_closed():
    assert KEYWORDS == frozenset(
        {
            "set", "task", "simulate", "certify", "protocol", "cut", "subset",
            "k", "auto", "all", "bell_basis", "ges_basis", "ghz3_basis",
            "ghz4_basis", "states",
        }
    )
