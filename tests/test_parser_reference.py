"""The one-pass parser against the parser it replaced, and the one-scan
tokenizer against the tokenizer it replaced.

`dsl.Parser` decides each process operand with one forward scan and
climbs one precedence table per level family.  `parser_reference` keeps
the parser that tried a guard first, rewound, and scanned again for a
prefix.  On every model text the tests hold, on seeded single-token
mutants of the bundled models and on seeded random texts over the whole
grammar, both must accept or reject alike and build equal ASTs.  On the
texts the tests hold they must also report the same first diagnostic,
except where the reference reported a guard's body error, or an output
with no value, at the wrong token.

Texts reach `dsl.Parser` through `dsl.parse_network`, and token lists
(the reference tokenizer's, or mutants of them) through `stream`.  The
two tokenizers must give the same tokens, kinds and positions, or the
same `ParseError` text, on the corpus, on seeded single-character
mutants of the bundled models and on the edge cases below.
"""

import ast
import random
from pathlib import Path

import pytest

import bundled
from dpa import models
from dpa.dsl import KEYWORDS, ParseError, Parser, parse_network, tokenize
from parser_reference import ReferenceParser, Token
from parser_reference import tokenize as reference_tokenize

HERE = Path(__file__).resolve().parent

# where the reference stopped at the '!' and the parser stops at the
# missing value (see tests/test_dsl.py)
FIRST_DIAGNOSTIC_CHANGED = {
    "version 1\nchannel c : {0..1}\nP = c! -> P\nQ = c.0 -> Q\n",
}


def stream(tokens):
    """A reference token list as `dsl.Parser` takes it: each token's tag
    (its text for an operator or keyword, else its kind), its text, and
    its position by index."""
    tags = [t.text if t.kind in ("op", "kw") else t.kind for t in tokens]
    return tags, [t.text for t in tokens], lambda i: (tokens[i].line, tokens[i].col)


def outcome(parse):
    """("ok", declaration) or ("error", diagnostics as strings)."""
    try:
        return "ok", parse()
    except ParseError as err:
        return "error", [str(d) for d in err.diagnostics]


def parse_both(tokens, text=None):
    """Both parsers' outcomes, once they are seen to accept or reject alike
    and, where they accept, to build equal ASTs.  Given the ``text`` the
    tokens were read from, `dsl.Parser` reads it through
    `dsl.parse_network`."""
    got = outcome(
        (lambda: parse_network(text)) if text is not None
        else (lambda: Parser(*stream(tokens)).parse_network()))
    want = outcome(ReferenceParser(tokens).parse_network)
    assert got[0] == want[0], " ".join(t.text for t in tokens)
    assert got[0] == "error" or got[1] == want[1], " ".join(t.text for t in tokens)
    return got, want


def is_subsequence(short, long):
    rest = iter(long)
    return all(item in rest for item in short)


def literals_of_tests():
    """Every string literal of the other test files that holds a process or
    a channel; this file's own literals are the cases where the two
    parsers are meant to differ."""
    out = []
    for path in sorted(HERE.glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                if ("->" in node.value or "channel" in node.value) and node.value not in out:
                    out.append(node.value)
    return out


def corpus():
    out = [build() for name, build in bundled.BUNDLED.items() if name.endswith(".net")]
    out += [models.ring_buffer_source(n) for n in range(1, 8)]
    for n in range(2, 12):
        out += [models.philosophers_source(n), models.philosophers_source(n, True)]
    out += [models.leadership_source(n) for n in range(2, 8)]
    out.append(bundled.read("client_server.net"))
    return out + literals_of_tests()


def test_corpus_parses_alike():
    texts = corpus()
    accepted = 0
    for text in texts:
        try:
            tokens = reference_tokenize(text)
        except ParseError:
            continue
        got, want = parse_both(tokens, text)
        if got[0] == "ok":
            accepted += 1
        elif text not in FIRST_DIAGNOSTIC_CHANGED:
            # recovery resumes less often, so later diagnostics may only drop
            assert got[1][0] == want[1][0], text
            assert is_subsequence(got[1], want[1]), text
    assert accepted >= 60  # the models and the tests' valid texts were found


def mutants(rng, count):
    """Token lists, each one token off a bundled model: deleted, inserted
    or replaced, with a token drawn from the models themselves."""
    models_tokens = [
        reference_tokenize(build()) for name, build in sorted(bundled.BUNDLED.items())
        if name.endswith(".net")
    ]
    pool = sorted({(t.kind, t.text) for toks in models_tokens for t in toks[:-1]})
    for _ in range(count):
        tokens = list(rng.choice(models_tokens))
        i = rng.randrange(len(tokens) - 1)
        at = tokens[i]
        kind, text = rng.choice(pool)
        mutation = rng.choice(("delete", "insert", "replace"))
        if mutation == "delete":
            del tokens[i]
        elif mutation == "insert":
            tokens.insert(i, Token(kind, text, at.line, at.col))
        else:
            tokens[i] = Token(kind, text, at.line, at.col)
        yield tokens


def test_mutants_parse_alike():
    accepted = rejected = same_first = 0
    for tokens in mutants(random.Random(12), 1000):
        got, want = parse_both(tokens)
        if got[0] == "ok":
            accepted += 1
        else:
            rejected += 1
            same_first += got[1][0] == want[1][0]
    assert accepted > 100 and rejected > 100
    # a first diagnostic moves where the reference misplaced it (826 of
    # the 887 rejected mutants keep theirs); a scan that ran on past a
    # complete operand would move about a fifth
    assert same_first >= 0.9 * rejected


def generated_process(rng, depth):
    """A random process over every operator of the grammar, with guards
    whose conditions mix all expression levels."""

    def expr(d):
        r = rng.random()
        if d == 0 or r < 0.3:
            return rng.choice(["0", "1", "x", "y"])
        if r < 0.4:
            return f"f({expr(d - 1)}, {expr(d - 1)})"
        if r < 0.5:
            return f"({expr(d - 1)})"
        if r < 0.6:
            return rng.choice(["-", "not "]) + expr(d - 1)
        return f"{expr(d - 1)} {rng.choice(EXPR_OPERATORS)} {expr(d - 1)}"

    def event():
        fields = "".join(
            rng.choice(".!") + rng.choice(["x", "1", "(x + 1)", "f(x, 1)"])
            for _ in range(rng.randrange(3))
        )
        return rng.choice("ac") + fields + ("?z" if rng.random() < 0.2 else "")

    def proc(d):
        r = rng.random()
        if d == 0 or r < 0.15:
            return rng.choice(["STOP", "SKIP", "DIV", "P", "P(x)", "Q(x, 1)"])
        if r < 0.35:
            return f"{event()} -> {proc(d - 1)}"
        if r < 0.5:
            return f"{expr(2)} & {proc(d - 1)}"
        if r < 0.7:
            return f"{proc(d - 1)} {rng.choice(PROCESS_OPERATORS)} {proc(d - 1)}"
        if r < 0.8:
            return f"({proc(d - 1)})"
        if r < 0.9:
            return proc(d - 1) + rng.choice([" \\ {a}", " [[a <- c]]"])
        return f"{rng.choice(['[]', '|~|'])} i : {{0..1}} @ {proc(d - 1)}"

    return proc(depth)


EXPR_OPERATORS = ["or", "and", "==", "!=", "<=", ">=", "<", ">", "+", "-", "*", "/", "%"]
PROCESS_OPERATORS = ["[]", "|~|", ";", "/\\"]


def test_generated_processes_parse_alike():
    """Random texts over the whole grammar, a third of them with one
    character deleted."""
    rng = random.Random(5)
    accepted = rejected = 0
    for _ in range(2000):
        text = f"version 1\nchannel a\nP(x) = {generated_process(rng, 4)}\n"
        if rng.random() < 0.3:
            cut = rng.randrange(len(text))
            text = text[:cut] + text[cut + 1:]
        try:
            tokens = reference_tokenize(text)
        except ParseError:
            continue
        got, _ = parse_both(tokens, text)
        accepted += got[0] == "ok"
        rejected += got[0] == "error"
    assert accepted > 500 and rejected > 500


@pytest.mark.parametrize("text, diagnostics", [
    # a syntax error in a guard's body is reported where it is, once;
    # the reference reported the guard's condition, then a bogus '='
    ("version 1\nchannel a\nP(x) = x == 1 & a -> -> P(x)\n",
     ["3:22: expected a process, found '->'"]),
    # recovery does not restart at the calls further along the line
    ("version 1\nchannel a\nP = a -> == Q(0) [] Q(1)\nQ(x) = a -> Q(x)\nR = -> R\n",
     ["3:10: expected a process, found '=='", "5:5: expected a process, found '->'"]),
], ids=["guard-body", "no-restart-mid-line"])
def test_diagnostics(text, diagnostics):
    with pytest.raises(ParseError) as err:
        parse_network(text)
    assert [str(d) for d in err.value.diagnostics] == diagnostics
    assert outcome(ReferenceParser(reference_tokenize(text)).parse_network)[1] != diagnostics


@pytest.mark.parametrize("text", [
    "version 1\nchannel a\nP = " + "(" * 100 + "a -> P" + ")" * 100 + "\n",
    "version 1\nchannel a\nP = " + "a -> " * 450 + "P\n",
], ids=["parentheses-100", "prefixes-450"])
def test_deep_nesting_parses(text):
    got, _ = parse_both(reference_tokenize(text), text)
    assert got[0] == "ok"


def kind(tag):
    """The reference kind of a `dsl.tokenize` tag."""
    if tag in KEYWORDS:
        return "kw"
    return tag if tag in ("num", "ident", "eof") else "op"


def scanned(text):
    """`dsl.tokenize`'s tokens as (kind, text, line, col), or its
    `ParseError` text."""
    try:
        tags, texts, position = tokenize(text)
    except ParseError as err:
        return str(err)
    return [(kind(tag), t, *position(i)) for i, (tag, t) in enumerate(zip(tags, texts))]


def reference_scanned(text):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in reference_tokenize(text)]
    except ParseError as err:
        return str(err)


def assert_scanned_alike(text):
    got = scanned(text)
    assert got == reference_scanned(text), repr(text)
    return got


def test_corpus_tokenizes_alike():
    assert sum(isinstance(assert_scanned_alike(text), list) for text in corpus()) >= 60


# what a single-character mutant writes: the models' own characters, and
# characters that blank, break a line, end a comment or are stray
MUTANT_CHARACTERS = "\t\r\n -->[]{|}~'$é٣_0aZ"


def character_mutants(rng, count):
    """Texts, each one character off a bundled model: deleted, inserted or
    replaced."""
    texts = [build() for name, build in sorted(bundled.BUNDLED.items()) if name.endswith(".net")]
    pool = sorted(set("".join(texts)) | set(MUTANT_CHARACTERS))
    for _ in range(count):
        text = rng.choice(texts)
        i = rng.randrange(len(text) + 1)
        mutation = rng.choice(("delete", "insert", "replace"))
        if mutation == "insert":
            yield text[:i] + rng.choice(pool) + text[i:]
        else:
            yield text[:i] + ("" if mutation == "delete" else rng.choice(pool)) + text[i + 1:]


def test_character_mutants_tokenize_and_parse_alike():
    """The tokens, and the diagnostics `dsl.Parser` reports at their
    positions, are the same however the tokens were read."""
    stray = failed = 0
    for text in character_mutants(random.Random(24), 1500):
        got = assert_scanned_alike(text)
        if isinstance(got, str):
            stray += 1
            continue
        want = outcome(lambda: Parser(*stream(reference_tokenize(text))).parse_network())
        assert outcome(lambda: parse_network(text)) == want, repr(text)
        failed += want[0] == "error"
    assert stray > 50 and failed > 300


@pytest.mark.parametrize("text", [
    "",
    "   \n\t \r\n",
    "version 1\r\nchannel a\r\n\tP = a -> P\t\r\n",
    "version 1\nchannel a -->\nP = a --> P\n",
    "version 1\nchannel a\n-- ends without a newline",
    "version 1\nchannel a\nP = a -> P   ",
    "const N = ٣",
    "const N = 1٣2\nP = a ->\u00a0P",
    "P = a -> $P -- trailing\nQ = café -> Q\n",
    "é",
    "x [ y ] z ~ 'w",
    "a->-b<--c|~|d/\\e..f",
], ids=[
    "empty", "blanks", "tabs-and-cr", "arrow-comment", "comment-at-eof",
    "trailing-blanks", "unicode-digit", "unicode-digits-and-nbsp", "stray-characters",
    "only-stray", "lone-brackets", "run-together",
])
def test_edge_cases_tokenize_alike(text):
    assert_scanned_alike(text)
