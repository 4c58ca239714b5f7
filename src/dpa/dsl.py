"""Textual model format and pattern-descriptor files.

A ``.net`` file declares integer constants, channels over finite integer
fields, helper functions, parametrised process definitions, component
schemas (atoms, parametrised by the implicit variable ``id``) and their
instantiations.  Example::

    version 1
    const N = 3
    channel pickup : {0..N-1}.{0..N-1}
    fun next(i) = (i + 1) % N

    Fork(id) = [] i : {id, prev(id)} @ pickup.i.id -> putdown.i.id -> Fork(id)

    atom ForkC = alphabet {| pickup.id.id, pickup.prev(id).id |}
                 behaviour Fork(id)
    instance Fork = ForkC {0..N-1}

Process-expression operators, loosest binding first: ``|~|``, ``[]``,
``/\\``, ``;``, guard ``&``, prefix ``->``; hiding ``\\ {...}`` and
renaming ``[[a <- b, ...]]`` are postfix; ``STOP``, ``SKIP``, ``DIV``,
calls, ``(...)`` and the indexed choices ``[] x : {set} @ P`` /
``|~| x : {set} @ P`` are primary.  Channel transfers use ``ch!expr``
(output a value) and ``ch?x`` (input).  The parser reads ``ch?x -> P`` as
the replicated choice ``[] x : dom @ ch.x -> P`` over the field's declared
domain, which is looked up when the choice is bound, so ``x`` is in scope
for the later fields of the event and for ``P``; an input may not rebind a
variable an earlier field uses.  Comments run from ``--`` to end of line.

``load_descriptor`` reads a pattern descriptor file with
``dpa.patterns.parse_descriptor``.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import partial

from .events import EVENTS, event
from .network import Component, InputError, Network
from .patterns import parse_descriptor
from .terms import (
    BinOp,
    Call,
    DefEnv,
    Definition,
    DslValueError,
    EventTemplate,
    ExtChoice,
    FunCall,
    Guard,
    Hide,
    IndexedChoice,
    IntChoice,
    Interrupt,
    Lit,
    Prefix,
    Rename,
    Seq,
    SKIP,
    STOP,
    DIV,
    Term,
    UnOp,
    Var,
    bind,
    eval_expr,
    expr_vars,
    set_values,
    template_formats,
)

SCHEMA_VERSION = 1


@dataclass
class Diagnostic:
    line: int
    col: int
    message: str

    def __str__(self):
        return f"{self.line}:{self.col}: {self.message}"


class ParseError(InputError):
    def __init__(self, diagnostics):
        self.diagnostics = list(diagnostics)
        super().__init__("\n".join(str(d) for d in self.diagnostics))


class ElaborationError(InputError):
    pass


class UnknownChannel(ElaborationError):
    pass


class RangeOverflow(ElaborationError):
    pass


class DuplicateComponentName(ElaborationError):
    pass


class NonGroundAlphabet(ElaborationError):
    pass


# ---------------------------------------------------------------------------
# tokenizer

KEYWORDS = frozenset(
    "version const channel fun atom instance alphabet behaviour STOP SKIP DIV and or not".split()
)
# longer operators first, so that each match is the longest
_OPERATORS = (
    r"[[ ]] {| |} |~| [] -> <- /\ .. == != <= >= "
    r"( ) { } = < > + - * / % , : @ ; . & ! ? \ |"
).split()
_SEPARATORS = r"(?:[ \t\r\n]+|--[^\n]*)*"  # blanks, newlines and comments
_SEPARATORS_RE = re.compile(_SEPARATORS)
# One token and the separators after it.  A token is a number, an operator,
# a name, or else one stray character.
_TOKEN_RE = re.compile(
    r"(\d+|" + "|".join(re.escape(op) for op in _OPERATORS if len(op) > 1)
    + "|[" + re.escape("".join(op for op in _OPERATORS if len(op) == 1))
    + r"]|[A-Za-z_][A-Za-z0-9_']*|.)" + _SEPARATORS
)
# An operator or keyword is its own tag; other tokens are tagged by their
# first character.
_TAGS = {text: text for text in (*_OPERATORS, *KEYWORDS)}
_KINDS = dict.fromkeys("0123456789", "num") | dict.fromkeys(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_", "ident")

# The parser spends a few stack frames per level of nesting (a parenthesis, a
# function call, an indexed choice or a unary operator), so nesting is
# bounded well inside Python's default recursion limit.
MAX_NESTING = 150


class _Positions:
    """Token index -> (line, col), for diagnostics: the first call scans
    the text again for the tokens' offsets."""

    def __init__(self, text, start):
        self.text, self.start, self.offsets = text, start, None

    def __call__(self, i):
        if self.offsets is None:
            self.offsets = [m.start() for m in _TOKEN_RE.finditer(self.text, self.start)]
            self.offsets.append(len(self.text))
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        line = bisect_left(self.newlines, self.offsets[i])
        return line + 1, self.offsets[i] - (self.newlines[line - 1] if line else -1)


def tokenize(text: str):
    """``(tags, texts, position)``: each token's tag and text, the last an
    ``eof`` of text ``""``, and (line, col) by token index.  Every stray
    character is reported at once."""
    start = _SEPARATORS_RE.match(text).end()
    texts = _TOKEN_RE.findall(text, start)
    tags = [  # \d matches the digits of every script
        _TAGS.get(t) or _KINDS.get(t[0]) or ("num" if t.isdecimal() else "stray")
        for t in texts
    ]
    texts.append("")
    tags.append("eof")
    position = _Positions(text, start)
    if "stray" in tags:
        raise ParseError(
            Diagnostic(*position(i), f"stray character {t!r}")
            for i, t in enumerate(texts) if tags[i] == "stray"
        )
    return tags, texts, position


# ---------------------------------------------------------------------------
# declaration AST


@dataclass
class ChannelDecl:
    name: str
    fields: list  # one Parser.id_set per field


@dataclass
class AtomDecl:
    name: str
    alphabet: list  # list of EventTemplate (extension semantics)
    behaviour: Term


@dataclass
class InstanceDecl:
    name: str
    atom: str
    ids: tuple | None  # a Parser.id_set, or None for a singleton


@dataclass
class NetworkDecl:
    version: int = SCHEMA_VERSION
    constants: list = field(default_factory=list)  # (name, expr)
    channels: list = field(default_factory=list)
    functions: list = field(default_factory=list)  # (name, params, expr)
    process_defs: list = field(default_factory=list)  # Definition
    atoms: list = field(default_factory=list)
    instances: list = field(default_factory=list)
    inputs: list = field(default_factory=list)  # (channel, field position) per ``?x``


# ---------------------------------------------------------------------------
# parser

# Binary expression operators by level, loosest first.  Prefix ``not`` sits
# between ``and`` and the comparisons, unary ``-`` binds tightest, and
# comparisons do not chain.
_OR, _AND, _NOT, _CMP, _ADD, _MUL, _UNARY = range(1, 8)
_EXPR_OPS = {
    "or": _OR, "and": _AND,
    "==": _CMP, "!=": _CMP, "<=": _CMP, ">=": _CMP, "<": _CMP, ">": _CMP,
    "+": _ADD, "-": _ADD, "*": _MUL, "/": _MUL, "%": _MUL,
}
# Process operators, loosest first: operator -> (level, node, n-ary).  The
# choices flatten into one node; interrupt and sequence fold left.
_PROCESS_OPS = {
    "|~|": (1, IntChoice, True),
    "[]": (2, ExtChoice, True),
    "/\\": (3, Interrupt, False),
    ";": (4, Seq, False),
}
# What a guard condition or an event may hold besides names, numbers,
# parentheses and the commas between a call's arguments.
_OPERAND_OPS = frozenset(_EXPR_OPS) | {"not", ".", "!", "?"}
_CONSTANT_PROCESSES = {"STOP": STOP, "SKIP": SKIP, "DIV": DIV}
_DECLARATION_KEYWORDS = ("version", "const", "channel", "fun", "atom", "instance")


class Parser:
    """Recursive descent over the tokens' tags: an operator's or keyword's
    text, or else the kind ``num``, ``ident`` or ``eof``."""

    def __init__(self, tags, texts, position):
        self.tags, self.texts, self.position = tags, texts, position
        self.pos = 0
        self.depth = 0  # levels of nesting open
        self.diagnostics = []
        self.inputs = []
        self.leaves = {}  # text -> its Lit or Var, immutable, so built once

    # -- machinery: nothing consumes the final ``eof`` --

    def at(self, tag) -> bool:
        return self.tags[self.pos] == tag

    def accept(self, tag) -> bool:
        if self.tags[self.pos] == tag:
            self.pos += 1
            return True
        return False

    def expect(self, tag) -> str:
        """The current token's text; its tag must be ``tag``."""
        pos = self.pos
        if self.tags[pos] != tag:
            self.fail(repr(tag))
        self.pos = pos + 1
        return self.texts[pos]

    def bail(self, message, pos=None):
        """A diagnostic at token ``pos``, by default the current one."""
        return _Bail(Diagnostic(*self.position(self.pos if pos is None else pos), message))

    def fail(self, what):
        raise self.bail(f"expected {what}, found {self.texts[self.pos]!r}")

    def deeper(self):
        """Open one more level of nesting at the current token, which the
        caller closes with ``self.depth -= 1``; level MAX_NESTING + 1 is
        refused.  It returns before the nested parse, so it costs no frame
        per level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise self.bail(f"nested deeper than {MAX_NESTING}")

    def comma_list(self, item) -> list:
        """``item (, item)*``, each parsed by calling ``item()``."""
        items = [item()]
        while self.accept(","):
            items.append(item())
        return items

    def enclosed(self, opening, item, closing) -> list:
        """``opening item (, item)* closing``."""
        self.expect(opening)
        items = self.comma_list(item)
        self.expect(closing)
        return items

    def ident(self) -> str:
        return self.expect("ident")

    # -- declarations --

    def parse_network(self) -> NetworkDecl:
        decl = NetworkDecl(inputs=self.inputs)
        while self.tags[self.pos] != "eof":
            try:
                self.declaration(decl)
            except _Bail as bail:
                self.diagnostics.append(bail.diagnostic)
                self.depth = 0
                self.recover()
        if self.diagnostics:
            raise ParseError(self.diagnostics)
        return decl

    def recover(self):
        """Skip to the next plausible declaration start: a declaration
        keyword, or a name that opens a line and is followed by ``(`` or
        ``=`` (further along a line, ``Q(0)`` is a call)."""
        tags, position, pos = self.tags, self.position, self.pos
        while tags[pos] != "eof" and tags[pos] not in _DECLARATION_KEYWORDS and not (
            tags[pos] == "ident" and tags[pos + 1] in ("(", "=")
            and (pos == 0 or position(pos - 1)[0] < position(pos)[0])
        ):
            pos += 1
        self.pos = pos

    def declaration(self, decl: NetworkDecl):
        start = self.pos
        tag = self.tags[start]
        if tag in _DECLARATION_KEYWORDS:
            self.pos += 1
        if tag == "version":
            v = int(self.expect("num"))
            if v != SCHEMA_VERSION:
                raise self.bail(f"unsupported version {v}", start)
            decl.version = v
        elif tag == "const":
            name = self.ident()
            self.expect("=")
            decl.constants.append((name, self.int_expr()))
        elif tag == "channel":
            name = self.ident()
            fields = []
            if self.accept(":"):
                fields.append(self.id_set())
                while self.accept("."):
                    fields.append(self.id_set())
            decl.channels.append(ChannelDecl(name, fields))
        elif tag == "fun":
            name = self.ident()
            params = self.enclosed("(", self.ident, ")")
            self.expect("=")
            decl.functions.append((name, params, self.int_expr()))
        elif tag == "atom":
            name = self.ident()
            self.expect("=")
            self.expect("alphabet")
            alphabet = self.alphabet_expr()
            self.expect("behaviour")
            behaviour = self.process()
            decl.atoms.append(AtomDecl(name, alphabet, behaviour))
        elif tag == "instance":
            name = self.instance_name()
            self.expect("=")
            atom = self.ident()
            ids = self.id_set() if self.at("{") else None
            decl.instances.append(InstanceDecl(name, atom, ids))
        elif tag == "ident":
            self.pos += 1
            params = self.enclosed("(", self.ident, ")") if self.at("(") else []
            self.expect("=")
            body = self.process()
            decl.process_defs.append(Definition(self.texts[start], tuple(params), body))
        else:
            self.fail("a declaration")

    def instance_name(self) -> str:
        parts = [self.ident()]
        while self.tags[self.pos] == "." and self.tags[self.pos + 1] in ("ident", "num"):
            parts.append(self.texts[self.pos + 1])
            self.pos += 2
        return ".".join(parts)

    def id_set(self) -> tuple:
        """A finite integer set ``{lo..hi}`` or ``{e1, e2, ...}``, as the
        ``("range", lo, hi)`` / ``("value", e)`` items of :func:`set_values`."""
        self.expect("{")
        values = self.comma_list(self.int_expr)
        if len(values) == 1 and self.accept(".."):
            items = (("range", values[0], self.int_expr()),)
        else:
            items = tuple(("value", v) for v in values)
        self.expect("}")
        return items

    def alphabet_expr(self):
        """A {| e1, e2 |} extension list or a { e1, e2 } exact event list."""
        if self.at("{|"):
            return [("extend", t) for t in self.enclosed("{|", self.event_template, "|}")]
        return [("exact", t) for t in self.enclosed("{", self.event_template, "}")]

    # -- integer / boolean expressions --

    def int_expr(self, level=_OR):
        """Precedence climbing over ``_EXPR_OPS``: an expression whose binary
        operators all bind at ``level`` or tighter.  Each folded operator
        opens one level, as every walker of the tree spends a frame on it."""
        tags = self.tags
        tag = tags[self.pos]
        tightest = _MUL
        if tag == "-":
            self.deeper()
            self.pos += 1
            left = UnOp("-", self.int_expr(_UNARY))
            self.depth -= 1
        elif tag == "not" and level <= _NOT:
            self.deeper()
            self.pos += 1
            left = UnOp("not", self.int_expr(_NOT))
            self.depth -= 1
            tightest = _AND
        else:
            left = self.atom_expr("an expression")
        folded = 0
        while True:
            op = tags[self.pos]
            p = _EXPR_OPS.get(op)
            if p is None or not level <= p <= tightest:
                self.depth -= folded
                return left
            self.deeper()
            folded += 1
            self.pos += 1
            left = BinOp(op, left, self.int_expr(p + 1))
            # the operand took all tighter operators but a second comparison
            tightest = _AND if p == _CMP else p

    def atom_expr(self, what):
        """A number, variable, ``f(args)`` or ``(expr)``; ``what`` names the
        expected thing in the diagnostic."""
        pos = self.pos
        tag = self.tags[pos]
        if tag == "num" or tag == "ident" and self.tags[pos + 1] != "(":
            self.pos = pos + 1
            text = self.texts[pos]
            leaf = self.leaves.get(text)
            if leaf is None:
                leaf = self.leaves[text] = Lit(int(text)) if tag == "num" else Var(text)
            return leaf
        if tag == "ident":
            self.pos = pos + 1
            self.deeper()
            args = tuple(self.enclosed("(", self.int_expr, ")"))
            self.depth -= 1
            return FunCall(self.texts[pos], args)
        if tag == "(":
            self.deeper()
            self.pos = pos + 1
            inner = self.int_expr()
            self.expect(")")
            self.depth -= 1
            return inner
        self.fail(what)

    # -- events --

    def event_template(self, binders=False):
        """Dotted event ``head.f1.f2``.  With ``binders``, a field may also
        be an output ``!e`` or an input ``?x``, and the result is the
        template plus one ``(x, field position)`` pair per input; each
        input's channel and position are also recorded on ``self.inputs``."""
        tags = self.tags
        head = self.ident()
        fields, inputs = [], []
        while True:
            tag = tags[self.pos]
            if tag == "." or binders and tag == "!":
                self.pos += 1
                fields.append(self.atom_expr("an event field" if tag == "." else "a value"))
            elif binders and tag == "?":
                at = self.pos = self.pos + 1
                var = self.ident()
                if any(var in expr_vars(f) for f in fields):
                    raise self.bail(
                        f"input variable '{var}' is already used in an earlier field", at
                    )
                inputs.append((var, len(fields)))
                self.inputs.append((head, len(fields)))
                fields.append(Var(var))
            else:
                template = EventTemplate(head, tuple(fields))
                return (template, tuple(inputs)) if binders else template

    # -- processes --

    def process(self, level=1) -> Term:
        """Precedence climbing over ``_PROCESS_OPS``: operands joined by
        operators that bind at ``level`` or tighter."""
        left = self.operand()
        tags = self.tags
        while True:
            op = tags[self.pos]
            entry = _PROCESS_OPS.get(op)
            if entry is None or entry[0] < level:
                return left
            p, node, nary = entry
            self.pos += 1
            if nary:
                items = [left, self.process(p + 1)]
                while self.accept(op):
                    items.append(self.process(p + 1))
                left = node(tuple(items))
            else:
                left = node(left, self.process(p + 1))

    def operand(self) -> Term:
        """Guards ``cond &`` and prefixes ``event ->`` in any number, then a
        postfix process.  The run is read in one loop and folded from the
        inside out, so its length costs no stack."""
        heads = []
        while True:
            stop = self.operand_stop()
            if stop == "&":
                cond = self.int_expr()
                self.expect("&")
                heads.append(partial(Guard, cond))
            elif stop == "->" and self.tags[self.pos] == "ident":
                ev, inputs = self.event_template(binders=True)
                self.expect("->")
                heads.append(partial(input_choice, ev, inputs))
            else:
                break
        term = self.p_postfix()
        for head in reversed(heads):
            term = head(term)
        return term

    def operand_stop(self):
        """What comes next in an operand: one scan over the tokens a guard
        condition or an event may hold, before anything is parsed.  The scan
        stops at the first other token, at a ``)`` or ``,`` it did not
        open, or where an operand follows another.  A ``&`` there makes a
        guard, a ``->`` after a leading name a prefix, and anything else, or
        a ``(`` left open (returned as None), a postfix process."""
        tags, i, depth, after_operand = self.tags, self.pos, 0, False
        while True:
            tag = tags[i]
            if tag == "ident" or tag == "num" or tag == "(":
                # a name's '(' opens its arguments, not a second operand
                if after_operand and not (tag == "(" and tags[i - 1] == "ident"):
                    break
                depth += tag == "("
                after_operand = tag != "("
            elif tag == ")" and depth:
                depth -= 1
                after_operand = True
            elif tag in _OPERAND_OPS or (tag == "," and depth):
                after_operand = False
            else:
                break
            i += 1
        return tags[i] if depth == 0 else None

    def p_postfix(self):
        term = self.p_primary()
        while True:
            if self.accept("\\"):
                term = Hide(term, tuple(self.enclosed("{", self.event_template, "}")))
            elif self.at("[["):
                term = Rename(term, tuple(self.enclosed("[[", self.rename_pair, "]]")))
            else:
                return term

    def rename_pair(self):
        a = self.event_template()
        self.expect("<-")
        b = self.event_template()
        return (a, b)

    def p_primary(self):
        pos = self.pos
        tag = self.tags[pos]
        if tag in _CONSTANT_PROCESSES:
            self.pos = pos + 1
            return _CONSTANT_PROCESSES[tag]
        if tag == "[]" or tag == "|~|":
            # indexed choice: [] x : {set} @ P
            self.deeper()
            self.pos = pos + 1
            var = self.ident()
            self.expect(":")
            items = self.id_set()
            self.expect("@")
            body = self.operand()
            self.depth -= 1
            return IndexedChoice(tag, var, items, body)
        if tag == "(":
            self.deeper()
            self.pos = pos + 1
            inner = self.process()
            self.expect(")")
            self.depth -= 1
            return inner
        if tag == "ident":
            self.pos = pos + 1
            args = self.enclosed("(", self.int_expr, ")") if self.at("(") else ()
            return Call(self.texts[pos], tuple(args))
        self.fail("a process")


class _Bail(Exception):
    def __init__(self, diagnostic):
        self.diagnostic = diagnostic
        super().__init__(str(diagnostic))


def input_choice(ev: EventTemplate, inputs, cont) -> Term:
    """``ev -> cont`` where the fields of ``inputs``, (variable, field
    position) pairs, are inputs ``?x``: one replicated choice per input over
    the field's declared domain, first field outermost."""
    term = Prefix(ev, cont)
    for var, pos in reversed(inputs):
        term = IndexedChoice("[]", var, (("field", ev.head, pos),), term)
    return term


def parse_network(text: str) -> NetworkDecl:
    """Full parse or a non-empty diagnostic list, never both."""
    return Parser(*tokenize(text)).parse_network()


# ---------------------------------------------------------------------------
# elaboration


def _field_values(items, env):
    if items[0][0] == "range":
        lo, hi = (eval_expr(e, {}, env) for e in items[0][1:])
        if hi - lo > 4096:
            raise RangeOverflow(f"field range {lo}..{hi} is too large")
    return set_values(items, {}, env)


class _Channels:
    """The declared channels, and so the declared event universe: membership
    is read off the field domains; only iteration interns every event."""

    def __init__(self):
        self.domains = {}  # name -> list of field value lists
        self.spelled = {}  # name -> per field, its values as event names spell them

    def declare(self, decl: ChannelDecl, env):
        self.domains[decl.name] = [_field_values(f, env) for f in decl.fields]
        self.spelled[decl.name] = [frozenset(map(str, vs)) for vs in self.domains[decl.name]]

    def __contains__(self, e):
        """Whether the event ``e``, an id or a name, is declared."""
        if type(e) is int:
            if e < 0:
                return False
            e = EVENTS.name(e)
        head, *fields = e.split(".")
        spelled = self.spelled.get(head)
        return (
            spelled is not None
            and len(fields) == len(spelled)
            and all(f in vs for f, vs in zip(fields, spelled))
        )

    def __iter__(self):
        for head, domains in self.domains.items():
            yield from self.completions(head, domains)

    @staticmethod
    def completions(name, domains):
        """The events extending the event name ``name`` with a value of each
        of ``domains`` in turn."""
        names = [name]
        for values in domains:
            names = [f"{n}.{v}" for n in names for v in values]
        return [event(e) for e in names]

    def alphabet_plan(self, alphabet):
        """``(fields, steps, checks, fault)`` for an atom's ``(mode,
        template)`` list: the templates' distinct fields by position; per
        template its format and the domains of the fields it leaves to
        complete; the distinct (position, spelled domain) pairs to check,
        None if a literal is outside its domain; and the error of the first
        template that names no declared event, to raise once its fields
        evaluate."""
        templates, fault = [], None
        for mode, template in alphabet:
            templates.append(template)
            head, given = template.head, len(template.fields)
            spelled = self.spelled.get(head)
            if spelled is None:
                fault = UnknownChannel(f"undeclared channel '{head}'")
            elif mode == "exact" and given != len(spelled):
                fault = NonGroundAlphabet(f"event {head} needs all fields in exact form")
            elif given > len(spelled):
                fault = RangeOverflow(f"channel '{head}' has {len(spelled)} fields, got {given}")
            if fault is not None:
                break
        fields, formats = template_formats(templates)
        steps, checks, inside = [], [], True
        for template, form in zip(templates[:len(templates) - (fault is not None)], formats):
            for f, domain in zip(template.fields, self.spelled[template.head]):
                if type(f) is Lit:
                    inside = inside and str(f.value) in domain
                else:
                    checks.append((fields[f], domain))
            steps.append((form, self.domains[template.head][len(template.fields):]))
        return fields, steps, list(dict.fromkeys(checks)) if inside else None, fault

    def check_input(self, head, position):
        """Reject an input ``?x`` at a field that channel ``head`` lacks."""
        domains = self.domains.get(head)
        if domains is None:
            raise UnknownChannel(f"undeclared channel '{head}'")
        if position >= len(domains):
            raise RangeOverflow(f"channel '{head}' has no field {position}")


def _evaluated(what, evaluate, *args):
    """``evaluate(*args)``; a mistake in an expression (an unbound name, a
    zero divisor) is an elaboration error naming the declaration."""
    try:
        return evaluate(*args)
    except DslValueError as exc:
        raise ElaborationError(f"{what}: {exc}") from exc


def elaborate(decl: NetworkDecl) -> Network:
    """Define the functions, so that constants may call them, evaluate
    constants and channels, check every input against its channel, and
    instantiate atoms into concrete components: each instance binds ``id``
    to its value in the atom's alphabet, planned once per atom, and in its
    behaviour.  An alphabet value outside its channel's field is reported
    after every instance, as the other errors come first."""
    env = DefEnv()
    for name, params, body in decl.functions:
        env.def_fun(name, params, body)
    for name, expr in decl.constants:
        env.constants[name] = _evaluated(f"constant '{name}'", eval_expr, expr, {}, env)
    channels = _Channels()
    for ch in decl.channels:
        _evaluated(f"channel '{ch.name}'", channels.declare, ch, env)
    for head, position in decl.inputs:
        channels.check_input(head, position)
    env.channels = channels.domains
    for d in decl.process_defs:
        env.define(d)
    atoms = {a.name: a for a in decl.atoms}
    plans = {}  # atom name -> its alphabet plan, made at its first instance
    components = []
    warnings = []
    seen = set()
    outside = False  # whether an alphabet names an event its channel lacks
    for inst in decl.instances:
        atom = atoms.get(inst.atom)
        if atom is None:
            raise ElaborationError(f"unknown atom '{inst.atom}'")
        if inst.ids is None:
            ids = [0]
            names = [inst.name]
        else:
            ids = _evaluated(f"instance '{inst.name}'", set_values, inst.ids, {}, env)
            names = [f"{inst.name}.{v}" for v in ids]
        if not ids:
            warnings.append(f"instance '{inst.name}' has an empty id set")
            continue
        if atom.name not in plans:
            plans[atom.name] = channels.alphabet_plan(atom.alphabet)
        fields, steps, checks, fault = plans[atom.name]
        for value, name in zip(ids, names):
            if name in seen:
                raise DuplicateComponentName(
                    f"component name '{name}' is declared twice (by instance '{inst.name}')"
                )
            seen.add(name)
            bindings = {"id": value}
            try:
                values = [eval_expr(f, bindings, env) for f in fields]
            except DslValueError as exc:
                raise NonGroundAlphabet(f"alphabet of '{name}': {exc}") from exc
            if fault is not None:
                raise fault
            spelled = [str(v) for v in values]
            alphabet = []
            if checks is not None and all(spelled[p] in domain for p, domain in checks):
                for form, rest in steps:
                    if rest:
                        alphabet += channels.completions(form.format(*spelled), rest)
                    else:
                        alphabet.append(event(form.format(*spelled)))
            else:
                outside = True  # reported once every instance has elaborated
            term = _evaluated(f"behaviour of '{name}'", bind, atom.behaviour, bindings, env)
            components.append(Component(name, frozenset(alphabet), term, env))
    if outside:
        raise InputError("component alphabets must lie inside sigma")
    net = Network(components, sigma=channels)
    net.warnings = tuple(warnings)
    return net


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return elaborate(parse_network(fh.read()))


def load_descriptor(path, net: Network):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_descriptor(fh.read(), net)
