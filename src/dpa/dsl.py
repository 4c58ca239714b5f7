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

Pattern descriptors are JSON documents whose ``pattern`` field picks a
descriptor class of ``dpa.patterns``; ``parse_descriptor`` checks the
document's envelope here and the class reads and validates its body.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import partial

from .events import EVENTS, event
from .network import Component, InputError, Network
from .patterns import DESCRIPTORS, DescriptorError, _typed
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

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>--[^\n]*)
  | (?P<nl>\n)
  | (?P<num>\d+)
  | (?P<op>\[\[|\]\]|\{\||\|\}|\|~\||\[\]|->|<-|/\\|\.\.|==|!=|<=|>=|[()\{\}=<>+\-*/%,:@;.&!?\\|])
  | (?P<ident>[A-Za-z_][A-Za-z0-9_']*)
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "version",
    "const",
    "channel",
    "fun",
    "atom",
    "instance",
    "alphabet",
    "behaviour",
    "STOP",
    "SKIP",
    "DIV",
    "and",
    "or",
    "not",
}


# The parser spends a few stack frames per level of nesting (a parenthesis, a
# function call, an indexed choice or a unary operator), so nesting is
# bounded well inside Python's default recursion limit.
MAX_NESTING = 150


@dataclass
class Token:
    kind: str  # 'num' | 'ident' | 'op' | 'kw' | 'eof'
    text: str
    line: int
    col: int


def tokenize(text: str):
    tokens = []
    line, col = 1, 1
    pos = 0
    diagnostics = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            diagnostics.append(Diagnostic(line, col, f"stray character {text[pos]!r}"))
            pos += 1
            col += 1
            continue
        kind = m.lastgroup
        tok = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(tok)
        else:
            k = kind
            if kind == "ident" and tok in KEYWORDS:
                k = "kw"
            tokens.append(Token(k, tok, line, col))
            col += len(tok)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    if diagnostics:
        raise ParseError(diagnostics)
    return tokens


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
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0  # levels of nesting open
        self.diagnostics = []
        self.inputs = []

    # -- machinery --

    def peek(self, ahead=0) -> Token:
        """Unchecked: callers stay between the first token and ``eof``."""
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind, text=None) -> bool:
        tok = self.tokens[self.pos]
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind, text=None):
        return self.next() if self.at(kind, text) else None

    def expect(self, kind, text=None) -> Token:
        if self.at(kind, text):
            return self.next()
        self.fail(repr(text or kind))

    def fail(self, what):
        tok = self.tokens[self.pos]
        raise _Bail(Diagnostic(tok.line, tok.col, f"expected {what}, found {tok.text!r}"))

    def deeper(self):
        """Open one more level of nesting at the current token, which the
        caller closes with ``self.depth -= 1``; level MAX_NESTING + 1 is
        refused.  It returns before the nested parse, so it costs no frame
        per level."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            tok = self.tokens[self.pos]
            raise _Bail(Diagnostic(tok.line, tok.col, f"nested deeper than {MAX_NESTING}"))

    def comma_list(self, item) -> list:
        """``item (, item)*``, each parsed by calling ``item()``."""
        items = [item()]
        while self.accept("op", ","):
            items.append(item())
        return items

    def enclosed(self, opening, item, closing) -> list:
        """``opening item (, item)* closing``."""
        self.expect("op", opening)
        items = self.comma_list(item)
        self.expect("op", closing)
        return items

    def ident(self) -> str:
        return self.expect("ident").text

    # -- declarations --

    def parse_network(self) -> NetworkDecl:
        decl = NetworkDecl(inputs=self.inputs)
        while not self.at("eof"):
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
        while not self.at("eof"):
            tok = self.peek()
            if tok.kind == "kw" and tok.text in _DECLARATION_KEYWORDS:
                return
            starts_line = self.pos == 0 or self.peek(-1).line < tok.line
            if tok.kind == "ident" and starts_line and self.peek(1).text in ("(", "="):
                return
            self.next()

    def declaration(self, decl: NetworkDecl):
        tok = self.peek()
        if self.accept("kw", "version"):
            v = int(self.expect("num").text)
            if v != SCHEMA_VERSION:
                raise _Bail(Diagnostic(tok.line, tok.col, f"unsupported version {v}"))
            decl.version = v
        elif self.accept("kw", "const"):
            name = self.ident()
            self.expect("op", "=")
            decl.constants.append((name, self.int_expr()))
        elif self.accept("kw", "channel"):
            name = self.ident()
            fields = []
            if self.accept("op", ":"):
                fields.append(self.id_set())
                while self.accept("op", "."):
                    fields.append(self.id_set())
            decl.channels.append(ChannelDecl(name, fields))
        elif self.accept("kw", "fun"):
            name = self.ident()
            params = self.enclosed("(", self.ident, ")")
            self.expect("op", "=")
            decl.functions.append((name, params, self.int_expr()))
        elif self.accept("kw", "atom"):
            name = self.ident()
            self.expect("op", "=")
            self.expect("kw", "alphabet")
            alphabet = self.alphabet_expr()
            self.expect("kw", "behaviour")
            behaviour = self.process()
            decl.atoms.append(AtomDecl(name, alphabet, behaviour))
        elif self.accept("kw", "instance"):
            name = self.instance_name()
            self.expect("op", "=")
            atom = self.ident()
            ids = self.id_set() if self.at("op", "{") else None
            decl.instances.append(InstanceDecl(name, atom, ids))
        elif tok.kind == "ident":
            name = self.next().text
            params = self.enclosed("(", self.ident, ")") if self.at("op", "(") else []
            self.expect("op", "=")
            body = self.process()
            decl.process_defs.append(Definition(name, tuple(params), body))
        else:
            self.fail("a declaration")

    def instance_name(self) -> str:
        parts = [self.ident()]
        while self.at("op", ".") and self.peek(1).kind in ("ident", "num"):
            self.next()
            parts.append(self.next().text)
        return ".".join(parts)

    def id_set(self) -> tuple:
        """A finite integer set ``{lo..hi}`` or ``{e1, e2, ...}``, as the
        ``("range", lo, hi)`` / ``("value", e)`` items of :func:`set_values`."""
        self.expect("op", "{")
        values = self.comma_list(self.int_expr)
        if len(values) == 1 and self.accept("op", ".."):
            items = (("range", values[0], self.int_expr()),)
        else:
            items = tuple(("value", v) for v in values)
        self.expect("op", "}")
        return items

    def alphabet_expr(self):
        """A {| e1, e2 |} extension list or a { e1, e2 } exact event list."""
        if self.at("op", "{|"):
            return [("extend", t) for t in self.enclosed("{|", self.event_template, "|}")]
        return [("exact", t) for t in self.enclosed("{", self.event_template, "}")]

    # -- integer / boolean expressions --

    def int_expr(self, level=_OR):
        """Precedence climbing over ``_EXPR_OPS``: an expression whose binary
        operators all bind at ``level`` or tighter."""
        text = self.peek().text
        tightest = _MUL
        if text == "-":
            self.deeper()
            self.pos += 1
            left = UnOp("-", self.int_expr(_UNARY))
            self.depth -= 1
        elif text == "not" and level <= _NOT:
            self.deeper()
            self.pos += 1
            left = UnOp("not", self.int_expr(_NOT))
            self.depth -= 1
            tightest = _AND
        else:
            left = self.atom_expr("an expression")
        while True:
            op = self.peek().text
            p = _EXPR_OPS.get(op)
            if p is None or not level <= p <= tightest:
                return left
            self.pos += 1
            left = BinOp(op, left, self.int_expr(p + 1))
            # the operand took all tighter operators but a second comparison
            tightest = _AND if p == _CMP else p

    def atom_expr(self, what):
        """A number, variable, ``f(args)`` or ``(expr)``; ``what`` names the
        expected thing in the diagnostic."""
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Lit(int(tok.text))
        if tok.kind == "ident":
            name = self.next().text
            if not self.at("op", "("):
                return Var(name)
            self.deeper()
            args = tuple(self.enclosed("(", self.int_expr, ")"))
            self.depth -= 1
            return FunCall(name, args)
        if self.at("op", "("):
            self.deeper()
            self.pos += 1
            inner = self.int_expr()
            self.expect("op", ")")
            self.depth -= 1
            return inner
        self.fail(what)

    # -- events --

    def event_template(self, binders=False):
        """Dotted event ``head.f1.f2``.  With ``binders``, a field may also
        be an output ``!e`` or an input ``?x``, and the result is the
        template plus one ``(x, field position)`` pair per input; each
        input's channel and position are also recorded on ``self.inputs``."""
        head = self.ident()
        fields, inputs = [], []
        while True:
            if self.accept("op", "."):
                fields.append(self.atom_expr("an event field"))
            elif binders and self.accept("op", "!"):
                fields.append(self.atom_expr("a value"))
            elif binders and self.accept("op", "?"):
                tok = self.peek()
                var = self.ident()
                if any(var in expr_vars(f) for f in fields):
                    raise _Bail(Diagnostic(
                        tok.line, tok.col,
                        f"input variable '{var}' is already used in an earlier field",
                    ))
                inputs.append((var, len(fields)))
                self.inputs.append((head, len(fields)))
                fields.append(Var(var))
            else:
                break
        template = EventTemplate(head, tuple(fields))
        return (template, tuple(inputs)) if binders else template

    # -- processes --

    def process(self, level=1) -> Term:
        """Precedence climbing over ``_PROCESS_OPS``: operands joined by
        operators that bind at ``level`` or tighter."""
        left = self.operand()
        while True:
            entry = _PROCESS_OPS.get(self.peek().text)
            if entry is None or entry[0] < level:
                return left
            p, node, nary = entry
            op = self.next().text
            if nary:
                items = [left, self.process(p + 1)]
                while self.accept("op", op):
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
                self.expect("op", "&")
                heads.append(partial(Guard, cond))
            elif stop == "->" and self.peek().kind == "ident":
                ev, inputs = self.event_template(binders=True)
                self.expect("op", "->")
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
        toks, i, depth, after_operand = self.tokens, self.pos, 0, False
        while True:
            tok = toks[i]
            if tok.kind in ("num", "ident") or tok.text == "(":
                # a name's '(' opens its arguments, not a second operand
                if after_operand and not (tok.text == "(" and toks[i - 1].kind == "ident"):
                    break
                depth += tok.text == "("
                after_operand = tok.text != "("
            elif tok.text == ")" and depth:
                depth -= 1
                after_operand = True
            elif tok.text in _OPERAND_OPS or (tok.text == "," and depth):
                after_operand = False
            else:
                break
            i += 1
        return toks[i].text if depth == 0 else None

    def p_postfix(self):
        term = self.p_primary()
        while True:
            if self.accept("op", "\\"):
                term = Hide(term, tuple(self.enclosed("{", self.event_template, "}")))
            elif self.at("op", "[["):
                term = Rename(term, tuple(self.enclosed("[[", self.rename_pair, "]]")))
            else:
                return term

    def rename_pair(self):
        a = self.event_template()
        self.expect("op", "<-")
        b = self.event_template()
        return (a, b)

    def p_primary(self):
        tok = self.peek()
        if tok.kind == "kw" and tok.text in _CONSTANT_PROCESSES:
            self.next()
            return _CONSTANT_PROCESSES[tok.text]
        if self.at("op", "[]") or self.at("op", "|~|"):
            # indexed choice: [] x : {set} @ P
            self.deeper()
            op = self.next().text
            var = self.ident()
            self.expect("op", ":")
            items = self.id_set()
            self.expect("op", "@")
            body = self.operand()
            self.depth -= 1
            return IndexedChoice(op, var, items, body)
        if self.at("op", "("):
            self.deeper()
            self.pos += 1
            inner = self.process()
            self.expect("op", ")")
            self.depth -= 1
            return inner
        if tok.kind == "ident":
            name = self.next().text
            args = self.enclosed("(", self.int_expr, ")") if self.at("op", "(") else ()
            return Call(name, tuple(args))
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
    return Parser(tokenize(text)).parse_network()


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
        self.spelled[decl.name] = [{str(v) for v in vs} for vs in self.domains[decl.name]]

    def __contains__(self, eid):
        if eid < 0:
            return False
        head, *fields = EVENTS.name(eid).split(".")
        spelled = self.spelled.get(head)
        return (
            spelled is not None
            and len(fields) == len(spelled)
            and all(f in vs for f, vs in zip(fields, spelled))
        )

    def __iter__(self):
        for name in self.domains:
            yield from self.completions(name, [])

    def completions(self, head, given_fields):
        """All events extending head with the given leading field values."""
        if head not in self.domains:
            raise UnknownChannel(f"undeclared channel '{head}'")
        domains = self.domains[head]
        if len(given_fields) > len(domains):
            raise RangeOverflow(
                f"channel '{head}' has {len(domains)} fields, got {len(given_fields)}"
            )
        prefixes = [".".join([head] + [str(v) for v in given_fields])]
        for values in domains[len(given_fields):]:
            prefixes = [f"{p}.{v}" for p in prefixes for v in values]
        return [event(e) for e in prefixes]

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
    to its value in the atom's alphabet and behaviour."""
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
    components = []
    warnings = []
    seen = set()
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
        for value, name in zip(ids, names):
            if name in seen:
                raise DuplicateComponentName(name)
            seen.add(name)
            bindings = {"id": value}
            alphabet = set()
            for mode, template in atom.alphabet:
                try:
                    fields = [eval_expr(f, bindings, env) for f in template.fields]
                except Exception as exc:
                    raise NonGroundAlphabet(
                        f"alphabet of '{name}': {exc}"
                    ) from exc
                # an undeclared channel is reported by completions
                declared = channels.domains.get(template.head, fields)
                if mode == "exact" and len(fields) != len(declared):
                    raise NonGroundAlphabet(
                        f"event {template.head} needs all fields in exact form"
                    )
                alphabet.update(channels.completions(template.head, fields))
            term = _evaluated(f"behaviour of '{name}'", bind, atom.behaviour, bindings, env)
            components.append(Component(name, frozenset(alphabet), term, env))
    net = Network(components, sigma=channels)
    net.warnings = tuple(warnings)
    return net


def load_network(path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return elaborate(parse_network(fh.read()))


# ---------------------------------------------------------------------------
# descriptor files


def parse_descriptor(doc, net: Network):
    """Resolve a JSON descriptor document against an elaborated network.
    Text that is not JSON, not an object, of another schema or pattern, or
    naming no component is a descriptor error; the pattern's class reads
    the rest."""
    if isinstance(doc, str):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise DescriptorError(str(exc)) from exc
    _typed(doc, dict, "the descriptor")
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise DescriptorError(f"unsupported descriptor schema {schema}")
    pattern = doc.get("pattern")
    cls = DESCRIPTORS.get(pattern) if isinstance(pattern, str) else None
    if cls is None:
        raise DescriptorError(f"unknown pattern {pattern!r}")
    desc = cls.from_json(doc, net)
    if not desc.components():
        raise DescriptorError("the descriptor names no component")
    return desc


def load_descriptor(path, net: Network):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_descriptor(fh.read(), net)


def descriptor_echo(desc) -> str:
    """Readable role listing for review, in the style of a worked example."""
    return "\n".join([f"pattern: {desc.pattern}"] + desc.echo_lines())
