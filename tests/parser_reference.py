"""The one-pass process parser's reference: the parser it replaced.

This parser tries each process operand as a guard condition first and
rewinds when no ``&`` follows, then scans ahead for ``->`` to tell a prefix
from a postfix process, and spends one method per precedence level.  It
builds the same AST classes as ``dpa.dsl.Parser`` from the same tokens, and
terms are hash-consed, so the two parsers' results compare with ``==``.
``tests/test_parser_reference.py`` diffs them.
"""

from __future__ import annotations

from dpa.dsl import (
    SCHEMA_VERSION,
    AtomDecl,
    ChannelDecl,
    Diagnostic,
    InstanceDecl,
    NetworkDecl,
    ParseError,
    Token,
    _Bail,
    input_choice,
    tokenize,
)
from dpa.terms import (
    BinOp,
    Call,
    Definition,
    EventTemplate,
    ExtChoice,
    FunCall,
    Guard,
    Hide,
    IndexedChoice,
    IntChoice,
    Interrupt,
    Lit,
    Rename,
    Seq,
    SKIP,
    STOP,
    DIV,
    Term,
    UnOp,
    Var,
    expr_vars,
)


class ReferenceParser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics = []
        self.inputs = []

    # -- machinery --

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, kind, text=None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def accept(self, kind, text=None):
        if self.at(kind, text):
            return self.next()
        return None

    def expect(self, kind, text=None) -> Token:
        tok = self.peek()
        if self.at(kind, text):
            return self.next()
        want = text or kind
        raise _Bail(Diagnostic(tok.line, tok.col, f"expected {want!r}, found {tok.text!r}"))

    def comma_list(self, item) -> list:
        """``item (, item)*``, each parsed by calling ``item()``."""
        items = [item()]
        while self.accept("op", ","):
            items.append(item())
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
                self.recover()
        if self.diagnostics:
            raise ParseError(self.diagnostics)
        return decl

    def recover(self):
        """Skip to the next plausible declaration start."""
        while not self.at("eof"):
            tok = self.peek()
            if tok.kind == "kw" and tok.text in (
                "version", "const", "channel", "fun", "atom", "instance",
            ):
                return
            if tok.kind == "ident" and self.peek(1).text in ("(", "="):
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
            self.expect("op", "(")
            params = self.comma_list(self.ident)
            self.expect("op", ")")
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
            params = []
            if self.accept("op", "("):
                params = self.comma_list(self.ident)
                self.expect("op", ")")
            self.expect("op", "=")
            body = self.process()
            decl.process_defs.append(Definition(name, tuple(params), body))
        else:
            raise _Bail(
                Diagnostic(tok.line, tok.col, f"expected a declaration, found {tok.text!r}")
            )

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
        if self.accept("op", "{|"):
            items = self.comma_list(self.event_template)
            self.expect("op", "|}")
            return [("extend", t) for t in items]
        self.expect("op", "{")
        items = self.comma_list(self.event_template)
        self.expect("op", "}")
        return [("exact", t) for t in items]

    # -- integer / boolean expressions --

    def int_expr(self):
        return self.or_expr()

    def or_expr(self):
        left = self.and_expr()
        while self.accept("kw", "or"):
            left = BinOp("or", left, self.and_expr())
        return left

    def and_expr(self):
        left = self.not_expr()
        while self.accept("kw", "and"):
            left = BinOp("and", left, self.not_expr())
        return left

    def not_expr(self):
        if self.accept("kw", "not"):
            return UnOp("not", self.not_expr())
        return self.cmp_expr()

    def cmp_expr(self):
        left = self.add_expr()
        for op in ("==", "!=", "<=", ">=", "<", ">"):
            if self.at("op", op):
                self.next()
                return BinOp(op, left, self.add_expr())
        return left

    def add_expr(self):
        left = self.mul_expr()
        while self.at("op", "+") or self.at("op", "-"):
            op = self.next().text
            left = BinOp(op, left, self.mul_expr())
        return left

    def mul_expr(self):
        left = self.unary_expr()
        while self.at("op", "*") or self.at("op", "/") or self.at("op", "%"):
            op = self.next().text
            left = BinOp(op, left, self.unary_expr())
        return left

    def unary_expr(self):
        if self.accept("op", "-"):
            return UnOp("-", self.unary_expr())
        return self.atom_expr("an expression")

    def atom_expr(self, what):
        """A number, variable, ``f(args)`` or ``(expr)``; ``what`` names the
        expected thing in the diagnostic."""
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            return Lit(int(tok.text))
        if tok.kind == "ident":
            name = self.next().text
            if self.accept("op", "("):
                args = self.comma_list(self.int_expr)
                self.expect("op", ")")
                return FunCall(name, tuple(args))
            return Var(name)
        if self.accept("op", "("):
            inner = self.int_expr()
            self.expect("op", ")")
            return inner
        raise _Bail(Diagnostic(tok.line, tok.col, f"expected {what}, found {tok.text!r}"))

    # -- events --

    def event_template(self, binders=False):
        """Dotted event ``head.f1.f2``.  With ``binders``, a field may also
        be an output ``!e`` or an input ``?x``, and the result is the
        template plus one ``(x, field position)`` pair per input."""
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

    # -- processes (precedence climbing, loosest first) --

    def process(self) -> Term:
        return self.p_intchoice()

    def p_intchoice(self):
        left = self.p_extchoice()
        items = [left]
        while self.accept("op", "|~|"):
            items.append(self.p_extchoice())
        return items[0] if len(items) == 1 else IntChoice(tuple(items))

    def p_extchoice(self):
        items = [self.p_interrupt()]
        while self.accept("op", "[]"):
            items.append(self.p_interrupt())
        return items[0] if len(items) == 1 else ExtChoice(tuple(items))

    def p_interrupt(self):
        left = self.p_seq()
        while self.accept("op", "/\\"):
            left = Interrupt(left, self.p_seq())
        return left

    def p_seq(self):
        left = self.p_guarded()
        while self.accept("op", ";"):
            left = Seq(left, self.p_guarded())
        return left

    def p_guarded(self):
        """Either `boolexpr & proc` or a prefix chain; resolved by trying the
        guard form first and backtracking."""
        save = self.pos
        try:
            cond = self.int_expr()
            if self.accept("op", "&"):
                return Guard(cond, self.p_guarded())
        except _Bail:
            pass
        self.pos = save
        return self.p_prefix()

    def p_prefix(self):
        """`event -> P` chains, channel transfer sugar included."""
        tok = self.peek()
        if tok.kind == "ident" and self._looks_like_prefix():
            ev, inputs = self.event_template(binders=True)
            self.expect("op", "->")
            cont = self.p_guarded()
            return input_choice(ev, inputs, cont)
        return self.p_postfix()

    def _looks_like_prefix(self) -> bool:
        """Scan forward over a dotted/transfer event to see if '->' follows."""
        toks = self.tokens

        def skip_parens(i):
            if toks[i].kind == "op" and toks[i].text == "(":
                depth = 1
                i += 1
                while depth and toks[i].kind != "eof":
                    if toks[i].text == "(":
                        depth += 1
                    elif toks[i].text == ")":
                        depth -= 1
                    i += 1
            return i

        def skip_field(i):
            """One field after '.', '!' or '?': value, name, call or group."""
            if toks[i].kind in ("num", "ident"):
                return skip_parens(i + 1)
            if toks[i].kind == "op" and toks[i].text == "(":
                return skip_parens(i)
            return None

        i = self.pos + 1
        while toks[i].kind == "op" and toks[i].text in (".", "!", "?"):
            nxt = skip_field(i + 1)
            if nxt is None:
                return False
            i = nxt
        return toks[i].kind == "op" and toks[i].text == "->"

    def p_postfix(self):
        term = self.p_primary()
        while True:
            if self.accept("op", "\\"):
                self.expect("op", "{")
                evs = self.comma_list(self.event_template)
                self.expect("op", "}")
                term = Hide(term, tuple(evs))
            elif self.accept("op", "[["):
                pairs = self.comma_list(self.rename_pair)
                self.expect("op", "]]")
                term = Rename(term, tuple(pairs))
            else:
                return term

    def rename_pair(self):
        a = self.event_template()
        self.expect("op", "<-")
        b = self.event_template()
        return (a, b)

    def p_primary(self):
        tok = self.peek()
        if self.accept("kw", "STOP"):
            return STOP
        if self.accept("kw", "SKIP"):
            return SKIP
        if self.accept("kw", "DIV"):
            return DIV
        if self.at("op", "[]") or self.at("op", "|~|"):
            # indexed choice: [] x : {set} @ P
            op = self.next().text
            var = self.ident()
            self.expect("op", ":")
            items = self.id_set()
            self.expect("op", "@")
            return IndexedChoice(op, var, items, self.p_guarded())
        if self.accept("op", "("):
            inner = self.process()
            self.expect("op", ")")
            return inner
        if tok.kind == "ident":
            name = self.next().text
            args = []
            if self.accept("op", "("):
                args = self.comma_list(self.int_expr)
                self.expect("op", ")")
            return Call(name, tuple(args))
        raise _Bail(Diagnostic(tok.line, tok.col, f"expected a process, found {tok.text!r}"))



def reference_parse_network(text: str) -> NetworkDecl:
    return ReferenceParser(tokenize(text)).parse_network()
