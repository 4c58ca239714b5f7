"""Memoised binding against the plain one.

`terms.bind` keeps the ground form of each indexed choice on its
`DefEnv`, per (choice, values of the variables it reads), and
`DefEnv.expand` shares that memo for definition bodies.  The reference
below is the binder without that memo: every indexed choice re-binds its
body once per value, and `expand` memoises per (name, arguments) only.
Every component of every model must compile to the same LTS under both:
the same initial state, transitions and state names, and the events must
be interned in the same order.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dpa
import dpa.terms
from dpa import models
from dpa.dsl import elaborate, parse_network
from dpa.terms import (
    STOP,
    Call,
    DefEnv,
    Div,
    DslValueError,
    EmptyChoiceList,
    ExtChoice,
    Guard,
    Hide,
    IndexedChoice,
    IntChoice,
    Interrupt,
    Omega,
    Prefix,
    Rename,
    Seq,
    Skip,
    Stop,
    eval_expr,
    hide_of,
    rename_of,
    set_values,
)

HERE = Path(__file__).resolve().parent


# ---------------------------------------------------------------------------
# the reference: binding with no memo but expand's (name, args) one


def reference_bind(term, bindings, env):
    t = type(term)
    if t in (Stop, Skip, Div, Omega):
        return term
    if t is Prefix:
        ev = term.event
        if not isinstance(ev, int):
            ev = ev.resolve(bindings, env)
        return Prefix(ev, reference_bind(term.cont, bindings, env))
    if t is ExtChoice:
        if not term.items:
            raise EmptyChoiceList("external choice over an empty list")
        return ExtChoice(tuple(reference_bind(i, bindings, env) for i in term.items))
    if t is IntChoice:
        if not term.items:
            raise EmptyChoiceList("internal choice over an empty list")
        return IntChoice(tuple(reference_bind(i, bindings, env) for i in term.items))
    if t is IndexedChoice:
        var, body = term.var, term.body
        branches = tuple(
            reference_bind(body, {**bindings, var: v}, env)
            for v in dict.fromkeys(set_values(term.items, bindings, env))
        )
        if not branches:
            raise EmptyChoiceList(f"indexed choice over an empty set (variable '{var}')")
        if len(branches) == 1:
            return branches[0]
        return ExtChoice(branches) if term.op == "[]" else IntChoice(branches)
    if t is Guard:
        if eval_expr(term.cond, bindings, env):
            return reference_bind(term.body, bindings, env)
        return STOP
    if t is Seq:
        return Seq(
            reference_bind(term.first, bindings, env),
            reference_bind(term.second, bindings, env),
        )
    if t is Hide:
        evs = term.events
        if not isinstance(evs, frozenset):
            evs = frozenset(e.resolve(bindings, env) for e in evs)
        return hide_of(reference_bind(term.body, bindings, env), evs)
    if t is Rename:
        pairs = term.pairs
        if pairs and not isinstance(pairs[0][0], int):
            pairs = tuple(
                sorted(
                    (a.resolve(bindings, env), b.resolve(bindings, env))
                    for a, b in pairs
                )
            )
        return rename_of(reference_bind(term.body, bindings, env), pairs)
    if t is Interrupt:
        return Interrupt(
            reference_bind(term.body, bindings, env),
            reference_bind(term.handler, bindings, env),
        )
    if t is Call:
        args = tuple(eval_expr(a, bindings, env) for a in term.args)
        env.lookup(term.name, len(args))
        return Call(term.name, args)
    raise DslValueError(f"cannot bind {term!r}")


def reference_expand(env, name, args):
    cache = env.__dict__.setdefault("_reference_expand", {})
    key = (name, args)
    cached = cache.get(key)
    if cached is None:
        d = env.lookup(name, len(args))
        cached = reference_bind(d.body, dict(zip(d.params, args)), env)
        cache[key] = cached
    return cached


def use_reference(setattr_):
    """Point every ``dpa`` module's ``bind`` and ``DefEnv.expand`` at the
    reference; ``setattr_`` is ``setattr`` or a monkeypatch's."""
    setattr_(DefEnv, "expand", reference_expand)
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dpa" and getattr(module, "bind", None) is dpa.terms.bind:
            setattr_(module, "bind", reference_bind)


# ---------------------------------------------------------------------------
# the corpus


def dsl_test_sources():
    """Every model source written out in tests/test_dsl.py, including the
    ones built as ``base % "..."``, that elaborates."""
    tree = ast.parse((HERE / "test_dsl.py").read_text())

    def fold(node, scope):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return scope.get(node.id)
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Mod)):
            left, right = fold(node.left, scope), fold(node.right, scope)
            if left is None or right is None:
                return None
            return left + right if isinstance(node.op, ast.Add) else left % right
        return None

    sources = []
    for fn in tree.body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        scope = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    value = fold(node.value, scope)
                    if value is not None:
                        scope[target.id] = value
        for node in ast.walk(fn):
            text = fold(node, scope)
            if text is not None and text.startswith("version 1") and text not in sources:
                try:
                    elaborate(parse_network(text))
                except Exception:
                    continue
                sources.append(text)
    return sources


def corpus():
    out = [(name, build()) for name, build in models.BUNDLED.items() if name.endswith(".net")]
    out += [(f"leadership({n})", models.leadership_source(n)) for n in range(2, 6)]
    for n in range(2, 6):
        out.append((f"philosophers({n})", models.philosophers_source(n)))
        out.append((f"philosophers({n}, symmetric)", models.philosophers_source(n, True)))
    out += [(f"ring_buffer({n})", models.ring_buffer_source(n)) for n in range(2, 7)]
    out += [(f"test_dsl[{k}]", src) for k, src in enumerate(dsl_test_sources())]
    return out


CORPUS = corpus()


def compiled(source):
    net = elaborate(parse_network(source))
    return [(c.name, c.compiled()) for c in net.components]


# ---------------------------------------------------------------------------
# the diff


def test_corpus_covers_the_inline_sources():
    assert len(dsl_test_sources()) >= 10
    assert len(CORPUS) >= 35


@pytest.mark.parametrize("source", [s for _, s in CORPUS], ids=[n for n, _ in CORPUS])
def test_compiled_components_match_the_reference(source, monkeypatch):
    got = compiled(source)
    with monkeypatch.context() as m:
        use_reference(m.setattr)
        want = compiled(source)
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, g), (_, w) in zip(got, want):
        assert g.initial == w.initial, name
        assert g.trans == w.trans, name
        names = [g.state_name(s) for s in range(g.n_states)]
        assert names == [w.state_name(s) for s in range(w.n_states)], name


_INTERN_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import test_bind_reference as ref
from dpa.events import EVENTS
if sys.argv[2] == "reference":
    ref.use_reference(setattr)
for _name, source in ref.CORPUS:
    ref.compiled(source)
print(json.dumps([EVENTS.name(e) for e in range(len(EVENTS._names))]))
"""


def test_events_are_interned_in_the_same_order():
    package_root = str(Path(dpa.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    runs = []
    for mode in ("memo", "reference"):
        proc = subprocess.run(
            [sys.executable, "-c", _INTERN_SCRIPT, str(HERE), mode],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=300, check=True,
        )
        runs.append(json.loads(proc.stdout))
    assert len(runs[0]) > 100
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# work


def count_binds(monkeypatch, source):
    """Calls into ``bind`` while elaborating and compiling ``source``; the
    recursive calls go through ``dpa.terms.bind`` too."""
    calls = [0]
    original = dpa.terms.bind

    def counting(term, bindings, env):
        calls[0] += 1
        return original(term, bindings, env)

    with monkeypatch.context() as m:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "dpa" and getattr(module, "bind", None) is original:
                m.setattr(module, "bind", counting)
        for _name, lts in compiled(source):
            assert lts.n_states > 0
    return calls[0]


def test_binding_work_grows_slowly_with_nesting(monkeypatch):
    # leadership's nested inputs rebind the variable of the enclosing
    # input; without the memo the calls grow exponentially (18,965 at
    # n = 5 and 256,170 at n = 6)
    five, six = (count_binds(monkeypatch, models.leadership_source(n)) for n in (5, 6))
    assert six < 5_000
    assert six < 2 * five
