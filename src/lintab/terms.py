"""First-order terms, destructive unification, copying and printing.

Term representation:

* integers are plain Python ints
* atoms are arity-0 ``Functor`` objects used directly as terms
* compound terms are ``Struct(functor, args)``
* logic variables are mutable ``Var`` cells bound by assignment to ``ref``

Functors are interned, so equality of name/arity is object identity.  That
keeps unification and trie descent on an ``is`` comparison instead of tuple
hashing in the hot path.
"""

from __future__ import annotations

from typing import Optional

_FUNCTOR_TABLE: dict[tuple[str, int], "Functor"] = {}


class Functor:
    """Interned (name, arity) pair.  Construct via :func:`functor`."""

    __slots__ = ("name", "arity")

    def __init__(self, name: str, arity: int):
        self.name = name
        self.arity = arity

    def __repr__(self) -> str:
        return f"{self.name}/{self.arity}"


def functor(name: str, arity: int) -> Functor:
    key = (name, arity)
    f = _FUNCTOR_TABLE.get(key)
    if f is None:
        f = Functor(name, arity)
        _FUNCTOR_TABLE[key] = f
    return f


class Var:
    __slots__ = ("ref", "name")

    def __init__(self, name: Optional[str] = None):
        self.ref = None
        self.name = name

    def __repr__(self) -> str:
        if self.ref is not None:
            return f"Var({term_to_str(self)})"
        return f"Var({self.name or '_'}@{id(self):#x})"


class Struct:
    __slots__ = ("functor", "args")

    def __init__(self, functor: Functor, args: tuple):
        self.functor = functor
        self.args = args

    def __repr__(self) -> str:
        return term_to_str(self)


class Trail(list):
    """Bindings made since a mark, undone in LIFO order."""

    def undo_to(self, mark: int) -> None:
        while len(self) > mark:
            self.pop().ref = None


def deref(t):
    while type(t) is Var:
        r = t.ref
        if r is None:
            return t
        t = r
    return t


def _occurs(v: Var, t) -> bool:
    """Whether the unbound variable ``v`` occurs in ``t``."""
    stack = [t]
    while stack:
        x = deref(stack.pop())
        if x is v:
            return True
        if type(x) is Struct:
            stack.extend(x.args)
    return False


def unify(a, b, trail: Trail) -> bool:
    """Destructively unify, recording bindings on ``trail``.

    Sound: a variable is never bound to a compound term that contains it,
    so unification builds no cyclic term.  The occurs check runs only on
    variable-to-compound bindings, the only ones that can close a cycle.
    """
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        x = deref(x)
        y = deref(y)
        if x is y:
            continue
        tx = type(x)
        if tx is Var:
            if type(y) is Struct and _occurs(x, y):
                return False
            x.ref = y
            trail.append(x)
            continue
        if type(y) is Var:
            if tx is Struct and _occurs(y, x):
                return False
            y.ref = x
            trail.append(y)
            continue
        if tx is int:
            if type(y) is int and x == y:
                continue
            return False
        if tx is Functor:
            # interned: distinct objects are distinct atoms
            return False
        if type(y) is not Struct or x.functor is not y.functor:
            return False
        stack.extend(zip(x.args, y.args))
    return True


def fresh_copy(t, mapping: Optional[dict] = None):
    """Copy a term replacing each unbound variable consistently with a
    fresh one.  Bound structure is followed, so the copy is independent
    of later bindings to the original."""
    if mapping is None:
        mapping = {}
    frames = []  # (functor, source args, copied args) per compound in progress
    while True:
        t = deref(t)
        tx = type(t)
        if tx is Struct:
            args = t.args
            frames.append((t.functor, args, []))
            t = args[0]
            continue
        if tx is Var:
            v = mapping.get(t)
            if v is None:
                v = mapping[t] = Var(t.name)
            t = v
        # t is a finished copy: hand it to its parent, closing every
        # compound it completes
        while frames:
            f, src, dst = frames[-1]
            dst.append(t)
            if len(dst) < len(src):
                t = src[len(dst)]
                break
            frames.pop()
            t = Struct(f, tuple(dst))
        else:
            return t


_BARE_ATOM_OK = frozenset("abcdefghijklmnopqrstuvwxyz")
_BARE_ATOM_REST = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"
)


def _atom_str(name: str) -> str:
    if name and name[0] in _BARE_ATOM_OK and all(c in _BARE_ATOM_REST for c in name):
        return name
    return "'" + name.replace("\\", "\\\\").replace("'", "\\'") + "'"


def term_to_str(t, var_names: Optional[dict] = None) -> str:
    """Render a term in source syntax.  ``var_names`` maps Var -> display
    name; unmapped unbound variables get ``_G0``, ``_G1``, ... per call."""
    if var_names is None:
        var_names = {}
    fresh = sum(1 for nm in var_names.values() if nm.startswith("_G"))
    parts: list[str] = []
    # worklist of terms and literal glue strings
    stack: list = [t]
    while stack:
        x = stack.pop()
        if type(x) is str:
            parts.append(x)
            continue
        x = deref(x)
        tx = type(x)
        if tx is Var:
            nm = var_names.get(x)
            if nm is None:
                if x.name:
                    nm = x.name
                else:
                    nm = f"_G{fresh}"
                    fresh += 1
                var_names[x] = nm
            parts.append(nm)
        elif tx is int:
            parts.append(str(x))
        elif tx is Functor:
            parts.append(_atom_str(x.name))
        else:
            parts.append(_atom_str(x.functor.name))
            parts.append("(")
            stack.append(")")
            args = x.args
            for i in range(len(args) - 1, -1, -1):
                stack.append(args[i])
                if i:
                    stack.append(",")
    return "".join(parts)
