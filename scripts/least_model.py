"""A naive bottom-up least-model oracle for function-free programs.

It shares no code with the engine: it reads the parsed program, derives
every ground atom by a fix point over a finite universe of constants (a
head variable the body does not bind ranges over all of them), and
answers a one-goal query with the model's instances of the goal.  A
ground atom is a ``(name, args)`` pair whose arguments are ints or
interned 0-ary functors.
"""

from itertools import product

from lintab.terms import Struct, Var, deref


def _args(t) -> tuple:
    return tuple(deref(a) for a in t.args) if type(t) is Struct else ()


def _name(t) -> str:
    return t.functor.name if type(t) is Struct else t.name


def constants(program, query) -> set:
    """The Herbrand universe: every constant argument in ``program`` and ``query``."""
    goals = list(query)
    for clauses in program.predicates.values():
        for c in clauses:
            goals.append(c.head)
            goals.extend(c.body)
    return {a for g in goals for a in _args(g) if type(a) is not Var}


def _match(args, vals, env):
    """``env`` extended so that ``args`` equal the ground ``vals``, or None."""
    env = dict(env)
    for a, v in zip(args, vals):
        if type(a) is Var:
            if env.setdefault(a, v) != v:
                return None
        elif a != v:
            return None
    return env


def instances(t, universe, env=None) -> set:
    """Every ground atom ``t`` denotes under ``env``, its other variables
    ranging over ``universe``."""
    env = env or {}
    args = _args(t)
    free = list(dict.fromkeys(a for a in args if type(a) is Var and a not in env))
    out = set()
    for vals in product(universe, repeat=len(free)):
        e = {**env, **dict(zip(free, vals))}
        out.add((_name(t), tuple(e[a] if type(a) is Var else a for a in args)))
    return out


def least_model(program, universe) -> set:
    rules = [(c.head, c.body) for clauses in program.predicates.values() for c in clauses]
    model: set = set()
    while True:
        derived = set(model)
        for head, body in rules:
            envs = [{}]
            for g in body:
                name, args = _name(g), _args(g)
                envs = [
                    e2 for e in envs for n, vals in model
                    if n == name and len(vals) == len(args)
                    for e2 in (_match(args, vals, e),) if e2 is not None
                ]
            for env in envs:
                derived |= instances(head, universe, env)
        if derived == model:
            return model
        model = derived


def query_answers(program, query) -> set:
    """The ground atoms the least model holds for the one-goal ``query``."""
    (goal,) = query
    name, args = _name(goal), _args(goal)
    model = least_model(program, constants(program, query))
    return {
        (n, vals) for n, vals in model
        if n == name and len(vals) == len(args) and _match(args, vals, {}) is not None
    }
