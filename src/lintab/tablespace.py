"""Table space: subgoal trie, per-subgoal solution tries, subgoal frames.

Both tries share one node type and are keyed by the term's preorder token
stream, one token per level: an int for an integer leaf, the interned
``Functor`` of an atom or of a compound's head (whose arity gives the
subtree's width), and ``('v', k)`` for the k-th distinct unbound variable.
Two terms are variants exactly when their streams are equal.  A node is
terminal when it carries an ordinal: the frame id (index in ``frames``) in
the subgoal trie, the insertion ordinal (index in ``solution_order``) in a
solution trie; solution terminals are always leaves.  ``descend``
checks/inserts in one pass, stepping into or creating each token's child
as it derefs the term.  Nodes keep a parent pointer instead of the term,
which matters at millions of stored solutions: ``solution_term`` rebuilds
a term from its terminal.
A flat pair ``f(a, b)``, ``a`` and ``b`` atomic, is inserted by two ``child``
lookups (a table batch's pairs, all under one ``a``, by ``insert_pairs``)
and rebuilt from its last three nodes, with no stream walk; every other
answer walks its stream.
When a table space dies it unlinks its tries (``TableSpace.__del__``), so
they are freed by reference counting rather than by the cyclic collector.
"""

from __future__ import annotations

from typing import Optional

from .terms import Functor, Struct, Var, deref, term_to_str

READY = "ready"
EVALUATING = "evaluating"
COMPLETE = "complete"
LOOP_READY = "loop_ready"
LOOP_EVALUATING = "loop_evaluating"

_ALLOWED_TRANSITIONS = frozenset(
    [
        (READY, EVALUATING),
        (EVALUATING, COMPLETE),
        (EVALUATING, LOOP_READY),
        (LOOP_READY, LOOP_EVALUATING),
        (LOOP_EVALUATING, COMPLETE),
        (LOOP_EVALUATING, LOOP_READY),
    ]
)


class TablingInvariantError(RuntimeError):
    """A table-space or engine invariant was violated; always a bug."""


class TrieNode:
    __slots__ = ("token", "children", "parent", "ordinal")

    def __init__(self, token, parent):
        self.token = token
        self.children: Optional[dict] = None
        self.parent = parent
        self.ordinal: Optional[int] = None


def child(node: TrieNode, tok) -> TrieNode:
    """``node``'s child for ``tok``, created if it is missing."""
    ch = node.children
    if ch is None:
        ch = node.children = {}
    nxt = ch.get(tok)
    if nxt is None:
        nxt = ch[tok] = TrieNode(tok, node)
    return nxt


def descend(node: TrieNode, t) -> TrieNode:
    """Walk ``t``'s preorder token stream down from ``node``, creating the
    children it lacks (each step is ``child``, inlined); return the last
    token's node.  Unbound variables are numbered by first appearance:
    the k-th distinct one is the token ``('v', k)``."""
    varmap = None
    stack = [t]
    while stack:
        x = stack.pop()
        while type(x) is Var and x.ref is not None:
            x = x.ref
        tx = type(x)
        if tx is Struct:
            tok = x.functor
            stack += x.args[::-1]
        elif tx is Var:
            if varmap is None:
                varmap = {}
            tok = varmap.get(x)
            if tok is None:
                tok = varmap[x] = ("v", len(varmap))
        else:
            tok = x
        ch = node.children
        if ch is None:
            ch = node.children = {}
            nxt = None
        else:
            nxt = ch.get(tok)
        if nxt is None:
            nxt = ch[tok] = TrieNode(tok, node)
        node = nxt
    return node


def solution_term(node: TrieNode):
    """Rebuild the term a terminal of either trie stands for, one fresh Var
    per variable token.  Read terminal-to-root, the preorder stream is
    postfix: a functor of arity n pops its n arguments, the first on top."""
    p = node.parent
    top = p and p.parent
    if top and top.parent and top.parent.parent is None:  # three levels down
        f, a, b = top.token, p.token, node.token
        if type(f) is Functor and f.arity == 2 and type(a) is not tuple and type(b) is not tuple:
            return Struct(f, (a, b))  # f/2 over two one-token arguments: a flat pair
    stack: list = []
    fresh: dict = {}
    while node.parent is not None:
        tok = node.token
        tt = type(tok)
        if tt is Functor and tok.arity:
            n = tok.arity
            if n == len(stack):
                # the whole stack is its arguments, as for the outermost functor
                stack.reverse()
                stack = [Struct(tok, tuple(stack))]
            else:
                args = tuple(stack[: -n - 1 : -1])
                del stack[-n:]
                stack.append(Struct(tok, args))
        elif tt is tuple:
            v = fresh.get(tok)
            if v is None:
                v = fresh[tok] = Var()
            stack.append(v)
        else:
            stack.append(tok)
        node = node.parent
    (t,) = stack
    return t


def drs_selection(frame: SubgoalFrame, start: int) -> list[TrieNode]:
    """The answers a non-leader generator hands its caller under DRS:
    loop-marked ones plus those from ordinal ``start`` on (the table size
    when the generator was installed), in table order."""
    looping = frame.looping_solutions
    return [n for n in frame.solution_order if n.ordinal >= start or n.ordinal in looping]


class SubgoalFrame:
    __slots__ = (
        "fid",
        "functor",
        "call_node",
        "state",
        "solution_trie_root",
        "sol_func_node",
        "solution_order",
        "round_start",
        "looping_alternatives",
        "looping_solutions",
        "next_alternative",
        "alt_seq",
        "stack_depth",
        "push_stamp",
        "flat_pairs",
    )

    def __init__(self, functor: Functor, call_node: TrieNode, fid: int = 0):
        self.fid = fid
        self.functor = functor
        self.call_node = call_node  # the call's subgoal-trie terminal
        self.state = READY
        self.solution_trie_root = TrieNode(None, None)
        # every solution starts with the functor token; pre-create that level
        self.sol_func_node = child(self.solution_trie_root, functor)
        self.solution_order: list[TrieNode] = []
        # table size when the current round began: the answers at and past
        # this ordinal are the round's new ones
        self.round_start = 0
        self.looping_alternatives: dict[int, None] = {}  # ordered set
        self.looping_solutions: set[int] = set()  # answer ordinals DRS marked
        self.next_alternative = 0  # cursor into alt_seq, shared with followers
        self.alt_seq: tuple | range = ()  # clause indices the current round runs
        self.stack_depth: Optional[int] = None  # set while on the generator stack
        self.push_stamp = 0
        # true while every stored solution is a flat pair f(a, b), a and b
        # atomic: only then may a table or join batch deliver the table
        self.flat_pairs = True

    def set_state(self, new: str) -> None:
        if (self.state, new) not in _ALLOWED_TRANSITIONS:
            raise TablingInvariantError(
                f"illegal state transition {self.state} -> {new} for {self.subgoal_str()}"
            )
        self.state = new

    def mark_looping_solution(self, node: TrieNode) -> None:
        if node.ordinal is None:
            raise TablingInvariantError("looping mark on a non-solution node")
        self.looping_solutions.add(node.ordinal)

    def subgoal_str(self) -> str:
        return term_to_str(solution_term(self.call_node))

    def __repr__(self) -> str:
        return f"<frame {self.subgoal_str()} {self.state}>"


class TableSpace:
    """One evaluation session's tables; fresh per top-level query."""

    def __init__(self) -> None:
        self.subgoal_root = TrieNode(None, None)
        self.frames: list[SubgoalFrame] = []

    def subgoal_check_insert(self, call) -> SubgoalFrame:
        node = descend(self.subgoal_root, call)
        if node.ordinal is not None:
            return self.frames[node.ordinal]
        c = deref(call)
        f = c.functor if type(c) is Struct else c
        if type(f) is not Functor:
            raise TablingInvariantError("tabled call must be atom or compound")
        node.ordinal = len(self.frames)
        frame = SubgoalFrame(f, node, node.ordinal)
        self.frames.append(frame)
        return frame

    def solution_check_insert(self, sol, frame: SubgoalFrame) -> bool:
        if frame.state == COMPLETE:
            raise TablingInvariantError("insert into complete table")
        a = b = None
        if type(sol) is Struct and sol.functor is frame.functor and len(sol.args) == 2:
            a, b = deref(sol.args[0]), deref(sol.args[1])
        if (type(a) is int or type(a) is Functor) and (type(b) is int or type(b) is Functor):
            node = child(child(frame.sol_func_node, a), b)
        else:
            node = descend(frame.solution_trie_root, sol)
            if node.ordinal is None:
                frame.flat_pairs = False  # storing any other answer clears it
        if node.ordinal is not None:
            return False
        node.ordinal = len(frame.solution_order)
        frame.solution_order.append(node)
        return True

    def insert_pairs(self, frame: SubgoalFrame, a, zs) -> dict:
        """Store ``f(a, z)`` in ``frame``'s table for each atomic ``z`` of
        ``zs``, in order, each new one once; return the children of ``a``'s
        node, ``z`` -> its leaf."""
        if frame.state == COMPLETE:
            raise TablingInvariantError("insert into complete table")
        node = child(frame.sol_func_node, a)
        ch = node.children
        if ch is None:
            ch = node.children = {}
        order = frame.solution_order
        for z in zs:
            if z not in ch:
                leaf = ch[z] = TrieNode(z, node)
                leaf.ordinal = len(order)
                order.append(leaf)
        return ch

    def __del__(self) -> None:
        # Every trie is a chain of parent <-> children cycles.  Unlinking the
        # children lets the tables die by reference counting, without waiting
        # for a full collection; leaves keep their parent pointers, so a raw
        # answer held past its engine still decodes.
        stack = [self.subgoal_root]
        stack += [f.solution_trie_root for f in self.frames]
        while stack:
            node = stack.pop()
            ch = node.children
            if ch is not None:
                node.children = None
                stack += ch.values()
