"""Table space: subgoal trie, per-subgoal solution tries, subgoal frames.

Both tries share one node type.  A node is terminal when it carries an
ordinal: in the subgoal trie the frame id, its index in ``frames``; in a
solution trie the insertion ordinal, its index in ``solution_order``.
Canonical token streams are preorder walks, so no terminal is a proper
ancestor of another terminal; solution terminals are always leaves.

Nodes keep a parent pointer instead of storing the inserted term, which
matters at the scale of millions of stored solutions: a solution is
rebuilt on demand by walking terminal-to-root.
"""

from __future__ import annotations

from typing import Optional

from .terms import Functor, term_to_str, term_tokens, tokens_to_term

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

    def child(self, token) -> "TrieNode":
        ch = self.children
        if ch is None:
            ch = self.children = {}
            node = None
        else:
            node = ch.get(token)
        if node is None:
            node = TrieNode(token, self)
            ch[token] = node
        return node


def terminal_tokens(node: TrieNode) -> tuple:
    toks = []
    while node.parent is not None:
        toks.append(node.token)
        node = node.parent
    toks.reverse()
    return tuple(toks)


def solution_term(node: TrieNode):
    return tokens_to_term(terminal_tokens(node))


def drs_selection(frame: SubgoalFrame) -> list[TrieNode]:
    """The answers a non-leader generator hands its caller under DRS:
    loop-marked ones plus those new in the current round, in table order."""
    start = frame.round_start
    looping = frame.looping_solutions
    return [n for n in frame.solution_order if n.ordinal >= start or n.ordinal in looping]


class SubgoalFrame:
    __slots__ = (
        "fid",
        "functor",
        "call_tokens",
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

    def __init__(self, functor: Functor, call_tokens: tuple, fid: int = 0):
        self.fid = fid
        self.functor = functor
        self.call_tokens = call_tokens
        self.state = READY
        self.solution_trie_root = TrieNode(None, None)
        # every solution starts with the functor token; pre-create that level
        self.sol_func_node = self.solution_trie_root.child(functor)
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
        # true while every stored solution is f(atomic, atomic); lets bulk
        # readers skip per-node shape checks
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
        return term_to_str(tokens_to_term(self.call_tokens))

    def __repr__(self) -> str:
        return f"<frame {self.subgoal_str()} {self.state}>"


class TableSpace:
    """One evaluation session's tables; fresh per top-level query."""

    def __init__(self) -> None:
        self.subgoal_root = TrieNode(None, None)
        self.frames: list[SubgoalFrame] = []

    def subgoal_check_insert(self, call) -> tuple[SubgoalFrame, bool]:
        tokens = term_tokens(call)
        node = self.subgoal_root
        for tok in tokens:
            node = node.child(tok)
        if node.ordinal is not None:
            return self.frames[node.ordinal], True
        f = tokens[0]
        if type(f) is not Functor:
            raise TablingInvariantError("tabled call must be atom or compound")
        node.ordinal = len(self.frames)
        frame = SubgoalFrame(f, tokens, node.ordinal)
        self.frames.append(frame)
        return frame, False

    def solution_check_insert(self, sol, frame: SubgoalFrame) -> bool:
        if frame.state == COMPLETE:
            raise TablingInvariantError("insert into complete table")
        tokens = term_tokens(sol)
        if len(tokens) != 3 or type(tokens[1]) is tuple or type(tokens[2]) is tuple:
            frame.flat_pairs = False
        node = frame.solution_trie_root
        for tok in tokens:
            node = node.child(tok)
        if node.ordinal is not None:
            return False
        node.ordinal = len(frame.solution_order)
        frame.solution_order.append(node)
        return True

    def dump(self) -> str:
        """Deterministic text rendering, one frame per block."""
        out = []
        for fr in self.frames:
            out.append(f"== {fr.subgoal_str()} state={fr.state}")
            if fr.looping_alternatives:
                idxs = ",".join(str(i) for i in fr.looping_alternatives)
                out.append(f"   looping_alts: [{idxs}]")
            for i, node in enumerate(fr.solution_order):
                mark = " *loop" if i in fr.looping_solutions else ""
                out.append(f"   sol {i}: {term_to_str(solution_term(node))}{mark}")
        return "\n".join(out) + ("\n" if out else "")
