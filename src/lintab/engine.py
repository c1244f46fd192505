"""Linear-tabling resolution engine.

One execution tree, local scheduling: a new solution always fails back,
and a generator hands solutions to its caller only once its clause cursor
is exhausted (non-leaders) or its strongly connected component completes
(leaders).  Every choice point is a Python generator on ``Engine.cps``
that yields the continuation of its next alternative (a matching fact, a
clause body or an answer delivery); failing means resuming the youngest
one, and popping it once it is exhausted.

Leadership and loop marking are tracked lazily.  Every repeated call
records a dependency event (stamp, target lowlink).  A generator is a
leader at its fix-point check iff no event since its push targets a
frame below it; a clause alternative (or a solution being propagated)
is loop-marked iff some event during its window, the span of the
``yield`` that hands it on, targets a frame at or below the owner.  Both
queries are O(log n) on a monotone event stack, which keeps the
per-event cost constant instead of walking the generator stack on every
repeated call.

An answer reaches a table one insert per continuation, or in a batch step
that counts the steps and SLD calls the general path would: the table
batch stores a whole flat table (a caller's table that holds it already
takes one set test), and the fact batch every fact a bound
call of a binary fact predicate matches, when the continuation (past any
0-ary facts) only stores ``f(a, Z)`` for the call's unbound ``Z``.  The
join batch joins a flat table, delivered into a call ``f(X, Y)`` whose
continuation calls such a predicate ``e(Y, Z)``, with ``e``'s
first-argument index, and runs one fact batch per answer.

Three optimizations combine freely:

* dre: a repeated call steals the next untried clause of the evaluating
  call through the frame's shared cursor, then consumes.
* dra: re-evaluation rounds run only loop-marked alternatives.
* drs: non-leader generators propagate only loop-marked solutions plus
  the ones new since the generator was installed.
"""

from __future__ import annotations

import gc
import logging
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

from .reader import Program, Rows
from .tablespace import (
    COMPLETE,
    EVALUATING,
    LOOP_EVALUATING,
    LOOP_READY,
    READY,
    TableSpace,
    TablingInvariantError,
    TrieNode,
    drs_selection,
    solution_term,
)
from .terms import Functor, Struct, Var, deref, fresh_copy, functor, unify, Trail

log = logging.getLogger("lintab.engine")

DEFAULT_STEP_BUDGET = 10**9


class StepBudgetExceeded(RuntimeError):
    """The evaluation passed its resolution-step budget without finishing."""


@dataclass(frozen=True)
class StrategyConfig:
    dre: bool = False
    dra: bool = False
    drs: bool = False

    @property
    def label(self) -> str:
        parts = [n for n, on in (("dre", self.dre), ("dra", self.dra), ("drs", self.drs)) if on]
        return "+".join(parts) if parts else "standard"


ALL_CONFIGS = tuple(
    StrategyConfig(dre=e, dra=a, drs=s)
    for e in (False, True)
    for a in (False, True)
    for s in (False, True)
)


@dataclass
class EvalStats:
    alts_explored: int = 0
    nonleader_sols_consumed: int = 0
    sld_calls: dict[str, int] = field(default_factory=dict)
    rounds_started: int = 0
    followers_created: int = 0
    answers_emitted: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


@contextmanager
def _collector_paused():
    """Run the block with the cyclic collector off, if it was on.  A run
    makes no cyclic garbage (its tables are live until the table space
    unlinks them, and the trail undoes every binding), so the collector
    would only walk the growing tables over and over."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


# continuation markers -------------------------------------------------


class _NewSol:
    __slots__ = ("frame", "sol")

    def __init__(self, frame, sol):
        self.frame = frame
        self.sol = sol


class _Collect:
    __slots__ = ()


_COLLECT_CELL = (_Collect(), None)  # the query's continuation after its last goal

# predicate call shapes
_P_TABLED = 0
_P_GENERAL = 1
_P_FACTS2 = 2  # all clauses ground facts of arity 2, first-arg indexed
_P_FACT0 = 3  # single 0-ary fact: deterministic success


class _Pred:
    __slots__ = ("functor", "key", "kind", "clauses", "index", "facts")

    def __init__(self, f: Functor, clauses, tabled: bool):
        self.functor = f
        self.key = f"{f.name}/{f.arity}"
        self.clauses = None  # (head, body) pairs, for the kinds that resolve clauses
        self.index = None
        self.facts = None
        if tabled:
            self.kind = _P_TABLED
        elif len(clauses) == 1 and f.arity == 0 and (type(clauses) is Rows or not clauses[0].body):
            self.kind = _P_FACT0
        elif type(clauses) is Rows and f.arity == 2:
            self.kind = _P_FACTS2
            self.facts = list(clauses.rows)
            self.index = {}  # first argument -> its second arguments, in fact order
            for a0, a1 in self.facts:
                self.index.setdefault(a0, []).append(a1)
        else:
            self.kind = _P_GENERAL
        if self.kind in (_P_TABLED, _P_GENERAL):
            if type(clauses) is Rows:
                self.clauses = [(Struct(f, row) if row else f, ()) for row in clauses.rows]
            else:
                self.clauses = [(c.head, c.body) for c in clauses]


def _ground_atomic(t) -> bool:
    return type(t) is int or type(t) is Functor


# choice points ---------------------------------------------------------


def _role(kind, frame) -> str:
    """What a tabled choice point of ``kind`` ("generator", "consumer" or
    "follower") is to its frame, as the event log names it."""
    if kind != "follower" and frame.state == COMPLETE:
        return "completed"
    return kind


class Engine:
    """One evaluation thread over one program.  Share-nothing."""

    def __init__(
        self,
        program: Program,
        config: StrategyConfig | None = None,
        *,
        step_budget: int = DEFAULT_STEP_BUDGET,
        trace: bool = False,
    ):
        self.config = config or StrategyConfig()
        self.step_budget = step_budget
        self.events: list[str] | None = [] if trace else None  # per run, see _reset
        self.preds: dict[Functor, _Pred] = {}
        for f in dict.fromkeys([*program.predicates, *program.tabled]):
            self.preds[f] = _Pred(f, program.clauses(f), f in program.tabled)
        for cs in program.predicates.values():
            if type(cs) is not Rows:
                for c in cs:
                    self._register(c.body)
        self._reset([])

    def _register(self, goals) -> list[Functor]:
        """Register the predicate of each goal in ``goals`` that has none
        yet as an empty non-tabled predicate: a call to it is one step and
        one SLD call, and fails.  Goals that are not atoms or compounds are
        skipped.  Returns the functors registered."""
        new = []
        for g in goals:
            f = g if type(g) is Functor else g.functor if type(g) is Struct else None
            if f is not None and f not in self.preds:
                self.preds[f] = _Pred(f, [], False)
                new.append(f)
        return new

    def _reset(self, goals: list) -> None:
        """The per-run state, fresh for a query of ``goals``."""
        self.ts = TableSpace()
        self.stats = EvalStats()
        if self.events is not None:
            self.events = []
        self.trail = Trail()
        self.cps: list = []  # the choice points: generators of continuations
        self.gen_stack = []
        self.ev_stamps: list[int] = []
        self.ev_depths: list[int] = []
        self.clock = 0
        self.steps = 0
        self.raw_answers: list = []
        self._template = query_template(goals) if goals else None
        self._roles: dict = {}  # fid -> {clause: "generator" | "follower"} this round

    # -- dependency events ----------------------------------------------

    def _record_event(self, depth: int) -> None:
        # monotone stack: keep depths strictly increasing so the suffix
        # minimum from any stamp is just the first entry at/after it
        st, dp = self.ev_stamps, self.ev_depths
        while dp and dp[-1] >= depth:
            dp.pop()
            st.pop()
        st.append(self.clock)
        dp.append(depth)
        self.clock += 1

    def _min_event_depth_since(self, stamp: int) -> int | None:
        i = bisect_left(self.ev_stamps, stamp)
        return self.ev_depths[i] if i < len(self.ev_stamps) else None

    def _looped(self, stamp: int, frame) -> bool:
        """Whether a repeated call since ``stamp`` reached ``frame`` or one
        below it."""
        d = self._min_event_depth_since(stamp)
        return d is not None and d <= frame.stack_depth

    # -- public API -------------------------------------------------------

    def run_query(self, goals: list) -> tuple[list, EvalStats]:
        """Evaluate a goal conjunction.  Returns raw answers (terms, or
        solution-trie terminals when a batch delivery ran) and the stats.
        A goal on a predicate the program never names is registered as one
        without clauses, with a warning the first time the engine meets it."""
        if not goals:
            raise ValueError("empty query")
        for f in self._register(goals):
            log.warning("unknown predicate %s/%d fails", f.name, f.arity)
        self._reset(goals)
        cont = _COLLECT_CELL
        for g in reversed(goals):
            cont = (g, cont)
        with _collector_paused():
            try:
                self._run(cont)
            finally:
                # a run that raises leaves its bindings on the trail; undo
                # them, so the caller's query terms are unbound again.  Its
                # suspended choice points refer to the engine and its tables:
                # drop them, so the tables still die by reference counting.
                self.trail.undo_to(0)
                self.cps.clear()
                self.stats.answers_emitted = sum(len(f.solution_order) for f in self.ts.frames)
        if self.gen_stack:
            raise TablingInvariantError("generator stack not empty at exit")
        for f in self.ts.frames:
            if f.state != COMPLETE:
                raise TablingInvariantError(f"frame {f.subgoal_str()} not complete at exit")
        return self.raw_answers, self.stats

    def answers(self, raw) -> list:
        with _collector_paused():
            return [solution_term(a) if type(a) is TrieNode else a for a in raw]

    def answer_rows(self, raw) -> list[tuple]:
        """Each answer's argument tuple, ``()`` for an atom: the ``args`` of
        the term ``answers`` gives for it.  A flat pair's row is read off its
        last two trie nodes, with no term built."""
        rows = []
        with _collector_paused():
            for a in raw:
                if type(a) is TrieNode:
                    p = a.parent
                    top = p and p.parent
                    if top and top.parent and top.parent.parent is None:  # solution_term's test
                        f, x, y = top.token, p.token, a.token
                        if type(f) is Functor and f.arity == 2 and type(x) is not tuple and type(y) is not tuple:
                            rows.append((x, y))
                            continue
                    a = solution_term(a)
                rows.append(a.args if type(a) is Struct else ())
        return rows

    # -- the machine ------------------------------------------------------

    def _run(self, cont) -> None:
        cps = self.cps
        preds = self.preds
        stats = self.stats
        budget = self.step_budget

        while True:
            # PROCEED: run the continuation until something fails
            while cont is not None:
                entry, rest = cont
                te = type(entry)
                if te is Struct or te is Functor:
                    f = entry if te is Functor else entry.functor
                    pred = preds[f]
                    kind = pred.kind
                    self.steps += 1
                    if kind == _P_TABLED:
                        cps.append(self._tabled(entry, rest))
                        cont = None
                        break
                    sc = stats.sld_calls
                    sc[pred.key] = sc.get(pred.key, 0) + 1
                    if kind == _P_FACT0:
                        cont = rest
                        continue
                    if kind == _P_FACTS2:
                        c0, c1 = deref(entry.args[0]), deref(entry.args[1])
                        if type(c0) is Var:
                            cps.append(self._facts(pred.facts, c0, c1, rest))
                        elif zs := pred.index.get(c0):
                            sink = self._sink(rest, c1)
                            if sink is None:
                                cps.append(self._seconds(zs, c1, rest))
                            else:
                                self.steps += 1  # the fact batch: _seconds' first step
                                self._store(*sink, zs)
                        cont = None
                        break
                    cps.append(self._interior(entry, pred.clauses, rest))
                    cont = None
                    break
                if te is _NewSol:
                    frame = entry.frame
                    is_new = self.ts.solution_check_insert(entry.sol, frame)
                    self.steps += 1
                    if self.events is not None:
                        o = len(frame.solution_order) - 1 if is_new else "dup"
                        self.events.append(f"new_solution g{frame.fid} {o}")
                    cont = None
                    break
                if te is _Collect:
                    self.raw_answers.append(fresh_copy(self._template))
                    cont = None
                    break
                raise TablingInvariantError(f"bad continuation entry {entry!r}")

            # FAIL: resume the youngest choice point for its next
            # continuation, and drop it once it has none.  Every path that
            # adds steps ends here, so one check bounds them all: one step per
            # predicate call, fact retry, clause tried or entered, answer
            # delivered and answer handed to a table, batched or not.
            while cont is None:
                if self.steps >= budget:
                    raise StepBudgetExceeded(f"step budget of {budget} exceeded")
                if not cps:
                    return
                cont = next(cps[-1], None)
                if cont is None:
                    cps.pop()

    # -- non-tabled calls --------------------------------------------------

    def _facts(self, facts, c0, c1, cont):
        """Bind the unbound ``c0``, then ``c1``, to each pair of ``facts``."""
        trail = self.trail
        mark = len(trail)
        self.steps += 1
        for f0, f1 in facts:
            c0.ref = f0
            trail.append(c0)
            x = deref(c1)
            if type(x) is Var:
                x.ref = f1
                trail.append(x)
            elif not (x is f1 or x == f1):
                trail.undo_to(mark)
                continue
            yield cont
            trail.undo_to(mark)
            self.steps += 1

    def _seconds(self, zs, c1, cont):
        """Bind ``c1`` to each of ``zs``, the second arguments the index
        holds for a call's bound first argument, or match it against them."""
        trail = self.trail
        mark = len(trail)
        self.steps += 1
        for z in zs:
            if type(c1) is Var:
                c1.ref = z
                trail.append(c1)
            elif not (c1 is z or c1 == z):
                continue
            yield cont
            trail.undo_to(mark)
            self.steps += 1

    def _interior(self, call, clauses, cont):
        trail = self.trail
        mark = len(trail)
        for clause in clauses:
            trail.undo_to(mark)
            self.steps += 1
            body = self._enter(call, clause, cont)
            if body is not None:
                yield body
        trail.undo_to(mark)

    def _enter(self, call, clause, cont):
        """Unify ``call`` with a fresh copy of ``clause``; return its body
        in front of ``cont``, or None when the head does not unify."""
        head, body = clause
        mapping = {}
        if not unify(call, fresh_copy(head, mapping), self.trail):
            return None
        for g in reversed(body):
            cont = (fresh_copy(g, mapping), cont)
        return cont

    # -- tabled calls --------------------------------------------------------

    def _tabled(self, call, cont):
        """A tabled call, from its frame lookup to its last delivery.  As a
        generator, follower or consumer it enters the frame's next clause
        until it has answers to deliver, then delivers them.  A clause or
        answer loops iff a repeated call made while it ran, the span of its
        ``yield``, reached this frame or one below (a frame's depth cannot
        change while its own choice point runs)."""
        stats = self.stats
        events = self.events
        frame = self.ts.subgoal_check_insert(call)
        state = frame.state
        if state == READY or state == LOOP_READY:
            frame.set_state(EVALUATING if state == READY else LOOP_EVALUATING)
            gs = self.gen_stack
            frame.stack_depth = len(gs)
            gs.append(frame)
            self._begin_round(frame)
            kind = "generator"
        elif state == COMPLETE:
            kind = "consumer"
        else:
            # evaluating / loop_evaluating: a repeated call.  It records the
            # target's lowlink, as the SLG-WAM's completion check does: the
            # target's depth, or the lowest frame a repeated call since the
            # target's push reached, if that is lower.  The consumer then
            # depends on whatever the target depends on, so the window that
            # consumes its incomplete table is loop-marked.
            md = self._min_event_depth_since(frame.push_stamp)
            depth = frame.stack_depth
            self._record_event(depth if md is None else min(depth, md))
            if self.config.dre and frame.next_alternative < len(frame.alt_seq):
                stats.followers_created += 1
                kind = "follower"
            else:
                kind = "consumer"
        if events is not None:
            events.append(f"call g{frame.fid} {_role(kind, frame)}")
        # DRS hands on the answers new since this generator was installed;
        # a non-leader's own restart moves round_start, but not this
        start = frame.round_start
        trail = self.trail
        mark = len(trail)
        sols = frame.solution_order
        table_len = None  # table size when a non-leader starts consuming
        if kind != "consumer":
            dra = self.config.dra
            clauses = self.preds[frame.functor].clauses
            ns_cell = (_NewSol(frame, call), None)
            while True:
                # the shared cursor; a frame off the generator stack has no
                # pioneer left to follow
                while frame.stack_depth is not None and frame.next_alternative < len(frame.alt_seq):
                    ci = frame.alt_seq[frame.next_alternative]
                    frame.next_alternative += 1
                    trail.undo_to(mark)
                    body = self._enter(call, clauses[ci], ns_cell)
                    if body is None:
                        continue
                    stats.alts_explored += 1
                    self.steps += 1
                    self._note_role(frame, ci, kind)
                    if dra and frame.state == LOOP_EVALUATING and ci not in frame.looping_alternatives:
                        raise TablingInvariantError(f"loop round ran non-looping clause {ci}")
                    if events is not None:
                        events.append(f"alt g{frame.fid} {ci}")
                    stamp = self.clock
                    yield body
                    # DRA marks it, whether the pioneer or a follower ran it
                    if dra and self._looped(stamp, frame):
                        frame.looping_alternatives.setdefault(ci)
                trail.undo_to(mark)
                if kind == "follower":
                    break  # followers always consume everything
                # the generator's cursor is exhausted: fix-point check
                depth = frame.stack_depth
                md = self._min_event_depth_since(frame.push_stamp)
                if md is not None and md < depth:
                    if events is not None:
                        events.append(f"fixpoint g{frame.fid} propagate")
                    # nothing inserts into this table while its generator
                    # consumes it (checked below), so the DRS selection is
                    # made once, here
                    table_len = len(sols)
                    if self.config.drs:
                        sols = drs_selection(frame, start)
                    break
                # md == depth means a repeated call targeted this frame: the
                # subgoal depends on itself, so a round that grew any table in
                # the component forces another pass.  Without a
                # self-dependency the first pass is already final.
                if md == depth and any(
                    len(m.solution_order) > m.round_start for m in self.gen_stack[md:]
                ):
                    self._restart_round(frame)
                else:
                    self._complete_scc(frame)
                    break

        # deliveries: one batch step, or the general loop.  Steps and
        # consumed solutions are counted one per answer: a generator whose
        # table length was taken above is a non-leader handing its table to
        # its caller.
        via = None if events is None else _role(kind, frame)
        n = self._batch(frame, call, cont, sols, via)
        if n is None:
            # one answer per resumption, through the continuation; DRS marks
            # the answers a generator or follower of an open frame hands on
            window = self.config.drs and kind != "consumer" and frame.stack_depth is not None
            for node in sols:
                trail.undo_to(mark)
                if not unify(call, solution_term(node), trail):
                    raise TablingInvariantError(
                        f"answer {node.ordinal} of g{frame.fid} does not unify with its call"
                    )
                if events is not None:
                    events.append(f"consume g{frame.fid} {node.ordinal} via={via}")
                self.steps += 1
                if table_len is not None:
                    stats.nonleader_sols_consumed += 1
                stamp = self.clock
                yield cont
                if window and self._looped(stamp, frame):
                    frame.mark_looping_solution(node)
        elif table_len is not None:
            stats.nonleader_sols_consumed += n
        if table_len is not None and len(frame.solution_order) != table_len:
            raise TablingInvariantError(
                f"table of g{frame.fid} grew while its generator consumed it"
            )
        # exhausted: a non-leader generator ending here leaves its frame on
        # the generator stack until the leader restarts or completes
        trail.undo_to(mark)

    def _restart_round(self, frame) -> None:
        stats = self.stats
        stats.rounds_started += 1
        if self.events is not None:
            self.events.append(f"round_start g{frame.fid} {stats.rounds_started}")
            self.events.append(f"fixpoint g{frame.fid} restart")
        gs = self.gen_stack
        d = frame.stack_depth
        for m in gs[d + 1 :]:
            m.set_state(LOOP_READY)
            m.stack_depth = None
        del gs[d + 1 :]
        frame.set_state(LOOP_READY)
        frame.set_state(LOOP_EVALUATING)
        self._begin_round(frame)

    def _begin_round(self, frame) -> None:
        """Start a pass over the frame's clauses: stamp its dependency
        window, mark where the round's answers begin and reset the shared
        clause cursor.  A DRA re-evaluation round runs only looping clauses."""
        frame.push_stamp = self.clock
        frame.round_start = len(frame.solution_order)
        if self.config.dra and frame.state == LOOP_EVALUATING:
            frame.alt_seq = tuple(frame.looping_alternatives)
        else:
            frame.alt_seq = range(len(self.preds[frame.functor].clauses))
        frame.next_alternative = 0
        self._roles[frame.fid] = {}

    def _complete_scc(self, frame) -> None:
        trace = self.events is not None
        gs = self.gen_stack
        d = frame.stack_depth
        for m in gs[d + 1 :]:
            if len(m.solution_order) > m.round_start:
                raise TablingInvariantError("completing member with pending solutions")
            m.set_state(COMPLETE)
            m.stack_depth = None
            if trace:
                self.events.append(f"complete g{m.fid}")
        frame.set_state(COMPLETE)
        frame.stack_depth = None
        del gs[d:]
        if trace:
            self.events.append(f"fixpoint g{frame.fid} complete")
            self.events.append(f"complete g{frame.fid}")

    def _note_role(self, frame, clause, kind) -> None:
        m = self._roles[frame.fid]
        prev = m.get(clause)
        if prev is not None and prev != kind:
            raise TablingInvariantError(
                f"clause {clause} run by both pioneer and follower"
            )
        m[clause] = kind

    # -- batch deliveries ----------------------------------------------------

    def _batch(self, frame, call, cont, sols, via):
        """Deliver all of ``sols`` at once, without trail traffic, counting
        as the general loop would, and return how many there were; or return
        None when only the general loop can deliver them.  The collect batch
        serves the query's own choice point.  The table and join batches
        need a flat source table and a continuation that ``_sink`` accepts.
        The table batch needs a call whose first argument is ground and
        atomic; at the first delivery, which follows at once, it stores the
        whole table, so it never meets an answer it cannot insert.  The join
        batch needs a call ``f(X, Y)`` of two distinct unbound variables
        whose continuation first calls a binary fact predicate ``e(Y, Z)``,
        ``Z`` unbound and neither of them, and then stores ``g(X, Z)`` or
        ``g(c, Z)``; per answer ``f(a, y)`` it does what the general loop
        and then the fact batch of ``e(y, Z)`` would.  It walks the live
        ``sols``, so it meets the answers it adds to its own source table,
        as the general loop does.  No tabled call runs inside it, so the
        clock does not move and DRS marks no answer it delivers."""
        events = self.events
        if cont is _COLLECT_CELL and call is self._template:
            # the query's own choice point.  A tabled call ending a clause has
            # this cont too, and an atom call can be the template object itself.
            self.raw_answers.extend(sols)
            if events is not None:
                for node in sols:
                    events.append(f"consume g{frame.fid} {node.ordinal} via={via}")
            self.steps += len(sols)
            return len(sols)
        if not frame.flat_pairs or frame.functor.arity != 2:
            return None
        x, y = deref(call.args[0]), deref(call.args[1])
        if _ground_atomic(x):
            sink = self._sink(cont, y)
            if sink is None:
                return None
            consumed = None if events is None else [
                f"consume g{frame.fid} {n.ordinal} via={via}" for n in sols]
            if sols is frame.solution_order and sols:
                # the whole table of f(x, Y): the keys of x's node, already in
                # ordinal order, which insert_pairs can test as a set
                zs = frame.sol_func_node.children[x].children.keys()
            else:
                zs = [node.token for node in sols]
            self._store(*sink, zs, consumed)
            return len(sols)
        entry, rest = cont
        if type(entry) is not Struct or type(x) is not Var or type(y) is not Var or x is y:
            return None
        e = self.preds[entry.functor]
        if e.kind != _P_FACTS2 or deref(entry.args[0]) is not y:
            return None
        z = deref(entry.args[1])
        sink = None if z is x or z is y else self._sink(rest, z, x)
        if sink is None:
            return None
        parent, a, bumps = sink
        index = e.index
        for node in sols:
            if events is not None:
                events.append(f"consume g{frame.fid} {node.ordinal} via={via}")
            zs = index.get(node.token)
            if zs:
                self.steps += 1  # the fact batch
                self._store(parent, node.parent.token if a is x else a, bumps, zs)
        # the loop ran to the end of sols, live or not: every answer was
        # delivered (a step) and called e (a step and an SLD call)
        n = len(sols)
        self.steps += 2 * n
        sc = self.stats.sld_calls
        sc[e.key] = sc.get(e.key, 0) + n
        return n

    def _sink(self, cont, cv, xv=None):
        """The insert a batch can make for ``cont`` when the call's second
        argument is the unbound ``cv``: past any 0-ary facts, ``cont`` must
        store ``f(a, cv)`` in a binary table, ``a`` ground and atomic or the
        join batch's unbound ``xv``.  Returns (that table, ``a``, the 0-ary
        facts' keys), or None."""
        if type(cv) is not Var:
            return None
        bumps = []
        entry, rest = cont
        while type(entry) is Functor:
            p = self.preds[entry]
            if p.kind != _P_FACT0:
                return None
            bumps.append(p.key)
            entry, rest = rest
        # whatever follows the insert never runs: a new solution always fails
        # back under local scheduling
        if type(entry) is not _NewSol or entry.frame.functor.arity != 2:
            return None
        a = deref(entry.sol.args[0])
        if not (a is xv or _ground_atomic(a)) or deref(entry.sol.args[1]) is not cv:
            return None
        return entry.frame, a, bumps

    def _store(self, parent, a, bumps, zs, consumed=None):
        """Store ``f(a, z)`` for each of ``zs`` in ``parent``, past the 0-ary
        facts ``bumps``, as ``_sink`` found them, counting as the general
        loop would: per ``z`` a step to bind it, one per 0-ary fact passed
        and one for the insert.  A traced run logs each ``z``'s insert,
        after its line of ``consumed`` if any."""
        o = len(parent.solution_order)
        pch = self.ts.insert_pairs(parent, a, zs)
        n = len(zs)
        self.steps += n * (2 + len(bumps))
        sc = self.stats.sld_calls
        for key in bumps if n else ():
            sc[key] = sc.get(key, 0) + n
        events = self.events
        if events is not None:
            for i, z in enumerate(zs):
                if consumed:
                    events.append(consumed[i])
                new = pch[z].ordinal == o  # else stored before, or earlier in zs
                events.append(f"new_solution g{parent.fid} {o if new else 'dup'}")
                o += new


def query_template(goals: list):
    """The term each answer to ``goals`` instantiates: the goal itself, or
    ``','(G1, ..., Gn)`` for a conjunction."""
    return goals[0] if len(goals) == 1 else Struct(functor(",", len(goals)), tuple(goals))


def solve(
    program: Program,
    query: list,
    config: StrategyConfig | None = None,
    *,
    step_budget: int = DEFAULT_STEP_BUDGET,
    trace: bool = False,
) -> tuple[list, EvalStats]:
    """Evaluate ``query`` (a goal list) against ``program``.

    Returns the ordered answer list (instantiated query terms) and the
    evaluation statistics.  Each call uses a fresh table space.
    """
    eng = Engine(program, config, step_budget=step_budget, trace=trace)
    raw, stats = eng.run_query(query)
    return eng.answers(raw), stats
