"""Finite string automata for DTD content models (paper, Appendix A).

Provides Thompson-style NFA construction from the regex AST, the subset
construction to DFAs, products, complement, emptiness, membership, and a
shortest-witness extractor.  These are used by

* DTD conformance checking (``L(P(ℓ))`` membership),
* DTD trimming (Lemma 2.2),
* the unranked tree automata of :mod:`repro.automata`,
* the sibling-reordering algorithm of Proposition 5.2.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from .ast import Concat, Empty, Epsilon, Regex, Star, Symbol, Union

__all__ = ["NFA", "DFA", "regex_to_nfa", "nfa_to_dfa", "regex_to_dfa"]

EPSILON = None  # label of ε-transitions inside the NFA


@dataclass
class NFA:
    """A nondeterministic finite automaton with ε-transitions.

    States are integers ``0 .. n_states-1``; ``transitions`` maps
    ``(state, symbol)`` to a set of states, where ``symbol`` is a string or
    :data:`EPSILON`.
    """

    n_states: int
    start: int
    accepting: Set[int]
    transitions: Dict[Tuple[int, Optional[str]], Set[int]] = field(default_factory=dict)
    alphabet: Set[str] = field(default_factory=set)

    def add_transition(self, src: int, symbol: Optional[str], dst: int) -> None:
        self.transitions.setdefault((src, symbol), set()).add(dst)
        if symbol is not None:
            self.alphabet.add(symbol)

    def epsilon_closure(self, states: Iterable[int]) -> FrozenSet[int]:
        """ε-closure of a set of states."""
        closure = set(states)
        stack = list(closure)
        while stack:
            state = stack.pop()
            for nxt in self.transitions.get((state, EPSILON), ()):
                if nxt not in closure:
                    closure.add(nxt)
                    stack.append(nxt)
        return frozenset(closure)

    def step(self, states: FrozenSet[int], symbol: str) -> FrozenSet[int]:
        """One symbol step followed by ε-closure."""
        targets: Set[int] = set()
        for state in states:
            targets |= self.transitions.get((state, symbol), set())
        return self.epsilon_closure(targets)

    def accepts(self, word: Sequence[str]) -> bool:
        """Membership of a word (sequence of element types) in the language."""
        current = self.epsilon_closure({self.start})
        for symbol in word:
            current = self.step(current, symbol)
            if not current:
                return False
        return any(state in self.accepting for state in current)

    def is_empty(self) -> bool:
        """True iff the automaton accepts no word."""
        return self.shortest_word() is None

    def shortest_word(self) -> Optional[List[str]]:
        """Return a shortest accepted word, or ``None`` if the language is empty."""
        start = self.epsilon_closure({self.start})
        if any(s in self.accepting for s in start):
            return []
        queue = deque([(start, [])])
        seen = {start}
        while queue:
            states, word = queue.popleft()
            for symbol in sorted(self.alphabet):
                nxt = self.step(states, symbol)
                if not nxt or nxt in seen:
                    continue
                new_word = word + [symbol]
                if any(s in self.accepting for s in nxt):
                    return new_word
                seen.add(nxt)
                queue.append((nxt, new_word))
        return None

    def restricted_to(self, alphabet: Set[str]) -> "NFA":
        """The automaton for ``L(A) ∩ alphabet*`` (drop other symbol transitions)."""
        result = NFA(self.n_states, self.start, set(self.accepting))
        for (src, symbol), dsts in self.transitions.items():
            if symbol is EPSILON or symbol in alphabet:
                for dst in dsts:
                    result.add_transition(src, symbol, dst)
        return result


@dataclass
class DFA:
    """A (complete on-demand) deterministic finite automaton."""

    start: FrozenSet[int]
    accepting_nfa_states: Set[int]
    nfa: NFA
    alphabet: Set[str]

    def accepts(self, word: Sequence[str]) -> bool:
        current = self.start
        for symbol in word:
            current = self.nfa.step(current, symbol)
            if not current:
                return False
        return any(s in self.accepting_nfa_states for s in current)

    def step(self, state: FrozenSet[int], symbol: str) -> FrozenSet[int]:
        return self.nfa.step(state, symbol)


def regex_to_nfa(expr: Regex) -> NFA:
    """Thompson construction producing an NFA with a single accepting state."""
    builder = _Builder()
    start, end = builder.build(expr)
    nfa = NFA(builder.count, start, {end})
    nfa.transitions = builder.transitions
    nfa.alphabet = builder.alphabet
    return nfa


class _Builder:
    def __init__(self) -> None:
        self.count = 0
        self.transitions: Dict[Tuple[int, Optional[str]], Set[int]] = {}
        self.alphabet: Set[str] = set()

    def _state(self) -> int:
        self.count += 1
        return self.count - 1

    def _edge(self, src: int, symbol: Optional[str], dst: int) -> None:
        self.transitions.setdefault((src, symbol), set()).add(dst)
        if symbol is not None:
            self.alphabet.add(symbol)

    def build(self, expr: Regex) -> Tuple[int, int]:
        if isinstance(expr, Epsilon):
            start = self._state()
            end = self._state()
            self._edge(start, EPSILON, end)
            return start, end
        if isinstance(expr, Empty):
            start = self._state()
            end = self._state()
            return start, end
        if isinstance(expr, Symbol):
            start = self._state()
            end = self._state()
            self._edge(start, expr.name, end)
            return start, end
        if isinstance(expr, Concat):
            s1, e1 = self.build(expr.left)
            s2, e2 = self.build(expr.right)
            self._edge(e1, EPSILON, s2)
            return s1, e2
        if isinstance(expr, Union):
            start = self._state()
            end = self._state()
            s1, e1 = self.build(expr.left)
            s2, e2 = self.build(expr.right)
            self._edge(start, EPSILON, s1)
            self._edge(start, EPSILON, s2)
            self._edge(e1, EPSILON, end)
            self._edge(e2, EPSILON, end)
            return start, end
        if isinstance(expr, Star):
            start = self._state()
            end = self._state()
            s1, e1 = self.build(expr.inner)
            self._edge(start, EPSILON, s1)
            self._edge(start, EPSILON, end)
            self._edge(e1, EPSILON, s1)
            self._edge(e1, EPSILON, end)
            return start, end
        raise TypeError(f"unknown regex node: {expr!r}")


def nfa_to_dfa(nfa: NFA) -> DFA:
    """Lazy subset construction wrapper (states are ε-closed NFA state sets)."""
    return DFA(start=nfa.epsilon_closure({nfa.start}),
               accepting_nfa_states=set(nfa.accepting),
               nfa=nfa,
               alphabet=set(nfa.alphabet))


def regex_to_dfa(expr: Regex) -> DFA:
    """Convenience: regex -> NFA -> lazy DFA."""
    return nfa_to_dfa(regex_to_nfa(expr))
