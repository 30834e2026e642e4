"""RL001/RL002 — event-loop hygiene in the asyncio serving layer.

RL001
    No blocking calls inside ``async def`` bodies in ``repro.service``: a
    single ``time.sleep``, synchronous socket/subprocess call, console I/O
    or *unawaited* engine-compute call (``solve``, ``certain_answers``,
    ``check_consistency``, …) stalls the event loop that every other
    connection's replies are written from.  Blocking work belongs behind
    ``await service.offload(...)`` / ``run_in_executor``.

RL002
    Never ``await`` while holding a :class:`threading.Lock`/``RLock``
    acquired by an enclosing *synchronous* ``with``: the coroutine parks at
    the ``await`` with the lock held, and any executor thread that then
    takes the same lock deadlocks the process.  Applies to every
    ``async def`` in the tree (locks are detected by an inline
    ``threading.Lock()`` call or a ``*lock``/``*guard``/``*mutex`` name —
    ``asyncio.Lock`` used via ``async with`` is fine and not matched).
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Iterator, List, Optional, Set

from ..core import Finding, ModuleContext, Rule

__all__ = ["NoBlockingInAsync", "NoAwaitUnderLock"]

#: Module-level callables that block the calling thread.
_BLOCKING_DOTTED = {
    "time.sleep",
    "os.system", "os.popen", "os.wait", "os.waitpid",
    "socket.create_connection", "socket.getaddrinfo",
    "socket.gethostbyname", "socket.gethostbyaddr",
    "subprocess.run", "subprocess.call", "subprocess.check_call",
    "subprocess.check_output", "subprocess.Popen",
    "urllib.request.urlopen",
}

#: Builtins that perform console/file I/O on the calling thread.
_BLOCKING_BUILTINS = {"open", "input", "print"}

#: Engine-compute methods that are synchronous by contract: calling one
#: *unawaited* from a coroutine runs a whole chase/evaluation on the loop.
#: (The awaitable service methods share these names — an ``await`` in front
#: is exactly what distinguishes the safe call.)  ``execute`` / ``submit``
#: are the Router and ShardHost forwarding entry points: a Router call runs
#: the request on the calling thread, ``ShardHost.execute`` *blocks on a
#: worker pipe*, and ``ShardHost.submit`` pickles the frame and writes the
#: pipe there.  A coroutine must reach them through
#: ``service.offload``/``partial``, never by direct call.
_ENGINE_SYNC = {"solve", "solve_batch", "certain_answers",
                "certain_answers_batch", "check_consistency", "classify",
                "prewarm", "execute", "submit"}

_LOCKISH_NAME = re.compile(r"(?:^|_)(?:r?lock|guard|mutex)$", re.IGNORECASE)
_LOCK_FACTORIES = {"threading.Lock", "threading.RLock"}


def _dotted(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _iter_async_defs(tree: ast.Module) -> Iterator[ast.AsyncFunctionDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.AsyncFunctionDef):
            yield node


class _AsyncBodyWalker(ast.NodeVisitor):
    """Walks one async function body without descending into nested
    function definitions (each gets its own analysis context)."""

    def __init__(self) -> None:
        self.awaited_calls: Set[int] = set()
        self.calls: List[ast.Call] = []
        self.withs: List[ast.With] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        return  # separate (synchronous) context — not this coroutine's body

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        return  # nested coroutine: analyzed on its own

    def visit_Await(self, node: ast.Await) -> None:
        if isinstance(node.value, ast.Call):
            self.awaited_calls.add(id(node.value))
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        self.calls.append(node)
        self.generic_visit(node)

    def visit_With(self, node: ast.With) -> None:
        self.withs.append(node)
        self.generic_visit(node)

    @classmethod
    def walk_body(cls, func: ast.AsyncFunctionDef) -> "_AsyncBodyWalker":
        walker = cls()
        for statement in func.body:
            walker.visit(statement)
        return walker


class NoBlockingInAsync(Rule):
    id = "RL001"
    title = "no blocking calls in repro.service coroutines"
    rationale = ("A blocking call in an async def stalls the event loop "
                 "serving every connection; offload it instead.")

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        if not module.module.startswith("repro.service"):
            return
        for func in _iter_async_defs(module.tree):
            walker = _AsyncBodyWalker.walk_body(func)
            for call in walker.calls:
                dotted = _dotted(call.func)
                if isinstance(call.func, ast.Name):
                    if call.func.id in _BLOCKING_BUILTINS:
                        yield module.finding(
                            self.id, call,
                            f"blocking builtin {call.func.id}() inside "
                            f"async def {func.name}; move it off the event "
                            "loop (service.offload / run_in_executor)")
                    continue
                if dotted in _BLOCKING_DOTTED:
                    yield module.finding(
                        self.id, call,
                        f"blocking call {dotted}() inside async def "
                        f"{func.name}; it stalls the event loop — offload "
                        "it or use the asyncio equivalent")
                    continue
                if (isinstance(call.func, ast.Attribute)
                        and call.func.attr in _ENGINE_SYNC
                        and id(call) not in walker.awaited_calls):
                    yield module.finding(
                        self.id, call,
                        f"synchronous engine call .{call.func.attr}(...) "
                        f"inside async def {func.name} is not awaited: "
                        "either await the service method or offload the "
                        "engine call")


def _is_sync_lock(expr: ast.AST) -> Optional[str]:
    """A display name when ``expr`` looks like a threading lock."""
    if isinstance(expr, ast.Call):
        dotted = _dotted(expr.func)
        if dotted in _LOCK_FACTORIES:
            return dotted + "()"
        return None
    dotted = _dotted(expr)
    if dotted is None:
        return None
    terminal = dotted.rsplit(".", 1)[-1].lstrip("_")
    if _LOCKISH_NAME.search(terminal):
        return dotted
    return None


class NoAwaitUnderLock(Rule):
    id = "RL002"
    title = "no await while holding a threading lock"
    rationale = ("Awaiting with a sync lock held parks the coroutine "
                 "mid-critical-section; an executor thread taking the same "
                 "lock then deadlocks the process.")

    def check(self, module: ModuleContext) -> Iterable[Finding]:
        for func in _iter_async_defs(module.tree):
            walker = _AsyncBodyWalker.walk_body(func)
            for with_node in walker.withs:
                lock_names = [name for name in
                              (_is_sync_lock(item.context_expr)
                               for item in with_node.items)
                              if name is not None]
                if not lock_names:
                    continue
                for await_node in self._awaits_in_body(with_node):
                    yield module.finding(
                        self.id, await_node,
                        f"await while holding {', '.join(lock_names)} "
                        f"(sync `with` in async def {func.name}): release "
                        "the lock before awaiting, or use asyncio.Lock "
                        "with `async with`")

    @staticmethod
    def _awaits_in_body(with_node: ast.With) -> Iterator[ast.Await]:
        class _Finder(ast.NodeVisitor):
            def __init__(self) -> None:
                self.found: List[ast.Await] = []

            def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
                return

            def visit_AsyncFunctionDef(self,
                                       node: ast.AsyncFunctionDef) -> None:
                return

            def visit_Await(self, node: ast.Await) -> None:
                self.found.append(node)
                self.generic_visit(node)

        finder = _Finder()
        for statement in with_node.body:
            finder.visit(statement)
        return iter(finder.found)
