"""Span recorder that instruments ``mheight`` from outside the package.

Each instrumented function is replaced, at every module or class attribute
of the package that refers to it, by a wrapper that records a span: name,
start, end and parent.  Replacing every attribute matters because callers
resolve names in their own module (``mheight.cli.exact_profile`` is the
same function object as ``mheight.lp.exact_profile``).  Spans stay in
memory until the run writes them out.
"""

from __future__ import annotations

import functools
import json
import re
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Sequence
from contextlib import contextmanager


@dataclass(slots=True)
class Span:
    name: str
    start: int
    end: int
    parent: int
    call: tuple | None = None      # (args, kwargs) when the target asks for it
    outcome: Any = None            # return value or raised exception


@dataclass
class Tracer:
    """Records nested spans; ``install`` patches the package, ``uninstall``
    restores every attribute it patched."""

    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[Any, str, Any]] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self._open(name, None)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str, call: tuple | None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0, 0, parent, call))
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn: Callable, keep_call: bool) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, (args, kwargs) if keep_call else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(idx)
                self.spans[idx].outcome = exc
                raise
            self._close(idx)
            if keep_call:
                self.spans[idx].outcome = result
            return result
        return traced

    def install(self, package: str, targets: Sequence[tuple[str, bool]]) -> None:
        """Wrap each ``(dotted path, keep_call)`` target.

        The dotted path is relative to ``package`` and names a function
        (``lp.exact_profile``) or a method (``heights.ExtendedHeight.to_json_dict``).
        Its spans are named ``<module>.<function>``.
        """
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers: dict[int, Callable] = {}
        for path, keep_call in targets:
            owner, attr = _resolve_owner(package, path)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{path.split('.')[0]}.{attr}", original, keep_call)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
            else:
                wrappers[id(original)] = wrapper
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patch(module, attr, wrapper)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def self_times(self) -> list[int]:
        """Per-span duration minus the durations of its direct children.

        Spans nest strictly (one thread), so the children of a span never
        overlap and their covered interval is the sum of their durations.
        """
        own = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.end - s.start
        return own

    def dump(self, path: str) -> None:
        rows = [[s.name, s.start, s.end, s.parent] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))


def _resolve_owner(package: str, path: str) -> tuple[Any, str]:
    parts = path.split(".")
    owner: Any = sys.modules[f"{package}.{parts[0]}"]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


_IMPORTTIME_ROW = re.compile(r"^import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)\s*$")


def parse_importtime(stderr: str) -> dict[str, tuple[int, int]]:
    """Map each top-level-or-nested module to ``(self_us, cumulative_us)``.

    ``stderr`` is the output of ``python -X importtime``.  A module listed
    twice keeps its first row.
    """
    rows: dict[str, tuple[int, int]] = {}
    for line in stderr.splitlines():
        match = _IMPORTTIME_ROW.match(line)
        if match:
            rows.setdefault(match.group(4), (int(match.group(1)), int(match.group(2))))
    return rows
