"""Self time per span from merged JSONL traces.

Spans nest by their parent ids, with one repair: the pipeline runner
records each ``pipeline.task`` span after its wave has finished, so the
kernel and stats spans a task emitted name ``pipeline.run`` as their
parent.  Such a span is moved under the task span it overlaps most.
A span's self time is its duration minus its children's; for a root
that remainder is the time no named span explains ("untraced").
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Node:
    span: dict
    start: float
    end: float
    children: list["Node"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return str(self.span.get("name"))

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def attr(self, key: str):
        return (self.span.get("attrs") or {}).get(key)


def build_forest(spans: list[dict]) -> list[Node]:
    """Nest spans by parent id; returns the roots in start order."""
    nodes = {
        s["span"]: Node(s, float(s["ts"]),
                        float(s["ts"]) + float(s["duration_ms"]) / 1000.0)
        for s in spans
    }
    roots: list[Node] = []
    for node in sorted(nodes.values(), key=lambda n: n.start):
        parent = nodes.get(node.span.get("parent"))
        (parent.children if parent is not None else roots).append(node)
    for node in nodes.values():
        if node.name == "pipeline.run":
            _adopt_into_tasks(node)
    return roots


def _overlap(a: Node, b: Node) -> float:
    return max(0.0, min(a.end, b.end) - max(a.start, b.start))


def _adopt_into_tasks(run: Node) -> None:
    tasks = [c for c in run.children if c.name == "pipeline.task"]
    kept = []
    for child in run.children:
        if child.name != "pipeline.task" and tasks:
            best = max(tasks, key=lambda t: _overlap(t, child))
            if _overlap(best, child) > 0.5 * child.seconds:
                best.children.append(child)
                continue
        kept.append(child)
    run.children = kept


def walk(nodes: list[Node]):
    stack = list(reversed(nodes))
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def summarize(roots: list[Node]) -> list[tuple[str, int, float, float]]:
    """(name, count, total s, self s) per span name, by self time."""
    count: dict[str, int] = defaultdict(int)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    for node in walk(roots):
        count[node.name] += 1
        total[node.name] += node.seconds
        own[node.name] += node.self_seconds
    rows = [(name, count[name], total[name], own[name]) for name in count]
    rows.sort(key=lambda r: -r[3])
    return rows


def format_summary(roots: list[Node], *, top: int = 30) -> str:
    lines = [f"{'span':<36} {'count':>6} {'total s':>9} {'self s':>9}"]
    for name, n, tot, own in summarize(roots)[:top]:
        lines.append(f"{name:<36} {n:>6} {tot:>9.3f} {own:>9.3f}")
    for root in roots:
        lines.append(f"untraced in {root.name:<24} {root.self_seconds:>9.3f} "
                     f"of {root.seconds:.3f} s")
    return "\n".join(lines)


def prefixed(spans: list[dict], prefix: str) -> list[dict]:
    """Copies with span/parent ids made unique across merged files."""
    out = []
    for span in spans:
        copy = dict(span)
        copy["span"] = f"{prefix}{span['span']}"
        if span.get("parent") is not None:
            copy["parent"] = f"{prefix}{span['parent']}"
        out.append(copy)
    return out
