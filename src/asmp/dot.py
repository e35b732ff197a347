"""Graphviz text export for product chains and quotient-memory graphs.

Output is deterministic: nodes in id order, recurrent classes sorted by
their smallest node, edges sorted by endpoints. Recurrent classes render
as dashed clusters so lasso shapes are visible at a glance.
"""

from __future__ import annotations

from .chains import MarkovChain, recurrent_classes
from .collapse import ProjectionGraph
from .model import Pomdp


def _quote(text: str) -> str:
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_line(mc: MarkovChain, i: int) -> str:
    attrs = [f"label={_quote(mc.label_texts[i])}"]
    if i == mc.start:
        attrs.append("penwidth=2")
    return f"  n{i} [{', '.join(attrs)}];"


def chain_dot(mc: MarkovChain, title: str = "") -> str:
    """Render a chain; recurrent classes become dashed clusters."""
    lines = ["digraph chain {"]
    lines.append("  rankdir=LR;")
    lines.append("  node [shape=ellipse, fontsize=10];")
    if title:
        lines.append(f"  label={_quote(title)};")
        lines.append("  labelloc=t;")
    classes = recurrent_classes(mc)
    clustered = set()
    for k, cls in enumerate(classes):
        lines.append(f"  subgraph cluster_{k} {{")
        lines.append("    style=dashed;")
        lines.append(f"    label={_quote(f'recurrent class {k + 1}')};")
        for i in cls:
            clustered.add(i)
            lines.append("  " + _node_line(mc, i))
        lines.append("  }")
    for i in range(mc.n_nodes):
        if i not in clustered:
            lines.append(_node_line(mc, i))
    for i in range(mc.n_nodes):
        for j, p in mc.rows[i].items():
            acts = mc.edge_actions.get((i, j), frozenset())
            text = str(p)
            if acts:
                text += " (" + ",".join(mc.action_names[a] for a in sorted(acts)) + ")"
            lines.append(f"  n{i} -> n{j} [label={_quote(text)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def projection_dot(pg: ProjectionGraph, g: Pomdp) -> str:
    """Render a quotient-memory graph with collapsed-memory labels."""
    lines = ["digraph projection {"]
    lines.append("  rankdir=LR;")
    lines.append("  node [shape=box, fontsize=10];")
    for v, cm in enumerate(pg.vertices):
        attrs = [f"label={_quote(cm.pretty(g))}"]
        if v == pg.initial:
            attrs.append("penwidth=2")
        lines.append(f"  v{v} [{', '.join(attrs)}];")
    for v in range(pg.n_vertices):
        for a, w in pg.edges[v]:
            lines.append(f"  v{v} -> v{w} [label={_quote(g.action_name(a))}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
