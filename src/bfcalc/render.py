"""
SVG diagrams of elements: domain tree on top, braid in the middle with the
strand labels written next to the strands, range tree mirrored below.

Layout is best effort, content is complete: every caret edge, every
crossing and every nontrivial label appears in the output.  Crossings are
grouped one <g> block per braid letter so a single pure generator renders
as a single crossing block.
"""

from __future__ import annotations

from .bfgroup import BFElement, format_braid, format_label
from .braid import a_to_sigma
from .trees import Tree

STRAND_GAP = 36
ROW_GAP = 26
MARGIN = 24
LABEL_ROW = 18


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _tree_edges(tree: Tree, xs: list[float], top: float, bottom: float,
                mirror: bool) -> list[str]:
    """Edges of a tree drawn between y=top (root) and y=bottom (leaves)."""
    span = (bottom - top) / (max(tree.depths) or 1)
    leaf_y = bottom if not mirror else top
    pos = {leaf: (x, leaf_y) for x, leaf in zip(xs, tree.leaves)}  # the leaves, left to right
    # Every node, deepest first; within a depth, edges follow the frozenset's order.
    nodes = sorted(frozenset({leaf[:k] for leaf in pos for k in range(len(leaf) + 1)}),
                   key=len, reverse=True)
    for node in nodes:
        if node in pos:
            continue
        children = [pos[node + (d,)] for d in range(tree.arity)]
        x = sum(c[0] for c in children) / len(children)
        y = top + span * len(node) if not mirror else bottom - span * len(node)
        pos[node] = (x, y)
    paths = []
    for node in nodes:
        if node == ():
            continue
        x1, y1 = pos[node[:-1]]
        x2, y2 = pos[node]
        paths.append(
            f'<line class="caret-edge" x1="{x1:.1f}" y1="{y1:.1f}" '
            f'x2="{x2:.1f}" y2="{y2:.1f}" stroke="black"/>')
    return paths


def render_svg(x: BFElement) -> str:
    """Full diagram of a representative as an SVG document."""
    m = x.leaf_count
    sigma = a_to_sigma(x.braid)
    tree_height = 3 * ROW_GAP
    braid_rows = max(len(sigma.letters), 1)
    width = 2 * MARGIN + (m - 1) * STRAND_GAP + 2 * STRAND_GAP
    height = 2 * MARGIN + 2 * tree_height + 2 * LABEL_ROW + braid_rows * ROW_GAP
    xs = [MARGIN + STRAND_GAP + k * STRAND_GAP for k in range(m)]

    top_tree_bottom = MARGIN + tree_height
    braid_top = top_tree_bottom + LABEL_ROW
    braid_bottom = braid_top + braid_rows * ROW_GAP
    bottom_tree_top = braid_bottom + LABEL_ROW

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<g class="domain-tree">',
        *_tree_edges(x.t1, xs, MARGIN, top_tree_bottom, mirror=False),
        "</g>",
    ]

    for idx, label in enumerate(x.labels):
        if not label:
            continue
        parts.append(
            f'<text class="strand-label" x="{xs[idx]:.1f}" y="{braid_top - 4:.1f}" '
            f'font-size="9" text-anchor="middle">{_esc(format_label(label, x.context))}</text>')

    # Strand segments row by row; each braid letter becomes one crossing group.
    strand_parts: list[str] = []
    cross_parts: list[str] = []
    y = braid_top
    for letter in x.braid.letters:
        block_letters = a_to_sigma(type(x.braid)(x.braid.strands, (letter,))).letters
        group = [f'<g class="aletter" data-letter="{letter[0]},{letter[1]},{letter[2]}">']
        for crossing in block_letters:
            q = abs(crossing) - 1
            y2 = y + ROW_GAP
            for p in range(m):
                x1 = xs[p]
                if p == q:
                    x2 = xs[q + 1]
                elif p == q + 1:
                    x2 = xs[q]
                else:
                    x2 = x1
                over = (crossing < 0 and p == q) or (crossing > 0 and p == q + 1)
                if p in (q, q + 1) and not over:
                    midx, midy = (x1 + x2) / 2, (y + y2) / 2
                    gapx, gapy = (x2 - x1) * 0.18, ROW_GAP * 0.18
                    group.append(
                        f'<line class="strand under" x1="{x1:.1f}" y1="{y:.1f}" '
                        f'x2="{midx - gapx:.1f}" y2="{midy - gapy:.1f}" stroke="black"/>')
                    group.append(
                        f'<line class="strand under" x1="{midx + gapx:.1f}" '
                        f'y1="{midy + gapy:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" stroke="black"/>')
                else:
                    cls = "strand over" if p in (q, q + 1) else "strand"
                    group.append(
                        f'<line class="{cls}" x1="{x1:.1f}" y1="{y:.1f}" '
                        f'x2="{x2:.1f}" y2="{y2:.1f}" stroke="black"/>')
            y = y2
        group.append("</g>")
        cross_parts.append("".join(group))
    if not x.braid.letters:
        for p in range(m):
            strand_parts.append(
                f'<line class="strand" x1="{xs[p]:.1f}" y1="{braid_top:.1f}" '
                f'x2="{xs[p]:.1f}" y2="{braid_bottom:.1f}" stroke="black"/>')

    parts.append('<g class="braid">')
    parts.extend(cross_parts)
    parts.extend(strand_parts)
    parts.append("</g>")
    parts.append('<g class="range-tree">')
    parts.extend(_tree_edges(x.t2, xs, bottom_tree_top, height - MARGIN, mirror=True))
    parts.append("</g>")
    parts.append("</svg>")
    return "\n".join(parts)


def render_text(x: BFElement) -> str:
    """Structural plain-text rendering of the same content."""
    lines = [
        f"arity {x.arity}, {x.leaf_count} leaves",
        "domain tree: " + " ".join("".join(map(str, a)) for a in x.t1.leaves),
        "braid: " + (format_braid(x.braid) or "1"),
    ]
    for idx, label in enumerate(x.labels, start=1):
        if label:
            lines.append(f"label {idx}: {format_label(label, x.context)}")
    lines.append("range tree: " + " ".join("".join(map(str, a)) for a in x.t2.leaves))
    return "\n".join(lines)
