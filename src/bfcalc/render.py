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
    """Edges of a tree drawn between y=top (root) and y=bottom (leaves).  The
    depths are read by the stack pass of trees._start_depths: once the top n
    entries are siblings, their parent replaces them, centred above them, and
    its n edges are written, so each tree's edges come in one fixed order."""
    n, span = tree.arity, (bottom - top) / (max(tree.depths) or 1)
    stack: list[tuple[float, float, int]] = []  # (x, y, depth) of nodes awaiting a parent
    paths = []
    for x, d in zip(xs, tree.depths):
        stack.append((x, bottom if not mirror else top, d))
        while d > 0 and len(stack) >= n and stack[-n][2] == d:
            children = stack[-n:]
            del stack[-n:]
            d -= 1
            x1 = sum(c[0] for c in children) / n
            y1 = top + span * d if not mirror else bottom - span * d
            paths += [f'<line class="caret-edge" x1="{x1:.1f}" y1="{y1:.1f}" '
                      f'x2="{x2:.1f}" y2="{y2:.1f}" stroke="black"/>' for x2, y2, _ in children]
            stack.append((x1, y1, d))
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
    y, at = braid_top, 0
    for letter in x.braid.letters:
        step = 2 * (letter[1] - letter[0])  # A[i,j] is 2(j - i) crossings of the sigma word
        block_letters, at = sigma.letters[at : at + step], at + step
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
