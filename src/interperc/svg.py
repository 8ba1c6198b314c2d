"""Small static SVG writer, enough for line-set and path plots.

Output is deterministic: coordinates use a fixed decimal format and elements
serialize in insertion order, so redrawing the same scene yields the same
bytes.  No external renderer is involved; files are plain SVG 1.1.
"""

from __future__ import annotations


def _fmt(v: float) -> str:
    s = f"{float(v):.4f}".rstrip("0").rstrip(".")
    return "0" if s in ("", "-0") else s


def _label(v: float) -> str:
    return f"{float(v):.6g}"


class Canvas:
    """Fixed-size surface mapping a data rectangle onto screen pixels."""

    def __init__(self, x_range, y_range, width: int = 720, height: int = 480,
                 margin: int = 48):
        self.x0, self.x1 = float(x_range[0]), float(x_range[1])
        self.y0, self.y1 = float(y_range[0]), float(y_range[1])
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError("canvas ranges must be nonempty intervals")
        self.width = int(width)
        self.height = int(height)
        self.margin = int(margin)
        self._els = []

    # data -> screen
    def sx(self, x: float) -> float:
        t = (float(x) - self.x0) / (self.x1 - self.x0)
        return self.margin + t * (self.width - 2 * self.margin)

    def sy(self, y: float) -> float:
        t = (float(y) - self.y0) / (self.y1 - self.y0)
        return self.height - self.margin - t * (self.height - 2 * self.margin)

    def polyline(self, xs, ys, stroke: str = "#1f6fb4", width: float = 1.5,
                 dash: str = "") -> None:
        pts = " ".join(f"{_fmt(self.sx(x))},{_fmt(self.sy(y))}"
                       for x, y in zip(xs, ys))
        extra = f' stroke-dasharray="{dash}"' if dash else ""
        self._els.append(f'<polyline points="{pts}" fill="none" '
                         f'stroke="{stroke}" stroke-width="{_fmt(width)}"{extra}/>')

    def circles(self, xs, ys, r: float = 2.5, fill: str = "#c23b22") -> None:
        for x, y in zip(xs, ys):
            self._els.append(f'<circle cx="{_fmt(self.sx(x))}" cy="{_fmt(self.sy(y))}" '
                             f'r="{_fmt(r)}" fill="{fill}"/>')

    def segment(self, xa, ya, xb, yb, stroke: str = "#444444",
                width: float = 1.0) -> None:
        self._els.append(f'<line x1="{_fmt(self.sx(xa))}" y1="{_fmt(self.sy(ya))}" '
                         f'x2="{_fmt(self.sx(xb))}" y2="{_fmt(self.sy(yb))}" '
                         f'stroke="{stroke}" stroke-width="{_fmt(width)}"/>')

    def rect(self, xa, ya, xb, yb, fill: str = "#999999",
             opacity: float = 1.0) -> None:
        x = min(self.sx(xa), self.sx(xb))
        y = min(self.sy(ya), self.sy(yb))
        w = abs(self.sx(xb) - self.sx(xa))
        h = abs(self.sy(yb) - self.sy(ya))
        self._els.append(f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
                         f'height="{_fmt(h)}" fill="{fill}" '
                         f'opacity="{_fmt(opacity)}"/>')

    def text(self, x, y, s: str, size: int = 11, anchor: str = "start",
             screen: bool = False) -> None:
        px = x if screen else self.sx(x)
        py = y if screen else self.sy(y)
        s = (str(s).replace("&", "&amp;").replace("<", "&lt;")
             .replace(">", "&gt;"))
        self._els.append(f'<text x="{_fmt(px)}" y="{_fmt(py)}" '
                         f'font-size="{size}" font-family="monospace" '
                         f'text-anchor="{anchor}">{s}</text>')

    def axes(self, title: str = "") -> None:
        """Plot frame plus corner range labels (and an optional title)."""
        m = self.margin
        w, h = self.width, self.height
        self._els.append(f'<rect x="{m}" y="{m}" width="{w - 2 * m}" '
                         f'height="{h - 2 * m}" fill="none" stroke="#222222" '
                         f'stroke-width="1"/>')
        self.text(m, h - m + 14, _label(self.x0), anchor="start", screen=True)
        self.text(w - m, h - m + 14, _label(self.x1), anchor="end", screen=True)
        self.text(m - 4, h - m, _label(self.y0), anchor="end", screen=True)
        self.text(m - 4, m + 10, _label(self.y1), anchor="end", screen=True)
        if title:
            self.text(w / 2, m - 8, title, size=13, anchor="middle", screen=True)

    def tostring(self) -> str:
        head = ('<?xml version="1.0" encoding="UTF-8"?>\n'
                f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                f'width="{self.width}" height="{self.height}" '
                f'viewBox="0 0 {self.width} {self.height}">')
        body = "\n".join(self._els)
        return f"{head}\n{body}\n</svg>\n"
