"""SVG rendering: per-video boundary timelines and per-class bar charts.

Output is plain SVG 1.1 text of fixed width, built deterministically from
the arguments - no timestamps, no randomness - so renders are diffable and
testable by string comparison.  A timeline is 640 px wide and as tall as
its tracks need; a bar chart is 520 px wide.
"""

from __future__ import annotations

_SVG_HEADER = ('<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
               'viewBox="0 0 {w} {h}" font-family="monospace" font-size="11">\n')

_TRACK_COLORS = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#8c564b",
                 "#e377c2", "#7f7f7f", "#bcbd22", "#17becf", "#ff7f0e")

TIMELINE_WIDTH = 640
BARS_WIDTH = 520


def render_timeline(video_id: str, duration: float, tracks) -> str:
    """One lane per ``(name, [timestamps])`` track, a tick per boundary."""
    if not tracks:
        raise ValueError("timeline needs at least one track")
    if duration <= 0:
        raise ValueError("duration must be positive")
    label_w = 110
    lane_h = 26
    top = 22
    height = top + lane_h * len(tracks) + 8
    plot_w = TIMELINE_WIDTH - label_w - 12
    out = [_SVG_HEADER.format(w=TIMELINE_WIDTH, h=height)]
    out.append(f'<text x="4" y="14">{_esc(video_id)}</text>\n')
    for lane, (name, stamps) in enumerate(tracks):
        y0 = top + lane * lane_h
        mid = y0 + lane_h / 2
        color = _TRACK_COLORS[lane % len(_TRACK_COLORS)]
        out.append(f'<text x="4" y="{mid + 4:.2f}">{_esc(name)}</text>\n')
        out.append(f'<line x1="{label_w}" y1="{mid:.2f}" '
                   f'x2="{label_w + plot_w}" y2="{mid:.2f}" '
                   f'stroke="#cccccc" stroke-width="1"/>\n')
        for t in stamps:
            if not 0 <= t <= duration:
                raise ValueError(
                    f"{video_id}/{name}: timestamp {t} outside [0,duration]")
            x = label_w + t / duration * plot_w
            out.append(f'<line x1="{x:.2f}" y1="{y0 + 3:.2f}" '
                       f'x2="{x:.2f}" y2="{y0 + lane_h - 3:.2f}" '
                       f'stroke="{color}" stroke-width="2"/>\n')
    out.append("</svg>\n")
    return "".join(out)


def render_class_bars(classes, title: str) -> str:
    """Horizontal bars, one per (label, value in [0,1]) pair, lengths proportional."""
    classes = list(classes)
    if not classes:
        raise ValueError("class list must be non-empty")
    label_w = 190
    bar_h = 18
    gap = 6
    top = 26
    height = top + len(classes) * (bar_h + gap) + 6
    plot_w = BARS_WIDTH - label_w - 60
    out = [_SVG_HEADER.format(w=BARS_WIDTH, h=height)]
    out.append(f'<text x="4" y="16">{_esc(title)}</text>\n')
    for row, (label, value) in enumerate(classes):
        if not 0 <= value <= 1:
            raise ValueError(f"value for {label!r} outside [0,1]: {value}")
        y = top + row * (bar_h + gap)
        bar = value * plot_w
        out.append(f'<text x="4" y="{y + bar_h - 5:.2f}">{_esc(label)}</text>\n')
        out.append(f'<rect x="{label_w}" y="{y:.2f}" width="{bar:.2f}" '
                   f'height="{bar_h}" fill="#1f77b4"/>\n')
        out.append(f'<text x="{label_w + bar + 4:.2f}" y="{y + bar_h - 5:.2f}">'
                   f'{value:.3f}</text>\n')
    out.append("</svg>\n")
    return "".join(out)


def _esc(text: str) -> str:
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))
