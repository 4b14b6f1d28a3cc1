import pytest

from gebd.report import render_class_bars, render_timeline


class TestTimeline:
    def test_tick_at_half_duration(self):
        svg = render_timeline("vid", 10.0, [("pred", [5.0])])
        # 640 px wide: the label column is 110 px, the plot spans to width-12
        x = 110 + 5.0 / 10.0 * (640 - 110 - 12)
        assert f'x1="{x:.2f}"' in svg

    def test_deterministic(self):
        tracks = [("pred", [1.0, 2.0]), ("a0", [1.5])]
        assert (render_timeline("vid", 10.0, tracks)
                == render_timeline("vid", 10.0, tracks))

    def test_six_lanes_in_order(self):
        tracks = [("predicted", [1.0])] + [(f"a{k}", [2.0]) for k in range(5)]
        svg = render_timeline("vid", 10.0, tracks)
        positions = [svg.index(f">{name}<") for name, _ in tracks]
        assert positions == sorted(positions)

    def test_tick_positions_monotone(self):
        svg = render_timeline("vid", 10.0, [("t", [1.0, 4.0, 9.0])])
        xs = [float(part.split('"')[0]) for part in svg.split('<line x1="')[2:]]
        assert xs == sorted(xs)

    def test_empty_tracks_rejected(self):
        with pytest.raises(ValueError):
            render_timeline("vid", 10.0, [])

    def test_out_of_range_timestamp_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            render_timeline("vid", 10.0, [("p", [11.0])])

    def test_escapes_markup(self):
        svg = render_timeline("a<b&c", 1.0, [("t", [0.5])])
        assert "a&lt;b&amp;c" in svg


class TestClassBars:
    def test_full_width_bar(self):
        svg = render_class_bars([("best", 1.0)], "title")
        plot_w = 520 - 190 - 60  # 520 px wide, less the label column and margin
        assert f'width="{plot_w:.2f}"' in svg

    def test_proportional_lengths(self):
        svg = render_class_bars([("a", 0.5), ("b", 0.25)], "t")
        widths = []
        for chunk in svg.split("<rect ")[1:]:
            attrs = dict(kv.split("=", 1) for kv in chunk.split(">")[0].split()
                         if "=" in kv)
            widths.append(float(attrs["width"].strip('"')))
        assert widths[0] == pytest.approx(2 * widths[1])

    def test_deterministic(self):
        rows = [("a", 0.9), ("b", 0.1)]
        assert render_class_bars(rows, "x") == render_class_bars(rows, "x")

    def test_labels_verbatim(self):
        svg = render_class_bars([("drift_square", 0.4)], "top")
        assert ">drift_square<" in svg

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            render_class_bars([], "t")

    def test_out_of_range_value_rejected(self):
        with pytest.raises(ValueError):
            render_class_bars([("a", 1.2)], "t")
