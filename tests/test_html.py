import random

import pytest

from trap4phish.analyzers import analyze_html
from trap4phish.analyzers.html import HTML_COLUMNS, SCHEMA, SELECTED


def test_schema_shape():
    assert len(SCHEMA.columns) == 40
    assert len(HTML_COLUMNS) == 40
    assert len(SELECTED.columns) == 13


def test_basic_tag_counting():
    d = analyze_html(b"<html><body><form></form></body></html>").features
    assert d["tag_count"] == 3  # start tags only, end tags excluded
    assert d["form_count"] == 1
    assert d["iframe_count"] == 0
    assert d["unique_tag_count"] == 3
    assert d["max_nesting_depth"] == 3


def test_script_block_metrics():
    d = analyze_html(b"<script>eval(x)</script>").features
    assert d["script_block_count"] == 1
    assert d["embedded_js_count"] == 1
    assert d["external_script_count"] == 0
    assert d["eval_count"] == 1
    assert d["total_script_characters"] == 7  # "eval(x)"


def test_external_script_not_embedded():
    d = analyze_html(b'<script src="/app.js"></script>').features
    assert d["script_block_count"] == 1
    assert d["external_script_count"] == 1
    assert d["embedded_js_count"] == 0
    assert d["total_script_characters"] == 0


def test_window_location_redirect():
    d = analyze_html(b"<script>window.location='http://x.test';</script>").features
    assert d["location_redirect_count"] == 1


def test_link_classification_with_host():
    page = b'<a href="https://a.example/x">x</a><a href="/local">y</a>'
    d = analyze_html(page, page_host="a.example").features
    assert d["external_link_count"] == 0
    assert d["internal_link_count"] == 2
    assert d["min_link_length"] == 6  # "/local"
    assert d["url_count"] == 2


def test_link_classification_without_host():
    page = b'<a href="https://other.example/x">x</a><a href="/local">y</a>'
    d = analyze_html(page).features
    assert d["external_link_count"] == 1
    assert d["internal_link_count"] == 1


def test_base_href_sets_host():
    page = (b'<base href="https://site.example/"><a href="https://site.example/p">i</a>'
            b'<a href="https://elsewhere.example/q">e</a>')
    d = analyze_html(page).features
    assert d["internal_link_count"] == 1
    assert d["external_link_count"] == 1


def test_hidden_iframe_by_size():
    d = analyze_html(b'<iframe width="0" height="0">').features
    assert d["iframe_count"] == 1
    assert d["hidden_iframe_count"] == 1


def test_hidden_iframe_by_style():
    d = analyze_html(b'<iframe style="display: none" src="/x"></iframe>').features
    assert d["hidden_iframe_count"] == 1


def test_visible_iframe():
    d = analyze_html(b'<iframe width="400" height="300"></iframe>').features
    assert d["iframe_count"] == 1
    assert d["hidden_iframe_count"] == 0


def test_suspicious_keywords_in_visible_text_only():
    page = b"<p>please verify your account password</p>"
    d = analyze_html(page).features
    assert d["suspicious_keyword_count"] == 3  # verify, account, password
    assert d["keyword_text_ratio"] == pytest.approx(3 / 5)
    # keywords inside markup attributes do not count as visible text
    page2 = b'<div data-x="password login"></div>'
    assert analyze_html(page2).features["suspicious_keyword_count"] == 0


def test_url_char_counters():
    page = b'<a href="http://x.test/a1?b=2">l</a>'
    d = analyze_html(page).features
    assert d["url_digit_count"] == 2
    assert d["url_punct_char_count"] == 7  # : / / . / ? =


def test_url_char_counters_count_per_character_over_every_url():
    # str.isdigit also takes non-ASCII digits such as the superscript two
    urls = ["http://x.test/\u00b2\u0661?a=1&b_c-d", "/i-9.png"]
    page = f'<a href="{urls[0]}">l</a><img src="{urls[1]}">'.encode()
    d = analyze_html(page).features
    assert d["url_digit_count"] == sum(ch.isdigit() for u in urls for ch in u) == 4
    assert d["url_punct_char_count"] == sum(ch in "/-=?&:._" for u in urls for ch in u) == 13


def test_url_digit_increment():
    base = analyze_html(b'<a href="/pg">l</a>').features["url_digit_count"]
    more = analyze_html(b'<a href="/pg1">l</a>').features["url_digit_count"]
    assert more == base + 1


def test_style_urls_counted_but_not_links():
    page = (b'<div style="background: url(/bg.png)"></div>'
            b'<style>.x { background: url("/tile.gif"); }</style>'
            b'<a href="/page">p</a><script src="/s.js"></script>')
    d = analyze_html(page).features
    assert d["url_count"] == 4
    assert d["internal_link_count"] + d["external_link_count"] == 1


def test_meta_refresh():
    page = b'<meta http-equiv="refresh" content="0; url=http://x.test/">'
    assert analyze_html(page).features["meta_refresh_count"] == 1


def test_event_handlers():
    page = b'<body onload="go()"><img src="/x.png" onclick="a()" onerror="b()"></body>'
    assert analyze_html(page).features["event_handler_count"] == 3


def test_base64_occurrence():
    token = b"QUFBQUFBQUFBQUFBQUFBQUFBQUFBQUFB"  # 32 base64 chars
    page = b"<p>" + token + b"</p><p>c2hvcnQ=</p>"  # second one too short
    assert analyze_html(page).features["base64_occurrence_count"] == 1


def test_escape_counters():
    backslash = b"\x5c"
    page = (b"<script>var a='" + backslash + b"x41" + backslash + b"x42' + '"
            + backslash + b"u0041' + unescape('%u0042');</script>")
    d = analyze_html(page).features
    assert d["hex_escape_count"] == 2
    assert d["js_escape_count"] == 2


def test_link_length_stats_invariant():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.randrange(1, 6)
        urls = ["/" + "a" * rng.randrange(1, 30) for _ in range(n)]
        page = "".join(f'<a href="{u}">x</a>' for u in urls).encode()
        d = analyze_html(page).features
        assert d["url_count"] == n
        assert d["min_link_length"] <= d["avg_link_length"] <= d["max_link_length"]
        assert d["internal_link_count"] + d["external_link_count"] == n


def test_url_free_page_defined_values():
    d = analyze_html(b"<p>plain text</p>").features
    assert d["url_count"] == 0
    assert d["url_punct_char_count"] == 0
    assert d["min_link_length"] == 0


def test_whitespace_ratios():
    page = b"<p>a b</p>"
    d = analyze_html(page).features
    assert d["whitespace_ratio"] == pytest.approx(1 / 3)  # visible "a b"
    ws_raw = sum(1 for b in page if b in b" \t\r\n")
    assert d["html_whitespace_ratio"] == pytest.approx(ws_raw / len(page))
    assert 0 <= d["whitespace_ratio"] <= 1
    assert 0 <= d["html_whitespace_ratio"] <= 1


def test_entropy_ranges():
    rng = random.Random(9)
    for _ in range(20):
        blob = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 400)))
        d = analyze_html(blob).features
        assert 0.0 <= d["entropy"] <= 8.0
        assert 0.0 <= d["script_entropy"] <= 8.0


def test_tokenizer_total_on_malformed():
    cases = [
        b"<",
        b"<a",
        b"<a href=",
        b"<!doctype",
        b"<!--never closed",
        b"</",
        b"<script>never closed",
        b"<p <div>>",
        b"\xff\xfe\x00\x01<html>",
    ]
    for case in cases:
        report = analyze_html(case)
        assert len(report.features) == 40


def test_implied_close_p_and_li():
    page = b"<div><p>one<p>two<p>three</div>"
    d = analyze_html(page).features
    # successive <p> tags close each other: depth stays at div+p = 2
    assert d["max_nesting_depth"] == 2


def test_projection_order():
    features = analyze_html(b"<html><body></body></html>").features
    projected = [features[c] for c in SELECTED.columns]
    assert len(projected) == 13


def test_each_absolute_url_is_split_once(monkeypatch):
    from trap4phish.analyzers import html

    calls = []

    def counting_split(url):
        calls.append(url)
        return real_split(url)

    real_split = html.split_url
    monkeypatch.setattr(html, "split_url", counting_split)
    page = (b'<html><head><base href="http://base.test/">'
            b'<style>body { background: url(http://d.test/bg.png) }</style></head>'
            b'<body><a href="http://a.test/x">a</a><a href="http://base.test/in">b</a>'
            b'<a href="/relative">c</a><img src="https://b.test/i.png">'
            b'<script src="http://c.test/s.js"></script></body></html>')
    d = analyze_html(page).features
    absolute = ["http://a.test/x", "http://base.test/in", "https://b.test/i.png",
                "http://c.test/s.js", "http://d.test/bg.png"]
    assert sorted(calls) == sorted(absolute + ["http://base.test/"])
    # links: the base host and the relative one are internal
    assert (d["internal_link_count"], d["external_link_count"]) == (2, 2)
    assert d["url_count"] == 6


def test_script_entropy_is_a_left_to_right_mean(monkeypatch):
    # [1e16, 1.0, -1e16] sums to 0.0 left to right and to 1.0 compensated
    # (builtin sum() from Python 3.12 on)
    from trap4phish.analyzers import html

    fake = {b"s0": 1e16, b"s1": 1.0, b"s2": -1e16}
    real_entropy = html.shannon_entropy
    monkeypatch.setattr(html, "shannon_entropy", lambda data: fake.get(data) or real_entropy(data))
    page = b"<html><script>s0</script><script>s1</script><script>s2</script></html>"
    total = 0.0
    for value in fake.values():
        total += value
    assert analyze_html(page).features["script_entropy"] == total / 3 == 0.0
