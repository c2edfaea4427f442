import math
import random

import pytest

from trap4phish.urls import (
    DegenerateGroups,
    InsufficientData,
    UrlError,
    URL_FEATURE_NAMES,
    cohens_d,
    effect_size_report,
    url_features,
)


class TestUrlFeatures:
    def test_structured_https_url(self):
        # manual split per the declared rules: host a.b.example (3 labels -> 1
        # subdomain), path "p/q" without the leading slash, query "x=12"
        f = url_features("https://a.b.example/p/q?x=12")
        assert f.https_start == 1
        assert f.ipv4_like == 0
        assert f.subdomain_count == 1
        assert f.path_length == 3
        assert f.query_length == 4

    def test_ipv4_host(self):
        f = url_features("http://192.168.0.1/x")
        assert f.ipv4_like == 1
        assert f.https_start == 0

    def test_bare_scheme_host(self):
        f = url_features("ftp://host")
        assert f.https_start == 0
        assert f.query_length == 0
        assert f.path_length == 0

    def test_empty_rejected(self):
        with pytest.raises(UrlError):
            url_features("")

    def test_ratios_disjoint(self):
        rng = random.Random(8)
        alphabet = "abcXYZ0123./:?&=-_%~"
        for _ in range(200):
            url = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 60)))
            f = url_features(url)
            assert f.digit_ratio + f.symbol_ratio <= 1.0 + 1e-12
            assert f.path_length <= f.length
            assert f.query_length <= f.length

    def test_ipv4_requires_byte_range(self):
        assert url_features("http://999.1.1.1/").ipv4_like == 0
        assert url_features("http://255.255.255.255/").ipv4_like == 1

    def test_shortener_flag(self):
        assert url_features("https://bit.ly/abc").shortener_flag == 1
        assert url_features("https://example.com/abc").shortener_flag == 0

    def test_punct_chars(self):
        f = url_features("http://a.test/x_y?b=1&c=2")
        # : / / . / _ ? = & = -> 10
        assert f.punct_char_count == 10


class TestCohensD:
    def test_identical_groups_zero(self):
        e = cohens_d([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert e.cohens_d == 0.0

    def test_degenerate_groups(self):
        with pytest.raises(DegenerateGroups):
            cohens_d([0.0, 0.0], [1.0, 1.0])

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            cohens_d([1.0], [2.0, 3.0])

    def test_means_and_variances_sum_left_to_right(self):
        # 0.0 left to right, 1.0 with the compensated sum() of Python 3.12+
        e = cohens_d([1e16, 1.0, -1e16], [0.0, 3.0])
        assert e.mean_a == 0.0
        assert e.pooled_sd == math.sqrt((2e32 + 4.5) / 3)

    def test_hand_example(self):
        e = cohens_d([2.0, 4.0], [1.0, 3.0])
        assert e.cohens_d == pytest.approx(0.7071, abs=1e-4)
        assert e.pooled_sd == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_scale_and_shift_invariance(self):
        rng = random.Random(10)
        a = [rng.gauss(3, 1.5) for _ in range(40)]
        b = [rng.gauss(2, 1.0) for _ in range(35)]
        base = cohens_d(a, b).cohens_d
        scaled = cohens_d([4.0 * x for x in a], [4.0 * x for x in b]).cohens_d
        shifted = cohens_d([x + 11 for x in a], [x + 11 for x in b]).cohens_d
        assert scaled == pytest.approx(base, rel=1e-9)
        assert shifted == pytest.approx(base, rel=1e-9)

    def test_swap_negates(self):
        rng = random.Random(11)
        a = [rng.gauss(3, 1) for _ in range(20)]
        b = [rng.gauss(1, 1) for _ in range(20)]
        assert cohens_d(a, b).cohens_d == pytest.approx(-cohens_d(b, a).cohens_d, rel=1e-12)

    def test_sign_follows_mean_difference(self):
        e = cohens_d([5.0, 6.0, 7.0], [1.0, 2.0, 3.0])
        assert e.cohens_d > 0 and e.mean_a > e.mean_b


class TestEffectSizeReport:
    def test_sign_convention_malicious_minus_benign(self):
        benign = ["https://site.example/about", "https://blog.example/post"]
        malicious = ["http://10.1.2.3/x9427/p11", "http://52.9.1.7/q88/r20"]
        report = effect_size_report(benign, malicious)
        digit_effect = report["digit_ratio"]
        assert digit_effect is not None
        assert digit_effect.cohens_d > 0  # malicious group has more digits

    def test_identical_groups_zero_or_degenerate(self):
        urls = ["https://a.example/x", "https://b.example/y?q=1"]
        report = effect_size_report(urls, urls)
        for name in URL_FEATURE_NAMES:
            effect = report[name]
            assert effect is None or effect.cohens_d == 0.0

    def test_report_covers_every_feature(self):
        report = effect_size_report(
            ["https://a.example/1", "https://b.example/22"],
            ["http://1.2.3.4/333", "http://5.6.7.8/4444"],
        )
        assert set(report) == set(URL_FEATURE_NAMES)

    def test_requires_two_per_group(self):
        with pytest.raises(InsufficientData):
            effect_size_report(["https://a.example/"], ["http://b.test/", "http://c.test/"])

    def test_reproduces_constructed_effect_size(self):
        # build groups whose digit_ratio effect lands near 0.68 by sampling
        # two normals; the oracle is cohens_d on the raw per-URL ratios
        rng = random.Random(99)

        def make_url(ratio: float) -> str:
            length = 40
            digits = max(0, min(length, round(ratio * length)))
            path = "d" * (length - digits) + "1" * digits
            return "http://h.test/" + path

        target_ratios_m = [min(0.9, max(0.0, rng.gauss(0.30, 0.10))) for _ in range(120)]
        target_ratios_b = [min(0.9, max(0.0, rng.gauss(0.23, 0.10))) for _ in range(120)]
        malicious = [make_url(r) for r in target_ratios_m]
        benign = [make_url(r) for r in target_ratios_b]
        oracle = cohens_d(
            [url_features(u).digit_ratio for u in malicious],
            [url_features(u).digit_ratio for u in benign],
        )
        report = effect_size_report(benign, malicious)
        assert report["digit_ratio"].cohens_d == pytest.approx(oracle.cohens_d, rel=1e-12)
