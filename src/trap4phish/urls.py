"""Lexical/structural URL features and group effect-size comparison
(Cohen's d, malicious-minus-benign sign convention).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields

from .config import URL_SHORTENER_HOSTS

PUNCT_CHARS = set("/-=?&:._")

_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")


class UrlError(ValueError):
    pass


class DegenerateGroups(ValueError):
    """Pooled standard deviation is zero: effect size undefined."""


class InsufficientData(ValueError):
    """Fewer than two observations in a group."""


@dataclass
class UrlFeatures:
    length: float
    digit_ratio: float
    symbol_ratio: float
    ipv4_like: float
    path_length: float
    query_length: float
    https_start: float
    subdomain_count: float
    punct_char_count: float
    shortener_flag: float

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


URL_FEATURE_NAMES = tuple(f.name for f in fields(UrlFeatures))


def split_url(url: str) -> tuple[str, str, str, str]:
    """Split at the first "://", first "/" and first "?" into
    (scheme, host, path, query). No RFC validation is attempted."""
    scheme = ""
    rest = url
    if "://" in url:
        scheme, rest = url.split("://", 1)
    host = rest
    path = ""
    query = ""
    if "/" in rest:
        host, path = rest.split("/", 1)
        path = "/" + path
    if "?" in path:
        path, query = path.split("?", 1)
    elif "?" in host:
        host, query = host.split("?", 1)
    return scheme, host, path, query


def host_only(host: str) -> str:
    """Drop userinfo and port from a host component."""
    if "@" in host:
        host = host.rsplit("@", 1)[1]
    if ":" in host:
        host = host.split(":", 1)[0]
    return host


def is_ipv4_like(host: str) -> bool:
    m = _IPV4_RE.match(host)
    return bool(m) and all(int(g) <= 255 for g in m.groups())


def subdomain_count(host: str) -> int:
    """Dot-separated host labels beyond registered domain + TLD."""
    labels = [l for l in host.split(".") if l != ""]
    return max(0, len(labels) - 2)


def url_features(url: str) -> UrlFeatures:
    """Compute the lexical feature record for one URL string.

    The input need not be RFC-valid; empty input is an error.
    """
    if not url:
        raise UrlError("empty URL")
    _scheme, raw_host, path, query = split_url(url)
    host = host_only(raw_host)
    n = len(url)
    digits = sum(1 for ch in url if ch.isdigit())
    symbols = sum(1 for ch in url if not ch.isalnum() and ch not in "./")
    # path length excludes the leading "/", query length excludes the "?"
    path_len = max(0, len(path) - 1) if path else 0
    query_len = len(query)
    return UrlFeatures(
        length=float(n),
        digit_ratio=digits / n,
        symbol_ratio=symbols / n,
        ipv4_like=1.0 if is_ipv4_like(host) else 0.0,
        path_length=float(path_len),
        query_length=float(query_len),
        https_start=1.0 if url.lower().startswith("https://") else 0.0,
        subdomain_count=float(subdomain_count(host)),
        punct_char_count=float(sum(1 for ch in url if ch in PUNCT_CHARS)),
        shortener_flag=1.0 if host.lower() in URL_SHORTENER_HOSTS else 0.0,
    )


@dataclass
class EffectSize:
    cohens_d: float
    mean_a: float
    mean_b: float
    pooled_sd: float
    n_a: int
    n_b: int


def cohens_d(group_a: list[float], group_b: list[float]) -> EffectSize:
    """Standardized mean difference (mean_a - mean_b) / pooled_sd with
    sample (n-1) variances."""
    n_a, n_b = len(group_a), len(group_b)
    if n_a < 2 or n_b < 2:
        raise InsufficientData(f"need at least 2 per group, got {n_a} and {n_b}")
    mean_a = sum(group_a) / n_a
    mean_b = sum(group_b) / n_b
    var_a = sum((x - mean_a) ** 2 for x in group_a) / (n_a - 1)
    var_b = sum((x - mean_b) ** 2 for x in group_b) / (n_b - 1)
    pooled = math.sqrt(((n_a - 1) * var_a + (n_b - 1) * var_b) / (n_a + n_b - 2))
    if pooled == 0.0:
        raise DegenerateGroups("pooled standard deviation is zero")
    return EffectSize((mean_a - mean_b) / pooled, mean_a, mean_b, pooled, n_a, n_b)


def effect_size_report(
    benign_urls: list[str],
    malicious_urls: list[str],
) -> dict[str, EffectSize | None]:
    """Per-feature effect sizes, sign convention malicious minus benign.

    Features whose pooled standard deviation is zero map to None.
    """
    if len(benign_urls) < 2 or len(malicious_urls) < 2:
        raise InsufficientData("need at least 2 URLs per group")
    benign = [url_features(u) for u in benign_urls]
    malicious = [url_features(u) for u in malicious_urls]
    report: dict[str, EffectSize | None] = {}
    for name in URL_FEATURE_NAMES:
        a = [getattr(f, name) for f in malicious]
        b = [getattr(f, name) for f in benign]
        try:
            report[name] = cohens_d(a, b)
        except DegenerateGroups:
            report[name] = None
    return report
