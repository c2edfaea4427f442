#!/usr/bin/env bash
# Runs the installed `trap4phish` console script end to end, in the
# directory given as the first argument (a new temporary one by default).
# The tier-1 tests import from src/, so only this script runs the entry
# point that pyproject.toml declares. The QR round trips run the installed
# renderer, PGM writer and reader, and decoder, once at the default render
# settings and once at one pixel a module with a one-module quiet zone;
# the docx commands run the installed dataset reader, trees and rankers.
# A selected-feature scan writes the 10 selected columns and a label to its
# CSV and all 43 columns to each report JSON.
# The auto-format scan runs the directory walk (a linked file counts, a
# linked directory is not entered) and the sniffer (an HTML page after a
# byte-order mark) over docx and html corpora.
# The script stops at the first command that exits non-zero.
set -euo pipefail

cd "${1:-$(mktemp -d)}"
url="https://ci.test/roundtrip?q=1"
trap4phish --version
echo "$url" > url.txt
trap4phish qr encode --in url.txt --out-dir qr
test "$(trap4phish qr decode --in qr/00000.pgm)" = "$url"
trap4phish qr encode --in url.txt --out-dir qr1 --module-px 1 --quiet-zone 1
test "$(trap4phish qr decode --in qr1/00000.pgm)" = "$url"
trap4phish synth --format docx --count 6 --out corpus
trap4phish scan corpus --format docx --labels corpus/labels.csv --out docx.csv
trap4phish scan corpus --format docx --features selected --labels corpus/labels.csv \
  --report-dir reports --out selected.csv
test "$(head -n 1 selected.csv | tr ',' '\n' | wc -l)" -eq 11
python3 -c 'import json, sys; assert len(json.load(open(sys.argv[1]))["features"]) == 43' \
  reports/benign_00000.docx.json
trap4phish train --in docx.csv --format docx --trees 5 --out-dir models
trap4phish evaluate --model models/random_forest.json --in docx.csv --format docx --out eval.json
trap4phish rank --in docx.csv --format docx --trees 5 --out rank.csv
test -s models/metrics.json && test -s eval.json && test -s rank.topk.json
mkdir auto
trap4phish synth --format docx --count 3 --out auto/docx
trap4phish synth --format html --count 3 --out auto/html
ln -s ../corpus/benign_00000.docx auto/linked.docx
ln -s ../corpus auto/linked_corpus
printf '\xef\xbb\xbf<!DOCTYPE html><html><body><p>marked</p></body></html>\n' > auto/marked.html
trap4phish scan auto --format auto --out auto_csv
# a header, six synth files and the linked file or the marked page
test "$(wc -l < auto_csv/docx.csv)" -eq 8 && test "$(wc -l < auto_csv/html.csv)" -eq 8
