#!/usr/bin/env python3
"""Lint a Prometheus text exposition (the /metrics payload).

Checks the contract scrapers rely on, family by family:

  structure  every sample belongs to a family that was announced with
             both a # HELP and a # TYPE line before its first sample,
             and the declared type is one Prometheus defines.
  names      metric names match [a-zA-Z_:][a-zA-Z0-9_:]* and label names
             match [a-zA-Z_][a-zA-Z0-9_]*.
  samples    every value parses as a float (NaN allowed only for summary
             quantiles), and no (name, labelset) pair appears twice.
  summaries  quantile labels parse as floats in [0, 1] and the reported
             values are non-decreasing as the quantile increases.
  histograms _bucket cumulative counts are monotone in le, the +Inf
             bucket exists and equals _count.

Reads a file, or stdin when the argument is '-'. With --scrape HOST:PORT it
instead fetches GET /metrics from a live admin plane three times, 0.3 s
apart, lints each exposition, and also fails when a sample of a family
typed counter is lower in a later scrape than in an earlier one: a value
that can go down must be typed gauge. Scrape while the server is under load
for the check to mean something.
Exit codes: 0 ok, 1 violation, 2 usage/IO error.
"""

import argparse
import math
import re
import sys
import time
import urllib.request

NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
TYPES = {"counter", "gauge", "summary", "histogram", "untyped"}
# --scrape: how many expositions to fetch, and how far apart.
SCRAPES = 3
SCRAPE_INTERVAL_S = 0.3

# One sample line: name{labels} value [timestamp]
SAMPLE_RE = re.compile(
    r"^(?P<name>[^\s{]+)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?$")
LABEL_PAIR_RE = re.compile(r'([^=,]+)="((?:[^"\\]|\\.)*)"')


class Lint:
    def __init__(self):
        self.status = 0

    def fail(self, line_no, msg):
        print("validate_exposition: FAIL: line %d: %s" % (line_no, msg),
              file=sys.stderr)
        self.status = 1


def base_family(name):
    """Maps a sample name to the family that must have announced it:
    summary/histogram samples use the family name plus a suffix."""
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[:-len(suffix)]
    return name


def parse_labels(lint, line_no, raw):
    labels = []
    if raw is None or raw.strip() == "":
        return labels
    consumed = 0
    for m in LABEL_PAIR_RE.finditer(raw):
        lname = m.group(1).strip()
        if not LABEL_RE.match(lname):
            lint.fail(line_no, "illegal label name '%s'" % lname)
        labels.append((lname, m.group(2)))
        consumed = m.end()
    rest = raw[consumed:].strip().strip(",")
    if rest:
        lint.fail(line_no, "unparseable label text '%s'" % rest)
    return labels


def parse_value(lint, line_no, text):
    low = text.lower()
    if low in ("+inf", "inf"):
        return math.inf
    if low == "-inf":
        return -math.inf
    if low == "nan":
        return math.nan
    try:
        return float(text)
    except ValueError:
        lint.fail(line_no, "value '%s' is not a number" % text)
        return None


def lint_exposition(text, min_samples):
    """Lints one exposition. Returns (status, counters), where counters maps
    each (name, labelset) sample of a counter family to its value."""
    lint = Lint()
    helped = set()     # families with a # HELP line seen
    typed = {}         # family -> declared type
    seen = set()       # (name, labelset) pairs
    counters = {}      # (name, labelset) -> value, counter families only
    samples = 0
    # family -> list of (line_no, labels, value) for post-pass checks
    summary_quants = {}
    hist_buckets = {}
    hist_counts = {}

    for line_no, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("# HELP "):
            parts = stripped.split(None, 3)
            if len(parts) < 3:
                lint.fail(line_no, "malformed HELP line")
                continue
            fam = parts[2]
            if not NAME_RE.match(fam):
                lint.fail(line_no, "illegal metric name '%s'" % fam)
            if fam in helped:
                lint.fail(line_no, "duplicate HELP for '%s'" % fam)
            helped.add(fam)
            continue
        if stripped.startswith("# TYPE "):
            parts = stripped.split()
            if len(parts) != 4:
                lint.fail(line_no, "malformed TYPE line")
                continue
            fam, ftype = parts[2], parts[3]
            if not NAME_RE.match(fam):
                lint.fail(line_no, "illegal metric name '%s'" % fam)
            if ftype not in TYPES:
                lint.fail(line_no, "unknown type '%s'" % ftype)
            if fam in typed:
                lint.fail(line_no, "duplicate TYPE for '%s'" % fam)
            typed[fam] = ftype
            continue
        if stripped.startswith("#"):
            continue  # comment

        m = SAMPLE_RE.match(stripped)
        if not m:
            lint.fail(line_no, "unparseable sample line")
            continue
        name = m.group("name")
        if not NAME_RE.match(name):
            lint.fail(line_no, "illegal metric name '%s'" % name)
            continue
        fam = base_family(name)
        ftype = typed.get(fam) or typed.get(name)
        if fam not in typed and name not in typed:
            lint.fail(line_no, "sample '%s' has no preceding TYPE" % name)
        if fam not in helped and name not in helped:
            lint.fail(line_no, "sample '%s' has no preceding HELP" % name)
        labels = parse_labels(lint, line_no, m.group("labels"))
        value = parse_value(lint, line_no, m.group("value"))
        if value is None:
            continue
        key = (name, tuple(sorted(labels)))
        if key in seen:
            lint.fail(line_no, "duplicate sample for %s%s"
                      % (name, dict(labels) or ""))
        seen.add(key)
        samples += 1
        if ftype == "counter":
            counters[key] = value

        label_map = dict(labels)
        if ftype == "summary" and name == fam and "quantile" in label_map:
            try:
                q = float(label_map["quantile"])
            except ValueError:
                lint.fail(line_no, "quantile '%s' is not a number"
                          % label_map["quantile"])
                continue
            if not 0.0 <= q <= 1.0:
                lint.fail(line_no, "quantile %g outside [0, 1]" % q)
            summary_quants.setdefault(fam, []).append((line_no, q, value))
        elif ftype == "histogram" and name.endswith("_bucket"):
            le = label_map.get("le")
            if le is None:
                lint.fail(line_no, "_bucket sample without an le label")
                continue
            bound = math.inf if le == "+Inf" else None
            if bound is None:
                try:
                    bound = float(le)
                except ValueError:
                    lint.fail(line_no, "le '%s' is not a number" % le)
                    continue
            hist_buckets.setdefault(fam, []).append((line_no, bound, value))
        elif ftype == "histogram" and name == fam + "_count":
            hist_counts[fam] = (line_no, value)
        elif value is not None and math.isnan(value):
            lint.fail(line_no, "NaN outside a summary quantile")

    # --- post-pass: ordering within families ---------------------------
    for fam, quants in summary_quants.items():
        quants.sort(key=lambda t: t[1])
        prev = None
        for line_no, q, v in quants:
            if math.isnan(v):
                continue
            if prev is not None and v < prev:
                lint.fail(line_no, "summary '%s' quantile %g value %g "
                          "drops below the previous quantile's %g"
                          % (fam, q, v, prev))
            prev = v
    for fam, buckets in hist_buckets.items():
        buckets.sort(key=lambda t: t[1])
        prev = None
        for line_no, bound, v in buckets:
            if prev is not None and v < prev:
                lint.fail(line_no, "histogram '%s' bucket le=%g count %g "
                          "is not cumulative" % (fam, bound, v))
            prev = v
        if not buckets or not math.isinf(buckets[-1][1]):
            lint.fail(buckets[-1][0] if buckets else 0,
                      "histogram '%s' has no +Inf bucket" % fam)
        elif fam in hist_counts and buckets[-1][2] != hist_counts[fam][1]:
            lint.fail(hist_counts[fam][0],
                      "histogram '%s' +Inf bucket %g != _count %g"
                      % (fam, buckets[-1][2], hist_counts[fam][1]))

    if samples < min_samples:
        lint.fail(0, "only %d samples, need at least %d"
                  % (samples, min_samples))

    if lint.status == 0:
        print("validate_exposition: OK: %d samples across %d families"
              % (samples, len(typed)))
    return lint.status, counters


def scrape(addr):
    with urllib.request.urlopen("http://%s/metrics" % addr, timeout=10) as r:
        return r.read().decode()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("exposition", nargs="?",
                    help="metrics text file, or '-' for stdin")
    ap.add_argument("--scrape", metavar="HOST:PORT",
                    help="scrape GET /metrics from this admin plane instead")
    ap.add_argument("--min-samples", type=int, default=1,
                    help="require at least N samples (default 1)")
    args = ap.parse_args()
    if (args.exposition is None) == (args.scrape is None):
        ap.error("give exactly one of an exposition file and --scrape")

    try:
        if args.scrape:
            texts = []
            for i in range(SCRAPES):
                if i:
                    time.sleep(SCRAPE_INTERVAL_S)
                texts.append(scrape(args.scrape))
        elif args.exposition == "-":
            texts = [sys.stdin.read()]
        else:
            with open(args.exposition) as f:
                texts = [f.read()]
    except OSError as e:
        print("validate_exposition: error: %s" % e, file=sys.stderr)
        return 2

    status = 0
    previous = None
    for i, text in enumerate(texts):
        lint_status, counters = lint_exposition(text, args.min_samples)
        status = max(status, lint_status)
        for key, value in counters.items():
            before = previous.get(key) if previous else None
            if before is not None and value < before:
                print("validate_exposition: FAIL: scrape %d: counter %s%s "
                      "went down from %g to %g; type it as a gauge"
                      % (i + 1, key[0], dict(key[1]) or "", before, value),
                      file=sys.stderr)
                status = 1
        previous = counters
    return status


if __name__ == "__main__":
    sys.exit(main())
