#!/usr/bin/env python3
"""Tests of scripts/differential.py with stub compilers.

No compiler runs: each stub is a shell script that prints its arguments
(minus the cache directory) as its "plan" and a cache-stats line. A stub
owns the cache directories it fills; a stub of another cache format
replaying such a directory reports a miss. The cases check that an
identical pair passes, that a one-byte difference in one configuration
fails and is named, that a change which cannot replay the parent's cache
fails at the replay step, that the uncached runs compile with --jobs 1 and
the cached ones with --jobs 4, and that a missing executable is a usage
error.

Run: python3 scripts/test_differential.py
"""

import contextlib
import io
import os
import stat
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import differential  # noqa: E402

STUB = r"""#!/bin/sh
format=%(format)s
[ -n "$STUB_ARGS_LOG" ] && echo "$@" >> "$STUB_ARGS_LOG"
dir=
out=
for a in "$@"; do
  case "$a" in
    --cache=*) dir="${a#--cache=}" ;;
    *) out="$out $a" ;;
  esac
done
case "$out" in
  %(planted)s) echo "plan:$out." ;;
  *) echo "plan:$out" ;;
esac
if [ -n "$dir" ]; then
  mkdir -p "$dir"
  [ -f "$dir/format" ] || echo "$format" > "$dir/format"
  if [ "$(cat "$dir/format")" = "$format" ]; then
    echo "cache: misses=0" >&2
  else
    echo "cache: misses=1" >&2
  fi
fi
exit 0
"""

# Matches no configuration.
NOWHERE = "never"
# The uncached run of one configuration.
ONE_CONFIG = ("*--strategy=nored\\ --fuse\\ --synth=2000\\ --jobs\\ 1\\ "
              "--stats\\ --verify\\ --lint\\ --dump-decisions")


class DifferentialTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def stub(self, name, fmt="1", planted=NOWHERE):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            f.write(STUB % {"format": fmt, "planted": planted})
        os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
        return path

    def run_main(self, *argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(out):
            code = differential.main(list(argv))
        return code, out.getvalue()

    def test_identical_pair_passes(self):
        code, out = self.run_main(self.stub("parent"), self.stub("change"))
        self.assertEqual(code, 0, out)
        self.assertIn("100 configurations", out)

    def test_extra_inputs_join_the_corpus(self):
        extra = os.path.join(self.tmp.name, "extra.hpf")
        open(extra, "w").close()
        code, out = self.run_main(self.stub("parent"), self.stub("change"),
                                  extra)
        self.assertEqual(code, 0, out)
        self.assertIn("120 configurations", out)

    def test_one_byte_difference_fails_and_is_named(self):
        code, out = self.run_main(self.stub("parent"),
                                  self.stub("change", planted=ONE_CONFIG))
        self.assertEqual(code, 1, out)
        self.assertIn("--strategy=nored --fuse --synth=2000: uncached run: "
                      "stdout differs at line 1", out)

    def test_change_that_cannot_replay_the_parent_cache_fails(self):
        code, out = self.run_main(self.stub("parent"),
                                  self.stub("change", fmt="2"))
        self.assertEqual(code, 1, out)
        self.assertIn("--strategy=orig examples/*.hpf: change replaying "
                      "the parent's cache: stderr differs at line 1", out)

    def test_uncached_runs_are_serial_and_cached_runs_fan_out(self):
        log = os.path.join(self.tmp.name, "args.log")
        os.environ["STUB_ARGS_LOG"] = log
        self.addCleanup(os.environ.pop, "STUB_ARGS_LOG")
        code, out = self.run_main(self.stub("parent"), self.stub("change"))
        self.assertEqual(code, 0, out)
        with open(log) as f:
            runs = [args.split() for args in f.read().splitlines()]
        self.assertEqual(len(runs), 100 * 7)
        uncached = [args for args in runs
                    if not any(a.startswith("--cache=") for a in args)]
        self.assertEqual(len(uncached), 100 * 2)
        for args in runs:
            jobs = args[args.index("--jobs") + 1]
            self.assertEqual(jobs, "1" if args in uncached else "4", args)

    def test_missing_executable_is_a_usage_error(self):
        code, out = self.run_main(self.stub("parent"),
                                  os.path.join(self.tmp.name, "missing"))
        self.assertEqual(code, 2, out)


if __name__ == "__main__":
    unittest.main()
