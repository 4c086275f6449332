#!/bin/sh
# leedsim must reject a malformed, out-of-range or removed flag as a usage
# error: exit status exactly 2, before any simulation runs. The small --keys and
# --duration-ms bound the run should a bad value ever be accepted.
#
# usage: leedsim_flags_test.sh path/to/leedsim
leedsim="$1"
status=0
expect_usage_error() {
  "$leedsim" "$@" >/dev/null 2>&1
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL: leedsim $* exited $rc, want 2"
    status=1
  else
    echo "ok: leedsim $* exited 2"
  fi
}
expect_usage_error --jobs=abc --check=linearizability --seeds=1
expect_usage_error --nodes=3x --keys=100 --duration-ms=1
expect_usage_error --keys=0 --duration-ms=1
expect_usage_error --seeds=0 --check=linearizability
expect_usage_error --sharded --keys=100 --duration-ms=1
exit $status
