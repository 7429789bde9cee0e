#!/usr/bin/env bash
# ncpm_cli exit-code / usage contract: every subcommand exits 2 and prints a
# one-line "usage: ncpm_cli ..." to stderr on bad arguments; well-formed
# invocations exit 0 (or 1 for "no popular matching"). Wired into CTest as
# ncpm_cli_usage; $NCPM_CLI points at the built binary.
set -u

CLI="${NCPM_CLI:?set NCPM_CLI to the ncpm_cli binary}"
failures=0

# expect_usage <description> -- <args...>
# bad arguments: exit 2, exactly one stderr line, starting "usage: ncpm_cli".
expect_usage() {
  local desc="$1"; shift; shift  # drop desc and "--"
  local err rc
  err=$("$CLI" "$@" </dev/null 2>&1 >/dev/null)
  rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "FAIL [$desc]: exit $rc, want 2 (args: $*)"; failures=$((failures+1)); return
  fi
  if [ "$(printf '%s\n' "$err" | wc -l)" -ne 1 ]; then
    echo "FAIL [$desc]: stderr not one line: $err"; failures=$((failures+1)); return
  fi
  case "$err" in
    "usage: ncpm_cli "*) ;;
    *) echo "FAIL [$desc]: stderr is not a usage line: $err"; failures=$((failures+1)); return ;;
  esac
  echo "ok   [$desc]"
}

# expect_exit <want_rc> <description> -- <args...>
expect_exit() {
  local want="$1" desc="$2"; shift 3
  "$CLI" "$@" >/dev/null 2>&1 </dev/null
  local rc=$?
  if [ "$rc" -ne "$want" ]; then
    echo "FAIL [$desc]: exit $rc, want $want (args: $*)"; failures=$((failures+1)); return
  fi
  echo "ok   [$desc]"
}

expect_usage "no arguments"            --
expect_usage "unknown subcommand"      -- frobnicate
expect_usage "unknown flag"            -- solve --bogus
expect_usage "solve two positionals"   -- solve a.txt b.txt
expect_usage "solve --threads junk"    -- solve --threads banana
expect_usage "solve --threads 0"       -- solve --threads 0
expect_usage "solve --threads missing" -- solve --threads
expect_usage "batch no file"           -- batch
expect_usage "batch two files"         -- batch a.bin b.bin
expect_usage "pack no inputs"          -- pack out.bin
expect_usage "rotations two files"     -- rotations a.txt b.txt
expect_usage "gen-popular argc"        -- gen-popular 5 5
expect_usage "gen-popular junk"        -- gen-popular five 5 1
expect_usage "gen-popular zero"        -- gen-popular 0 5 1
expect_usage "gen-stable argc"         -- gen-stable
expect_usage "gen-stable junk"         -- gen-stable five 1
expect_usage "gen-batch argc"          -- gen-batch 3 5 5 1
expect_usage "gen-batch junk"          -- gen-batch three 5 5 1 out.bin
expect_usage "serve positional"        -- serve extra
expect_usage "serve bad port"          -- serve --port 99999
expect_usage "serve bad workers"       -- serve --workers 0
expect_usage "serve retired core flag" -- serve --core epoll
expect_usage "serve bad idle timeout"  -- serve --idle-timeout-ms nope
expect_usage "serve bad hello timeout" -- serve --hello-timeout-ms nope
expect_usage "serve bad global cap"    -- serve --max-in-flight-global nope
expect_usage "serve global cap missing" -- serve --max-in-flight-global
expect_usage "serve bad metrics port"  -- serve --metrics-port 99999
expect_usage "serve metrics port junk" -- serve --metrics-port nope
expect_usage "serve metrics port missing" -- serve --metrics-port
expect_usage "serve bad trace sample"  -- serve --trace-sample-n 0
expect_usage "serve trace sample junk" -- serve --trace-sample-n nope
expect_usage "rpc no args"             -- rpc
expect_usage "rpc missing mode"        -- rpc localhost:7447
expect_usage "rpc bad hostport"        -- rpc localhost seven solve
expect_usage "rpc bad port"            -- rpc localhost:0 solve
expect_usage "rpc bad mode"            -- rpc localhost:7447 frobnicate
expect_usage "rpc next-stable"         -- rpc localhost:7447 next-stable
expect_usage "rpc bad deadline"        -- rpc localhost:7447 solve --deadline-ms nope
expect_usage "rpc bad retries"         -- rpc localhost:7447 solve --retries nope
expect_usage "rpc bad backoff"         -- rpc localhost:7447 solve --backoff-ms 0
expect_usage "rpc retired hedge flag"  -- rpc localhost:7447 solve --hedge-ms 5
expect_usage "rpc retries missing"     -- rpc localhost:7447 solve --retries
expect_usage "stats no args"           -- stats
expect_usage "stats two positionals"   -- stats a:1 b:2
expect_usage "stats bad hostport"      -- stats localhost
expect_usage "stats bad port"          -- stats localhost:0
expect_usage "stats bad watch"         -- stats localhost:7447 --watch 0
expect_usage "stats watch junk"        -- stats localhost:7447 --watch nope
expect_usage "stats bad format"        -- stats localhost:7447 --format xml
expect_usage "stats format missing"    -- stats localhost:7447 --format
expect_usage "stats traces need json"  -- stats localhost:7447 --traces
expect_usage "top no args"             -- top
expect_usage "top two positionals"     -- top a:1 b:2
expect_usage "top bad hostport"        -- top localhost
expect_usage "top bad port"            -- top localhost:0
expect_usage "top bad interval"        -- top localhost:7447 --interval 0
expect_usage "top interval junk"       -- top localhost:7447 --interval nope
expect_usage "top bad count"           -- top localhost:7447 --count 0
expect_usage "top count missing"       -- top localhost:7447 --count
expect_usage "serve bad slow bound"    -- serve --slow-request-ms 0
expect_usage "serve slow bound junk"   -- serve --slow-request-ms nope
expect_usage "serve slow bound missing" -- serve --slow-request-ms

expect_exit 0 "help exits 0"           -- help
expect_exit 2 "missing input file"     -- solve /nonexistent/instance.txt
expect_exit 2 "batch missing file"     -- batch /nonexistent/batch.bin
expect_exit 2 "rpc connection refused" -- rpc 127.0.0.1:1 solve  # port 1: nothing listens
expect_exit 2 "stats connection refused" -- stats 127.0.0.1:1
expect_exit 2 "top connection refused" -- top 127.0.0.1:1 --count 1

# End-to-end sanity: generated instance solves with exit 0 through a pipe.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
if ! "$CLI" gen-popular 6 6 1 > "$tmp/inst.txt" 2>/dev/null; then
  echo "FAIL [gen-popular happy path]"; failures=$((failures+1))
fi
expect_exit 0 "solve happy path"       -- solve "$tmp/inst.txt"
expect_exit 0 "check happy path"       -- check "$tmp/inst.txt"
expect_usage "solve retired pin-lanes flag" -- solve "$tmp/inst.txt" --pin-lanes 0

# A saturated count prints as a lower bound. 65 independent components,
# each two applicants ranking the same two posts (x y), hold 2 popular
# matchings apiece: 2^65 saturates the u64 count.
{
  echo "ncpm-instance v1"
  echo "applicants 130 posts 130 last_resorts 1"
  for c in $(seq 0 64); do
    echo "$((2*c)): $((2*c)) $((2*c+1))"
    echo "$((2*c+1)): $((2*c)) $((2*c+1))"
  done
} > "$tmp/saturated.txt"
saturated=">= 18446744073709551615 (saturated)"
# expect_stdout <description> <want> -- <args...>
expect_stdout() {
  local desc="$1" want="$2"; shift 3
  local out
  out=$("$CLI" "$@" 2>/dev/null </dev/null)
  if [ "$out" != "$want" ]; then
    echo "FAIL [$desc]: stdout '$out', want '$want'"; failures=$((failures+1)); return
  fi
  echo "ok   [$desc]"
}
expect_stdout "count saturated" "$saturated" -- count "$tmp/saturated.txt"
expect_stdout "check saturated" "$(printf 'applicants 130 posts 130 strict\nadmits_popular yes\nsize 130\npopular_matchings %s' "$saturated")" \
  -- check "$tmp/saturated.txt"
if "$CLI" pack "$tmp/saturated.bin" "$tmp/saturated.txt" >/dev/null 2>&1; then
  expect_stdout "batch count saturated" "[0] ok count $saturated" \
    -- batch "$tmp/saturated.bin" --mode count
else
  echo "FAIL [pack saturated instance]"; failures=$((failures+1))
fi
# Below the sentinel the count stays exact: 63 components give 2^63.
head -n $((2 + 2*63)) "$tmp/saturated.txt" | sed 's/^applicants 130 posts 130/applicants 126 posts 126/' \
  > "$tmp/exact.txt"
expect_stdout "count exact below saturation" "9223372036854775808" -- count "$tmp/exact.txt"

# NCPM_SIMD=sse2 names a retired tier, so it is an unknown value: exit 0,
# one NCPM_SIMD warning.
err=$(NCPM_SIMD=sse2 "$CLI" solve "$tmp/inst.txt" 2>&1 >/dev/null </dev/null)
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL [solve under NCPM_SIMD=sse2]: exit $rc, want 0"; failures=$((failures+1))
elif [ "$(printf '%s\n' "$err" | grep -c NCPM_SIMD)" -ne 1 ]; then
  echo "FAIL [solve under NCPM_SIMD=sse2]: want one NCPM_SIMD line, got: $err"
  failures=$((failures+1))
else
  echo "ok   [solve under NCPM_SIMD=sse2]"
fi

if [ "$failures" -ne 0 ]; then
  echo "$failures failure(s)"
  exit 1
fi
echo "all usage checks passed"
