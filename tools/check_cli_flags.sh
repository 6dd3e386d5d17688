#!/bin/sh
# check_cli_flags.sh <termcheck-binary> <corpus-dir>
#
# Numeric-flag validation audit: every malformed value for --timeout,
# --jobs, --max-states, and --portfolio must be rejected with exit code 4
# and a structured diagnostic naming the flag, never silently parsed as
# zero (the old atof/atol behavior turned "--timeout 1O" into an instant
# timeout). Well-formed values must still be accepted. The enumerated
# flag --complement gets the same structured rejection, and --emptiness,
# which the CLI does not have, must be an unknown-option usage error
# (exit 4) whatever value follows it.
#
# Machine-readable output on stdout (--stats-json -, --trace -) must leave
# stdout parseable: the human-readable lines then go to stderr. These
# checks need jq.
set -u

if [ $# -ne 2 ]; then
  echo "usage: $0 <termcheck-binary> <corpus-dir>" >&2
  exit 4
fi
BIN=$1
CORPUS=$2
PROG=$CORPUS/up_down.while
[ -x "$BIN" ] || { echo "error: $BIN is not executable" >&2; exit 4; }
[ -f "$PROG" ] || { echo "error: $PROG not found" >&2; exit 4; }

FAIL=0

# expect_reject <flag> <value>: exit must be 4 and stderr must name the flag.
expect_reject() {
  FLAG=$1
  VAL=$2
  ERR=$("$BIN" "$FLAG" "$VAL" "$PROG" 2>&1 >/dev/null)
  RC=$?
  if [ "$RC" -ne 4 ]; then
    echo "FAIL $FLAG '$VAL': exit $RC, expected 4" >&2
    FAIL=1
  elif ! printf '%s' "$ERR" | grep -q -- "$FLAG"; then
    echo "FAIL $FLAG '$VAL': diagnostic does not name the flag: $ERR" >&2
    FAIL=1
  else
    echo "ok   reject $FLAG '$VAL'"
  fi
}

# expect_unknown <flag> [value]: a flag the CLI does not have must exit 4
# with an unknown-option diagnostic naming it, whatever value follows.
expect_unknown() {
  FLAG=$1
  ERR=$("$BIN" "$@" "$PROG" 2>&1 >/dev/null)
  RC=$?
  if [ "$RC" -ne 4 ]; then
    echo "FAIL $*: exit $RC, expected 4" >&2
    FAIL=1
  elif ! printf '%s' "$ERR" | grep -q -- "unknown option '$FLAG'"; then
    echo "FAIL $*: not an unknown-option diagnostic: $ERR" >&2
    FAIL=1
  else
    echo "ok   unknown $*"
  fi
}

# expect_accept <flag> <value>: a valid value must not be a usage error.
expect_accept() {
  FLAG=$1
  VAL=$2
  "$BIN" --quiet "$FLAG" "$VAL" "$PROG" >/dev/null 2>&1
  RC=$?
  if [ "$RC" -ge 4 ]; then
    echo "FAIL $FLAG '$VAL': exit $RC on a valid value" >&2
    FAIL=1
  else
    echo "ok   accept $FLAG '$VAL' (exit $RC)"
  fi
}

for FLAG in --timeout --jobs --max-states --portfolio; do
  expect_reject "$FLAG" abc
  expect_reject "$FLAG" ""
  expect_reject "$FLAG" -5
  expect_reject "$FLAG" 10x
  expect_reject "$FLAG" 99999999999999999999999999
done
# Zero is valid for --timeout (no budget) and --max-states (unlimited) but
# not for the two count flags.
expect_reject --jobs 0
expect_reject --portfolio 0
# NaN/inf must not sneak through strtod.
expect_reject --timeout nan
expect_reject --timeout inf

expect_accept --timeout 30
expect_accept --timeout 0.5
expect_accept --max-states 0
expect_accept --max-states 100000
expect_accept --jobs 1
expect_accept --portfolio 2

# --complement is enumerated, not numeric, but gets the same structured
# rejection: a typo must be exit 4 naming the flag, never a silent default.
expect_reject --complement bogus
expect_reject --complement ""
expect_accept --complement auto
expect_accept --complement modular
# --emptiness is gone: the Couvreur pass is reachable only through the
# portfolio roster, so every former value is an unknown-option error.
expect_unknown --emptiness
expect_unknown --emptiness bogus
expect_unknown --emptiness auto
expect_unknown --emptiness gaiser_schwoon
expect_unknown --emptiness couvreur

if ! command -v jq >/dev/null 2>&1; then
  echo "FAIL stdout checks need jq on PATH" >&2
  exit 1
fi

# expect_json_stdout <jq-filter> <flags...>: stdout must satisfy the filter
# (slurped, so a JSONL stream is one array) and stderr must carry the
# verdict line, with and without --quiet.
expect_json_stdout() {
  FILTER=$1
  shift
  for QUIET in "" --quiet; do
    ERR=$("$BIN" $QUIET "$@" "$PROG" 2>&1 >/dev/null)
    if ! "$BIN" $QUIET "$@" "$PROG" 2>/dev/null | jq -e -s "$FILTER" \
         >/dev/null; then
      echo "FAIL $* $QUIET: stdout fails jq -s '$FILTER'" >&2
      FAIL=1
    elif ! printf '%s' "$ERR" | grep -q ': TERMINATING$'; then
      echo "FAIL $* $QUIET: verdict line not on stderr: $ERR" >&2
      FAIL=1
    else
      echo "ok   stdout is JSON for $* $QUIET"
    fi
  done
}

expect_json_stdout 'length == 1 and .[0].schema == "termcheck-run-report"' \
  --stats-json -
expect_json_stdout 'length > 0 and all(.[]; type == "object")' --trace -

exit $FAIL
